"""Unit tests for GreedyKPlacement and the engine-refined Max/Grid variants."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.placement import GreedyKPlacement, GridPlacement, MaxPlacement
from repro.sim import build_world
from repro.sim.incremental import FieldState


@pytest.fixture
def small_state(small_world):
    return FieldState.from_world(small_world)


class TestGreedyKPlacement:
    def test_name_and_requires_world(self):
        alg = GreedyKPlacement()
        assert alg.name == "greedy-k"
        assert alg.requires_world

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="k must be"):
            GreedyKPlacement(k=0)
        with pytest.raises(ValueError, match="subsample must be"):
            GreedyKPlacement(subsample=0)

    def test_propose_without_world_raises(self, small_world, rng):
        survey = small_world.survey()
        with pytest.raises(ValueError, match="requires the trial world"):
            GreedyKPlacement().propose(survey, rng)

    def test_pick_is_scan_argmin(self, small_state, rng):
        survey = small_state.survey()
        alg = GreedyKPlacement(subsample=4)
        pick = alg.propose(survey, rng, small_state)
        candidates = survey.points[::4]
        means = small_state.scan_add_candidates(candidates)
        best = int(np.nanargmin(means))
        assert pick == Point(*candidates[best])

    def test_plan_places_k_sequentially(self, small_state, rng):
        alg = GreedyKPlacement(k=3, subsample=6)
        picks = alg.plan(small_state.survey(), rng, small_state)
        assert len(picks) == 3
        # Each pick is conditioned on the previous ones: replaying the plan
        # through the engine must reproduce the same argmin at every round.
        state = small_state
        for pick in picks:
            candidates = alg._candidate_set(state.survey())
            means = state.scan_add_candidates(candidates)
            assert pick == Point(*candidates[int(np.nanargmin(means))])
            state = state.with_beacon(pick)

    def test_each_round_improves_mean(self, small_state, rng):
        picks = GreedyKPlacement(k=2, subsample=6).plan(
            small_state.survey(), rng, small_state
        )
        state = small_state
        mean = state.base_stats()[0]
        for pick in picks:
            state = state.with_beacon(pick)
            after = state.base_stats()[0]
            assert after <= mean
            mean = after

    def test_beats_or_matches_max_single_pick(self, small_world, rng):
        """The exhaustive scan can't do worse than Max's survey argmax."""
        survey = small_world.survey()
        state = FieldState.from_world(small_world)
        greedy_pick = GreedyKPlacement().propose(survey, rng, state)
        max_pick = MaxPlacement().propose(survey, rng)
        greedy_mean = float(np.nanmean(state.errors_with_candidate(greedy_pick)))
        max_mean = float(np.nanmean(state.errors_with_candidate(max_pick)))
        assert greedy_mean <= max_mean

    def test_deterministic_across_rng(self, small_state):
        survey = small_state.survey()
        alg = GreedyKPlacement(k=2, subsample=6)
        a = alg.plan(survey, np.random.default_rng(1), small_state)
        b = alg.plan(survey, np.random.default_rng(2), small_state)
        assert a == b

    def test_accepts_plain_trialworld(self, small_world, rng):
        survey = small_world.survey()
        alg = GreedyKPlacement(subsample=8)
        via_world = alg.propose(survey, rng, small_world)
        via_state = alg.propose(survey, rng, FieldState.from_world(small_world))
        assert via_world == via_state

    def test_explicit_candidates(self, small_state, rng):
        candidates = np.array([[3.0, 3.0], [30.0, 30.0], [57.0, 57.0]])
        alg = GreedyKPlacement(candidates=candidates)
        pick = alg.propose(small_state.survey(), rng, small_state)
        assert any(pick == Point(*c) for c in candidates)

    def test_empty_candidate_set_raises(self, small_state, rng):
        alg = GreedyKPlacement(candidates=np.empty((0, 2)))
        with pytest.raises(ValueError, match="no candidate positions"):
            alg.propose(small_state.survey(), rng, small_state)


class TestRefinedMaxPlacement:
    def test_refine_k_validation(self):
        with pytest.raises(ValueError, match="refine_k"):
            MaxPlacement(refine_k=0)

    def test_default_is_unrefined_classic(self, small_world, rng):
        survey = small_world.survey()
        alg = MaxPlacement()
        assert not alg.requires_world
        assert alg.propose(survey, rng) == small_world.error_surface().argmax_point()

    def test_top_candidates_are_descending_by_error(self, small_world):
        survey = small_world.survey()
        top = MaxPlacement().top_candidates(survey, 5)
        errors = [
            survey.errors[np.flatnonzero((survey.points == p).all(axis=1))[0]]
            for p in top
        ]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_refined_pick_comes_from_top_k(self, small_world, rng):
        survey = small_world.survey()
        alg = MaxPlacement(refine_k=8)
        assert alg.requires_world
        pick = alg.propose(survey, rng, small_world)
        top = MaxPlacement().top_candidates(survey, 8)
        assert any(pick == Point(*c) for c in top)

    def test_refined_pick_no_worse_than_classic(self, small_world, rng):
        survey = small_world.survey()
        state = FieldState.from_world(small_world)
        classic = MaxPlacement().propose(survey, rng)
        refined = MaxPlacement(refine_k=8).propose(survey, rng, small_world)
        classic_mean = float(np.nanmean(state.errors_with_candidate(classic)))
        refined_mean = float(np.nanmean(state.errors_with_candidate(refined)))
        assert refined_mean <= classic_mean


class TestRefinedGridPlacement:
    def test_default_is_unrefined_classic(self, small_world, small_layout, rng):
        survey = small_world.survey()
        classic = GridPlacement(small_layout)
        assert not classic.requires_world
        scores = classic.cumulative_errors(survey)
        winner = int(np.argmax(scores))
        assert classic.propose(survey, rng) == Point(
            *small_layout.centers()[winner]
        )

    def test_refined_pick_comes_from_top_centers(
        self, small_world, small_layout, rng
    ):
        survey = small_world.survey()
        alg = GridPlacement(small_layout, refine_k=6)
        assert alg.requires_world
        pick = alg.propose(survey, rng, small_world)
        top = alg.top_candidates(survey, 6)
        assert any(pick == Point(*c) for c in top)

    def test_refined_pick_no_worse_than_classic(
        self, small_world, small_layout, rng
    ):
        survey = small_world.survey()
        state = FieldState.from_world(small_world)
        classic = GridPlacement(small_layout).propose(survey, rng)
        refined = GridPlacement(small_layout, refine_k=6).propose(
            survey, rng, small_world
        )
        classic_mean = float(np.nanmean(state.errors_with_candidate(classic)))
        refined_mean = float(np.nanmean(state.errors_with_candidate(refined)))
        assert refined_mean <= classic_mean


class TestGreedyInSweep:
    def test_runs_through_placement_trial(self, rng):
        from repro import ExperimentConfig
        from repro.sim import run_placement_trial
        from repro.sim.rng import derive_rng

        config = ExperimentConfig(
            side=30.0,
            radio_range=10.0,
            step=5.0,
            num_grids=16,
            beacon_counts=(6,),
            noise_levels=(0.0,),
            fields_per_density=1,
            seed=5,
        )
        config_world = build_world(config, 0.0, 6, 0)
        outcomes = run_placement_trial(
            config_world,
            [GreedyKPlacement(subsample=3)],
            lambda name: derive_rng(5, "alg", name, 0.0, 6, 0),
        )
        assert outcomes[0].algorithm == "greedy-k"
        assert np.isfinite(outcomes[0].improvement_mean)
