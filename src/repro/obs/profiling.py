"""Opt-in profiling: a cProfile capture rendered beside a stage table.

The ``--profile`` CLI flag wraps a whole command in a
:class:`ProfileSession`.  Its report has two views:

* **stages** — spans are the one stage timer.  :class:`repro.obs.ObsSession`
  traces a profiled command and hands :meth:`ProfileSession.render` the
  :func:`repro.obs.summarize_spans` rows of its spans (the table
  ``beaconplace obs`` prints), shown with each stage's share of wall time.
* **cProfile** — the top functions by cumulative time, for when the
  stage view points somewhere surprising.

Profiling is strictly opt-in and never on during tier-1 runs, so its
(considerable) interpreter overhead is irrelevant to the <3% off-mode
budget enforced by ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

__all__ = ["ProfileSession"]


class ProfileSession:
    """One profiled command: a cProfile capture and its wall-clock total.

    Bracket the command with :meth:`start`/:meth:`stop`, then :meth:`render`.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self._t0: float | None = None
        self.wall_seconds = 0.0

    def start(self) -> None:
        """Begin profiling (idempotent)."""
        if self._t0 is None:
            self._t0 = time.perf_counter()
            self._profile.enable()

    def stop(self) -> None:
        """Stop profiling and freeze the wall-clock total (idempotent)."""
        if self._t0 is not None:
            self._profile.disable()
            self.wall_seconds += time.perf_counter() - self._t0
            self._t0 = None

    def render(self, stages=(), *, top: int = 15) -> str:
        """The full report: the stage table, then the top cProfile functions.

        Args:
            stages: ``(name, count, total s, mean s, max s)`` rows, as
                :func:`repro.obs.summarize_spans` returns them.
            top: cProfile functions to list.
        """
        from ..viz import format_table

        lines = [f"profiled wall time: {self.wall_seconds:.3f} s"]
        if stages:
            wall = self.wall_seconds or 1.0
            rows = [
                (name, count, f"{total:.3f}", f"{mean * 1e3:.2f}", f"{total / wall:.1%}")
                for name, count, total, mean, _ in stages
            ]
            lines.append("")
            lines.append(
                format_table(
                    ("stage", "count", "total (s)", "mean (ms)", "share"), rows
                )
            )
        stream = io.StringIO()
        stats = pstats.Stats(self._profile, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
        lines.append("")
        lines.append(f"top {top} functions by cumulative time (cProfile):")
        lines.append(stream.getvalue().rstrip())
        return "\n".join(lines)
