"""Deterministic parallel execution of independent simulation cells.

:class:`CellExecutor` takes a list of :class:`~repro.exec.spec.CellSpec`
and returns their :class:`~repro.runtime.metrics.EngineResult` in
**submission order**, regardless of worker count:

- ``jobs=1`` (the default) executes inline, sequentially, in this
  process: each cell builds its engine and runs it, with no pool, no
  pickling and no serialization overhead. This is the one path every
  multi-cell caller (sweeps, autotuner, goldens, ``compare``/``sweep``)
  takes when no ``--jobs``/``--cache`` is asked for;
- ``jobs=N`` fans the cells over a ``ProcessPoolExecutor`` and collects
  results positionally. Each cell is a pure function of its spec (any
  child seeds are derived via ``spawn_rng`` from the cell's own
  identity), so the merged output is bit-identical to the serial run.

A cache (:class:`~repro.exec.cache.ResultCache`) short-circuits cells
before any fan-out; only misses are simulated, and fresh results are
written back.

Hooked cells (a spec whose options carry a schedule trace, telemetry
hub, tracer or sanitizer) run only inline and uncached: a hook observes
this process's run, so its observations cannot come back from a worker
or a cache entry. Pooling or caching a hooked spec raises
:class:`~repro.errors.ConfigurationError` before any cell runs.

Exceptions inside a worker are serialized as (type name, message,
traceback text) — engine exceptions can hold unpicklable state — and
re-raised here as :class:`CellExecutionError` with the failing spec
attached.
"""

from __future__ import annotations

import resource
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.exec.cache import ResultCache
from repro.exec.spec import CellSpec
from repro.runtime.metrics import EngineResult


class CellExecutionError(ReproError):
    """A cell failed in a worker process; carries the failing spec and
    the child's traceback text."""

    def __init__(
        self, spec: CellSpec, exc_type: str, message: str, child_traceback: str
    ) -> None:
        self.spec = spec
        self.exc_type = exc_type
        self.child_traceback = child_traceback
        super().__init__(
            f"cell failed in worker: {exc_type}: {message}\n"
            f"  cell: {spec.describe()}\n"
            f"  child traceback:\n{child_traceback}"
        )


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-served) cell.

    ``peak_rss_mb`` is the executing process's high-water RSS after the
    cell ran: the worker's for pooled cells (workers are reused, so it is
    a pool-lifetime high-water mark, the right number for "how much
    memory does --jobs N need"), this process's for inline cells, and
    0.0 for cache hits (nothing was simulated).
    """

    spec: CellSpec
    result: EngineResult
    cached: bool
    peak_rss_mb: float


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cell_worker(spec: CellSpec) -> tuple:
    """Module-level worker entry point (picklable by the pool).

    Exceptions are returned as data, not raised: engine errors can hold
    references to unpicklable runtime state, and a raise would surface in
    the parent as an opaque ``BrokenProcessPool``.
    """
    try:
        result = spec.execute()
    except Exception as exc:
        return ("err", type(exc).__name__, str(exc), traceback.format_exc())
    return ("ok", result, _self_rss_mb())


class CellExecutor:
    """Runs cells inline (``jobs=1``) or across a process pool, with an
    optional content-addressed result cache in front."""

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1 (got {jobs})")
        self.jobs = jobs
        self.cache = cache

    def run(self, specs: Iterable[CellSpec]) -> list[EngineResult]:
        """Results in submission order (the common calling convention)."""
        return [o.result for o in self.run_outcomes(specs)]

    def run_outcomes(self, specs: Iterable[CellSpec]) -> list[CellOutcome]:
        specs = list(specs)
        if self.jobs > 1 or self.cache is not None:
            for spec in specs:
                if spec.hooks:
                    raise ConfigurationError(
                        f"cell {spec.describe()} carries process-local "
                        f"hook(s) {', '.join(spec.hooks)}: hooked cells run "
                        "inline only (jobs=1, no result cache)"
                    )
        outcomes: list[CellOutcome | None] = [None] * len(specs)
        misses: list[int] = []
        for i, spec in enumerate(specs):
            if self.cache is not None:
                result = self.cache.get(spec)
                if result is not None:
                    outcomes[i] = CellOutcome(spec, result, True, 0.0)
                    continue
            misses.append(i)
        if misses:
            if self.jobs == 1:
                for i in misses:
                    result = specs[i].execute()
                    outcomes[i] = CellOutcome(specs[i], result, False, _self_rss_mb())
            else:
                self._run_pooled(specs, misses, outcomes)
            if self.cache is not None:
                for i in misses:
                    outcome = outcomes[i]
                    assert outcome is not None
                    self.cache.put(specs[i], outcome.result)
        done = [o for o in outcomes if o is not None]
        assert len(done) == len(specs)
        return done

    def _run_pooled(
        self,
        specs: Sequence[CellSpec],
        misses: Sequence[int],
        outcomes: list[CellOutcome | None],
    ) -> None:
        workers = min(self.jobs, len(misses))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell_worker, specs[i]) for i in misses]
            # Collect positionally, not as-completed: submission order is
            # the determinism contract, and a deterministic failure order
            # (the first failing cell by submission index) falls out free.
            for i, future in zip(misses, futures, strict=True):
                payload = future.result()
                if payload[0] == "err":
                    _, exc_type, message, tb = payload
                    raise CellExecutionError(specs[i], exc_type, message, tb)
                _, result, rss_mb = payload
                outcomes[i] = CellOutcome(specs[i], result, False, rss_mb)
