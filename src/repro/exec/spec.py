"""Picklable description of one independent simulation cell.

A :class:`CellSpec` is the unit the parallel executor fans out and the
result cache keys on: everything that determines a simulation's output —
engine kind, model, cluster, parallelism config, scheduler options,
workload, seed — captured as frozen dataclasses that pickle cleanly into
a worker process and serialize canonically into a cache key.

Two constraints shape the design:

- **Purity.** A cell's result is a pure function of its spec. A spec
  holds no process-local hook: telemetry, tracing and the sanitizer are
  a :class:`~repro.engines.base.RunHooks` bundle handed to
  :meth:`CellSpec.execute` (or carried by a
  :class:`~repro.exec.executor.CellExecutor`) for one run, and they
  observe it without changing its result.
- **Canonical form.** ``canonical_json()`` walks the nested frozen
  dataclasses into sorted-key JSON with enums by name and arrival times
  in ``float.hex()`` (decimal round-tripping would alias distinct
  workloads). The workload body is folded into a sha256 digest so a
  million-request spec still canonicalizes in milliseconds and keys
  stay O(1) in size.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cached_property

from repro.engines.base import EngineOptions, RunHooks
from repro.errors import ConfigurationError
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.runtime.metrics import EngineResult
from repro.utils.rng import make_rng, spawn_rng
from repro.workloads.spec import WorkloadSpec

#: Engine kinds a spec can name, mapped from the engines' ``name`` attrs.
ENGINE_KINDS = ("vllm", "decode-prio", "seesaw", "disagg")


def _canonical_value(value: object) -> object:
    """Recursively reduce a spec field to canonical JSON-compatible form."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical_value(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, float):
        # float.hex() round-trips exactly; repr() does too on CPython but
        # hex is unambiguous about it.
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise ConfigurationError(
        f"cannot canonicalize spec field of type {type(value).__name__}: "
        "cell specs must be pure values"
    )


def _compact_json(value: dict) -> str:
    """Sorted-key compact JSON (the preimage every spec digest hashes)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _workload_digest(workload: WorkloadSpec) -> dict:
    """The workload's canonical form: name, count, and a sha256 over both
    and the little-endian bytes of the four request columns (arrival
    times as IEEE doubles — bit-exact)."""
    h = hashlib.sha256(f"{workload.name}\n{workload.num_requests}\n".encode())
    for col in workload.columns:
        h.update(col.astype(col.dtype.newbyteorder("<"), copy=False).tobytes())
    return {
        "name": workload.name,
        "num_requests": workload.num_requests,
        "sha256": h.hexdigest(),
    }


@dataclass(frozen=True)
class CellSpec:
    """One independent simulation cell, picklable and canonically keyed.

    Attributes:
        engine: One of :data:`ENGINE_KINDS`.
        model: Inline model config (inline, not a registry name, so the
            goldens' unregistered tiny model and what-if overrides key
            correctly).
        cluster: Inline cluster spec.
        config: Parallelism label — a static label (``"T4P2"``) for
            vllm/decode-prio, a transition (``"P8->T4P2"``) for seesaw,
            or ``"<prefill>|<decode>"`` (``"T2|T2"``) for disagg.
        options: Scheduler options; seesaw cells must pass a
            :class:`~repro.core.options.SeesawOptions`.
        workload: Inline workload (arrival stamps included).
        seed: Cell seed. Feeds :func:`~repro.utils.rng.spawn_rng` child
            derivation for stochastic knobs left unseeded (po2 routing),
            making them a pure function of the spec — identical inline,
            in a worker, or from cache.
    """

    engine: str
    model: ModelConfig
    cluster: ClusterSpec
    config: str
    options: EngineOptions
    workload: WorkloadSpec
    seed: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_KINDS:
            raise ConfigurationError(
                f"unknown engine kind {self.engine!r}; one of {ENGINE_KINDS}"
            )
        if self.engine == "seesaw":
            if "->" not in self.config:
                raise ConfigurationError(
                    f"seesaw cells need a transition config like 'P8->T4P2', "
                    f"got {self.config!r}"
                )
            from repro.core.options import SeesawOptions

            if not isinstance(self.options, SeesawOptions):
                raise ConfigurationError(
                    "seesaw cells need SeesawOptions (the transition knobs "
                    "are part of the cell's identity)"
                )
        elif self.engine == "disagg":
            if self.config.count("|") != 1:
                raise ConfigurationError(
                    f"a disaggregation plan is '<prefill>|<decode>' like "
                    f"'T2|T2', got {self.config!r}"
                )
        elif "->" in self.config or "|" in self.config:
            raise ConfigurationError(
                f"{self.engine} cells take a static config label, got "
                f"{self.config!r}"
            )

    # ------------------------------------------------------------------ #
    # Canonical serialization
    # ------------------------------------------------------------------ #

    def canonical_dict(self) -> dict:
        return {
            "schema": "repro-cell-v1",
            "engine": self.engine,
            "model": _canonical_value(self.model),
            "cluster": _canonical_value(self.cluster),
            "config": self.config,
            "options": {
                # Class name disambiguates EngineOptions vs SeesawOptions
                # (a SeesawOptions carries extra transition knobs).
                "class": type(self.options).__name__,
                **{
                    f.name: _canonical_value(getattr(self.options, f.name))
                    for f in fields(self.options)
                },
            },
            "workload": _workload_digest(self.workload),
            "seed": self.seed,
        }

    @cached_property
    def _canonical_json(self) -> str:
        return _compact_json(self.canonical_dict())

    def canonical_json(self) -> str:
        """Sorted-key compact JSON — the cache-key preimage."""
        return self._canonical_json

    @cached_property
    def cell_key(self) -> str:
        """Content hash of the canonical form (code salt not included —
        the cache folds that in so a spec's identity survives releases)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def describe(self) -> str:
        """Short human-readable identity for error messages and logs."""
        return (
            f"{self.engine} {self.config} on {self.model.name} / "
            f"{self.cluster.num_gpus}x{self.cluster.gpu.name} x "
            f"{self.workload.name} ({self.workload.num_requests} reqs, "
            f"seed {self.seed})"
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _resolved_options(self) -> EngineOptions:
        """Options with spec-derived child seeds filled in.

        A po2 router left unseeded would fall back to the process-default
        RNG seed; deriving it via ``spawn_rng`` from the cell seed and the
        canonical form keeps it deterministic *and* decorrelated across
        the cells of a sweep, identically at ``--jobs 1`` and ``--jobs N``.
        The options are left out of that key, so adding or dropping an
        options field does not re-route every unseeded po2 cell.
        """
        opts = self.options
        if opts.router == "po2" and opts.router_seed is None:
            identity = self.canonical_dict()
            del identity["options"]
            key = hashlib.sha256(_compact_json(identity).encode()).hexdigest()
            child = spawn_rng(make_rng(self.seed), key)
            opts = replace(opts, router_seed=int(child.integers(0, 2**31)))
        return opts

    def build_engine(self):
        """Construct the engine this spec describes (imports are local —
        spec construction must stay light for cache-only lookups)."""
        from repro.parallel.config import parse_config, parse_transition

        options = self._resolved_options()
        if self.engine == "vllm":
            from repro.engines.vllm_like import VllmLikeEngine

            return VllmLikeEngine(
                self.model, self.cluster, parse_config(self.config), options
            )
        if self.engine == "decode-prio":
            from repro.engines.decode_prioritized import DecodePrioritizedEngine

            return DecodePrioritizedEngine(
                self.model, self.cluster, parse_config(self.config), options
            )
        if self.engine == "seesaw":
            from repro.core.engine import SeesawEngine

            cp, cd = parse_transition(self.config)
            return SeesawEngine(self.model, self.cluster, cp, cd, options)
        from repro.engines.disaggregated import (
            DisaggregatedEngine,
            DisaggregationPlan,
        )

        plan = DisaggregationPlan.parse(self.config)
        return DisaggregatedEngine(self.model, self.cluster, plan, options)

    def execute(self, hooks: RunHooks | None = None) -> EngineResult:
        """Build and run the cell in this process, observed by ``hooks``."""
        return self.build_engine().run(self.workload, hooks)
