"""Per-layer host-time accounting by wrapping the public entry points of
each ``repro`` package from outside the program.

Every entry point in :data:`LAYERS` is replaced, for the duration of a
traced phase, by a wrapper that times the call and subtracts the time
spent in nested wrapped calls. What is left is the layer's *self time*.
Self times of one phase therefore tile a subset of its wall time and can
never sum to more than it; the rest (``other``) is host time spent outside
every wrapped entry point (imports, argument parsing, report printing,
pickling in ``exec`` that is not behind ``get``/``put``).

Module-level functions are replaced in their defining module and in every
already-imported ``repro`` module that bound them by name
(``from x import f``). Methods are replaced on the defining class and on
every subclass that overrides them. :meth:`LayerTracer.restore` puts every
original back, so an untraced op after a traced one runs the plain code.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter  # noqa: TID251 (host self time is the point)
from collections import defaultdict

# layer -> (module, qualified name) entry points. ``Class.method`` names a
# method; a bare name a module-level function. Order is report order.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "autotuner": (
        ("repro.autotuner.search", "rank_static_configs"),
        ("repro.autotuner.search", "rank_seesaw_pairs"),
        ("repro.autotuner.search", "best_static_config"),
        ("repro.autotuner.search", "best_seesaw_pair"),
        ("repro.autotuner.search", "tune_chunk_size"),
        ("repro.autotuner.predictor", "predict_request_rate"),
    ),
    "core": (("repro.core.engine", "SeesawEngine.run"),),
    "engines": (
        ("repro.engines.base", "BaseEngine.run"),
        ("repro.engines.disaggregated", "DisaggregatedEngine.run"),
        ("repro.engines.slots", "DecodeSlots.try_advance"),
        ("repro.engines.slots", "DecodeSlots.finish_ready"),
        ("repro.engines.slots", "DecodeSlots.sync"),
    ),
    "routing": (
        ("repro.routing.policies", "Router.route"),
        ("repro.routing.policies", "Router.select"),
        ("repro.routing.load", "ReplicaLoad.dispatch"),
        ("repro.routing.load", "ReplicaLoad.queued_prefill_tokens"),
        ("repro.routing.load", "ReplicaLoad.steal_queued"),
    ),
    "runtime": (
        ("repro.runtime.kvcache", "KVCacheManager.allocate"),
        ("repro.runtime.kvcache", "KVCacheManager.grow"),
        ("repro.runtime.kvcache", "KVCacheManager.grow_one_block"),
        ("repro.runtime.kvcache", "KVCacheManager.free"),
        ("repro.runtime.cpu_buffer", "CPUKVBuffer.push"),
        ("repro.runtime.cpu_buffer", "CPUKVBuffer.pop"),
        # The latency fold: one record per finished request on every path
        # (the fluid tier builds them directly, not through from_sequences).
        ("repro.runtime.latency", "RequestLatency.__init__"),
        ("repro.runtime.latency", "LatencyStats.from_sequences"),
        ("repro.runtime.latency", "LatencyStats.merged"),
        ("repro.runtime.metrics", "merge_dp_results"),
    ),
    "cluster": (
        ("repro.cluster.simulator", "ClusterSimulator.run"),
        ("repro.cluster.fluid", "FluidSimulator.run"),
        ("repro.cluster.replica", "ReplicaSim.advance"),
        ("repro.cluster.replica", "ReplicaSim.inject"),
        # The observed-load view JSQ reads on the shared clock is cluster
        # code; without it the replica scan would be booked to routing.
        ("repro.cluster.replica", "ObservedLoad.queued_prefill_tokens"),
        ("repro.cluster.fleet", "ReplicaFleet.poll"),
        ("repro.cluster.fleet", "ReplicaFleet.scale_up"),
        ("repro.cluster.fleet", "ReplicaFleet.scale_down"),
        ("repro.cluster.fleet", "ReplicaFleet.resize_to"),
        ("repro.cluster.autoscaler", "Autoscaler.decide"),
    ),
    "costmodel": (
        ("repro.costmodel.step", "StepCostModel.prefill_stage_time"),
        ("repro.costmodel.step", "StepCostModel.prefill_pass_time"),
        ("repro.costmodel.step", "StepCostModel.decode_stage_time"),
        ("repro.costmodel.step", "StepCostModel.decode_iteration_time"),
        ("repro.costmodel.step", "StepCostModel.mixed_iteration_time"),
        ("repro.costmodel.step", "StepCostModel.kv_swap_time"),
        ("repro.costmodel.step", "StepCostModel.reshard_time"),
    ),
    "exec": (
        ("repro.exec.executor", "CellExecutor.run"),
        ("repro.exec.executor", "CellExecutor.run_outcomes"),
        ("repro.exec.cache", "ResultCache.get"),
        ("repro.exec.cache", "ResultCache.put"),
        ("repro.exec.cache", "ResultCache.key_for"),
    ),
    "workloads": (
        ("repro.workloads.datasets", "sharegpt_workload"),
        ("repro.workloads.datasets", "arxiv_workload"),
        ("repro.workloads.datasets", "sample_dataset"),
        ("repro.workloads.synthetic", "constant_workload"),
        ("repro.workloads.arrivals", "stamp_arrivals"),
        ("repro.workloads.arrivals", "poisson_arrivals"),
        ("repro.workloads.arrivals", "bursty_arrivals"),
        ("repro.workloads.arrivals", "diurnal_arrivals"),
        ("repro.workloads.arrivals", "make_arrivals"),
    ),
}


class PhaseStats:
    """What the wrappers accumulate over one phase (setup, cold, warm)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.entry_self_s: dict[str, float] = defaultdict(float)
        self.entry_calls: dict[str, int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)
        self.cache_hits = 0
        self.cache_gets = 0


# Entry points whose return values feed the layer counters.
_KEEP_RESULTS = {"BaseEngine.run", "SeesawEngine.run", "ClusterSimulator.run",
                 "FluidSimulator.run"}


class LayerTracer:
    """Installs the :data:`LAYERS` wrappers and books self time per layer
    into the current :class:`PhaseStats` (``tracer.phase``)."""

    def __init__(self) -> None:
        self.phase = PhaseStats()
        self._stack: list[list[float]] = []
        # (owner, attribute name, original value, owner had it in __dict__)
        self._patched: list[tuple[object, str, object, bool]] = []
        # id(wrapper) -> (original, wrapper) for module-level functions.
        self._wrapped_funcs: dict[int, tuple[object, object]] = {}
        self._wrappers: set[int] = set()

    # ---------------------------------------------------------------- #
    # Wrapping
    # ---------------------------------------------------------------- #

    def _wrap(self, layer: str, entry: str, fn):
        stack = self._stack
        clock = perf_counter
        keep = entry in _KEEP_RESULTS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                phase = tracer.phase
                phase.self_s[layer] += own
                phase.calls[layer] += 1
                phase.entry_self_s[entry] += own
                phase.entry_calls[entry] += 1
            if keep:
                phase.results[entry].append(out)
            elif entry == "ResultCache.get":
                phase.cache_gets += 1
                phase.cache_hits += out is not None
            return out

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("layer wrappers are already installed")
        for layer, entries in LAYERS.items():
            for module_name, qualname in entries:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    self._wrap_method(layer, qualname, getattr(module, cls_name), attr)
                else:
                    self._wrap_function(layer, qualname, module, qualname)

    def _wrap_method(self, layer: str, entry: str, cls: type, attr: str) -> None:
        owners = [cls] + [c for c in _subclasses(cls) if attr in c.__dict__]
        for owner in owners:
            had = attr in owner.__dict__
            if had and id(owner.__dict__[attr]) in self._wrappers:
                continue  # an override already wrapped for another layer
            # An inherited method (SeesawEngine.run is BaseEngine.run) is
            # wrapped on the subclass itself, so it books to its own layer.
            raw = owner.__dict__[attr] if had else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, entry, raw.__func__))
            else:
                new = self._wrap(layer, entry, raw)
            self._wrappers.add(id(new))
            self._patched.append((owner, attr, raw, had))
            setattr(owner, attr, new)

    def _wrap_function(self, layer: str, entry: str, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(layer, entry, original)
        self._wrapped_funcs[id(wrapper)] = (original, wrapper)
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, original, True))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        """Put every original back, including in modules imported after
        :meth:`install` that bound a wrapped function by name."""
        for owner, attr, original, had in reversed(self._patched):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if id(value) in self._wrapped_funcs:
                    setattr(mod, name, self._wrapped_funcs[id(value)][0])
        self._patched.clear()
        self._wrapped_funcs.clear()
        self._wrappers.clear()
        self._stack.clear()

    def new_phase(self) -> PhaseStats:
        self.phase = PhaseStats()
        return self.phase


def _subclasses(cls: type) -> list[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _repro_modules():
    return [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]
