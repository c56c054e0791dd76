"""The fast shared-clock core, pinned against its reference paths.

Contracts:

1. **Heap == linear scan** — the lazy min-heap event loop of
   :class:`ClusterSimulator` produces bit-identical
   :class:`EngineResult`s to the exhaustive next-event scan
   (``use_heap=False``), across engines, routers and autoscalers: the
   heap is pure dispatch mechanics, never policy.
2. **Vector == scalar** — the calendar decode-slot path, which every
   batch decodes on (one to three sequences included), is bit-identical
   to the object path (forced by the ``scalar_oracle`` fixture) on
   online coupled cells, including preemption-heavy ones, on
   chunked-prefill mixed iterations (offline, online and coupled), and
   on the offline 34b arxiv shape ``repro compare`` autotunes.
3. **Fluid calibration** — the mean-field fast path tracks the event
   path on the calibration cells: p99 TTFT within 10%, makespan within
   10% on the fixed fleet; on the autoscaled cell the scale decisions
   match exactly and billed replica-seconds stay within 15%.
4. **Auto fidelity** — ``fidelity=auto`` picks the event path below the
   work-volume threshold (small cells keep full fidelity).
5. **Bench harness** — the perf cells run scaled-down and the
   regression check normalizes by the calibration spin.
6. **Fluid offered rates** — the rates the fluid tier precomputes in one
   numpy pass equal, bit for bit, the 64-arrival list window it used to
   keep per arrival (the scalar replay below), and swapping the replay in
   leaves every fluid result unchanged.
7. **Iteration kernel == layer-composed oracle, in the engine** — a
   chunked-prefill run is bit-identical with
   ``StepCostModel.mixed_iteration_time`` swapped for its layer-composed
   reference.
8. **Slot walk == scalar walk** — live :class:`DecodeSlots` fed prompt,
   reserved and swap-in appends, advances and retirements track the
   scalar object path step by step (tokens, KV blocks, context sum,
   retirement order); at the KV headroom boundary they advance or refuse
   whole, and the engine then evicts the scalar path's victim; a run
   builds slots only after preemption or the headroom fallback dropped
   them, never once per admission.
9. **Stretch == one iteration per resume** — a stretch (several
   fixed-batch iterations in one generator resume; every decode step is
   a stretch, and under the scalar oracle none runs past the one
   iteration its caller asked for) gives the scalar
   oracle's result, latency columns, telemetry series, phase tracks,
   trace exports and drain counters, hooks off and on: decode stretches
   on a coupled JSQ cell, on a decoupled cell whose arrivals cut them
   short and on a chunked cell whose queue head cannot fit; chunk
   stretches on arxiv prompts, offline and Poisson (prefill-only runs
   included) and where the head's KV cannot grow; Seesaw's decode phase
   with a prefetch landing, swap-preemption fallback, eager transitions,
   deferred prefill and a retirement at the loop's top.
10. **Fluid dispatch == per-arrival loop** — each fluid arrival does only
    the work its router and autoscaler read (a ready heap for ``jsq``
    and ``slo``, ``decide`` only when due, ``_tpot`` only off the last
    bucket, counters folded after the loop), and the run equals, bit
    for bit, both the ``argmin`` pick (``fluid._HEAP_POLICIES``
    emptied) and the former per-arrival loop (:func:`per_arrival_run`):
    result repr, latency columns and ``phase_time`` in hex, telemetry
    JSONL, trace rows and sanitizer counts, for every router and
    autoscaler over diurnal, Poisson, unsorted and simultaneous
    arrivals, hooks off and on, and again with a 7-arrival block so the
    loop's block edges fall among scale decisions and fleet polls. A
    dispatch missing from the folded counters fails the sanitizer's
    conservation check.
11. **Event-tier autoscaler cadence** — the shared-clock loop calls
    ``decide`` only when an evaluation is due and ``note_arrival`` only
    for policies that observe arrivals, bit-identical to calling both on
    every arrival.
12. **Fluid memory** — ``FluidSimulator.run``'s traced peak grows by at
    most 128 bytes per extra request.
13. **Prefill kernel == layer-composed oracle, in the engine** — vLLM's
    PP prefill waves, Seesaw's buffered prefill, the disaggregated
    prefill pool and the router's service-rate context are bit-identical
    with ``StepCostModel.prefill_stage_time`` swapped for its
    layer-composed reference.
"""

import itertools
import random
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.bench import CELLS, check_measurement, run_cell
from repro.check import Sanitizer, SanitizerError
from repro.cluster import ClusterSimulator
from repro.cluster import fleet as fleet_mod
from repro.cluster import fluid
from repro.cluster.autoscaler import Autoscaler
from repro.cluster.fluid import AUTO_FLUID_WORK_ITEMS
from repro.cluster.replica import ReplicaSim
from repro.core import engine as core_engine
from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.core.state import SeesawState
from repro.costmodel.breakdown import Breakdown
from repro.costmodel.step import StepCostModel
from repro.engines.base import BaseEngine, EngineOptions, ReplicaState, RunHooks
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan
from repro.engines.slots import DecodeSlots
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import CapacityError, SimulationError
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.obs import Telemetry, Tracer, write_chrome_trace, write_jsonl, write_trace_jsonl
from repro.obs import tracing as tracing_mod
from repro.obs.telemetry import MAX_WINDOWS
from repro.parallel.config import ParallelConfig, parse_config, parse_transition
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.latency import LatencyStats
from repro.runtime.metrics import EngineResult
from repro.runtime.request import Request, Sequence, SequenceState
from repro.workloads.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.workloads.datasets import arxiv_workload, sharegpt_workload
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import constant_workload


#: Online cells of the scalar/vector pairs: coupled, JSQ-routed.
COUPLED_JSQ = EngineOptions(router="jsq", coupled=True)


def assert_bit_identical(a, b) -> None:
    """Full EngineResult equality, with readable failures first."""
    assert a.total_time == b.total_time
    assert a.iterations == b.iterations
    assert a.phase_time == b.phase_time
    if a.latency is not None:
        assert a.latency.records == b.latency.records
    if a.router is not None:
        assert a.router == b.router
    assert a == b


class TestHeapEventLoop:
    """Heap-driven dispatch == exhaustive next-event scan, bit for bit."""

    def run_pair(self, make_engine, workload):
        reqs = list(workload.requests)
        linear = ClusterSimulator(make_engine(), reqs, use_heap=False).run()
        heap = ClusterSimulator(make_engine(), reqs, use_heap=True).run()
        return linear, heap

    def test_vllm_jsq_poisson(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(120, seed=3), 6.0, seed=3)
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(router="jsq", coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_vllm_least_work_bursty(self, tiny_model, cluster_a10_4):
        wl = bursty_arrivals(sharegpt_workload(100, seed=5), 8.0, burstiness=6.0, seed=5)
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(router="least-work", coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_decode_prioritized_po2(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(80, seed=9), 6.0, seed=9)
        linear, heap = self.run_pair(
            lambda: DecodePrioritizedEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(router="po2", router_seed=9, coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_seesaw_jsq(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(60, seed=13), 4.0, seed=13)
        cp, cd = parse_transition("D2P2->D2T2")
        linear, heap = self.run_pair(
            lambda: SeesawEngine(
                tiny_model,
                cluster_a10_4,
                cp,
                cd,
                SeesawOptions(router="jsq", coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_vllm_threshold_autoscaled(self, tiny_model, cluster_a10_4):
        wl = diurnal_arrivals(
            sharegpt_workload(120, seed=17), rate_rps=5.0, period_s=20.0, seed=17
        )
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(
                    router="jsq",
                    coupled=True,
                    autoscaler="threshold",
                    min_dp=1,
                    max_dp=2,
                ),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_vllm_predictive_autoscaled(self, tiny_model, cluster_a10_4):
        wl = diurnal_arrivals(
            sharegpt_workload(120, seed=19), rate_rps=5.0, period_s=20.0, seed=19
        )
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(
                    router="jsq",
                    coupled=True,
                    autoscaler="predictive",
                    min_dp=1,
                    max_dp=2,
                    ttft_slo=5.0,
                ),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)


class TestEventAutoscalerCadence:
    """The shared-clock loop calls ``decide`` only when an evaluation is
    due and ``note_arrival`` only for policies that observe arrivals, and
    the run equals, bit for bit, the former loop that called both on
    every arrival."""

    def run(self, make_run, monkeypatch, gated):
        calls = []
        real_decide = Autoscaler.decide

        def spy(scaler, now, fleet):
            before = scaler._last_eval_at
            verdict = real_decide(scaler, now, fleet)
            calls.append(scaler._last_eval_at != before)
            return verdict

        with monkeypatch.context() as mp:
            mp.setattr(Autoscaler, "decide", spy)
            if not gated:
                # The former loop: no evaluation reads as due-tested, and
                # every policy hears every arrival.
                mp.setattr(Autoscaler, "last_eval_at", property(lambda scaler: None))
                mp.setattr(Autoscaler, "observes_arrivals", True)
            return make_run()(), calls

    def test_threshold_cell_decides_only_when_due(self, monkeypatch):
        # The bench's autoscaled_diurnal cell: 15b on 8xA10, 2000 arrivals.
        def make_run():
            return CELLS["autoscaled_diurnal"](1.0)[0]

        gated, calls = self.run(make_run, monkeypatch, gated=True)
        every, every_calls = self.run(make_run, monkeypatch, gated=False)
        assert len(every_calls) == 2000
        assert len(calls) == 57 == sum(every_calls)
        assert all(calls)
        assert_bit_identical(gated, every)

    def test_predictive_scaling_cell(self, monkeypatch):
        wl = diurnal_arrivals(
            sharegpt_workload(num_requests=2000, seed=11),
            rate_rps=6.0, period_s=240.0, seed=11,
        )

        def make_run():
            engine = VllmLikeEngine(
                get_model("15b"),
                make_cluster("A10", 8),
                parse_config("T2"),
                EngineOptions(
                    router="jsq", coupled=True, autoscaler="predictive",
                    min_dp=1, max_dp=4,
                ),
            )
            return lambda: engine.run(wl)

        gated, calls = self.run(make_run, monkeypatch, gated=True)
        every, every_calls = self.run(make_run, monkeypatch, gated=False)
        assert all(calls) and len(calls) == sum(every_calls) < len(every_calls)
        assert gated.router.fleet.scale_ups > 0
        assert_bit_identical(gated, every)


class TestScalarVectorEquivalence:
    """The calendar decode-slot path never changes a single result."""

    @pytest.fixture(autouse=True)
    def _oracle(self, scalar_oracle):
        self.scalar_oracle = scalar_oracle

    def run_pair(self, make_engine, workload):
        """(scalar oracle run, slot run) of ``make_engine()``."""
        with self.scalar_oracle():
            scalar = make_engine().run(workload)
        return scalar, make_engine().run(workload)

    def test_vllm_online(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(150, seed=7), 8.0, seed=7)
        scalar, vector = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"), COUPLED_JSQ
            ),
            wl,
        )
        assert_bit_identical(scalar, vector)

    def test_vllm_preemption_heavy(self, tiny_model):
        # A single cramped replica: bursts overflow KV and force the
        # grow/preempt fallback; the slot path must hand over and return
        # without drifting a counter.
        cluster = make_cluster("A10", 1)
        wl = bursty_arrivals(
            sharegpt_workload(120, seed=23), 12.0, burstiness=8.0, seed=23
        )
        scalar, vector = self.run_pair(
            lambda: VllmLikeEngine(tiny_model, cluster, parse_config("T1"), COUPLED_JSQ),
            wl,
        )
        if scalar.router is not None:
            assert scalar.router.observed_preemptions == (
                vector.router.observed_preemptions
            )
        assert_bit_identical(scalar, vector)

    def test_seesaw_online(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(80, seed=29), 6.0, seed=29)
        cp, cd = parse_transition("D2P2->D2T2")
        mk = lambda: SeesawEngine(
            tiny_model,
            cluster_a10_4,
            cp,
            cd,
            SeesawOptions(router="jsq", coupled=True),
        )
        assert_bit_identical(*self.run_pair(mk, wl))

    def run_live_pair(self, make_engine, workload, monkeypatch):
        """Scalar vs slot run of ``make_engine()``; the slot run must
        append admissions to live slots."""
        appends = []
        append = DecodeSlots.append

        def counted(slots, seq, kv):
            appends.append(len(slots))
            append(slots, seq, kv)

        monkeypatch.setattr(DecodeSlots, "append", counted)
        with self.scalar_oracle():
            scalar = make_engine().run(workload)
        assert not appends
        vector = make_engine().run(workload)
        assert appends
        assert_bit_identical(scalar, vector)
        assert scalar.latency.records == vector.latency.records
        return scalar

    def test_seesaw_kv_tight_swap_ins_and_preemption(self, monkeypatch):
        # Long decodes overflow each 15b replica's KV: swap-ins append to
        # live slots, and the headroom fallback drops them mid-run so that
        # SeesawEngine.preempt can swap victims out.
        model, cluster = get_model("15b"), make_cluster("A10", 4)
        cp, cd = parse_transition("D2P2->D2T2")
        wl = poisson_arrivals(constant_workload(120, 1024, 768), 8.0, seed=17)
        live_drops = []
        drop = ReplicaState.drop_slots

        def counted(state):
            live_drops.append(state.slots is not None)
            drop(state)

        monkeypatch.setattr(ReplicaState, "drop_slots", counted)
        scalar = self.run_live_pair(
            lambda: SeesawEngine(
                model,
                cluster,
                cp,
                cd,
                SeesawOptions(router="jsq", coupled=True),
            ),
            wl,
            monkeypatch,
        )
        assert any(live_drops)
        assert scalar.latency.total_preemptions > 0

    def test_decode_prio_reserved_admission(self, tiny_model, cluster_a10_4, monkeypatch):
        # Each batch's prefill wave appends to the slots its predecessor
        # drained to empty.
        wl = poisson_arrivals(sharegpt_workload(120, seed=19), 6.0, seed=19)
        self.run_live_pair(
            lambda: DecodePrioritizedEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(router="jsq", coupled=True, max_num_seqs=32),
            ),
            wl,
            monkeypatch,
        )

    def test_disaggregated_decode_pool(self, tiny_model, cluster_a10_4, monkeypatch):
        wl = poisson_arrivals(sharegpt_workload(120, seed=21), 6.0, seed=21)
        plan = DisaggregationPlan(
            prefill_config=parse_config("T2"), decode_config=parse_config("T2")
        )
        self.run_live_pair(
            lambda: DisaggregatedEngine(tiny_model, cluster_a10_4, plan),
            wl,
            monkeypatch,
        )

    def test_admission_scan_offline(self, tiny_model, cluster_a10_4):
        # Offline deal: the waiting queue is deep from t=0, so the
        # admission scan runs every wave while the slots decode.
        wl = sharegpt_workload(120, seed=13)
        mk = lambda: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2"))
        assert_bit_identical(*self.run_pair(mk, wl))

    def test_admission_scan_budget_and_kv_breaks(self, tiny_model):
        # A cramped single replica exercises every break arm of the
        # admission scan: seq cap, budget overflow (first prompt exempt),
        # and KV exhaustion mid-queue.
        cluster = make_cluster("A10", 1)
        wl = bursty_arrivals(
            sharegpt_workload(100, seed=31), 16.0, burstiness=8.0, seed=31
        )
        mk = lambda: VllmLikeEngine(
            tiny_model,
            cluster,
            parse_config("T1"),
            EngineOptions(max_num_seqs=24, max_batched_tokens=2048),
        )
        assert_bit_identical(*self.run_pair(mk, wl))

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_small_batches_decode_on_slots(
        self, tiny_model, cluster_a10_4, batch, monkeypatch
    ):
        # A batch of one to three sequences builds decode slots and
        # stretches like any other, bit-identical with the oracle.
        advances, resumes = [], []
        try_advance, step = DecodeSlots.try_advance, ReplicaSim._step

        def counted_advance(slots, kv):
            advances.append(len(slots))
            return try_advance(slots, kv)

        def counted_step(sim, *args):
            resumes.append(sim.replica_id)
            step(sim, *args)

        monkeypatch.setattr(DecodeSlots, "try_advance", counted_advance)
        monkeypatch.setattr(ReplicaSim, "_step", counted_step)
        wl = constant_workload(batch, 256, 16)
        mk = lambda: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2"))
        with self.scalar_oracle():
            scalar = mk().run(wl)
        assert not advances
        oracle_resumes = len(resumes)
        resumes.clear()
        fast = mk().run(wl)
        assert_bit_identical(scalar, fast)
        assert max(advances) == batch  # the slots drove the batch's decode
        assert len(resumes) < fast.iterations <= oracle_resumes  # it stretched

    def test_decode_step_without_running_is_a_simulation_error(
        self, tiny_model, cluster_a10_4
    ):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T4"))
        with pytest.raises(SimulationError, match="no running sequences"):
            engine.decode_step(engine._replica_setup([], 0), 0.0)


class TestChunkedScalarVectorEquivalence:
    """Chunked-prefill mixed iterations advance their decode half on the
    decode slots too, and never change a single result."""

    @pytest.fixture(autouse=True)
    def _oracle(self, scalar_oracle):
        self.scalar_oracle = scalar_oracle

    def run_pair(self, make_engine, workload, monkeypatch, **opts):
        advances = []
        try_advance = DecodeSlots.try_advance

        def counted(slots, kv):
            advances.append(len(slots))
            return try_advance(slots, kv)

        monkeypatch.setattr(DecodeSlots, "try_advance", counted)
        options = EngineOptions(chunked_prefill=True, **opts)
        with self.scalar_oracle():
            scalar = make_engine(options).run(workload)
        assert not advances
        vector = make_engine(options).run(workload)
        assert advances  # the decode slots really drove decode steps
        assert_bit_identical(scalar, vector)
        assert scalar.latency.records == vector.latency.records
        return scalar, vector

    def test_offline_pp_kv_tight(self, monkeypatch):
        # Two A10s under P2 leave little KV for a 15b model: chunked
        # batches hit the grow/preempt fallback, and the slot path must
        # hand over and return without drifting a counter.
        model, cluster = get_model("15b"), make_cluster("A10", 2)
        scalar, _ = self.run_pair(
            lambda o: VllmLikeEngine(model, cluster, parse_config("P2"), o),
            sharegpt_workload(150, seed=11),
            monkeypatch,
            chunk_size=512,
        )
        assert scalar.latency.total_preemptions > 0

    def test_online_poisson(self, tiny_model, cluster_a10_4, monkeypatch):
        wl = poisson_arrivals(sharegpt_workload(150, seed=7), 8.0, seed=7)
        self.run_pair(
            lambda o: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"), o),
            wl,
            monkeypatch,
            router="jsq",
            chunk_size=512,
        )

    def test_coupled_jsq(self, tiny_model, cluster_a10_4, monkeypatch):
        wl = bursty_arrivals(sharegpt_workload(120, seed=5), 8.0, burstiness=6.0, seed=5)
        self.run_pair(
            lambda o: VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"), o),
            wl,
            monkeypatch,
            router="jsq",
            coupled=True,
        )


class TestCompareShapedEquivalence:
    """The shape ``repro compare`` autotunes (34b on 8xA10, arxiv,
    offline): batches of several KV blocks' worth of sequences, so most
    decode iterations cross a block boundary somewhere in the batch."""

    @pytest.mark.parametrize(
        "opts",
        [EngineOptions(), EngineOptions(chunked_prefill=True, chunk_size=512)],
        ids=["plain", "chunked"],
    )
    def test_slots_match_scalar(self, opts, scalar_oracle, monkeypatch):
        grows, advances = [], []
        grow, try_advance = KVCacheManager.grow_one_block, DecodeSlots.try_advance

        def counted_grow(kv, seq_ids):
            grows.append(len(seq_ids))
            grow(kv, seq_ids)

        def counted_advance(slots, kv):
            advances.append(len(slots))
            return try_advance(slots, kv)

        monkeypatch.setattr(KVCacheManager, "grow_one_block", counted_grow)
        monkeypatch.setattr(DecodeSlots, "try_advance", counted_advance)
        wl = arxiv_workload(150, seed=0)
        mk = lambda: VllmLikeEngine(
            get_model("34b"), make_cluster("A10", 8), parse_config("D2T2P2"), opts
        )
        with scalar_oracle():
            scalar = mk().run(wl)
        assert not advances
        assert_bit_identical(scalar, mk().run(wl))
        assert max(advances) >= 2 * 16
        assert len(grows) > len(advances) / 2  # KV grows on most advances


@dataclass(frozen=True)
class StretchSeen:
    """What one stretch call did."""

    ran: bool  # it ran past the one iteration its caller asked for
    kind: str  # its phase: decode, mixed or prefill
    chunk: bool  # it carried the queue head's prefill chunks
    waiting: bool  # prompts were waiting when it started
    cut: bool  # a pending arrival ended it
    landed: bool  # an in-flight prefetch lands where it ended
    grow_refused: bool  # the head's next chunk could not grow its KV
    swapped: bool  # its last iteration swapped a victim out
    deferred: bool  # Seesaw was deferring a prefill re-shard


#: Chunked prefill with prompts longer than one chunk.
CHUNKED_512 = EngineOptions(chunked_prefill=True, chunk_size=512)


class TestDecodeStretchOracle:
    """A stretch runs the iterations the one-iteration-per-resume loop
    would run, and every observer sees the same run: decode stretches,
    chunk stretches (vLLM's mid-prompt chunks, with or without decodes)
    and Seesaw's buffered decode phase. The scalar oracle has no decode
    slots and stretches nothing, not even a prefill-only chunk run: every
    decode step runs its one iteration and stops."""

    @pytest.fixture(autouse=True)
    def _counters(self, scalar_oracle, monkeypatch, tmp_path):
        self.scalar_oracle = scalar_oracle
        self.tmp_path = tmp_path
        # Generator resumes; one StretchSeen per stretch call; per
        # replica, the decode backlog and prefill epoch at drain.
        self.resumes = 0
        self.stretches = []
        self.backlogs = []
        self.head = None
        self.head_refused = False
        step, stretch = ReplicaSim._step, BaseEngine._stretch
        replica_result = BaseEngine._replica_result
        grow = KVCacheManager.grow

        def counted_step(sim, *args):
            self.resumes += 1
            step(sim, *args)

        def observed_grow(kv, seq_id, tokens):
            try:
                grow(kv, seq_id, tokens)
            except CapacityError:
                # Only the stretch's own chunk grows the head's KV: the
                # fallback grows running sequences alone.
                if self.head is not None and seq_id == self.head.seq_id:
                    self.head_refused = True
                raise

        def observed_stretch(engine, state, now, first, kind, head=None, take=0):
            metrics = state.metrics
            iterations, swapped_out = metrics.iterations, metrics.swapped_out_tokens
            waiting = bool(state.waiting)
            deferred = isinstance(engine, SeesawEngine) and engine._defer_prefill(state)
            self.head, self.head_refused = head, False
            end = stretch(engine, state, now, first, kind, head, take)
            self.head = None
            cut = bool(state.pending) and state.pending[0].arrival_time <= end + 1e-12
            landed = (
                isinstance(state, SeesawState)
                and bool(state.inflight)
                and state.next_arrival <= end + 1e-12
            )
            # A decode stretch's first iteration is the one its caller
            # asked for; a chunk stretch follows its caller's mixed one.
            booked = iterations + (head is None)
            self.stretches.append(
                StretchSeen(
                    ran=metrics.iterations > booked,
                    kind=kind,
                    chunk=head is not None,
                    waiting=waiting,
                    cut=cut,
                    landed=landed,
                    grow_refused=self.head_refused,
                    swapped=metrics.swapped_out_tokens > swapped_out,
                    deferred=deferred,
                )
            )
            return end

        def drained(engine, state, total_time):
            self.backlogs.append(
                (state.replica_id, state.decode_backlog, state.prefill_epoch)
            )
            return replica_result(engine, state, total_time)

        monkeypatch.setattr(ReplicaSim, "_step", counted_step)
        monkeypatch.setattr(KVCacheManager, "grow", observed_grow)
        monkeypatch.setattr(BaseEngine, "_stretch", observed_stretch)
        monkeypatch.setattr(BaseEngine, "_replica_result", drained)

    def ran(self, **want) -> bool:
        """Whether a stretch ran an iteration and matched ``want``."""
        return any(
            s.ran and all(getattr(s, k) == v for k, v in want.items())
            for s in self.stretches
        )

    def observed(self, make_engine, workload, hooks_on, tag):
        """Run ``make_engine()``; everything a reader of the run sees."""
        self.resumes = 0
        self.backlogs = []
        hooks = None
        if hooks_on:
            hooks = RunHooks(
                telemetry=Telemetry(), tracing=Tracer("all"), sanitize=Sanitizer()
            )
        result = make_engine().run(workload, hooks)
        seen = {
            "result": result,
            "records": result.latency.records,
            # The counters the observed-load routers read, at drain.
            "backlogs": sorted(self.backlogs),
        }
        if hooks_on:
            tel, tr, san = hooks.telemetry, hooks.tracing, hooks.sanitize
            base = self.tmp_path / tag
            write_jsonl(tel, f"{base}.obs.jsonl")
            write_trace_jsonl(tr, f"{base}.trace.jsonl")
            write_chrome_trace(tr.traces, f"{base}.chrome.json")
            for ext in ("obs.jsonl", "trace.jsonl", "chrome.json"):
                with open(f"{base}.{ext}", "rb") as fh:
                    seen[ext] = fh.read()
            seen["series"] = tel.series
            seen["tracks"] = {r: tr.phases(r) for r in tr.phase_replicas()}
            seen["dropped"] = (tr.dropped_phases, tr.dropped_requests)
            # S1 is checked once per replica resume, so only it may fall.
            seen["checks"] = {k: v for k, v in san.checks.items() if k != "S1"}
            seen["s1"] = san.checks["S1"]
        return seen, self.resumes

    def assert_matches_oracle(self, make_engine, workload, hooks_on):
        with self.scalar_oracle():
            oracle, oracle_resumes = self.observed(make_engine, workload, hooks_on, "o")
        assert self.stretches and not any(s.ran or s.chunk for s in self.stretches)
        fast, fast_resumes = self.observed(make_engine, workload, hooks_on, "f")
        assert_bit_identical(oracle["result"], fast["result"])
        s1 = (oracle.pop("s1", 0), fast.pop("s1", 0))
        assert fast.keys() == oracle.keys()
        for key in oracle:
            assert fast[key] == oracle[key], key
        # The fast path really stretched: fewer resumes than iterations.
        iterations = fast["result"].iterations
        assert oracle_resumes >= iterations > fast_resumes
        assert s1[1] < s1[0] or not hooks_on
        assert self.ran()
        return fast

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_coupled_jsq_poisson(self, tiny_model, cluster_a10_4, hooks_on):
        wl = poisson_arrivals(sharegpt_workload(150, seed=7), 8.0, seed=7)
        self.assert_matches_oracle(
            lambda: VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"), COUPLED_JSQ
            ),
            wl,
            hooks_on,
        )

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_decoupled_arrivals_mid_stretch(self, tiny_model, cluster_a10_4, hooks_on):
        wl = poisson_arrivals(sharegpt_workload(120, seed=13), 3.0, seed=13)
        self.assert_matches_oracle(
            lambda: VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"),
                EngineOptions(router="jsq"),
            ),
            wl,
            hooks_on,
        )
        assert self.ran(cut=True)

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_chunked_decode_with_blocked_queue(self, hooks_on):
        # Two A10s under P2 leave little KV for a 15b model: the queue
        # head's chunk often cannot fit, so the chunked loop decodes with
        # prompts waiting (and preempts under pressure).
        model, cluster = get_model("15b"), make_cluster("A10", 2)
        fast = self.assert_matches_oracle(
            lambda: VllmLikeEngine(model, cluster, parse_config("P2"), CHUNKED_512),
            sharegpt_workload(150, seed=11),
            hooks_on,
        )
        assert self.ran(kind="decode", waiting=True)
        assert fast["result"].latency.total_preemptions > 0

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_chunked_arxiv_offline(self, hooks_on):
        # Arxiv prompts span several 512-token chunks: each mid-prompt
        # chunk after the first of a run rides a chunk stretch.
        model, cluster = get_model("15b"), make_cluster("A10", 4)
        self.assert_matches_oracle(
            lambda: VllmLikeEngine(model, cluster, parse_config("D2T2"), CHUNKED_512),
            arxiv_workload(40, seed=3),
            hooks_on,
        )
        assert self.ran(kind="mixed", chunk=True)

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_chunked_arxiv_poisson(self, hooks_on):
        # Arrivals cut chunk stretches short, and a replica that drained
        # chunks a fresh prompt with nothing running (prefill-only runs).
        model, cluster = get_model("15b"), make_cluster("A10", 4)
        wl = poisson_arrivals(arxiv_workload(40, seed=3), 1.0, seed=3)
        self.assert_matches_oracle(
            lambda: VllmLikeEngine(
                model, cluster, parse_config("D2T2"),
                replace(CHUNKED_512, router="jsq"),
            ),
            wl,
            hooks_on,
        )
        assert self.ran(kind="mixed", chunk=True, cut=True)
        assert self.ran(kind="prefill", chunk=True)

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_chunk_grow_refused_mid_stretch(self, hooks_on):
        # Little KV on two A10s: a chunk stretch reaches a chunk whose KV
        # cannot grow and stops before it; the next resume decodes.
        model, cluster = get_model("15b"), make_cluster("A10", 2)
        fast = self.assert_matches_oracle(
            lambda: VllmLikeEngine(model, cluster, parse_config("P2"), CHUNKED_512),
            arxiv_workload(40, seed=3),
            hooks_on,
        )
        assert self.ran(chunk=True, grow_refused=True)
        assert fast["result"].latency.total_preemptions > 0

    @staticmethod
    def seesaw(model, cluster, transition, **opts):
        cp, cd = parse_transition(transition)
        return lambda: SeesawEngine(model, cluster, cp, cd, SeesawOptions(**opts))

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_seesaw_prefetch_lands_mid_stretch(self, hooks_on):
        # Long arxiv swap-ins queue on the h2d channel: a decode stretch
        # stops before the next prefetch lands and joins the batch.
        wl = poisson_arrivals(arxiv_workload(60, seed=3), 0.5, seed=3)
        self.assert_matches_oracle(
            self.seesaw(get_model("15b"), make_cluster("A10", 4), "D2P2->D2T2"),
            wl,
            hooks_on,
        )
        assert self.ran(landed=True)
        assert self.ran(cut=True)

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_seesaw_swap_preemption_fallback(self, hooks_on):
        # Long decodes overflow each replica's KV: a stretch's refused
        # advance takes the scalar fallback, which swaps a victim out.
        wl = poisson_arrivals(constant_workload(120, 1024, 768), 8.0, seed=17)
        fast = self.assert_matches_oracle(
            self.seesaw(
                get_model("15b"), make_cluster("A10", 4), "D2P2->D2T2",
                router="jsq", coupled=True,
            ),
            wl,
            hooks_on,
        )
        assert self.ran(swapped=True)
        assert fast["result"].swapped_out_tokens > 0

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_seesaw_eager_transitions(self, tiny_model, cluster_a10_4, hooks_on):
        wl = poisson_arrivals(sharegpt_workload(80, seed=29), 6.0, seed=29)
        fast = self.assert_matches_oracle(
            self.seesaw(tiny_model, cluster_a10_4, "D2P2->D2T2", eager_transitions=True),
            wl,
            hooks_on,
        )
        assert fast["result"].transitions > 2

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_seesaw_deferred_prefill(self, tiny_model, cluster_a10_4, hooks_on):
        # With a predicted arrival rate the phase loop defers re-sharding
        # to prefill while arrivals are pending: stretches run then, and
        # the next arrival ends them.
        wl = poisson_arrivals(sharegpt_workload(80, seed=29), 6.0, seed=29)
        self.assert_matches_oracle(
            self.seesaw(
                tiny_model, cluster_a10_4, "D2P2->D2T2", arrival_rate=6.0, router="jsq"
            ),
            wl,
            hooks_on,
        )
        assert self.ran(deferred=True, cut=True)

    @pytest.mark.parametrize("hooks_on", [False, True], ids=["hooks-off", "hooks-on"])
    def test_seesaw_no_stretch_after_loop_top_retirement(
        self, tiny_model, monkeypatch, hooks_on
    ):
        # On a 4096-token replica, a swap-out victim can be one that just
        # produced its last token. Its prefetch lands at the decode loop's
        # top and it retires there, after that pass's prefetch attempt:
        # the KV it frees can let the next pass launch a prefetch, so the
        # pass must step one iteration.
        monkeypatch.setattr(core_engine, "kv_capacity_tokens", lambda *args: 4096)
        retired_on_landing = []
        arrived = SeesawState.arrived_inflight

        def observed_arrivals(state, now):
            landed = arrived(state, now)
            retired_on_landing.extend(s for s in landed if s.remaining_decode == 0)
            return landed

        monkeypatch.setattr(SeesawState, "arrived_inflight", observed_arrivals)
        rng = random.Random(5)
        requests = [
            Request(i, rng.randint(16, 200), rng.randint(2, 1000)) for i in range(40)
        ]
        fast = self.assert_matches_oracle(
            self.seesaw(
                tiny_model, make_cluster("A10", 2), "P2->T2", max_batched_tokens=256
            ),
            requests,
            hooks_on,
        )
        assert retired_on_landing
        assert fast["result"].swapped_out_tokens > 0

    def test_phase_cap_inside_a_stretch(self, tiny_model, cluster_a10_4, monkeypatch):
        # Put the tracer's span cap one span into the first multi-span
        # bulk recording: the tracks and the drop count still match.
        bulks = []
        note_phases = Tracer.note_phases

        def observed_bulk(tracer, replica, rows):
            bulks.append((tracer._num_phases, len(rows)))
            note_phases(tracer, replica, rows)

        monkeypatch.setattr(Tracer, "note_phases", observed_bulk)
        mk = lambda: VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D2T2"), COUPLED_JSQ
        )
        wl = poisson_arrivals(sharegpt_workload(150, seed=7), 8.0, seed=7)
        mk().run(wl, RunHooks(tracing=Tracer("all")))
        before = next(n for n, rows in bulks if rows >= 2)
        monkeypatch.setattr(tracing_mod, "MAX_PHASE_SPANS", before + 1)
        self.stretches.clear()
        fast = self.assert_matches_oracle(mk, wl, hooks_on=True)
        assert fast["dropped"][0] > 0


class TestMixedKernelOracle:
    """Every chunked-prefill iteration is costed by the hoisted-constant
    kernel; swapping in the layer-composed reference changes nothing."""

    def run_pair(self, make_engine, workload, monkeypatch):
        fast = make_engine().run(workload)
        monkeypatch.setattr(
            StepCostModel,
            "mixed_iteration_time",
            StepCostModel.mixed_iteration_time_reference,
        )
        ref = make_engine().run(workload)
        assert_bit_identical(fast, ref)
        assert fast.latency.records == ref.latency.records
        return fast

    def test_online_34b_t4p2(self, monkeypatch):
        model, cluster = get_model("34b"), make_cluster("A10", 8)
        opts = EngineOptions(chunked_prefill=True, chunk_size=512)
        wl = poisson_arrivals(sharegpt_workload(60, seed=3), 1.0, seed=3)
        fast = self.run_pair(
            lambda: VllmLikeEngine(model, cluster, parse_config("T4P2"), opts),
            wl,
            monkeypatch,
        )
        assert fast.phase_time.get("mixed", 0.0) > 0

    def test_offline_pp_kv_tight(self, monkeypatch):
        # The KV-tight P2 cell of the scalar/vector suite above: chunked
        # batches preempt, and the kernel must cost every shape they take.
        model, cluster = get_model("15b"), make_cluster("A10", 2)
        opts = EngineOptions(chunked_prefill=True, chunk_size=512)
        fast = self.run_pair(
            lambda: VllmLikeEngine(model, cluster, parse_config("P2"), opts),
            sharegpt_workload(150, seed=11),
            monkeypatch,
        )
        assert fast.latency.total_preemptions > 0


class TestPrefillKernelOracle:
    """Every prefill micro-batch is costed by the hoisted-constant prefill
    kernel; swapping in the layer-composed reference changes nothing."""

    def run_pair(self, make_engine, workload, monkeypatch):
        fast = make_engine().run(workload)
        calls = [0]
        reference = StepCostModel.prefill_stage_time_reference

        def counted(costs, seq_lens):
            calls[0] += 1
            return reference(costs, seq_lens)

        monkeypatch.setattr(StepCostModel, "prefill_stage_time", counted)
        ref = make_engine().run(workload)
        assert calls[0] > 0
        assert_bit_identical(fast, ref)
        assert fast.latency.records == ref.latency.records
        return fast

    def test_vllm_pp_waves(self, monkeypatch):
        # Offline arxiv prompts overflow the token budget, so every wave
        # streams several micro-batches through the two PP stages.
        model, cluster = get_model("15b"), make_cluster("A10", 4)
        fast = self.run_pair(
            lambda: VllmLikeEngine(model, cluster, parse_config("T2P2")),
            arxiv_workload(40, seed=3),
            monkeypatch,
        )
        assert fast.phase_time["prefill"] > 0

    def test_seesaw_buffered_prefill(self, monkeypatch):
        model, cluster = get_model("15b"), make_cluster("A10", 4)
        cp, cd = parse_transition("P4->T2P2")
        fast = self.run_pair(
            lambda: SeesawEngine(model, cluster, cp, cd),
            arxiv_workload(40, seed=3),
            monkeypatch,
        )
        assert fast.transitions > 0 and fast.swapped_out_tokens > 0

    def test_disaggregated_prefill_pool(self, tiny_model, cluster_a10_4, monkeypatch):
        plan = DisaggregationPlan(
            prefill_config=parse_config("T2"), decode_config=parse_config("T2")
        )
        self.run_pair(
            lambda: DisaggregatedEngine(tiny_model, cluster_a10_4, plan),
            poisson_arrivals(sharegpt_workload(80, seed=21), 6.0, seed=21),
            monkeypatch,
        )

    @pytest.mark.parametrize("router", ["least-work", "slo"])
    def test_router_context(self, tiny_model, cluster_a10_4, router, monkeypatch):
        # The router drains its ledgers against the prefill rate the
        # kernel prices, so dispatch itself depends on it.
        wl = bursty_arrivals(sharegpt_workload(80, seed=5), 8.0, burstiness=8.0, seed=5)
        opts = EngineOptions(router=router, ttft_slo=0.5)

        def make():
            return VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"), opts)

        fast_ctx = make().router_context(wl)
        fast = self.run_pair(make, wl, monkeypatch)
        assert make().router_context(wl) == fast_ctx
        assert fast.router.policy == router


class TestSlotAppendOracle:
    """Live decode slots that admissions append to == the scalar object
    path, step by step."""

    def test_random_walk_matches_scalar(self):
        # Two replicas fed the same admissions: one decodes on live slots,
        # the other on the scalar advance/grow/retire loop of the engines.
        rng = random.Random(22)
        worlds = []
        for _ in range(2):
            kv = KVCacheManager(capacity_tokens=1 << 22, block_size=16)
            worlds.append(ReplicaState([], kv))
        fast, slow = worlds
        kinds = {"prompt": 0, "reserved": 0, "swap_in": 0}
        ids = itertools.count()

        def admit():
            req = Request(next(ids), rng.randint(1, 600), rng.randint(1, 48))
            kind = rng.choice(sorted(kinds))
            gen = rng.randint(0, req.output_len - 1) if kind == "swap_in" else 0
            kinds[kind] += 1
            for state in worlds:
                seq = Sequence(req)
                seq.advance_prefill(seq.prompt_len)
                seq.state = SequenceState.RUNNING
                seq.generated_tokens = gen
                if kind == "reserved":  # admit_reserved: the final context
                    need = seq.final_context_len
                else:  # a completed prompt, or a swap-in mid-block
                    need = seq.context_len + 1
                state.kv.allocate(seq.seq_id, need)
                state.start_running(seq)

        def scalar_advance():
            for s in slow.running:
                s.advance_decode()
                slow.kv.grow(s.seq_id, s.context_len)

        def assert_same():
            slots.sync()
            assert [s.seq_id for s in fast.running] == [s.seq_id for s in slow.running]
            assert [s.generated_tokens for s in fast.running] == [
                s.generated_tokens for s in slow.running
            ]
            assert [s.seq_id for s in fast.finished] == [s.seq_id for s in slow.finished]
            assert fast.kv._blocks == slow.kv._blocks
            assert fast.kv.used_blocks == slow.kv.used_blocks
            assert sum(fast.kv._blocks.values()) == fast.kv._used
            assert slots.ctx_sum == slow.decode_context_tokens
            assert len(slots) == len(fast.running)

        for _ in range(4):
            admit()
        slots = fast.slots = DecodeSlots(fast)
        growing, target = True, 40
        due = False  # an advance or append awaits its finish_ready
        late = refills = 0
        for _ in range(3000):
            n = len(slots)
            if growing and n >= target:
                growing = False
            elif not growing and n == 0:
                growing, target = True, rng.randint(33, 70)
            r = rng.random()
            if growing and r < 0.5:
                refills += n == 0
                admit()
                due = True
            elif due and r < 0.8:
                fast.finish_ready(0.0)
                slow.finish_ready(0.0)
                due = False
            elif not due:
                late += len(slots.first.get(slots.adv, ()))
                assert slots.try_advance(fast.kv)
                scalar_advance()
                due = True
            assert fast.slots is slots
            assert_same()
        assert min(kinds.values()) > 100
        assert late > 0  # first crossings past a whole block of slack
        assert refills >= 2  # drained to 0 slots, then appended
        assert len(fast.finished) > 300
        for s in fast.finished:
            assert s.generated_tokens == s.request.output_len - 1

    def test_headroom_boundary(self, tiny_model, cluster_a10_4):
        # Eight slots whose contexts fill their allocations exactly: all
        # eight cross a block boundary on the next advance.
        def replica(free_blocks, scalar):
            kv = KVCacheManager(capacity_tokens=(16 + free_blocks) * 16, block_size=16)
            state = ReplicaState([], kv)
            for i in range(8):
                seq = Sequence(Request(i, 32, 40))
                seq.advance_prefill(32)
                seq.state = SequenceState.RUNNING
                kv.allocate(seq.seq_id, 32)
                state.start_running(seq)
            if not scalar:
                state.slots = DecodeSlots(state)
            return state

        state = replica(8, scalar=False)
        assert state.slots.try_advance(state.kv)
        assert state.kv.free_blocks == 0
        assert state.kv._blocks == {i: 3 for i in range(8)}

        state = replica(7, scalar=False)
        slots, kv = state.slots, state.kv

        def snapshot():
            return (
                dict(kv._blocks), kv._used, slots.adv, slots.ctx_sum,
                [set(b) for b in slots.crossings],
                {k: set(v) for k, v in slots.first.items()},
                {k: list(v) for k, v in slots.due.items()},
            )

        before = snapshot()
        assert not slots.try_advance(kv)
        assert snapshot() == before

        # The engine falls back to the scalar grow/preempt path and evicts
        # the victim the scalar path evicts.
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("D2T2"))
        outcomes = []
        for state in (replica(7, scalar=False), replica(7, scalar=True)):
            engine.advance_running(state, 1.0)
            state.finish_ready(1.0)
            assert state.slots is None
            outcomes.append((
                [s.seq_id for s in state.running],
                [s.generated_tokens for s in state.running],
                [(s.seq_id, s.prefill_target) for s in state.waiting],
                dict(state.kv._blocks),
                state.metrics.preemptions,
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == [(6, 33)]  # the second youngest, recomputed

    def test_builds_do_not_scale_with_admissions(self, monkeypatch):
        # The 34b T4P2 chunked Poisson cell of TestMixedKernelOracle: every
        # completed prompt joins the decode batch. Slots are built once per
        # replica plus once after each preemption / headroom-fallback drop,
        # never once per admission.
        builds, drops, appends = [], [], []
        init, drop, start = (
            DecodeSlots.__init__,
            ReplicaState.drop_slots,
            ReplicaState.start_running,
        )
        admitting = []

        def counted_init(slots, state):
            builds.append(len(state.running))
            init(slots, state)

        def counted_drop(state):
            if state.slots is not None and not admitting:
                drops.append(len(state.running))
            drop(state)

        def counted_start(state, seq):
            appends.append(state.slots is not None)
            admitting.append(seq)
            try:
                start(state, seq)
            finally:
                admitting.pop()

        monkeypatch.setattr(DecodeSlots, "__init__", counted_init)
        monkeypatch.setattr(ReplicaState, "drop_slots", counted_drop)
        monkeypatch.setattr(ReplicaState, "start_running", counted_start)
        config = parse_config("T4P2")
        VllmLikeEngine(
            get_model("34b"),
            make_cluster("A10", 8),
            config,
            EngineOptions(chunked_prefill=True, chunk_size=512),
        ).run(poisson_arrivals(sharegpt_workload(60, seed=3), 1.0, seed=3))
        assert sum(appends) >= 30  # admissions into a live decode batch
        assert len(builds) <= len(drops) + config.dp


class TestFluidCalibration:
    """The fluid fast path against the event path on the fixed
    calibration cells (the tolerances are the published fidelity
    contract — see README 'Performance & fidelity tiers')."""

    def _run(self, fidelity, reqs, **opts):
        eng = VllmLikeEngine(
            get_model("15b"),
            make_cluster("A10", 8),
            ParallelConfig(dp=4, tp=2, pp=1),
            EngineOptions(router="jsq", coupled=True, fidelity=fidelity, **opts),
        )
        return eng.run(reqs)

    def test_fixed_fleet_poisson(self):
        reqs = poisson_arrivals(sharegpt_workload(2000, seed=7), 8.0, seed=7)
        event = self._run("event", reqs)
        fluid = self._run("fluid", reqs)
        ttft_ratio = fluid.latency.ttft.p99 / event.latency.ttft.p99
        assert abs(ttft_ratio - 1.0) <= 0.10
        assert abs(fluid.total_time / event.total_time - 1.0) <= 0.10

    def test_autoscaled_diurnal_predictive(self):
        reqs = diurnal_arrivals(
            sharegpt_workload(2000, seed=11), rate_rps=6.0, period_s=240.0, seed=11
        )
        kw = dict(autoscaler="predictive", min_dp=1, max_dp=4, ttft_slo=2.0)
        event = self._run("event", reqs, **kw)
        fluid = self._run("fluid", reqs, **kw)
        ttft_ratio = fluid.latency.ttft.p99 / event.latency.ttft.p99
        assert abs(ttft_ratio - 1.0) <= 0.10
        ev_fleet, fl_fleet = event.router.fleet, fluid.router.fleet
        assert fl_fleet.scale_ups == ev_fleet.scale_ups
        assert fl_fleet.scale_downs == ev_fleet.scale_downs
        assert abs(fl_fleet.replica_seconds / ev_fleet.replica_seconds - 1.0) <= 0.15

    def test_auto_picks_event_below_threshold(self):
        reqs = poisson_arrivals(sharegpt_workload(200, seed=7), 8.0, seed=7)
        assert len(reqs.requests) * 1 < AUTO_FLUID_WORK_ITEMS
        event = self._run("event", reqs)
        auto = self._run("auto", reqs)
        assert auto.iterations == event.iterations
        assert auto.latency.records == event.latency.records


def scalar_offered_rates(times) -> list[float]:
    """The fluid tier's former per-arrival rate estimate: a list window of
    the last 64 arrival times, appended to and trimmed at every arrival."""
    window: list[float] = []
    rates = []
    for now in times:
        window.append(now)
        if len(window) > 64:
            del window[0 : len(window) - 64]
        span = window[-1] - window[0]
        if len(window) < 2 or span <= 0:
            rates.append(0.0)
        else:
            rates.append((len(window) - 1) / span)
    return rates


class TestFluidOfferedRates:
    def assert_rates_match(self, times) -> None:
        got = fluid._offered_rates(np.array(times, dtype=np.float64)).tolist()
        want = scalar_offered_rates(times)
        assert [r.hex() for r in got] == [r.hex() for r in want]

    def test_diurnal_workload(self):
        wl = diurnal_arrivals(
            sharegpt_workload(3000, seed=11), rate_rps=6.0, period_s=240.0, seed=11
        )
        self.assert_rates_match(sorted(r.arrival_time for r in wl.requests))

    def test_simultaneous_arrivals(self):
        # Zero-span windows (a burst at one instant, the whole window on
        # one instant later on) rate 0, mixed windows count the burst.
        times = [0.0] * 10 + [1.0] * 100 + [1.5, 2.0] + [2.0] * 70 + [9.0]
        self.assert_rates_match(times)
        assert fluid._offered_rates(np.array([0.0, 0.0])).tolist() == [0.0, 0.0]

    def test_first_two_arrivals(self):
        self.assert_rates_match([3.0])
        self.assert_rates_match([3.0, 3.25])
        assert fluid._offered_rates(np.array([3.0, 3.25])).tolist() == [0.0, 4.0]

    @pytest.mark.parametrize("autoscaler, dp", [("none", 4), ("threshold", 1)])
    def test_fluid_result_unchanged_by_scalar_replay(self, autoscaler, dp, monkeypatch):
        reqs = diurnal_arrivals(
            sharegpt_workload(1500, seed=11), rate_rps=6.0, period_s=240.0, seed=11
        )
        kw = {} if autoscaler == "none" else dict(min_dp=1, max_dp=4)

        def run():
            return VllmLikeEngine(
                get_model("15b"),
                make_cluster("A10", 8),
                ParallelConfig(dp=dp, tp=2, pp=1),
                EngineOptions(
                    router="jsq", coupled=True, fidelity="fluid",
                    autoscaler=autoscaler, **kw,
                ),
            ).run(reqs)

        vector = run()
        monkeypatch.setattr(
            fluid,
            "_offered_rates",
            lambda times: np.array(scalar_offered_rates(times.tolist())),
        )
        scalar = run()
        if autoscaler == "threshold":
            assert vector.router.fleet.scale_ups > 0
        assert_bit_identical(vector, scalar)


def per_arrival_run(sim) -> "EngineResult":
    """The fluid tier's former per-arrival loop: every arrival polls the
    fleet, calls the autoscaler's ``note_arrival`` and ``decide``, re-reads
    the operating point through ``_tpot``, picks through ``_select`` and
    books every per-replica counter inline. Swapped in for
    ``FluidSimulator.run`` by :func:`use_per_arrival_run`, which also
    empties :data:`fluid._HEAP_POLICIES`, so
    ``jsq``/``slo`` rank through the ``argmin`` and the simulator keeps
    the ``_ready`` mirror for them (a policy that reads no mirror keeps it
    empty, hence the guarded write)."""
    workload = sim.workload
    n = workload.num_requests
    arrivals = workload.arrival_time
    prompts = workload.prompt_len.tolist()
    outputs = workload.output_len.tolist()
    times = arrivals.tolist()
    if bool((arrivals[1:] >= arrivals[:-1]).all()):
        order = range(n)
        rates = fluid._offered_rates(arrivals).tolist()
    else:
        order_arr = np.argsort(arrivals, kind="stable")
        rates = fluid._offered_rates(arrivals[order_arr]).tolist()
        order = order_arr.tolist()
    pf_rate = sim.prefill_rate
    fleet = sim.fleet
    active = sim.active
    ready_arr = sim._ready
    autoscaler = sim.autoscaler
    decode_tail = 1.0 / sim.decode_rate
    budget_tokens = float(sim.engine.options.max_batched_tokens)
    sched_t = [0.0] * n
    first_t = [0.0] * n
    finish_t = [0.0] * n
    arrivals_end = times[order[-1]]
    tpot, tpot_drain = sim._tpot_now = sim._tpot(0.0)
    hooks = sim.engine.hooks
    tel, trc, san = hooks.telemetry, hooks.tracing, hooks.sanitize
    ids = workload.request_id.tolist() if trc is not None or san is not None else None
    sample_step = 0.0
    if tel is not None:
        sample_step = max(tel.interval_s, arrivals_end / MAX_WINDOWS)
    for pos, i in enumerate(order):
        now = times[i]
        if fleet.pending and fleet.poll(now):
            sim._rebuild_arrays(now)
            active = sim.active
            ready_arr = sim._ready
        if autoscaler is not None:
            autoscaler.note_arrival(now)
            target = autoscaler.decide(now, fleet)
            if target is not None:
                sim._resize(target, now, reason=autoscaler.last_reason)
                active = sim.active
                ready_arr = sim._ready
        if autoscaler is not None or (i & 0x3F) == 0:
            tpot, tpot_drain = sim._tpot_now = sim._tpot(
                rates[pos] / max(1, len(active))
            )
        if not active:
            raise SimulationError("fluid fleet has no dispatchable replica")
        if tel is not None:
            for t in tel.boundaries("cluster", now, sample_step):
                sim._sample(tel, t)
        k = sim._select(i, now)
        replica = active[k]
        if trc is not None:
            trc.note_dispatch(now, ids[i], replica.replica_id)
        if san is not None:
            san.note_cluster_clock(now)
            san.note_dispatch(
                Request(ids[i], prompts[i], outputs[i], now), replica.replica_id, now
            )
        ready = replica.ready
        if ready < now:
            horizon = replica.decode_done if replica.decode_done > ready else ready
            if horizon < now:
                replica.idle_seconds += now - horizon
            ready = now
        queued_before = (ready - now) * pf_rate
        sched = ready + 0.5 * tpot
        prompt_len = prompts[i]
        prefill_s = prompt_len / pf_rate
        carry = 0.5 * min(queued_before, budget_tokens) / pf_rate
        first = sched + prefill_s + carry
        decode_tokens = outputs[i] - 1
        finish = first + decode_tokens * tpot
        if finish > arrivals_end and tpot_drain < tpot:
            head_s = arrivals_end - first
            head_tokens = head_s / tpot if head_s > 0.0 else 0.0
            finish = (
                first + head_tokens * tpot + (decode_tokens - head_tokens) * tpot_drain
            )
        replica.ready = ready + prefill_s
        if ready_arr.shape[0] > k:
            ready_arr[k] = replica.ready
        if finish > replica.decode_done:
            replica.decode_done = finish
        replica.prefill_busy += prefill_s
        replica.decode_tokens_total += decode_tokens
        replica.num_requests += 1
        replica.total_tokens += prompt_len + outputs[i]
        queued = (replica.ready - now) * pf_rate
        if queued > replica.peak_queued_prefill_tokens:
            replica.peak_queued_prefill_tokens = queued
        if sim._decode_secs.shape[0] > k:
            sim._decode_secs[k] += decode_tokens * decode_tail
        sched_t[i] = sched
        first_t[i] = first
        finish_t[i] = finish
        if san is not None:
            san.note_fluid_request(
                ids[i], replica.replica_id,
                arrival=now, sched=sched, first=first, finish=finish,
            )
    makespan = fleet.makespan()
    fleet.close(makespan)
    if tel is not None:
        for t in tel.boundaries("cluster", makespan, sample_step):
            sim._sample(tel, t)
    if trc is not None:
        trc.set_warming_windows(fleet.warming_windows())
    replicas = list(fleet.sims())
    if san is not None:
        san.check_fluid_conservation(
            num_requests=n,
            dispatched=sum(r.num_requests for r in replicas),
            prompt_tokens=sum(prompts),
            served_prompt_tokens=sum(r.prefill_busy for r in replicas) * pf_rate,
            decode_tokens=sum(r.decode_tokens_total for r in replicas),
            expected_decode_tokens=sum(max(0, o - 1) for o in outputs),
            total_tokens=sum(r.total_tokens for r in replicas),
            expected_total_tokens=sum(prompts) + sum(outputs),
            now=makespan,
        )
    latency = LatencyStats.from_columns(
        request_id=workload.request_id,
        arrival=arrivals,
        first_schedule=sched_t,
        first_token=first_t,
        finish=finish_t,
        output_len=workload.output_len,
    )
    phase_time = {
        "prefill": max(r.prefill_busy for r in replicas),
        "decode": max(r.decode_tokens_total * decode_tail for r in replicas),
        "idle": max(r.idle_seconds for r in replicas),
    }
    return EngineResult(
        engine=sim.engine.name,
        label=f"{sim.engine.label()}+fluid",
        num_requests=n,
        total_time=makespan,
        input_tokens=workload.total_input_tokens,
        output_tokens=workload.total_output_tokens,
        phase_time=phase_time,
        breakdown=Breakdown(),
        iterations=0,
        transitions=0,
        latency=latency,
        router=fleet.router_stats(sim.policy_name, makespan),
    )


def use_per_arrival_run(mp: pytest.MonkeyPatch) -> None:
    """Swap :func:`per_arrival_run` in for ``FluidSimulator.run``."""
    mp.setattr(fluid, "_HEAP_POLICIES", frozenset())
    mp.setattr(fluid.FluidSimulator, "run", per_arrival_run)


def fluid_arrivals(shape: str) -> WorkloadSpec:
    """The oracle's arrival shapes over one 600-request ShareGPT draw."""
    base = sharegpt_workload(600, seed=11)
    if shape == "diurnal":
        return diurnal_arrivals(base, rate_rps=6.0, period_s=100.0, seed=11)
    stamped = poisson_arrivals(base, 8.0, seed=7)
    times = stamped.arrival_time
    if shape == "poisson":
        return stamped
    if shape == "unsorted":
        times = np.random.default_rng(3).permutation(times)
    elif shape == "burst":
        # Every arrival lands on a 10 s tick: bursts of simultaneous
        # arrivals, zero-span rate windows and ready-time ties.
        times = np.floor(times / 10.0) * 10.0
    return WorkloadSpec(
        shape,
        prompt_len=base.prompt_len,
        output_len=base.output_len,
        arrival_time=times,
    )


class TestFluidDispatchOracle:
    """Every arrival of the fluid tier does only the work its router and
    autoscaler read, and the run is the per-arrival loop's bit for bit:
    the heap pick against the ``argmin`` it replaces, and the whole run
    against :func:`per_arrival_run`, on every router, autoscaler and
    arrival shape, hooks off and on."""

    AUTOSCALERS = ("none", "threshold", "predictive", "threshold:burn_rate")

    @pytest.fixture(autouse=True)
    def _tmp(self, tmp_path):
        self.tmp_path = tmp_path

    def observed(self, router, autoscaler, workload, hooks_on, tag):
        kw = {} if autoscaler == "none" else dict(min_dp=1, max_dp=4)
        if autoscaler == "threshold:burn_rate":
            kw["ttft_slo"] = 2.0  # the policy refuses to run without one
        hooks = None
        if hooks_on:
            hooks = RunHooks(
                telemetry=Telemetry(), tracing=Tracer("all"), sanitize=Sanitizer()
            )
        result = VllmLikeEngine(
            get_model("15b"),
            make_cluster("A10", 8),
            ParallelConfig(dp=4 if autoscaler == "none" else 1, tp=2, pp=1),
            EngineOptions(
                router=router, coupled=True, fidelity="fluid",
                autoscaler=autoscaler, **kw,
            ),
        ).run(workload, hooks)
        lat = result.latency
        seen = {
            # The repr carries RouterStats' per-replica tuples and FleetStats.
            "repr": repr(result),
            "total_time": result.total_time.hex(),
            "phase_time": {k: v.hex() for k, v in result.phase_time.items()},
            "latency": [
                [x.hex() for x in col.tolist()]
                for col in (lat.arrival, lat.first_schedule, lat.first_token, lat.finish)
            ],
            "request_id": lat.request_id.tolist(),
        }
        if hooks_on:
            tel, tr, san = hooks.telemetry, hooks.tracing, hooks.sanitize
            base = self.tmp_path / tag
            write_jsonl(tel, f"{base}.obs.jsonl")
            write_trace_jsonl(tr, f"{base}.trace.jsonl")
            for ext in ("obs.jsonl", "trace.jsonl"):
                with open(f"{base}.{ext}", "rb") as fh:
                    seen[ext] = fh.read()
            seen["checks"] = dict(san.checks)
        return result, seen

    @pytest.mark.parametrize("router", ["jsq", "slo", "least-work", "po2", "static"])
    @pytest.mark.parametrize("shape", ["diurnal", "poisson", "unsorted", "burst"])
    def test_matches_per_arrival_loop(self, shape, router, monkeypatch):
        workload = fluid_arrivals(shape)
        if shape == "burst":
            # A scale-up ordered on a 10 s tick loads its weights exactly on
            # the next tick and activates exactly on the one after: the
            # fleet must be polled at arrivals equal to each transition
            # instant, and the new replica joins mid-burst.
            monkeypatch.setattr(fleet_mod, "provision_times", lambda engine: (10.0, 10.0))
        ticks = set(workload.arrival_time.tolist())
        on_tick = 0
        scaled = 0
        for autoscaler, hooks_on in itertools.product(self.AUTOSCALERS, (False, True)):
            cell = (router, autoscaler, workload, hooks_on)
            result, fast = self.observed(*cell, "fast")
            with monkeypatch.context() as mp:
                mp.setattr(fluid, "_HEAP_POLICIES", frozenset())
                _, argmin = self.observed(*cell, "argmin")
                use_per_arrival_run(mp)
                _, oracle = self.observed(*cell, "oracle")
            assert fast.keys() == oracle.keys() == argmin.keys()
            for key in oracle:
                assert argmin[key] == oracle[key], (autoscaler, hooks_on, key)
                assert fast[key] == oracle[key], (autoscaler, hooks_on, key)
            if hooks_on:
                assert fast["checks"]["S3"] > 0
            fleet = result.router.fleet
            if fleet is not None:
                scaled += fleet.scale_ups + fleet.scale_downs
                on_tick += sum(
                    e.kind == "active" and e.time in ticks for e in fleet.events
                )
        # The autoscaled cells changed the fleet's membership mid-run.
        assert scaled > 0
        assert on_tick > 0 or shape != "burst"

    @pytest.mark.parametrize("router", ["jsq", "least-work", "static"])
    @pytest.mark.parametrize("shape", ["poisson", "unsorted", "burst"])
    def test_matches_per_arrival_loop_across_blocks(self, shape, router, monkeypatch):
        # The oracle workloads fit in one default block; a 7-arrival block
        # puts block edges everywhere, so scale decisions, fleet polls and
        # the fixed fleet's operating-point refreshes land both on a
        # block's first arrival and inside blocks.
        block = 7
        monkeypatch.setattr(fluid, "_BLOCK", block)
        workload = fluid_arrivals(shape)
        if shape == "burst":
            monkeypatch.setattr(fleet_mod, "provision_times", lambda engine: (10.0, 10.0))
        times = np.sort(workload.arrival_time, kind="stable")
        edges = set()
        for autoscaler, hooks_on in itertools.product(
            ("none", "threshold", "predictive"), (False, True)
        ):
            cell = (router, autoscaler, workload, hooks_on)
            result, fast = self.observed(*cell, "fast")
            with monkeypatch.context() as mp:
                use_per_arrival_run(mp)
                _, oracle = self.observed(*cell, "oracle")
            assert fast.keys() == oracle.keys()
            for key in oracle:
                assert fast[key] == oracle[key], (autoscaler, hooks_on, key)
            if autoscaler == "none":
                continue
            # Dispatch positions of the arrivals each scale decision was
            # taken at (every arrival at that instant, for simultaneous
            # arrivals).
            for e in result.router.fleet.events:
                if e.kind in ("scale-up", "scale-down"):
                    at = np.flatnonzero(times == e.time)
                    assert at.size > 0
                    edges.update((at % block == 0).tolist())
        assert edges == {True, False}

    @pytest.mark.parametrize(
        "edge",
        [(0.48, 5.4799999999999995), (3.04, 8.04)],
        ids=["due-by-decide-only", "due-by-sum-only"],
    )
    def test_decide_called_exactly_when_due(self, edge, monkeypatch):
        # ``now - last < interval`` and ``now >= last + interval`` disagree
        # on these pairs (interval 5 s): the loop must call decide exactly
        # when decide's own test says it is due, and never in between.
        first, edge_t = edge
        times = sorted({first, edge_t, *(first + 0.5 * k for k in range(1, 60))})
        workload = WorkloadSpec(
            "edge",
            prompt_len=[512] * len(times),
            output_len=[64] * len(times),
            arrival_time=times,
        )
        calls = []
        real_decide = Autoscaler.decide

        def spy(scaler, now, fleet):
            before = scaler.last_eval_at
            verdict = real_decide(scaler, now, fleet)
            calls.append((now, scaler.last_eval_at != before))
            return verdict

        monkeypatch.setattr(Autoscaler, "decide", spy)
        result, fast = self.observed("jsq", "threshold", workload, False, "fast")
        fast_calls, calls[:] = list(calls), []
        with monkeypatch.context() as mp:
            use_per_arrival_run(mp)
            _, oracle = self.observed("jsq", "threshold", workload, False, "oracle")
        assert fast == oracle
        assert all(evaluated for _, evaluated in fast_calls)
        assert fast_calls == [c for c in calls if c[1]]
        # The oracle called decide at the edge arrival.
        assert edge_t in [now for now, _ in calls]

    def test_missed_dispatch_fails_conservation(self, monkeypatch):
        # A row whose destination stays -1 is in no replica's counters,
        # so the sanitizer's drain-time S3 sum sees the missing request.
        fold = fluid._fold_counters

        def drop_row(replicas, dest, *columns):
            dest[17] = -1
            fold(replicas, dest, *columns)

        monkeypatch.setattr(fluid, "_fold_counters", drop_row)
        with pytest.raises(SanitizerError, match="599 requests dispatched"):
            VllmLikeEngine(
                get_model("15b"),
                make_cluster("A10", 8),
                ParallelConfig(dp=4, tp=2, pp=1),
                EngineOptions(router="jsq", coupled=True, fidelity="fluid"),
            ).run(fluid_arrivals("poisson"), RunHooks(sanitize=Sanitizer()))


class TestFluidMemory:
    """The fluid tier's memory grows with the numpy columns it keeps and
    returns, not with whole-day lists of Python objects: the per-request
    slope of ``FluidSimulator.run``'s traced peak stays under a bound
    (whole-day lists cost about 280 bytes a request)."""

    @staticmethod
    def traced_peak(n: int) -> int:
        # perfbench's fluid_day cell shape, scaled to ``n`` requests.
        workload = diurnal_arrivals(
            sharegpt_workload(num_requests=n, seed=0),
            rate_rps=140.0,
            period_s=8640.0 * n / 1_000_000,
            seed=0,
        )
        engine = VllmLikeEngine(
            get_model("15b"),
            make_cluster("A10", 400),
            parse_config("D20T2"),
            EngineOptions(
                router="jsq", coupled=True, fidelity="fluid",
                autoscaler="threshold", min_dp=20, max_dp=200,
            ),
        )
        sim = fluid.FluidSimulator(engine, workload)
        tracemalloc.start()
        try:
            sim.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_slope_per_request(self):
        small, large = 20_000, 80_000
        slope = (self.traced_peak(large) - self.traced_peak(small)) / (large - small)
        assert slope <= 128.0, f"{slope:.0f} bytes per extra request"


class TestBenchHarness:
    def test_cells_registry(self):
        assert set(CELLS) == {
            "offline_static",
            "coupled_jsq",
            "autoscaled_diurnal",
            "fluid_million",
            "sweep_parallel",
        }

    def test_sweep_parallel_cell_asserts_bit_exactness(self):
        record = run_cell("sweep_parallel", scale=0.05, jobs=2)
        assert record["cell"] == "sweep_parallel"
        assert record["work_kind"] == "cells"
        assert record["work_items"] == 8
        assert record["jobs"] == 2
        assert record["serial_wall_s"] > 0 and record["wall_s"] > 0
        assert record["speedup"] > 0
        assert record["child_peak_rss_mb"] > 0  # workers reported their RSS

    def test_scaled_cell_runs(self):
        record = run_cell("coupled_jsq", scale=0.02)
        assert record["cell"] == "coupled_jsq"
        assert record["work_kind"] == "iterations"
        assert record["work_items"] > 0
        assert record["wall_s"] > 0
        assert record["peak_rss_mb"] > 0

    def test_check_normalizes_by_spin(self):
        baseline = {"wall_s": 1.0, "calib_s": 0.1}
        # Same machine speed, 20% slower run: inside the 25% budget.
        ok, _ = check_measurement({"wall_s": 1.2}, baseline, calib_s=0.1)
        assert ok
        # Same machine speed, 30% slower run: regression.
        ok, _ = check_measurement({"wall_s": 1.3}, baseline, calib_s=0.1)
        assert not ok
        # Machine half as fast (spin doubled): the budget doubles too.
        ok, _ = check_measurement({"wall_s": 2.4}, baseline, calib_s=0.2)
        assert ok
