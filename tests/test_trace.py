"""Phase tracks (the tracer's per-replica schedule) and timelines."""

import pytest

from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.engines.base import BaseEngine, EngineOptions, RunHooks
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.slots import DecodeSlots
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import SimulationError
from repro.obs import PhaseSpan, Tracer, phase_segments, render_timeline
from repro.parallel.config import parse_config, parse_transition
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.synthetic import constant_workload


PREFILL, DECODE, RESHARD, SWAP_IN, SWAP_OUT = (
    "prefill", "decode", "reshard", "swap_in", "swap_out"
)


def traced_run(engine, workload, sampling="p99_exemplars"):
    """Run ``engine`` under a fresh tracer; returns (result, tracer)."""
    tracer = Tracer(sampling)
    result = engine.run(workload, RunHooks(tracing=tracer))
    return result, tracer


def first_track(tracer):
    """The phase track ``--timeline`` renders: the lowest-id replica
    that recorded one."""
    return tracer.phases(tracer.phase_replicas()[0])


def of_kind(spans, kind):
    return [e for e in spans if e.kind == kind]


def total_time(spans, kind):
    return sum(e.duration for e in spans if e.kind == kind)


class TestTraceBasics:
    def test_record_and_query(self):
        t = Tracer()
        t.note_phase(0, PREFILL, 0.0, 1.0, 0, 100)
        t.note_phase(0, DECODE, 1.0, 2.0, 4)
        t.note_phase(2, DECODE, 0.5, 1.0, 1)
        spans = t.phases(0)
        assert len(spans) == 2
        assert total_time(spans, DECODE) == pytest.approx(2.0)
        assert max(e.end for e in spans) == pytest.approx(3.0)
        assert [e.kind for e in spans] == [PREFILL, DECODE]
        assert spans[0] == PhaseSpan(PREFILL, 0.0, 1.0, tokens=100)
        assert t.phase_replicas() == [0, 2]
        assert t.phases(1) == ()

    def test_invalid_kind(self):
        with pytest.raises(SimulationError):
            PhaseSpan(kind="nap", start=0, duration=1)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            PhaseSpan(kind=DECODE, start=-1, duration=1)

    def test_span_cap_counts_drops(self, monkeypatch):
        import repro.obs.tracing as tracing_mod

        monkeypatch.setattr(tracing_mod, "MAX_PHASE_SPANS", 3)
        t = Tracer()
        for i in range(5):
            t.note_phase(i % 2, DECODE, float(i), 1.0)
        assert len(t.phases(0)) + len(t.phases(1)) == 3
        assert t.dropped_phases == 2

    @pytest.mark.parametrize("cap", [0, 1, 2, 4, 5, 6, 9, 10, 11, 50])
    def test_bulk_spans_match_single_spans_at_the_cap(self, monkeypatch, cap):
        """A decode stretch records its spans in one note_phases call:
        the tracks and drop count equal one note_phase call per span,
        wherever the cap falls (before, inside or after a bulk call)."""
        import repro.obs.tracing as tracing_mod

        monkeypatch.setattr(tracing_mod, "MAX_PHASE_SPANS", cap)
        batches = [(0, 2), (1, 3), (0, 0), (2, 4), (1, 1), (3, 0)]
        single, bulk = Tracer(), Tracer()
        t = 0.0
        for replica, n in batches:
            rows = []
            for _ in range(n):
                rows.append((DECODE, t, 0.5, 4, 4, 4))
                t += 0.5
            for row in rows:
                single.note_phase(replica, *row)
            bulk.note_phases(replica, rows)
        for tracer in (single, bulk):  # both keep counting past the cap
            tracer.note_phase(3, PREFILL, t, 1.0, 1, 64)
        assert bulk.phase_replicas() == single.phase_replicas()
        for replica in range(4):
            assert bulk.phases(replica) == single.phases(replica)
        assert bulk.dropped_phases == single.dropped_phases
        assert single.dropped_phases == max(0, 11 - cap)

    def test_segments_coalesce(self):
        spans = [
            PhaseSpan(DECODE, 0.0, 1.0),
            PhaseSpan(DECODE, 1.0, 1.0),
            PhaseSpan(PREFILL, 2.0, 1.0),
            PhaseSpan(DECODE, 3.0, 1.0),
        ]
        segs = phase_segments(spans)
        assert [s[0] for s in segs] == [DECODE, PREFILL, DECODE]
        assert segs[0][1:] == (0.0, 2.0)

    def test_render_empty(self):
        assert "empty" in render_timeline(())

    def test_render_rows(self):
        spans = [PhaseSpan(PREFILL, 0.0, 5.0), PhaseSpan(DECODE, 5.0, 5.0)]
        out = render_timeline(spans, width=20)
        assert "prefill" in out and "decode" in out
        assert "#" in out


class TestEngineTracing:
    def test_disabled_by_default(self, tiny_model, cluster_a10_4):
        """Hooks are run-scoped: an engine holds none outside ``run()``,
        before or after a traced run."""
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2"))
        assert engine.hooks.tracing is None
        _, tracer = traced_run(engine, constant_workload(8, 200, 16))
        assert tracer.phase_replicas() == [0]
        assert engine.hooks.tracing is None

    def test_vllm_trace_has_phases(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2P2"))
        result, tracer = traced_run(engine, constant_workload(8, 200, 16))
        spans = first_track(tracer)
        assert of_kind(spans, PREFILL)
        assert of_kind(spans, DECODE)
        # Track compute time accounts for the run's wall clock.
        total = total_time(spans, PREFILL) + total_time(spans, DECODE)
        assert total == pytest.approx(result.total_time, rel=1e-6)

    def test_seesaw_trace_has_reshards_and_swaps(
        self, model_34b, cluster_a10_8, small_arxiv
    ):
        engine = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        )
        result, tracer = traced_run(engine, small_arxiv)
        spans = first_track(tracer)
        assert of_kind(spans, RESHARD)
        assert of_kind(spans, SWAP_IN) and of_kind(spans, SWAP_OUT)
        assert (
            sum(e.tokens for e in of_kind(spans, SWAP_OUT))
            == result.swapped_out_tokens
        )

    def test_seesaw_phase_alternation(self, model_34b, cluster_a10_8, small_arxiv):
        """The track shows the Fig. 2(c) structure: prefill, then a reshard,
        then decode — with no decode before the first reshard."""
        engine = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        )
        _, tracer = traced_run(engine, small_arxiv)
        kinds = [s[0] for s in phase_segments(first_track(tracer))]
        assert kinds[0] == PREFILL
        assert RESHARD in kinds
        assert kinds.index(RESHARD) < kinds.index(DECODE)

    def test_events_are_time_ordered_within_phase(self, model_34b, cluster_a10_8, small_arxiv):
        engine = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        )
        _, tracer = traced_run(engine, small_arxiv)
        starts = [e.start for e in of_kind(first_track(tracer), DECODE)]
        assert starts == sorted(starts)


class TestPhaseTracks:
    @pytest.mark.parametrize("chunked", [False, True])
    def test_vectorized_decode_matches_scalar_oracle(
        self, tiny_model, cluster_a10_4, chunked, scalar_oracle, monkeypatch
    ):
        """Slot decode records its spans too: a decode-heavy cell on the
        decode slots, decode stretches included, gives the scalar path's
        phase track and result exactly (the scalar path is the oracle)."""
        advances = []
        try_advance = DecodeSlots.try_advance

        def counted(slots, kv):
            advances.append(len(slots))
            return try_advance(slots, kv)

        monkeypatch.setattr(DecodeSlots, "try_advance", counted)
        wl = constant_workload(64, 128, 96)

        def run():
            opts = EngineOptions(chunked_prefill=chunked, chunk_size=512)
            engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T4"), opts)
            return traced_run(engine, wl)

        with scalar_oracle():
            oracle, oracle_tr = run()
        assert not advances
        fast, fast_tr = run()
        spans = fast_tr.phases(0)
        assert spans == oracle_tr.phases(0)
        # The slots drove decode, over the largest batches the track shows.
        assert max(advances) == max(e.num_seqs for e in of_kind(spans, DECODE))
        assert fast == oracle

    def test_coupled_jsq_tracks_every_replica_with_work(
        self, tiny_model, cluster_a10_4
    ):
        wl = poisson_arrivals(constant_workload(40, 512, 32), 8.0, seed=5)
        engine = VllmLikeEngine(
            tiny_model, cluster_a10_4, parse_config("D4"),
            EngineOptions(router="jsq", coupled=True),
        )
        result, tracer = traced_run(engine, wl)
        busy = [
            rid
            for rid, n in enumerate(result.router.requests_per_replica)
            if n > 0
        ]
        assert len(busy) > 1
        assert tracer.phase_replicas() == busy
        for rid in busy:
            spans = tracer.phases(rid)
            assert of_kind(spans, PREFILL) and of_kind(spans, DECODE)
            starts = [e.start for e in spans]
            assert starts == sorted(starts)

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda m, c, o: VllmLikeEngine(m, c, parse_config("D2P2"), EngineOptions(**o)),
            lambda m, c, o: VllmLikeEngine(
                m, c, parse_config("D2T2"),
                EngineOptions(chunked_prefill=True, chunk_size=512, **o),
            ),
            lambda m, c, o: DecodePrioritizedEngine(
                m, c, parse_config("D2T2"), EngineOptions(**o)
            ),
            lambda m, c, o: SeesawEngine(
                m, c, *parse_transition("D2P2->D2T2"),
                SeesawOptions(use_cpu_buffer=False, **o),
            ),
        ],
        ids=["vllm", "vllm-chunked", "decode-prio", "seesaw-no-buffer"],
    )
    def test_iterations_count_compute_spans(
        self, tiny_model, cluster_a10_4, make, coupled
    ):
        """Every scheduler iteration is one prefill/decode/mixed phase
        span, so the result's iteration count equals the compute spans
        over every replica track. (Buffered Seesaw is excluded: its
        pipeline-drain ramp is a prefill span but not an iteration.)"""
        wl = poisson_arrivals(sharegpt_workload(40, seed=7), 4.0, seed=7)
        engine = make(tiny_model, cluster_a10_4, {"coupled": coupled})
        result, tracer = traced_run(engine, wl, sampling="all")
        spans = [
            e
            for rid in tracer.phase_replicas()
            for e in tracer.phases(rid)
            if e.kind in (PREFILL, DECODE, "mixed")
        ]
        assert result.iterations == len(spans)

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda m, c, o: VllmLikeEngine(m, c, parse_config("D2P2"), EngineOptions(**o)),
            lambda m, c, o: VllmLikeEngine(
                m, c, parse_config("D2T2"),
                EngineOptions(chunked_prefill=True, chunk_size=512, **o),
            ),
            lambda m, c, o: DecodePrioritizedEngine(
                m, c, parse_config("D2T2"), EngineOptions(**o)
            ),
            *(
                lambda m, c, o, kw=kw: SeesawEngine(
                    m, c, *parse_transition("D2P2->D2T2"), SeesawOptions(**kw, **o)
                )
                for kw in (
                    {},
                    {"use_cpu_buffer": False},
                    {"overlap_swap": False},
                    {"eager_transitions": True},
                )
            ),
        ],
        ids=[
            "vllm", "vllm-chunked", "decode-prio", "seesaw", "seesaw-no-buffer",
            "seesaw-sync-swap", "seesaw-eager",
        ],
    )
    def test_phase_tracks_conserve_phase_time(
        self, tiny_model, cluster_a10_4, make, coupled, monkeypatch
    ):
        """Each timed phase span is recorded once, for both the tracer and
        the phase time: per replica, the track's durations summed per
        kind in recorded order (a stall books as ``swap_stall``; the
        overlapped swap_in/swap_out transfers take no phase time) equal
        the replica's phase time exactly, and their max over replicas is
        the result's."""
        booked = {}
        replica_result = BaseEngine._replica_result

        def capture(engine, state, total_time):
            booked[state.replica_id] = dict(state.metrics.phase_timer.phases)
            return replica_result(engine, state, total_time)

        monkeypatch.setattr(BaseEngine, "_replica_result", capture)
        wl = poisson_arrivals(sharegpt_workload(40, seed=7), 4.0, seed=7)
        engine = make(tiny_model, cluster_a10_4, {"router": "jsq", "coupled": coupled})
        result, tracer = traced_run(engine, wl, sampling="all")
        assert set(tracer.phase_replicas()) <= set(booked)
        merged = {}
        for rid, phases in booked.items():
            spans = {}
            for e in tracer.phases(rid):
                if e.kind not in (SWAP_IN, SWAP_OUT):
                    kind = "swap_stall" if e.kind == "stall" else e.kind
                    spans[kind] = spans.get(kind, 0.0) + e.duration
            assert spans == phases
            for kind, t in phases.items():
                merged[kind] = max(merged.get(kind, 0.0), t)
        assert merged == result.phase_time
