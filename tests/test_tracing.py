"""Per-request distributed tracing with critical-path attribution.

Contracts pinned by this PR:

1. **Zero overhead when off** — no tracer in ``RunHooks`` (the default) leaves
   every engine on its exact pre-tracing path, and attaching a tracer
   must not perturb the simulation at all: tracing-on and tracing-off
   runs produce identical results on every engine and on the
   coupled/autoscaled/fluid paths (same contract as telemetry).
2. **Conservation** — every trace's critical-path segments tile
   ``[arrival, finish]`` exactly: contiguous, non-negative, summing to
   the request's e2e (enforced as a simsan-style invariant at finalize).
3. **Sampling** — ``all | slo_miss | p99_exemplars | rate:<f>`` select
   deterministically; bad specs raise.
4. **Artifacts** — repro-trace-v1 JSONL round-trips (including the
   dropped counter at the trace cap); a trailing partial line warns and
   flags truncation instead of raising; Chrome trace-event JSON parses
   and pairs its flow events.
5. **Burn-rate autoscaler** — ``threshold:burn_rate`` reacts a window
   earlier than the queue-depth threshold on a rising diurnal edge.
"""

import json
import math

import pytest

from repro.analysis.report import critical_path_table
from repro.cluster.autoscaler import (
    BurnRateThresholdAutoscaler,
    make_autoscaler,
)
from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions, RunHooks
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError
from repro.obs import (
    Tracer,
    aggregate_tail,
    check_conservation,
    chrome_trace_events,
    decompose,
    load_trace_jsonl,
    parse_sampling,
    render_trace_flame,
    write_chrome_trace,
    write_trace_jsonl,
)
from repro.obs.critical_path import (
    DECODE,
    KV_HANDOFF,
    PREEMPT_STALL,
    PREFILL,
    PREFILL_WAIT,
    QUEUE_WAIT,
    STORM_REDISPATCH,
    WARMUP_WAIT,
    Segment,
    TraceInvariantError,
)
from repro.parallel.config import parse_config
from repro.workloads.arrivals import (
    diurnal_arrivals,
    poisson_arrivals,
    stamp_arrivals,
)
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.synthetic import constant_workload


def assert_results_identical(a, b):
    assert a.total_time == b.total_time
    assert a.phase_time == b.phase_time
    assert a.iterations == b.iterations
    assert a.transitions == b.transitions
    if a.latency is not None:
        assert b.latency is not None
        for ra, rb in zip(a.latency.records, b.latency.records):
            assert ra == rb


def assert_conserved(trace):
    total = sum(s.duration for s in trace.segments)
    assert total == pytest.approx(trace.e2e, rel=1e-9, abs=1e-9)
    for prev, cur in zip(trace.segments, trace.segments[1:]):
        assert cur.start == pytest.approx(prev.end, abs=1e-9)
    check_conservation(trace.request_id, trace.segments, trace.e2e)


# --------------------------------------------------------------------- #
# Critical-path decomposition
# --------------------------------------------------------------------- #


class TestDecompose:
    def test_base_cuts_tile_the_request(self):
        segs = decompose(0.0, 10.0, first_schedule=2.0, first_token=3.0, dispatch=1.0)
        assert [s.kind for s in segs] == [QUEUE_WAIT, PREFILL_WAIT, PREFILL, DECODE]
        assert segs[0].start == 0.0 and segs[-1].end == 10.0
        check_conservation(1, segs, 10.0)

    def test_no_dispatch_folds_wait_into_queue(self):
        segs = decompose(0.0, 5.0, first_schedule=2.0, first_token=3.0)
        assert [s.kind for s in segs] == [QUEUE_WAIT, PREFILL, DECODE]
        assert segs[0].duration == pytest.approx(2.0)

    def test_overlay_splits_base_segment(self):
        segs = decompose(
            0.0,
            10.0,
            first_schedule=1.0,
            first_token=2.0,
            dispatch=0.5,
            overlays=[(PREEMPT_STALL, 4.0, 6.0, 1)],
            replica=1,
        )
        kinds = [s.kind for s in segs]
        assert kinds == [QUEUE_WAIT, PREFILL_WAIT, PREFILL, DECODE, PREEMPT_STALL, DECODE]
        stall = segs[kinds.index(PREEMPT_STALL)]
        assert (stall.start, stall.end) == (4.0, 6.0)
        check_conservation(2, segs, 10.0)

    def test_warmup_only_claims_wait_time(self):
        # A warming window overlapping the prefill segment must not
        # re-label compute as waiting: warmup is a wait-only overlay.
        segs = decompose(
            0.0,
            8.0,
            first_schedule=2.0,
            first_token=4.0,
            dispatch=0.0,
            overlays=[(WARMUP_WAIT, 1.0, 3.0, 0)],
        )
        by_kind = {}
        for s in segs:
            by_kind[s.kind] = by_kind.get(s.kind, 0.0) + s.duration
        assert by_kind[WARMUP_WAIT] == pytest.approx(1.0)  # [1, 2] only
        assert by_kind[PREFILL] == pytest.approx(2.0)  # untouched
        check_conservation(3, segs, 8.0)

    def test_stall_outranks_warmup(self):
        segs = decompose(
            0.0,
            6.0,
            first_schedule=4.0,
            first_token=5.0,
            dispatch=0.0,
            overlays=[
                (WARMUP_WAIT, 0.0, 3.0, 0),
                (STORM_REDISPATCH, 2.0, 4.0, 1),
            ],
        )
        by_kind = {}
        for s in segs:
            by_kind[s.kind] = by_kind.get(s.kind, 0.0) + s.duration
        assert by_kind[STORM_REDISPATCH] == pytest.approx(2.0)
        assert by_kind[WARMUP_WAIT] == pytest.approx(2.0)
        check_conservation(4, segs, 6.0)

    def test_unknown_overlay_kind_raises(self):
        with pytest.raises(TraceInvariantError):
            decompose(
                0.0, 1.0, first_schedule=0.1, first_token=0.2,
                overlays=[("coffee_break", 0.0, 0.5, 0)],
            )

    def test_zero_e2e_is_empty(self):
        assert decompose(5.0, 5.0, first_schedule=5.0, first_token=5.0) == ()

    def test_conservation_rejects_gap(self):
        segs = (
            Segment(QUEUE_WAIT, 0.0, 1.0),
            Segment(DECODE, 2.0, 3.0),  # gap [1, 2]
        )
        with pytest.raises(TraceInvariantError):
            check_conservation(7, segs, 3.0)

    def test_conservation_rejects_bad_sum(self):
        segs = (Segment(DECODE, 0.0, 1.0),)
        with pytest.raises(TraceInvariantError):
            check_conservation(8, segs, 2.0)


class TestAggregateTail:
    def _trace(self, request_id, e2e, kind=DECODE):
        class T:
            pass

        t = T()
        t.request_id = request_id
        t.e2e = e2e
        t.segments = (Segment(kind, 0.0, e2e),)
        return t

    def test_tail_selection_and_ranking(self):
        traces = [self._trace(i, float(i + 1)) for i in range(100)]
        traces[99].segments = (
            Segment(QUEUE_WAIT, 0.0, 60.0),
            Segment(DECODE, 60.0, 100.0),
        )
        report = aggregate_tail(traces, percentile=99.0)
        assert report.num_tail >= 1
        ranked = report.ranked()
        assert ranked[0][0] == QUEUE_WAIT
        assert report.share(QUEUE_WAIT) > report.share(DECODE)

    def test_single_trace_fallback(self):
        report = aggregate_tail([self._trace(0, 2.0)], percentile=99.0)
        assert report.num_tail == 1
        assert report.total_e2e == pytest.approx(2.0)

    def test_report_table_renders(self):
        report = aggregate_tail(
            [self._trace(i, 1.0 + i) for i in range(10)], percentile=90.0
        )
        table = critical_path_table(report, title="cp")
        assert "decode" in table
        assert "tail:" in table


# --------------------------------------------------------------------- #
# Sampling
# --------------------------------------------------------------------- #


class TestSampling:
    def test_parse_modes(self):
        assert parse_sampling("all") == ("all", 1.0)
        assert parse_sampling("slo_miss") == ("slo_miss", 1.0)
        assert parse_sampling("p99_exemplars") == ("p99_exemplars", 1.0)
        mode, rate = parse_sampling("rate:0.25")
        assert mode == "rate" and rate == 0.25

    @pytest.mark.parametrize("bad", ["rate:0", "rate:1.5", "rate:x", "sometimes"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_sampling(bad)

    def test_rate_sampling_is_deterministic_subset(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(64, 256, 16), 8.0, seed=9)

        def run(sampling):
            tr = Tracer(sampling)
            VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(),
            ).run(wl, RunHooks(tracing=tr))
            return tr

        full = run("all")
        sampled_a = run("rate:0.5")
        sampled_b = run("rate:0.5")
        ids_a = [t.request_id for t in sampled_a.traces]
        ids_b = [t.request_id for t in sampled_b.traces]
        assert ids_a == ids_b  # deterministic, no RNG state involved
        assert 0 < len(ids_a) < len(full.traces)
        assert set(ids_a) <= {t.request_id for t in full.traces}

    def test_p99_exemplars_keep_the_worst(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(50, 256, 16), 10.0, seed=10)
        tr = Tracer("p99_exemplars")
        result = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(),
        ).run(wl, RunHooks(tracing=tr))
        assert tr.num_requests == 50
        assert len(tr.traces) == max(1, int(50 * 0.01))
        worst_e2e = max(r.e2e for r in result.latency.records)
        assert max(t.e2e for t in tr.traces) == pytest.approx(worst_e2e)

    @pytest.mark.parametrize("sampling", ["all", "rate:0.3", "slo_miss", "p99_exemplars"])
    def test_selection_matches_per_record_rule(self, sampling):
        """Selection reads the latency columns; the per-record rule it
        replaced is the oracle. Rows are out of request-id order and e2e
        has ties, so both orderings (row and id) are exercised."""
        from types import SimpleNamespace

        from repro.obs.tracing import _hash_keep
        from repro.runtime.latency import LatencyStats

        n = 300
        arrival = [0.01 * i for i in range(n)]
        first = [a + 0.05 * (i % 7) for i, a in enumerate(arrival)]
        finish = [f + 0.5 * (i % 5) for i, f in enumerate(first)]
        lat = LatencyStats.from_columns(
            request_id=list(range(n, 0, -1)),
            arrival=arrival,
            first_schedule=arrival,
            first_token=first,
            finish=finish,
            output_len=[1 + (i % 3) for i in range(n)],
        )
        tr = Tracer(sampling)
        tr.finalize(SimpleNamespace(latency=lat), ttft_slo=0.2, tpot_slo=0.3)
        recs = lat.records
        if sampling == "all":
            want = recs
        elif sampling == "rate:0.3":
            want = [r for r in recs if _hash_keep(r.request_id, 0.3)]
        elif sampling == "slo_miss":
            want = [
                r for r in recs
                if r.ttft > 0.2 or (r.tpot is not None and r.tpot > 0.3)
            ]
        else:
            worst = sorted(recs, key=lambda r: (-r.e2e, r.request_id))[:3]
            want = sorted(worst, key=lambda r: r.request_id)
        assert [t.request_id for t in tr.traces] == [r.request_id for r in want]
        assert 0 < len(want) < n or sampling == "all"

    def test_slo_miss_keeps_only_violators(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(40, 512, 16), 12.0, seed=11)
        tr = Tracer("slo_miss")
        result = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(ttft_slo=0.2),
        ).run(wl, RunHooks(tracing=tr))
        misses = [r for r in result.latency.records if r.ttft > 0.2]
        assert len(tr.traces) == len(misses)
        assert {t.request_id for t in tr.traces} == {r.request_id for r in misses}

    def test_cap_counts_drops(self):
        tr = Tracer("all", max_requests=2)
        for i in range(5):
            tr.note_dispatch(float(i), i, 0)
        assert tr.dropped_requests == 3


# --------------------------------------------------------------------- #
# Zero-overhead contract: tracing must not perturb the simulation
# --------------------------------------------------------------------- #


class TestZeroOverheadContract:
    def run_pair(self, make_engine, workload):
        off = make_engine().run(workload)
        tr = Tracer("all")
        on = make_engine().run(workload, RunHooks(tracing=tr))
        return off, on, tr

    def test_decoupled_identical(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(16, 256, 16), 4.0, seed=1)
        off, on, tr = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(),
            ),
            wl,
        )
        assert_results_identical(off, on)
        assert len(tr.traces) == 16
        for trace in tr.traces:
            assert_conserved(trace)

    def test_coupled_identical(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(24, 256, 16), 6.0, seed=2)
        off, on, tr = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(coupled=True, router="jsq"),
            ),
            wl,
        )
        assert_results_identical(off, on)
        assert len(tr.traces) == 24
        for trace in tr.traces:
            assert_conserved(trace)
            assert trace.replica is not None

    def test_decode_prio_identical(self, tiny_model, cluster_a10_4):
        wl = constant_workload(12, 256, 16)
        off, on, tr = self.run_pair(
            lambda: DecodePrioritizedEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("T4"),
                EngineOptions(),
            ),
            wl,
        )
        assert_results_identical(off, on)
        for trace in tr.traces:
            assert_conserved(trace)

    def test_seesaw_identical_with_stalls(self, model_34b, cluster_a10_8):
        wl = sharegpt_workload(30, seed=7)
        off, on, tr = self.run_pair(
            lambda: SeesawEngine(
                model_34b,
                cluster_a10_8,
                parse_config("P8"),
                parse_config("T4P2"),
                SeesawOptions(),
            ),
            wl,
        )
        assert_results_identical(off, on)
        for trace in tr.traces:
            assert_conserved(trace)

    def test_disagg_identical_with_handoff(self, tiny_model, cluster_a10_4):
        wl = constant_workload(16, 256, 32)
        # The second cell caps the decode batch so handed-off requests
        # wait for decode-pool admission (non-empty kv_handoff segments).
        for label, options in (
            ("T2|T2", EngineOptions()),
            ("D2|T2", EngineOptions(max_num_seqs=4)),
        ):
            plan = DisaggregationPlan.parse(label)
            engine = DisaggregatedEngine(tiny_model, cluster_a10_4, plan, options)
            off, on, tr = self.run_pair(lambda: engine, wl)
            assert_results_identical(off, on)
            assert tr.traces
            for rep in range(plan.prefill_config.dp):
                assert any(s.kind == "prefill" for s in tr.phases(rep)), rep
            handoff = engine.prefill_pool_result(wl).latency
            gated = stamp_arrivals(wl, handoff.first_token)
            decoded = engine.decode_pool_result(gated).latency
            admitted = dict(
                zip(decoded.request_id.tolist(), decoded.first_schedule.tolist())
            )
            waits = 0
            for trace in tr.traces:
                assert_conserved(trace)
                assert any(link.kind == "kv_handoff" for link in trace.links)
                for seg in trace.segments:
                    if seg.kind == KV_HANDOFF:
                        assert seg.end == admitted[trace.request_id]
                        waits += 1
            if options.max_num_seqs < len(wl.requests):
                assert waits > 0

    def test_autoscaled_identical_with_warmup(self, tiny_model, cluster_a10_4):
        wl = diurnal_arrivals(constant_workload(128, 2048, 16), 16.0, 20.0, seed=3)
        off, on, tr = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("T2"),
                EngineOptions(
                    coupled=True,
                    router="jsq",
                    autoscaler="threshold",
                    min_dp=1,
                    max_dp=2,
                ),
            ),
            wl,
        )
        assert_results_identical(off, on)
        for trace in tr.traces:
            assert_conserved(trace)

    def test_fluid_identical(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(constant_workload(32, 256, 16), 8.0, seed=4)
        off, on, tr = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(coupled=True, router="jsq", fidelity="fluid"),
            ),
            wl,
        )
        assert off.total_time == on.total_time
        assert len(tr.traces) == 32
        for trace in tr.traces:
            assert_conserved(trace)
            assert trace.replica is not None

    def test_preemption_stall_segments(self, tiny_model, cluster_a10_4):
        """KV-pressure recompute preemptions must surface as stall
        segments attributed to the preempted requests, without breaking
        conservation or bit-exactness."""
        from repro.runtime.kvcache import KVCacheManager

        class TightKVEngine(VllmLikeEngine):
            def make_kv(self, config=None, reserve_tokens=0):
                return KVCacheManager(capacity_tokens=8192, block_size=16)

        wl = poisson_arrivals(constant_workload(8, 1000, 500), 100.0, seed=2)
        off, on, tr = self.run_pair(
            lambda: TightKVEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("T2"),
                EngineOptions(),
            ),
            wl,
        )
        assert_results_identical(off, on)
        preempted = [t for t in tr.traces if t.num_preemptions > 0]
        assert preempted
        for trace in preempted:
            assert_conserved(trace)
            stalls = [s for s in trace.segments if s.kind == PREEMPT_STALL]
            assert stalls
            assert sum(s.duration for s in stalls) > 0.0

    def test_rejects_non_tracer(self):
        with pytest.raises(ConfigurationError):
            RunHooks(tracing=object())


# --------------------------------------------------------------------- #
# Storm re-dispatch spans (coupled preemption storms)
# --------------------------------------------------------------------- #


class TestStormSpans:
    def test_withdraw_redispatch_produces_storm_segment(self):
        from repro.runtime.latency import LatencyStats, RequestLatency
        from repro.runtime.metrics import EngineResult

        tr = Tracer("all")
        tr.note_dispatch(0.0, 0, 0)
        tr.note_withdraw(1.0, 0, 0)
        tr.note_redispatch(1.0, 0, 1)
        rec = RequestLatency(
            request_id=0,
            arrival_time=0.0,
            first_schedule_time=2.0,
            first_token_time=2.5,
            finish_time=4.0,
            output_len=8,
        )
        result = EngineResult(
            engine="x",
            label="x",
            num_requests=1,
            total_time=4.0,
            input_tokens=1,
            output_tokens=8,
            phase_time={},
            breakdown=None,
            iterations=1,
            transitions=0,
            latency=LatencyStats.from_records((rec,)),
        )
        traces = tr.finalize(result)
        assert len(traces) == 1
        trace = traces[0]
        assert_conserved(trace)
        storm = [s for s in trace.segments if s.kind == STORM_REDISPATCH]
        assert storm and storm[0].duration == pytest.approx(1.0)
        assert any(link.type == "follows_from" for link in trace.links)
        assert trace.replica == 1


# --------------------------------------------------------------------- #
# Artifacts: JSONL roundtrip, truncation, Chrome export
# --------------------------------------------------------------------- #


def _traced_run(tmp_path, tiny_model, cluster, sampling="all", max_requests=None):
    wl = poisson_arrivals(constant_workload(20, 256, 16), 6.0, seed=5)
    kwargs = {} if max_requests is None else {"max_requests": max_requests}
    tr = Tracer(sampling, **kwargs)
    VllmLikeEngine(
        tiny_model,
        cluster,
        parse_config("D2T2"),
        EngineOptions(coupled=True, router="jsq"),
    ).run(wl, RunHooks(tracing=tr))
    return tr


class TestTraceArtifacts:
    def test_jsonl_roundtrip(self, tmp_path, tiny_model, cluster_a10_4):
        tr = _traced_run(tmp_path, tiny_model, cluster_a10_4)
        path = str(tmp_path / "traces.jsonl")
        n = write_trace_jsonl(tr, path, meta={"cell": "test"})
        assert n == len(tr.traces)
        artifact = load_trace_jsonl(path)
        assert artifact.sampling == "all"
        assert artifact.num_requests == 20
        assert artifact.meta == {"cell": "test"}
        assert not artifact.truncated
        assert len(artifact.traces) == len(tr.traces)
        for orig, loaded in zip(tr.traces, artifact.traces):
            assert loaded.request_id == orig.request_id
            assert loaded.e2e == pytest.approx(orig.e2e)
            assert [s.kind for s in loaded.segments] == [
                s.kind for s in orig.segments
            ]
            assert len(loaded.links) == len(orig.links)
            assert_conserved(loaded)

    def test_dropped_counter_survives_roundtrip(self, tmp_path, tiny_model, cluster_a10_4):
        """The mark cap bounds in-run memory: marks past ``max_requests``
        are counted in ``dropped_requests`` (traces for the affected
        requests still exist, backfilled from latency records, but lose
        their causal overlays). The counter must survive the JSONL
        roundtrip so a loaded artifact discloses the loss."""
        tr = _traced_run(tmp_path, tiny_model, cluster_a10_4, max_requests=4)
        assert tr.dropped_requests > 0
        assert len(tr._marks) <= 4
        path = str(tmp_path / "capped.jsonl")
        write_trace_jsonl(tr, path)
        artifact = load_trace_jsonl(path)
        assert artifact.dropped_requests == tr.dropped_requests

    def test_truncated_artifact_warns(self, tmp_path, tiny_model, cluster_a10_4):
        tr = _traced_run(tmp_path, tiny_model, cluster_a10_4)
        path = tmp_path / "trunc.jsonl"
        write_trace_jsonl(tr, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # chop mid-row
        with pytest.warns(UserWarning, match="truncated"):
            artifact = load_trace_jsonl(str(path))
        assert artifact.truncated
        assert len(artifact.traces) < len(tr.traces)

    def test_midfile_corruption_raises(self, tmp_path, tiny_model, cluster_a10_4):
        tr = _traced_run(tmp_path, tiny_model, cluster_a10_4)
        path = tmp_path / "corrupt.jsonl"
        write_trace_jsonl(tr, str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:10]  # mangle a middle row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError):
            load_trace_jsonl(str(path))

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "nope"}) + "\n")
        with pytest.raises(ConfigurationError):
            load_trace_jsonl(str(path))

    def test_chrome_export_parses_and_pairs_flows(self, tmp_path, tiny_model, cluster_a10_4):
        tr = _traced_run(tmp_path, tiny_model, cluster_a10_4)
        doc = chrome_trace_events(tr.traces)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        slices = [e for e in events if e["ph"] == "X"]
        for e in slices:
            assert e["ts"] >= 0 and e["dur"] >= 0
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(ends)
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        path = tmp_path / "chrome.json"
        n = write_chrome_trace(tr.traces, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == n

    def test_flame_render(self, tmp_path, tiny_model, cluster_a10_4):
        tr = _traced_run(tmp_path, tiny_model, cluster_a10_4)
        out = render_trace_flame(tr.traces[0], width=40)
        assert f"request {tr.traces[0].request_id}" in out
        assert "[" in out and "]" in out


# --------------------------------------------------------------------- #
# Telemetry export truncation (satellite: obs-v1 gets the same tolerance)
# --------------------------------------------------------------------- #


class TestTelemetryTruncation:
    def test_trailing_partial_line_warns_not_raises(self, tmp_path):
        from repro.obs import Telemetry, load_jsonl, write_jsonl

        tel = Telemetry()
        for t in (0.0, 1.0, 2.0):
            tel.point("cluster.active_dp", t, 1.0)
        tel.event(0.5, "dispatch", request_id=0)
        path = tmp_path / "tel.jsonl"
        write_jsonl(tel, path)
        text = path.read_text()
        path.write_text(text[:-15])  # chop the final row mid-JSON
        with pytest.warns(UserWarning, match="truncated"):
            loaded = load_jsonl(path)
        assert loaded.series["cluster.active_dp"]

    def test_midfile_corruption_still_raises(self, tmp_path):
        from repro.obs import Telemetry, load_jsonl, write_jsonl

        tel = Telemetry()
        for t in (0.0, 1.0, 2.0):
            tel.point("cluster.active_dp", t, 1.0)
        path = tmp_path / "tel.jsonl"
        write_jsonl(tel, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError):
            load_jsonl(path)


# --------------------------------------------------------------------- #
# Burn-rate autoscaler
# --------------------------------------------------------------------- #


class TestBurnRateAutoscaler:
    def test_factory_dispatch_and_validation(self):
        scaler = make_autoscaler(
            "threshold:burn_rate",
            1,
            4,
            up_queue_tokens=2048.0,
            capacity_rps_per_replica=1.0,
            ttft_slo=0.5,
        )
        assert isinstance(scaler, BurnRateThresholdAutoscaler)
        with pytest.raises(ConfigurationError):
            make_autoscaler(
                "threshold:burn_rate",
                1,
                4,
                up_queue_tokens=2048.0,
                capacity_rps_per_replica=1.0,
            )

    def test_reacts_a_window_earlier_than_queue_depth(
        self, tiny_model, cluster_a10_4
    ):
        """On a rising diurnal edge with short prompts, queued requests
        become guaranteed TTFT misses long before a full prefill budget
        of queue *tokens* accumulates: the burn-rate signal must fire at
        least one evaluation window before the queue-depth rule (which on
        this cell never fires at all — 64-token prompts cannot pile up a
        token threshold sized for a prefill batch)."""
        wl = diurnal_arrivals(constant_workload(200, 64, 64), 20.0, 60.0, seed=6)

        def first_scale_up(policy):
            eng = VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("T2"),
                EngineOptions(
                    coupled=True,
                    router="jsq",
                    autoscaler=policy,
                    min_dp=1,
                    max_dp=2,
                    ttft_slo=0.4,
                    max_num_seqs=4,
                ),
            )
            result = eng.run(wl)
            fleet = result.router.fleet
            ups = [e.time for e in fleet.events if e.kind == "scale-up"]
            return ups[0] if ups else math.inf, fleet

        t_thresh, _ = first_scale_up("threshold")
        t_burn, fleet_burn = first_scale_up("threshold:burn_rate")
        assert t_burn < t_thresh
        from repro.cluster.autoscaler import DEFAULT_EVAL_INTERVAL_S

        assert t_thresh - t_burn >= DEFAULT_EVAL_INTERVAL_S
        up_events = [e for e in fleet_burn.events if e.kind == "scale-up"]
        assert any("burn rate" in e.reason for e in up_events)

    def test_falls_back_to_threshold_rules_when_healthy(self):
        scaler = BurnRateThresholdAutoscaler(
            1, 4, up_queue_tokens=100.0, ttft_slo=10.0
        )

        class _Load:
            def queued_prefill_tokens(self, now):
                return 500.0

        class _Fleet:
            target_count = 1

            def active_handles(self):
                return []

            def dispatch_loads(self):
                return [_Load()]

        # No queued requests are doomed (SLO 10s), so the verdict must be
        # the plain threshold one: queue depth 500 > 100 -> scale up.
        assert scaler.target_dp(0.0, _Fleet()) == 2

    def test_fluid_path_runs_with_burn_rate(self, tiny_model, cluster_a10_4):
        wl = diurnal_arrivals(constant_workload(200, 512, 8), 24.0, 30.0, seed=8)
        result = VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2"),
            EngineOptions(
                coupled=True,
                router="jsq",
                fidelity="fluid",
                autoscaler="threshold:burn_rate",
                min_dp=1,
                max_dp=2,
                ttft_slo=0.35,
            ),
        ).run(wl)
        assert result.router.fleet is not None


# --------------------------------------------------------------------- #
# Goldens checker (repro check goldens)
# --------------------------------------------------------------------- #


class TestGoldensChecker:
    def test_fast_cells_pass(self):
        from repro.check.goldens import render_goldens_table, run_goldens

        outcomes = run_goldens(("vllm_plain", "disagg"))
        assert all(o.passed for o in outcomes)
        table = render_goldens_table(outcomes)
        assert "PASS" in table and "FAIL" not in table

    def test_mismatch_reports_detail(self):
        from dataclasses import replace

        from repro.check.goldens import check_result, golden_cell_specs

        result = golden_cell_specs()["vllm_plain"].execute()
        broken = replace(result, total_time=result.total_time * 1.5)
        outcome = check_result("vllm_plain", broken)
        assert not outcome.passed
        assert any("total_time" in m for m in outcome.mismatches)

    def test_literals_match_test_suite_pins(self):
        """The src-side literals must stay in lockstep with the tier-1
        pins in tests/test_online_serving.py."""
        from repro.check.goldens import GOLDEN_SEED as SRC

        from test_online_serving import GOLDEN_SEED as TESTS

        assert SRC == TESTS
