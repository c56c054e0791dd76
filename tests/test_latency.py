"""Per-request latency records and aggregate statistics.

The columnar :class:`LatencyStats` aggregates are pinned bit for bit
against the per-record oracle below: the property-based ``summarize`` and
SLO loop the table replaced, run over the :class:`RequestLatency` records.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.engines.base import EngineOptions
from repro.engines.disaggregated import DisaggregatedEngine, DisaggregationPlan
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import SimulationError
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.parallel.config import ParallelConfig, parse_config
from repro.runtime.latency import LatencyStats, RequestLatency
from repro.runtime.request import Request, Sequence
from repro.utils.stats import Summary, summarize
from repro.workloads.arrivals import bursty_arrivals, poisson_arrivals
from repro.workloads.datasets import sharegpt_workload
from repro.workloads.synthetic import bimodal_workload


def rec(
    rid=0,
    arrival=0.0,
    sched=1.0,
    first=2.0,
    finish=6.0,
    out=5,
    preempts=0,
) -> RequestLatency:
    return RequestLatency(
        request_id=rid,
        arrival_time=arrival,
        first_schedule_time=sched,
        first_token_time=first,
        finish_time=finish,
        output_len=out,
        num_preemptions=preempts,
    )


class TestRequestLatency:
    def test_derived_metrics_hand_computed(self):
        r = rec(arrival=1.0, sched=1.5, first=3.0, finish=7.0, out=5)
        assert r.queue_delay == pytest.approx(0.5)
        assert r.ttft == pytest.approx(2.0)
        assert r.e2e == pytest.approx(6.0)
        # 4 decode tokens over 4 seconds.
        assert r.tpot == pytest.approx(1.0)

    def test_single_token_request_has_undefined_tpot(self):
        """Regression: TPOT used to be 0.0 for output_len <= 1, so
        single-token requests trivially satisfied any TPOT SLO."""
        r = rec(first=2.0, finish=2.0, out=1)
        assert r.tpot is None
        assert not r.has_decode_phase
        assert r.ttft == pytest.approx(2.0)

    def test_rejects_unset_timestamps(self):
        with pytest.raises(SimulationError):
            rec(finish=float("nan"))

    def test_rejects_non_monotone_lifecycle(self):
        with pytest.raises(SimulationError):
            rec(arrival=5.0, sched=1.0)

    def test_from_sequence(self):
        seq = Sequence(Request(request_id=7, prompt_len=10, output_len=3, arrival_time=2.0))
        seq.mark_scheduled(3.0)
        seq.mark_first_token(4.0)
        seq.mark_finished(6.0)
        r = RequestLatency.from_sequence(seq)
        assert r.request_id == 7
        assert r.queue_delay == pytest.approx(1.0)
        assert r.ttft == pytest.approx(2.0)
        assert r.tpot == pytest.approx(1.0)

    def test_sticky_marks_survive_preemption(self):
        seq = Sequence(Request(request_id=0, prompt_len=10, output_len=4, arrival_time=0.0))
        seq.mark_scheduled(1.0)
        seq.mark_first_token(2.0)
        seq.preempt_recompute()
        seq.num_preemptions += 1
        seq.mark_scheduled(9.0)  # re-admission must not move the stamp
        seq.mark_first_token(10.0)
        seq.mark_finished(12.0)
        r = RequestLatency.from_sequence(seq)
        assert r.first_schedule_time == pytest.approx(1.0)
        assert r.first_token_time == pytest.approx(2.0)
        assert r.num_preemptions == 1

    def test_finish_backfills_first_token(self):
        seq = Sequence(Request(request_id=0, prompt_len=10, output_len=1))
        seq.mark_scheduled(0.5)
        seq.mark_finished(1.5)
        assert seq.first_token_time == pytest.approx(1.5)


class TestLatencyStats:
    def stats(self) -> LatencyStats:
        # TTFTs 1, 2, 3; TPOTs 0.25, 0.5, 0.75 (4 decode tokens each).
        return LatencyStats.from_records(
            rec(rid=i, sched=float(i + 1), first=float(i + 1), finish=float(i + 1) + (i + 1), out=5)
            for i in range(3)
        )

    def test_percentiles_hand_computed(self):
        s = self.stats()
        assert s.num_requests == 3
        assert s.ttft.p50 == pytest.approx(2.0)
        assert s.ttft.mean == pytest.approx(2.0)
        assert s.ttft.p99 == pytest.approx(2.98)
        assert s.tpot.p50 == pytest.approx(0.5)
        assert s.e2e.p50 == pytest.approx(4.0)
        assert s.queue_delay.mean == pytest.approx(2.0)

    def test_slo_attainment(self):
        s = self.stats()
        assert s.slo_attainment() == 1.0
        assert s.slo_attainment(ttft_slo=2.5) == pytest.approx(2 / 3)
        assert s.slo_attainment(ttft_slo=2.5, tpot_slo=0.3) == pytest.approx(1 / 3)
        assert s.slo_attainment(e2e_slo=0.1) == 0.0
        with pytest.raises(SimulationError):
            s.slo_attainment(ttft_slo=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("bound", ["ttft_slo", "tpot_slo", "e2e_slo"])
    def test_non_finite_slo_rejected(self, bound, bad):
        """A NaN bound compares false against every latency, so it
        would score 100% attainment; it must be refused like a negative."""
        with pytest.raises(SimulationError, match="finite"):
            self.stats().slo_attainment(**{bound: bad})

    def test_single_token_requests_do_not_inflate_tpot_attainment(self):
        """Regression: a no-decode-phase record must not count as meeting
        a TPOT SLO it was never subject to."""
        s = LatencyStats.from_records(
            (
                rec(rid=0, first=2.0, finish=2.0, out=1),  # no decode phase
                rec(rid=1, first=2.0, finish=6.0, out=5),  # tpot = 1.0
            )
        )
        # Only a TPOT bound: the single-token record is excluded from the
        # population entirely (old behaviour scored this 1/2).
        assert s.slo_attainment(tpot_slo=0.5) == 0.0
        assert s.slo_attainment(tpot_slo=2.0) == 1.0
        # Combined bounds: the single-token record is judged on TTFT only.
        assert s.slo_attainment(ttft_slo=3.0, tpot_slo=0.5) == pytest.approx(0.5)
        assert s.slo_attainment(ttft_slo=1.0, tpot_slo=2.0) == 0.0

    def test_all_single_token_population_is_vacuous(self):
        s = LatencyStats.from_records((rec(rid=0, first=2.0, finish=2.0, out=1),))
        assert s.slo_attainment(tpot_slo=0.001) == 1.0  # vacuously met
        assert s.tpot.count == 0
        assert s.tpot.p99 == 0.0

    def test_tpot_summary_skips_undefined_records(self):
        s = LatencyStats.from_records(
            (
                rec(rid=0, first=2.0, finish=2.0, out=1),
                rec(rid=1, first=2.0, finish=6.0, out=5),
            )
        )
        assert s.tpot.count == 1
        assert s.tpot.p50 == pytest.approx(1.0)  # not dragged toward 0

    def test_merge_is_exact_union(self):
        a = LatencyStats.from_records((rec(rid=0, first=1.0, finish=5.0),))
        b = LatencyStats.from_records((rec(rid=1, first=9.0, finish=13.0),))
        m = LatencyStats.merged([a, b])
        assert m.num_requests == 2
        # Percentiles over the union, not an average of summaries.
        assert m.ttft.p50 == pytest.approx(5.0)
        with pytest.raises(SimulationError):
            LatencyStats.merged([])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            LatencyStats.from_records(())

    def test_describe_mentions_metrics(self):
        out = self.stats().describe()
        assert "ttft" in out and "tpot" in out and "e2e" in out


# --------------------------------------------------------------------- #
# Per-record oracle (the aggregation LatencyStats computed before it
# became columnar)
# --------------------------------------------------------------------- #

_EMPTY = Summary(
    count=0, mean=0.0, std=0.0, minimum=0.0, p50=0.0, p90=0.0, p99=0.0, maximum=0.0
)


def oracle_summaries(records) -> dict[str, Summary]:
    tpots = [r.tpot for r in records if r.tpot is not None]
    return {
        "ttft": summarize([r.ttft for r in records]),
        "tpot": summarize(tpots) if tpots else _EMPTY,
        "e2e": summarize([r.e2e for r in records]),
        "queue_delay": summarize([r.queue_delay for r in records]),
    }


def oracle_slo_attainment(records, ttft_slo=None, tpot_slo=None, e2e_slo=None) -> float:
    met = 0
    judged = 0
    for r in records:
        tpot_applies = tpot_slo is not None and r.tpot is not None
        if ttft_slo is None and e2e_slo is None and tpot_slo is not None:
            if not tpot_applies:
                continue
        judged += 1
        if ttft_slo is not None and r.ttft > ttft_slo:
            continue
        if tpot_applies and r.tpot > tpot_slo:
            continue
        if e2e_slo is not None and r.e2e > e2e_slo:
            continue
        met += 1
    if judged == 0:
        return 1.0
    return met / judged


def summary_hex(s: Summary) -> tuple:
    return (s.count,) + tuple(
        getattr(s, f).hex()
        for f in ("mean", "std", "minimum", "p50", "p90", "p99", "maximum")
    )


def slo_grid(records) -> list[tuple]:
    """SLO combinations that split the population (bounds at its p50/p90)."""
    oracle = oracle_summaries(records)
    ttft = oracle["ttft"].p50 or 1.0
    tpot = oracle["tpot"].p50 or 0.01
    e2e = oracle["e2e"].p90 or 1.0
    return [
        (None, None, None),
        (ttft, None, None),
        (None, tpot, None),
        (None, None, e2e),
        (ttft, tpot, None),
        (None, tpot, e2e),
        (ttft, tpot, e2e),
        (ttft, None, e2e),
    ]


def assert_matches_oracle(stats: LatencyStats) -> None:
    records = stats.records
    assert len(records) == stats.num_requests
    for name, want in oracle_summaries(records).items():
        assert summary_hex(getattr(stats, name)) == summary_hex(want), name
    for slos in slo_grid(records):
        got = stats.slo_attainment(*slos)
        assert got.hex() == oracle_slo_attainment(records, *slos).hex(), slos
    assert stats.total_preemptions == sum(r.num_preemptions for r in records)


def fluid_result():
    wl = poisson_arrivals(sharegpt_workload(400, seed=7), 8.0, seed=7)
    return VllmLikeEngine(
        get_model("15b"),
        make_cluster("A10", 8),
        ParallelConfig(dp=4, tp=2, pp=1),
        EngineOptions(router="jsq", coupled=True, fidelity="fluid"),
    ).run(wl)


class TestColumnarMatchesRecordOracle:
    def test_fluid_cell(self):
        result = fluid_result()
        assert result.label.endswith("+fluid")
        assert_matches_oracle(result.latency)

    def test_coupled_jsq_cell_with_preemptions(self):
        wl = bimodal_workload(40, long_prompt=6144, short_prompt=512, output_len=768)
        online = bursty_arrivals(wl, 0.29, burstiness=10.0, seed=0)
        result = VllmLikeEngine(
            get_model("13b"),
            make_cluster("A10", 8),
            parse_config("D4T2"),
            EngineOptions(coupled=True, router="jsq", router_seed=0),
        ).run(online)
        assert result.latency.total_preemptions > 0
        assert_matches_oracle(result.latency)

    def test_disaggregated_cell(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(60, seed=3), 4.0, seed=3)
        plan = DisaggregationPlan(
            prefill_config=parse_config("D2"), decode_config=parse_config("D2")
        )
        result = DisaggregatedEngine(
            tiny_model, cluster_a10_4, plan, EngineOptions()
        ).run(wl)
        assert_matches_oracle(result.latency)

    def test_negative_epsilon_gaps_clamp_to_positive_zero(self):
        # Each stamp precedes the previous one by less than the admission
        # epsilon, and -0.0 - 0.0 is -0.0: every clamped latency is +0.0.
        stats = LatencyStats.from_records(
            (
                rec(rid=0, arrival=1.0, sched=1.0 - 1e-10, first=1.0 - 2e-10,
                    finish=1.0 - 3e-10, out=3),
                rec(rid=1, arrival=0.0, sched=-0.0, first=-0.0, finish=-0.0, out=2),
            )
        )
        assert_matches_oracle(stats)
        for name in ("ttft", "tpot", "e2e", "queue_delay"):
            s = getattr(stats, name)
            assert s.minimum.hex() == s.maximum.hex() == "0x0.0p+0", name

    def test_all_single_token_population(self):
        stats = LatencyStats.from_records(
            rec(rid=i, sched=0.5 * i, first=1.0 + i, finish=1.0 + i, out=1)
            for i in range(7)
        )
        assert stats.tpot.count == 0
        assert_matches_oracle(stats)

    def test_mixed_population(self):
        rng = np.random.default_rng(5)
        rows = []
        for i in range(200):
            arrival = float(rng.uniform(0.0, 50.0))
            sched = arrival + float(rng.exponential(0.3))
            first = sched + float(rng.exponential(0.2))
            out = int(rng.integers(1, 40))
            finish = first + (out - 1) * float(rng.uniform(0.01, 0.1))
            rows.append(rec(rid=i, arrival=arrival, sched=sched, first=first,
                            finish=finish, out=out, preempts=int(rng.integers(0, 3))))
        stats = LatencyStats.from_records(rows)
        assert 0 < stats.tpot.count < stats.num_requests
        assert_matches_oracle(stats)


class TestColumnarConstruction:
    def test_records_view_round_trips(self):
        rows = (rec(rid=3, preempts=2), rec(rid=1, first=2.0, finish=2.0, out=1))
        stats = LatencyStats.from_records(rows)
        assert stats.records == rows
        assert stats.request_id.tolist() == [3, 1]
        assert stats.num_preemptions.tolist() == [2, 0]

    def test_columns_are_read_only(self):
        stats = LatencyStats.from_records((rec(),))
        with pytest.raises(ValueError):
            stats.finish[0] = 1.0

    def test_from_columns_reports_first_offending_request(self):
        bad_row = dict(rid=11, arrival=5.0, sched=1.0)  # non-monotone
        with pytest.raises(SimulationError) as want:
            rec(**bad_row)
        with pytest.raises(SimulationError) as got:
            LatencyStats.from_columns(
                request_id=[10, 11, 12],
                arrival=[0.0, 5.0, 0.0],
                first_schedule=[1.0, 1.0, 1.0],
                first_token=[2.0, 2.0, float("nan")],
                finish=[6.0, 6.0, 6.0],
                output_len=[5, 5, 0],
            )
        assert str(got.value) == str(want.value)
        assert "request 11" in str(got.value)

    @pytest.mark.parametrize(
        "column, field, value",
        [
            ("finish", "finish", float("nan")),
            ("output_len", "out", 0),
            ("first_token", "first", -1.0),
        ],
    )
    def test_from_columns_matches_record_messages(self, column, field, value):
        with pytest.raises(SimulationError) as want:
            rec(rid=4, **{field: value})
        columns = dict(
            request_id=[4], arrival=[0.0], first_schedule=[1.0], first_token=[2.0],
            finish=[6.0], output_len=[5],
        )
        columns[column] = [value]
        with pytest.raises(SimulationError) as got:
            LatencyStats.from_columns(**columns)
        assert str(got.value) == str(want.value)

    def test_from_columns_keeps_typed_arrays_and_copies_lists(self):
        ids = np.array([3, 4], dtype=np.int64)
        finish = np.array([6.0, 7.0])
        listed = [0.0, 0.0]
        stats = LatencyStats.from_columns(
            request_id=ids, arrival=listed, first_schedule=[1.0, 1.0],
            first_token=[2.0, 2.0], finish=finish, output_len=[5, 5],
        )
        assert np.shares_memory(stats.request_id, ids)
        assert np.shares_memory(stats.finish, finish)
        assert not finish.flags.writeable  # kept columns are frozen
        listed[0] = 9.0
        assert stats.arrival.tolist() == [0.0, 0.0]
        # A column of another dtype is converted into a new array.
        lens = np.array([5, 5], dtype=np.int32)
        other = LatencyStats.from_columns(
            request_id=ids, arrival=[0.0, 0.0], first_schedule=[1.0, 1.0],
            first_token=[2.0, 2.0], finish=finish, output_len=lens,
        )
        assert not np.shares_memory(other.output_len, lens)
        assert lens.flags.writeable

    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(SimulationError, match="equal length"):
            LatencyStats.from_columns(
                request_id=[0, 1], arrival=[0.0], first_schedule=[1.0],
                first_token=[2.0], finish=[6.0], output_len=[5],
            )

    def test_merged_sorts_union_by_id_and_rejects_duplicates(self):
        a = LatencyStats.from_records((rec(rid=5), rec(rid=1, finish=7.0)))
        b = LatencyStats.from_records((rec(rid=3, finish=8.0), rec(rid=2)))
        m = LatencyStats.merged([a, b])
        assert m.request_id.tolist() == [1, 2, 3, 5]
        assert m.records == tuple(
            sorted(a.records + b.records, key=lambda r: r.request_id)
        )
        assert_matches_oracle(m)
        c = LatencyStats.from_records((rec(rid=9), rec(rid=3)))
        with pytest.raises(SimulationError, match="request 3 finished on two replicas"):
            LatencyStats.merged([a, b, c])


class TestNonFiniteStamps:
    """Regression: an infinite stamp used to be accepted, and two such
    records turned the e2e and tpot summaries into NaN silently."""

    @pytest.mark.parametrize(
        "field, value",
        [("arrival", -math.inf), ("sched", math.inf), ("first", math.inf),
         ("finish", math.inf)],
    )
    def test_record_rejects_infinite_stamp(self, field, value):
        with pytest.raises(SimulationError, match="request 0: .*non-finite"):
            rec(rid=0, out=4, **{field: value})

    def test_columns_reject_infinite_stamp(self):
        with pytest.raises(SimulationError, match="request 8: .*non-finite"):
            LatencyStats.from_columns(
                request_id=[7, 8],
                arrival=[0.0, 0.0],
                first_schedule=[0.0, 0.0],
                first_token=[1.0, 1.0],
                finish=[2.0, math.inf],
                output_len=[4, 4],
            )


class TestPickleAndEquality:
    def test_fluid_result_pickles_as_columns(self):
        result = fluid_result()
        lat = result.latency
        built = tuple(
            RequestLatency(
                request_id=int(lat.request_id[i]),
                arrival_time=float(lat.arrival[i]),
                first_schedule_time=float(lat.first_schedule[i]),
                first_token_time=float(lat.first_token[i]),
                finish_time=float(lat.finish[i]),
                output_len=int(lat.output_len[i]),
                num_preemptions=int(lat.num_preemptions[i]),
            )
            for i in range(lat.num_requests)
        )
        assert lat.records == built
        # The records view is now cached; it must still stay out of the bytes.
        blob = pickle.dumps(result)
        assert b"RequestLatency" not in blob
        restored = pickle.loads(blob)
        assert restored == result
        assert restored.latency.records == built

    def test_one_finish_bit_breaks_equality(self):
        result = fluid_result()
        lat = result.latency
        finish = lat.finish.copy()
        finish[17] = np.nextafter(finish[17], math.inf)
        nudged = LatencyStats.from_columns(
            request_id=lat.request_id,
            arrival=lat.arrival,
            first_schedule=lat.first_schedule,
            first_token=lat.first_token,
            finish=finish,
            output_len=lat.output_len,
            num_preemptions=lat.num_preemptions,
        )
        same = LatencyStats.from_columns(
            request_id=lat.request_id,
            arrival=lat.arrival,
            first_schedule=lat.first_schedule,
            first_token=lat.first_token,
            finish=lat.finish,
            output_len=lat.output_len,
            num_preemptions=lat.num_preemptions,
        )
        assert dataclasses.replace(result, latency=same) == result
        assert hash(same) == hash(lat)
        assert dataclasses.replace(result, latency=nudged) != result
