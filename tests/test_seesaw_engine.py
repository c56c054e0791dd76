"""The Seesaw engine: re-sharding, tiered buffering, scheduling."""

import pytest

from repro.cluster.replica import NO_PROGRESS_LIMIT
from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.engines.base import EngineOptions
from repro.errors import ConfigurationError, SchedulingError
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.parallel.config import parse_config, parse_transition
from repro.runtime.request import Request
from repro.workloads.datasets import arxiv_workload, sharegpt_workload
from repro.workloads.synthetic import constant_workload


class TestConstruction:
    def test_dp_must_match(self, model_34b, cluster_a10_8):
        with pytest.raises(ConfigurationError):
            SeesawEngine(
                model_34b, cluster_a10_8, parse_config("D2P4"), parse_config("T4P2")
            )

    def test_gpu_count_must_match(self, model_34b, cluster_a10_8):
        with pytest.raises(ConfigurationError):
            SeesawEngine(
                model_34b, cluster_a10_8, parse_config("P4"), parse_config("T4P2")
            )

    def test_foreign_options_rejected(self):
        """Plain EngineOptions are refused, not swapped for Seesaw's
        defaults (which would drop the router, coupling and limits)."""
        with pytest.raises(ConfigurationError, match="SeesawOptions"):
            SeesawEngine(
                get_model("15b"),
                make_cluster("A10", 4),
                *parse_transition("D2P2->D2T2"),
                EngineOptions(router="jsq", coupled=True, max_num_seqs=7),
            )

    def test_label(self, model_34b, cluster_a10_8):
        e = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        )
        assert e.label() == "P8->T4P2"


class TestExecution:
    def test_completes_all_requests(self, model_34b, cluster_a10_8, small_arxiv):
        r = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        ).run(small_arxiv)
        assert r.num_requests == small_arxiv.num_requests
        assert r.output_tokens == small_arxiv.total_output_tokens

    def test_transitions_counted(self, model_34b, cluster_a10_8, small_arxiv):
        r = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        ).run(small_arxiv)
        assert r.transitions >= 1
        assert r.phase_time.get("reshard", 0.0) > 0.0

    def test_kv_flows_through_cpu(self, model_34b, cluster_a10_8, small_arxiv):
        r = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        ).run(small_arxiv)
        assert r.swapped_out_tokens > 0
        assert r.swapped_in_tokens > 0
        # Everything parked must eventually come back for decoding.
        assert r.swapped_in_tokens == r.swapped_out_tokens

    def test_degenerate_pair_skips_cpu(self, model_34b, cluster_a10_8, small_arxiv):
        r = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("T4P2"), parse_config("T4P2")
        ).run(small_arxiv)
        assert r.transitions == 0
        assert r.swapped_out_tokens == 0

    def test_dp_pairs_run(self, model_34b, cluster_a10_8, small_arxiv):
        r = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("D2P4"), parse_config("D2T4")
        ).run(small_arxiv)
        assert r.num_requests == small_arxiv.num_requests

    def test_output_len_one_never_parked(self, model_34b, cluster_a10_8):
        wl = constant_workload(16, 1024, 1)
        r = SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        ).run(wl)
        assert r.swapped_out_tokens == 0
        assert r.transitions == 0  # never needed the decode config

    def test_deterministic(self, model_34b, cluster_a10_8, small_arxiv):
        mk = lambda: SeesawEngine(
            model_34b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        )
        assert mk().run(small_arxiv).total_time == pytest.approx(
            mk().run(small_arxiv).total_time
        )

    def test_tight_memory_70b(self, model_70b, cluster_a10_8):
        """The paper's hardest configuration: 70B on 8x24GiB."""
        wl = arxiv_workload(20, seed=5)
        r = SeesawEngine(
            model_70b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        ).run(wl)
        assert r.num_requests == 20

    def test_phase_loop_guard_names_time_replica_and_engine(
        self, tiny_model, cluster_a10_4, monkeypatch
    ):
        # A prefill phase that yields without making progress: the replica
        # watchdog fires with the rule, the virtual time, the replica and
        # the engine label in its message. (A phase that never yields would
        # never return control to any resume watchdog; every real phase
        # yields at least once.)
        def stuck(engine, state, now):
            yield now
            return now

        monkeypatch.setattr(SeesawEngine, "_prefill_phase", stuck)
        engine = SeesawEngine(
            tiny_model, cluster_a10_4, *parse_transition("D2P2->D2T2")
        )
        requests = [Request(i, 16, 4, arrival_time=1.5) for i in range(2)]
        with pytest.raises(SchedulingError) as exc:
            engine.run(requests)
        assert str(exc.value) == (
            f"no-progress watchdog: {NO_PROGRESS_LIMIT} resumes in a row left "
            "the queues, finished count, decode backlog and head prefill "
            "unchanged at t=1.5 s on replica 0 of seesaw[D2P2->D2T2]"
        )


class TestScheduling:
    def test_transition_minimizing_few_transitions(
        self, model_70b, cluster_a10_8
    ):
        """With the CPU pool larger than the workload, one cycle suffices."""
        wl = sharegpt_workload(60, seed=3)
        r = SeesawEngine(
            model_70b, cluster_a10_8, parse_config("P8"), parse_config("T4P2")
        ).run(wl)
        assert r.transitions <= 2

    def test_eager_transitions_many(self, model_70b, cluster_a10_8):
        wl = sharegpt_workload(60, seed=3)
        eager = SeesawEngine(
            model_70b,
            cluster_a10_8,
            parse_config("P8"),
            parse_config("T4P2"),
            SeesawOptions(eager_transitions=True),
        ).run(wl)
        assert eager.transitions >= 5

    def test_eager_transitions_slower(self, model_70b, cluster_a10_8):
        wl = sharegpt_workload(60, seed=3)
        mk = lambda opts: SeesawEngine(
            model_70b,
            cluster_a10_8,
            parse_config("P8"),
            parse_config("T4P2"),
            opts,
        ).run(wl)
        assert (
            mk(SeesawOptions(eager_transitions=True)).total_time
            > mk(SeesawOptions()).total_time
        )

    def test_arrival_rate_none_is_bit_exact(self, model_34b, cluster_a10_8):
        """The wait-vs-re-shard logic is gated on arrival_rate: unset, the
        phase loop is byte-for-byte the seed's (goldens survive)."""
        from repro.workloads.arrivals import poisson_arrivals

        wl = poisson_arrivals(arxiv_workload(24, seed=1), 0.3, seed=1)
        mk = lambda opts: SeesawEngine(
            model_34b,
            cluster_a10_8,
            parse_config("P8"),
            parse_config("T4P2"),
            opts,
        ).run(wl)
        default = mk(None)
        explicit = mk(SeesawOptions(arrival_rate=None))
        assert default.total_time == explicit.total_time
        assert default.phase_time == explicit.phase_time

    def test_arrival_aware_waiting_amortizes_transitions(
        self, model_34b, cluster_a10_8
    ):
        """Told the offered rate, the phase loop waits for predicted
        arrivals instead of re-sharding for every small batch — it must
        finish all requests without extra transitions."""
        from repro.workloads.arrivals import poisson_arrivals

        wl = poisson_arrivals(arxiv_workload(24, seed=1), 0.3, seed=1)
        mk = lambda rate: SeesawEngine(
            model_34b,
            cluster_a10_8,
            parse_config("P8"),
            parse_config("T4P2"),
            SeesawOptions(arrival_rate=rate),
        ).run(wl)
        baseline = mk(None)
        aware = mk(0.3)
        assert aware.num_requests == baseline.num_requests == 24
        assert aware.latency is not None
        assert aware.latency.num_requests == 24
        assert aware.transitions <= baseline.transitions

    def test_degenerate_pair_ignores_arrival_rate(
        self, model_34b, cluster_a10_8
    ):
        """cp == cd never re-shards, so there is nothing to wait for."""
        from repro.workloads.arrivals import poisson_arrivals

        wl = poisson_arrivals(constant_workload(12, 512, 32), 1.0, seed=0)
        mk = lambda rate: SeesawEngine(
            model_34b,
            cluster_a10_8,
            parse_config("T4P2"),
            parse_config("T4P2"),
            SeesawOptions(arrival_rate=rate),
        ).run(wl)
        assert mk(None).total_time == mk(5.0).total_time

    def test_arrival_rate_validated(self):
        with pytest.raises(ConfigurationError):
            SeesawOptions(arrival_rate=0.0)

    def test_arrival_rate_rejected_on_the_coupled_path(self):
        """A coupled replica only sees requests already dispatched to it,
        so the deferral has no planned arrivals to wait for."""
        with pytest.raises(ConfigurationError, match="decoupled"):
            SeesawOptions(coupled=True, arrival_rate=2.0)
        assert SeesawOptions(coupled=True).arrival_rate is None

    def test_decoupled_deferral_saves_transitions(self):
        """Decoupled, the hint defers re-shards while planned arrivals are
        due, so the run re-shards less often than without it."""
        from repro.hardware.cluster import make_cluster
        from repro.models.registry import get_model
        from repro.workloads.arrivals import poisson_arrivals

        wl = poisson_arrivals(sharegpt_workload(40, seed=7), 2.0, seed=7)
        mk = lambda rate: SeesawEngine(
            get_model("15b"),
            make_cluster("A10", 4),
            parse_config("D2P2"),
            parse_config("D2T2"),
            SeesawOptions(arrival_rate=rate),
        ).run(wl)
        plain, deferred = mk(None), mk(2.0)
        assert deferred.num_requests == plain.num_requests == 40
        assert deferred.transitions < plain.transitions

    def test_multiple_cycles_when_cpu_small(self, model_34b, cluster_a10_8):
        """Shrinking the CPU pool forces several prefill/decode cycles."""
        from dataclasses import replace

        from repro.utils.units import GIB

        small_cpu = replace(cluster_a10_8, cpu_memory_per_gpu=2 * GIB)
        wl = arxiv_workload(40, seed=4)
        r = SeesawEngine(
            model_34b, small_cpu, parse_config("P8"), parse_config("T4P2")
        ).run(wl)
        assert r.num_requests == 40
        assert r.transitions >= 3


class TestAblations:
    def test_no_overlap_is_slower(self, model_70b, cluster_a10_8):
        wl = arxiv_workload(24, seed=6)
        mk = lambda opts: SeesawEngine(
            model_70b, cluster_a10_8, parse_config("P8"), parse_config("T4P2"), opts
        ).run(wl)
        overlapped = mk(SeesawOptions(overlap_swap=True))
        blocking = mk(SeesawOptions(overlap_swap=False))
        assert blocking.total_time >= overlapped.total_time

    def test_no_cpu_buffer_completes(self, model_34b, cluster_a10_8, small_arxiv):
        r = SeesawEngine(
            model_34b,
            cluster_a10_8,
            parse_config("P8"),
            parse_config("T4P2"),
            SeesawOptions(use_cpu_buffer=False),
        ).run(small_arxiv)
        assert r.num_requests == small_arxiv.num_requests
        assert r.swapped_out_tokens == 0

    def test_tiered_buffer_beats_no_buffer_under_pressure(
        self, model_70b, cluster_a10_8
    ):
        """Fig. 2's point: tiered buffering keeps decode batches full once
        the request population exceeds GPU KV capacity."""
        wl = sharegpt_workload(400, seed=8)
        mk = lambda opts: SeesawEngine(
            model_70b, cluster_a10_8, parse_config("P8"), parse_config("T4P2"), opts
        ).run(wl)
        tiered = mk(SeesawOptions())
        no_buffer = mk(SeesawOptions(use_cpu_buffer=False))
        assert tiered.throughput_rps > no_buffer.throughput_rps

    def test_nhd_layout_slower(self, model_70b, cluster_a10_8):
        from repro.costmodel.transfer import KVLayout

        wl = arxiv_workload(24, seed=6)
        mk = lambda layout: SeesawEngine(
            model_70b,
            cluster_a10_8,
            parse_config("P8"),
            parse_config("T4P2"),
            SeesawOptions(kv_layout=layout),
        ).run(wl)
        assert mk(KVLayout.NHD).total_time >= mk(KVLayout.HND).total_time
