"""Arrival processes: determinism, target rates, burstiness, traces.

Also home of the scalar diurnal warp (:func:`_scalar_diurnal`), the
oracle the lockstep numpy warp in ``repro.workloads.arrivals`` must match
bit for bit.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.arrivals import (
    _inverse_warp,
    bursty_arrivals,
    diurnal_arrivals,
    make_arrivals,
    offered_rate,
    poisson_arrivals,
    stamp_arrivals,
    trace_arrivals,
)
from repro.workloads.synthetic import constant_workload


def base(n=400):
    return constant_workload(n, prompt_len=100, output_len=10)


def _scalar_invert(target, rate_rps, period_s, amplitude):
    """Scalar inverse of the cumulative diurnal intensity at ``target``:
    the per-arrival bisection the numpy warp replaced, kept verbatim."""
    omega = 2.0 * math.pi / period_s

    def cumulative(t: float) -> float:
        return rate_rps * (t + amplitude / omega * (1.0 - math.cos(omega * t)))

    lo, hi = 0.0, target / rate_rps + period_s
    while cumulative(hi) < target:
        hi += period_s
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if cumulative(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _scalar_diurnal(
    base, rate_rps, period_s, *, amplitude=0.8, burstiness=1.0, seed=None, step=1
):
    """Oracle for :func:`diurnal_arrivals`: every ``step``-th arrival,
    stamped through the stationary stamper and inverted one at a time."""
    if burstiness == 1.0:
        stationary = poisson_arrivals(base, rate_rps, seed=seed)
    else:
        stationary = bursty_arrivals(base, rate_rps, burstiness=burstiness, seed=seed)
    return [
        _scalar_invert(rate_rps * t, rate_rps, period_s, amplitude)
        for t in stationary.arrival_time[::step].tolist()
    ]


def assert_numpy_cos_is_libm(phases):
    """The lockstep warp is bit-exact with the oracle only where ``np.cos``
    rounds exactly as libm's ``math.cos``; name that cause if it fails."""
    phases = np.asarray(phases, dtype=float)
    fast = np.cos(phases)
    libm = np.array([math.cos(x) for x in phases.tolist()])
    diverged = np.flatnonzero(fast.view(np.int64) != libm.view(np.int64))
    assert diverged.size == 0, (
        f"numpy {np.__version__} np.cos differs from libm math.cos on "
        f"{diverged.size} of {phases.size} phases (first at "
        f"x={phases[diverged[0]]!r}); the diurnal warp cannot be bit-exact "
        "with its scalar oracle on this platform"
    )


def gaps(workload):
    arrivals = np.array([r.arrival_time for r in workload.requests])
    return np.diff(np.concatenate([[0.0], arrivals]))


class TestStamping:
    def test_preserves_lengths_and_order(self):
        wl = poisson_arrivals(base(50), 10.0, seed=1)
        for orig, stamped in zip(base(50).requests, wl.requests):
            assert stamped.request_id == orig.request_id
            assert stamped.prompt_len == orig.prompt_len
            assert stamped.output_len == orig.output_len
        arrivals = [r.arrival_time for r in wl.requests]
        assert arrivals == sorted(arrivals)
        assert all(t > 0 for t in arrivals)

    def test_stamp_arrivals_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            stamp_arrivals(base(5), [1.0, 2.0])

    def test_explicit_stamp(self):
        wl = stamp_arrivals(base(3), [0.0, 1.0, 2.5])
        assert [r.arrival_time for r in wl.requests] == [0.0, 1.0, 2.5]


class TestPoisson:
    def test_deterministic_per_seed(self):
        a = poisson_arrivals(base(), 5.0, seed=42)
        b = poisson_arrivals(base(), 5.0, seed=42)
        c = poisson_arrivals(base(), 5.0, seed=43)
        assert [r.arrival_time for r in a.requests] == [
            r.arrival_time for r in b.requests
        ]
        assert [r.arrival_time for r in a.requests] != [
            r.arrival_time for r in c.requests
        ]

    def test_hits_target_rate(self):
        wl = poisson_arrivals(base(2000), 8.0, seed=0)
        assert offered_rate(wl) == pytest.approx(8.0, rel=0.1)

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(base(), 0.0)
        with pytest.raises(ConfigurationError):
            poisson_arrivals(base(), -3.0)


class TestBursty:
    def test_hits_target_rate(self):
        wl = bursty_arrivals(base(4000), 8.0, burstiness=4.0, seed=0)
        assert offered_rate(wl) == pytest.approx(8.0, rel=0.15)

    def test_burstier_than_poisson(self):
        """Gamma gaps with cv^2=6 must show more gap variability than
        exponential gaps at the same mean rate."""
        p = gaps(poisson_arrivals(base(3000), 10.0, seed=5))
        b = gaps(bursty_arrivals(base(3000), 10.0, burstiness=6.0, seed=5))
        cv2 = lambda g: g.var() / g.mean() ** 2
        assert cv2(b) > 2 * cv2(p)

    def test_burstiness_one_is_poisson_shaped(self):
        g = gaps(bursty_arrivals(base(3000), 10.0, burstiness=1.0, seed=5))
        assert g.var() / g.mean() ** 2 == pytest.approx(1.0, rel=0.2)

    def test_invalid_burstiness(self):
        with pytest.raises(ConfigurationError):
            bursty_arrivals(base(), 5.0, burstiness=0.0)


class TestTrace:
    def write_json(self, tmp_path, payload, name="trace.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p

    def test_replays_normalized_timestamps(self, tmp_path):
        p = self.write_json(tmp_path, [100.0, 101.5, 100.5, 104.0])
        wl = trace_arrivals(base(4), p)
        # Sorted and shifted so the earliest arrival is t=0.
        assert [r.arrival_time for r in wl.requests] == [0.0, 0.5, 1.5, 4.0]
        assert "trace(trace.json)" in wl.name

    def test_json_object_and_record_forms(self, tmp_path):
        obj = self.write_json(tmp_path, {"arrivals": [5.0, 6.0]}, "a.json")
        recs = self.write_json(
            tmp_path,
            [{"arrival_time": 5.0}, {"timestamp": 6.0}],
            "b.json",
        )
        for p in (obj, recs):
            wl = trace_arrivals(base(2), p)
            assert [r.arrival_time for r in wl.requests] == [0.0, 1.0]

    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("arrival_time\n10.0\n10.25\n11.5\n")
        wl = trace_arrivals(base(3), p)
        assert [r.arrival_time for r in wl.requests] == [0.0, 0.25, 1.5]

    def test_extra_timestamps_ignored(self, tmp_path):
        p = self.write_json(tmp_path, [0.0, 1.0, 2.0, 3.0, 4.0])
        wl = trace_arrivals(base(2), p)
        assert [r.arrival_time for r in wl.requests] == [0.0, 1.0]

    def test_short_trace_rejected(self, tmp_path):
        p = self.write_json(tmp_path, [0.0, 1.0])
        with pytest.raises(ConfigurationError, match="2 timestamps for 3"):
            trace_arrivals(base(3), p)

    def test_missing_and_malformed_traces(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            trace_arrivals(base(1), tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            trace_arrivals(base(1), bad)
        nonnum = self.write_json(tmp_path, [1.0, "soon"], "nonnum.json")
        with pytest.raises(ConfigurationError, match="not a timestamp"):
            trace_arrivals(base(2), nonnum)

    def test_example_trace_ships_and_replays(self):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples" / "arrival_trace.json"
        wl = trace_arrivals(base(24), example)
        arrivals = [r.arrival_time for r in wl.requests]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)
        assert offered_rate(wl) > 0

    def test_make_arrivals_trace_prefix(self, tmp_path):
        p = self.write_json(tmp_path, [0.0, 2.0])
        wl = make_arrivals(base(2), f"trace:{p}")
        assert [r.arrival_time for r in wl.requests] == [0.0, 2.0]
        with pytest.raises(ConfigurationError, match="trace:<path>"):
            make_arrivals(base(2), "trace:")


class TestDispatch:
    def test_make_arrivals_kinds(self):
        assert "poisson" in make_arrivals(base(), "poisson", 5.0).name
        assert "bursty" in make_arrivals(base(), "bursty", 5.0).name
        with pytest.raises(ConfigurationError):
            make_arrivals(base(), "uniform", 5.0)

    def test_offered_rate_rejects_offline(self):
        with pytest.raises(ConfigurationError):
            offered_rate(base())

    def test_offered_rate_empty_workload_raises_configuration_error(self):
        """The empty case must surface as ConfigurationError, not the bare
        ValueError ``max()`` raises on an empty sequence."""
        from types import SimpleNamespace

        empty = SimpleNamespace(arrival_time=np.zeros(0))
        with pytest.raises(ConfigurationError, match="empty workload"):
            offered_rate(empty)


class TestDiurnal:
    def test_deterministic_per_seed(self):
        from repro.workloads.arrivals import diurnal_arrivals

        a = diurnal_arrivals(base(64), 2.0, 60.0, seed=3)
        b = diurnal_arrivals(base(64), 2.0, 60.0, seed=3)
        assert [r.arrival_time for r in a.requests] == [
            r.arrival_time for r in b.requests
        ]
        c = diurnal_arrivals(base(64), 2.0, 60.0, seed=4)
        assert [r.arrival_time for r in a.requests] != [
            r.arrival_time for r in c.requests
        ]

    def test_mean_rate_and_order_preserved(self):
        from repro.workloads.arrivals import diurnal_arrivals

        wl = diurnal_arrivals(base(256), 4.0, 30.0, seed=0)
        stamps = [r.arrival_time for r in wl.requests]
        assert stamps == sorted(stamps)
        assert len(stamps) / max(stamps) == pytest.approx(4.0, rel=0.25)

    def test_day_shape_modulates_density(self):
        """With amplitude 0.8 the rising half of each period must hold
        clearly more arrivals than the falling half (the analytic ratio is
        (pi + 1.6)/(pi - 1.6) ~ 3.1)."""
        from repro.workloads.arrivals import diurnal_arrivals

        period = 60.0
        wl = diurnal_arrivals(base(400), 2.0, period, amplitude=0.8, seed=0)
        phases = [(r.arrival_time % period) / period for r in wl.requests]
        peak = sum(1 for p in phases if p < 0.5)
        trough = len(phases) - peak
        assert peak > 2 * trough

    def test_bursty_base_process(self):
        from repro.workloads.arrivals import diurnal_arrivals

        smooth = diurnal_arrivals(base(64), 2.0, 60.0, burstiness=1.0, seed=0)
        bursty = diurnal_arrivals(base(64), 2.0, 60.0, burstiness=8.0, seed=0)
        assert [r.arrival_time for r in smooth.requests] != [
            r.arrival_time for r in bursty.requests
        ]

    def test_validation(self):
        from repro.workloads.arrivals import diurnal_arrivals

        with pytest.raises(ConfigurationError, match="rate"):
            diurnal_arrivals(base(4), 0.0, 60.0)
        with pytest.raises(ConfigurationError, match="period"):
            diurnal_arrivals(base(4), 1.0, 0.0)
        with pytest.raises(ConfigurationError, match="amplitude"):
            diurnal_arrivals(base(4), 1.0, 60.0, amplitude=1.0)

    def test_make_arrivals_diurnal_prefix(self):
        wl = make_arrivals(base(32), "diurnal:45", 2.0, seed=1)
        assert "diurnal" in wl.name and "T=45" in wl.name
        with pytest.raises(ConfigurationError, match="diurnal"):
            make_arrivals(base(4), "diurnal:fast", 2.0)


class TestTraceRescale:
    def write_json(self, tmp_path, stamps):
        p = tmp_path / "trace.json"
        p.write_text(json.dumps(stamps))
        return p

    def test_rescales_to_target_offered_rate(self, tmp_path):
        p = self.write_json(tmp_path, [0.0, 1.0, 3.0, 10.0])
        wl = trace_arrivals(base(4), p, rate_rps=2.0)
        assert offered_rate(wl) == pytest.approx(2.0)
        # Shape preserved: ratios between gaps survive the linear rescale.
        stamps = [r.arrival_time for r in wl.requests]
        assert stamps[2] / stamps[1] == pytest.approx(3.0)

    def test_make_arrivals_passes_request_rate(self, tmp_path):
        p = self.write_json(tmp_path, [0.0, 1.0, 3.0, 10.0])
        scaled = make_arrivals(base(4), f"trace:{p}", 5.0)
        assert offered_rate(scaled) == pytest.approx(5.0)
        raw = make_arrivals(base(4), f"trace:{p}", 0.0)
        assert offered_rate(raw) == pytest.approx(0.4)

    def test_zero_span_trace_cannot_rescale(self, tmp_path):
        p = self.write_json(tmp_path, [4.0, 4.0])
        with pytest.raises(ConfigurationError, match="span"):
            trace_arrivals(base(2), p, rate_rps=1.0)
        # Without a target rate the degenerate trace still replays.
        wl = trace_arrivals(base(2), p)
        assert [r.arrival_time for r in wl.requests] == [0.0, 0.0]

    def test_rescale_rate_must_be_positive(self, tmp_path):
        p = self.write_json(tmp_path, [0.0, 1.0])
        for bad in (-1.0, float("inf")):
            with pytest.raises(ConfigurationError, match="positive"):
                trace_arrivals(base(2), p, rate_rps=bad)


# Arrivals of constant_workload(50) at 5 req/s (diurnal: period 8 s,
# burstiness 4), requests 0, 1, 24 and 49, as the stampers drew them when
# each warped arrival was bisected one at a time.
PINNED_HEX = {
    ("poisson", 0): ("0x1.16800711af815p-3", "0x1.5c10442d8e7e0p-2",
                     "0x1.89de4a2e6cd9ap+2", "0x1.646c0a6c74ed5p+3"),
    ("bursty", 0): ("0x1.0db1f7349fb1bp-3", "0x1.0db325d61c60dp-3",
                    "0x1.38b325f1cdccbp+2", "0x1.5eb6ced882231p+3"),
    ("diurnal", 0): ("0x1.0362145ebc278p-3", "0x1.03632cba2df68p-3",
                     "0x1.8c31a4c78f38ap+1", "0x1.3ef47d6b2c8b2p+3"),
    ("poisson", 7): ("0x1.21cdd1d757de3p-3", "0x1.62dd1755d00b1p-2",
                     "0x1.3e232ca1ee70bp+2", "0x1.34f0e986d01b4p+3"),
    ("bursty", 7): ("0x1.f44e3962be93ap-4", "0x1.a7d2fbf107216p-2",
                    "0x1.e1fa2b28c4fa9p+1", "0x1.ddc4d7e32dba8p+2"),
    ("diurnal", 7): ("0x1.e2770222f02c2p-4", "0x1.7bddc29b86a5cp-2",
                     "0x1.35890ab76b11ap+1", "0x1.d4d5a693216c4p+2"),
}


class TestStampingContract:
    @pytest.mark.parametrize("as_array", [False, True])
    def test_stamp_matches_replace_path(self, as_array):
        from repro.workloads.datasets import sharegpt_workload

        wl = sharegpt_workload(num_requests=6, seed=2)
        stamps = [0, 0.5, np.float64(1.25), 2, 3.0, 7.5]
        arrivals = np.array(stamps, dtype=float) if as_array else stamps
        stamped = stamp_arrivals(wl, arrivals)
        expected = tuple(
            replace(r, arrival_time=float(t))
            for r, t in zip(wl.requests, stamps, strict=True)
        )
        assert stamped.requests == expected
        assert stamped.name == wl.name
        assert [r.request_id for r in stamped.requests] == [
            r.request_id for r in wl.requests
        ]
        assert all(type(r.arrival_time) is float for r in stamped.requests)
        with pytest.raises(ConfigurationError, match="5 arrival times for 6"):
            stamp_arrivals(wl, arrivals[:5])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_stampers_pinned(self, seed):
        b = base(50)
        stamped = {
            "poisson": poisson_arrivals(b, 5.0, seed=seed),
            "bursty": bursty_arrivals(b, 5.0, burstiness=4.0, seed=seed),
            "diurnal": diurnal_arrivals(b, 5.0, 8.0, burstiness=4.0, seed=seed),
        }
        for kind, wl in stamped.items():
            got = tuple(wl.requests[i].arrival_time.hex() for i in (0, 1, 24, 49))
            assert got == PINNED_HEX[kind, seed], kind


class TestLockstepWarp:
    @pytest.mark.parametrize(
        "amplitude,burstiness",
        list(itertools.product((0.0, 0.5, 0.99), (1.0, 10.0))),
    )
    def test_bit_identical_to_scalar_oracle(self, amplitude, burstiness):
        grid = itertools.product(
            (1, 7, 200), (0.5, 2.0, 140.0), (0.01, 8.0, 8640.0), (0, 1)
        )
        for n, rate, period, seed in grid:
            case = dict(amplitude=amplitude, burstiness=burstiness, seed=seed)
            got = [
                r.arrival_time
                for r in diurnal_arrivals(base(n), rate, period, **case).requests
            ]
            omega = 2.0 * math.pi / period
            assert_numpy_cos_is_libm([omega * t for t in got])
            want = _scalar_diurnal(base(n), rate, period, **case)
            assert [t.hex() for t in got] == [t.hex() for t in want], (
                n, rate, period, case,
            )

    def test_sub_resolution_period_fails_loudly(self):
        # At rate 49 the target 1.0 maps to a float t with 49 * t < 1.0,
        # and adding a 1e-18 s period cannot move t: the scalar bracket
        # expansion would step hi by period_s forever.
        target, rate, period = 1.0, 49.0, 1e-18
        hi = target / rate + period
        assert hi + period == hi
        assert rate * hi < target
        with pytest.raises(ConfigurationError, match="too short"):
            _inverse_warp(np.array([target]), rate, period, 0.8)

    def test_overflowing_phase_fails_loudly(self):
        # omega * t overflows to inf (math.cos raised ValueError on it).
        with pytest.raises(ConfigurationError, match="too short"):
            diurnal_arrivals(base(64), 1.0, 1e-307, seed=0)


class TestNonFinite:
    NAN, INF = float("nan"), float("inf")

    def test_stamp_rejects_non_finite_arrivals(self):
        for bad in ([self.INF, 1.0], [1.0, self.NAN]):
            with pytest.raises(ConfigurationError, match="finite"):
                stamp_arrivals(base(2), bad)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_stampers_reject_non_finite_parameters(self, value):
        b = base(4)
        calls = {
            "arrival rate": [
                lambda: poisson_arrivals(b, value),
                lambda: bursty_arrivals(b, value),
                lambda: diurnal_arrivals(b, value, 60.0),
            ],
            "burstiness": [
                lambda: bursty_arrivals(b, 2.0, burstiness=value),
                lambda: diurnal_arrivals(b, 2.0, 60.0, burstiness=value),
            ],
            "diurnal period": [
                lambda: diurnal_arrivals(b, 2.0, value),
                lambda: make_arrivals(b, f"diurnal:{value}", 2.0),
            ],
            "diurnal amplitude": [
                lambda: diurnal_arrivals(b, 2.0, 60.0, amplitude=value),
            ],
        }
        for what, stampers in calls.items():
            for stamp in stampers:
                with pytest.raises(ConfigurationError, match=what):
                    stamp()
