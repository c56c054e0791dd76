"""Arrival processes: stamping live-traffic arrival times onto workloads.

The offline experiments assume every request exists at t=0; online serving
is characterised by *when* requests show up. This module turns any
existing :class:`~repro.workloads.spec.WorkloadSpec` into an online one by
stamping arrival times from a configurable process:

- ``poisson`` — memoryless arrivals at a target rate (exponential gaps),
  the standard open-loop serving model;
- ``bursty`` — Gamma-distributed inter-arrival gaps whose coefficient of
  variation exceeds 1 (Gamma-modulated Poisson): the same mean rate but
  arrivals clump into bursts, the regime where admission queues actually
  build. ``burstiness`` is the squared coefficient of variation of the
  gaps; 1.0 recovers Poisson exactly.
- ``diurnal:<period>`` — sinusoidal day-shape rate modulation layered on
  top of the Poisson/bursty stampers (:func:`diurnal_arrivals`): the
  instantaneous rate follows ``rate * (1 + amplitude * sin(2*pi*t /
  period))`` while short-range burstiness comes from the base process.
  The inverse time-warp runs as one lockstep numpy bisection over every
  arrival, bit-identical to bisecting each arrival alone with
  ``math.cos``; that scalar bisection is kept only in
  ``tests/test_arrivals.py``, as the oracle the fast path is checked
  against.
- ``trace:<path>`` — replay recorded timestamps from a JSON or CSV log
  (:func:`trace_arrivals`): production traffic without a parametric
  model. A target ``rate_rps`` rescales the replay to a chosen offered
  rate at the recorded shape.

Stamping preserves request order (request ``i`` gets the ``i``-th arrival),
so a workload's length distribution is independent of its arrival process.
All processes are deterministic per seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import make_rng
from repro.workloads.spec import WorkloadSpec

ARRIVAL_KINDS = ("poisson", "bursty")
# Prefix forms accepted by make_arrivals / the CLI.
TRACE_PREFIX = "trace:"
DIURNAL_PREFIX = "diurnal:"


def stamp_arrivals(
    base: WorkloadSpec, arrivals: Sequence[float], name: str | None = None
) -> WorkloadSpec:
    """Return ``base`` with the given arrival times stamped on in order.

    The arrival column is validated like every workload column (a finite,
    non-negative time per request, reported for the first offending
    request), and the other three columns are carried over unchanged.
    """
    times = np.asarray(arrivals, dtype=np.float64)
    if times.shape != (base.num_requests,):
        raise ConfigurationError(
            f"{times.size} arrival times for {base.num_requests} requests"
        )
    return WorkloadSpec(
        name or base.name,
        request_id=base.request_id,
        prompt_len=base.prompt_len,
        output_len=base.output_len,
        arrival_time=times,
    )


def _require_positive(value: float, what: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{what} must be positive and finite, got {value!r}")


def _stationary_times(
    n: int, rate_rps: float, burstiness: float | None, seed: int | None
) -> np.ndarray:
    """Cumulative arrival times of the stationary process at ``rate_rps``:
    exponential gaps when ``burstiness`` is None, else Gamma gaps with
    squared coefficient of variation ``burstiness``."""
    rng = make_rng(seed)
    if burstiness is None:
        gaps = rng.exponential(1.0 / rate_rps, size=n)
    else:
        gaps = rng.gamma(1.0 / burstiness, burstiness / rate_rps, size=n)
    return np.cumsum(gaps)


def poisson_arrivals(
    base: WorkloadSpec, rate_rps: float, seed: int | None = None
) -> WorkloadSpec:
    """Stamp Poisson arrivals at ``rate_rps`` requests per second."""
    _require_positive(rate_rps, "arrival rate")
    return stamp_arrivals(
        base,
        _stationary_times(base.num_requests, rate_rps, None, seed),
        name=f"{base.name}+poisson({rate_rps:g}rps)",
    )


def bursty_arrivals(
    base: WorkloadSpec,
    rate_rps: float,
    burstiness: float = 4.0,
    seed: int | None = None,
) -> WorkloadSpec:
    """Stamp Gamma-modulated bursty arrivals.

    Inter-arrival gaps are Gamma with mean ``1/rate_rps`` and squared
    coefficient of variation ``burstiness`` (shape ``1/burstiness``, scale
    ``burstiness/rate_rps``). Larger values clump arrivals harder at the
    same mean rate; ``burstiness=1`` is exactly Poisson.
    """
    _require_positive(rate_rps, "arrival rate")
    _require_positive(burstiness, "burstiness")
    return stamp_arrivals(
        base,
        _stationary_times(base.num_requests, rate_rps, burstiness, seed),
        name=f"{base.name}+bursty({rate_rps:g}rps,cv2={burstiness:g})",
    )


def _inverse_warp(
    target: np.ndarray, rate_rps: float, period_s: float, amplitude: float
) -> np.ndarray:
    """Invert the cumulative intensity ``Lambda`` at every ``target`` at once.

    Lockstep bisection: each element runs exactly the float operations of
    a scalar bisection of its own target (bracket ``[0, target/rate +
    period]``, 80 halvings, midpoint of the last bracket), so the result
    is bit-identical to inverting the targets one by one. Elements whose
    bracket stopped moving leave the lockstep early; their remaining
    halvings would not change them.
    """
    omega = 2.0 * math.pi / period_s

    def cumulative(t: np.ndarray) -> np.ndarray:
        # Integral of lambda(t): rate * (t + amp/omega * (1 - cos(omega t))).
        return rate_rps * (t + amplitude / omega * (1.0 - np.cos(omega * t)))

    lo = np.zeros_like(target)
    hi = target / rate_rps + period_s
    # Lambda(t) >= rate * t, so hi brackets its target unless adding
    # period_s could not move it past target / rate (a period below the
    # float spacing of the times), and then stepping hi by period_s never
    # moves it either. An overflowing omega * t makes cumulative() NaN.
    # Both fail here rather than loop forever or stamp NaN.
    with np.errstate(all="ignore"):
        bracketed = bool(np.all(cumulative(hi) >= target))
    if not bracketed:
        raise ConfigurationError(
            f"diurnal period {period_s:g}s is too short to warp arrivals up "
            f"to {float(target.max()) / rate_rps:g}s in float64"
        )
    # Active set: a step that leaves an element's (lo, hi) unchanged
    # leaves the next step the same midpoint and the same comparison, so
    # the element is settled for good and drops out of the bisection.
    out = np.empty_like(target)
    active = np.arange(target.shape[0])
    goal = target
    for _ in range(80):
        mid = (lo + hi) / 2.0
        below = cumulative(mid) < goal
        new_lo = np.where(below, mid, lo)
        new_hi = np.where(below, hi, mid)
        moved = (new_lo != lo) | (new_hi != hi)
        lo, hi = new_lo, new_hi
        if not moved.all():
            settled = ~moved
            out[active[settled]] = (lo[settled] + hi[settled]) / 2.0
            active, lo, hi, goal = active[moved], lo[moved], hi[moved], goal[moved]
    out[active] = (lo + hi) / 2.0
    return out


def diurnal_arrivals(
    base: WorkloadSpec,
    rate_rps: float,
    period_s: float,
    *,
    amplitude: float = 0.8,
    burstiness: float = 1.0,
    seed: int | None = None,
) -> WorkloadSpec:
    """Stamp arrivals whose long-run rate follows a sinusoidal day-shape.

    The instantaneous intensity is ``lambda(t) = rate_rps * (1 +
    amplitude * sin(2*pi*t / period_s))``. Implemented as an inverse
    time-warp of a stationary stamper at the same mean rate: the base
    process (Poisson, or Gamma-bursty when ``burstiness > 1``) supplies
    cumulative arrivals, and each is mapped through the inverse of the
    cumulative intensity ``Lambda(t)``, so short-range burstiness
    survives while the day curve shapes the long run. ``amplitude`` must
    be in ``[0, 1)`` so the intensity stays positive (0 recovers the base
    process up to the warp's identity).

    The warp bisects all arrivals in lockstep as whole numpy arrays. Each
    arrival is bit-identical to a scalar bisection of its own target with
    ``math.cos``; that scalar oracle lives in ``tests/test_arrivals.py``,
    which checks the two agree bit for bit, and that ``np.cos`` matches
    ``math.cos`` on the platform.
    """
    _require_positive(rate_rps, "arrival rate")
    _require_positive(period_s, "diurnal period")
    if not 0 <= amplitude < 1:
        raise ConfigurationError("diurnal amplitude must be in [0, 1)")
    _require_positive(burstiness, "burstiness")
    times = _stationary_times(
        base.num_requests,
        rate_rps,
        None if burstiness == 1.0 else burstiness,
        seed,
    )
    return stamp_arrivals(
        base,
        _inverse_warp(rate_rps * times, rate_rps, period_s, amplitude),
        name=(
            f"{base.name}+diurnal({rate_rps:g}rps,T={period_s:g}s,"
            f"a={amplitude:g})"
        ),
    )


def _load_trace_timestamps(path: str | Path) -> list[float]:
    """Parse arrival timestamps from a JSON or CSV log file.

    JSON accepts a bare list of numbers, a list of objects carrying an
    ``arrival_time``/``timestamp`` key, or ``{"arrivals": [...]}``. Any
    other suffix is parsed as CSV with the timestamp in the first column
    (a single non-numeric header row is tolerated).
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"arrival trace {str(p)!r} does not exist")
    raw: list[object]
    if p.suffix.lower() == ".json":
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"arrival trace {p.name}: invalid JSON ({exc})"
            ) from exc
        if isinstance(data, dict):
            data = data.get("arrivals")
            if data is None:
                raise ConfigurationError(
                    f"arrival trace {p.name}: JSON object needs an 'arrivals' key"
                )
        if not isinstance(data, list):
            raise ConfigurationError(
                f"arrival trace {p.name}: expected a list of timestamps"
            )
        raw = [
            d.get("arrival_time", d.get("timestamp")) if isinstance(d, dict) else d
            for d in data
        ]
    else:
        with p.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and row[0].strip()]
        if rows:
            try:
                float(rows[0][0])
            except ValueError:
                rows = rows[1:]  # header row
        raw = [row[0] for row in rows]
    timestamps: list[float] = []
    for i, value in enumerate(raw):
        try:
            t = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"arrival trace {p.name}: entry {i} ({value!r}) is not a timestamp"
            ) from None
        if not math.isfinite(t):
            raise ConfigurationError(
                f"arrival trace {p.name}: entry {i} is not finite"
            )
        timestamps.append(t)
    if not timestamps:
        raise ConfigurationError(f"arrival trace {p.name} holds no timestamps")
    return timestamps


def trace_arrivals(
    base: WorkloadSpec,
    path: str | Path,
    name: str | None = None,
    rate_rps: float | None = None,
) -> WorkloadSpec:
    """Replay recorded arrival timestamps onto ``base``.

    Timestamps are sorted and shifted so the earliest arrival lands at
    t=0 (logs usually carry absolute epochs); request ``i`` gets the
    ``i``-th arrival, as with the parametric stampers. The trace must hold
    at least one timestamp per request — extra trailing timestamps are
    ignored so one production log can drive workloads of any smaller size.

    ``rate_rps`` rescales the replayed timeline linearly so the replay's
    offered rate (requests / span) hits the target while keeping the
    recorded *shape* — the knob that lets one production log sweep a
    load-latency curve.
    """
    timestamps = _load_trace_timestamps(path)
    if len(timestamps) < base.num_requests:
        raise ConfigurationError(
            f"arrival trace {Path(path).name} holds {len(timestamps)} "
            f"timestamps for {base.num_requests} requests"
        )
    stamps = sorted(timestamps)[: base.num_requests]
    origin = stamps[0]
    shifted = [t - origin for t in stamps]
    label = f"{base.name}+trace({Path(path).name})"
    if rate_rps is not None:
        _require_positive(rate_rps, "trace rescale rate")
        span = shifted[-1]
        if span <= 0:
            raise ConfigurationError(
                f"arrival trace {Path(path).name} has no time span to "
                "rescale (all timestamps coincide)"
            )
        recorded_rate = len(shifted) / span
        scale = recorded_rate / rate_rps
        shifted = [t * scale for t in shifted]
        label = f"{label}@{rate_rps:g}rps"
    return stamp_arrivals(base, shifted, name=name or label)


def make_arrivals(
    base: WorkloadSpec,
    kind: str,
    rate_rps: float = 0.0,
    *,
    burstiness: float = 4.0,
    seed: int | None = None,
) -> WorkloadSpec:
    """Dispatch by process name (the CLI's ``--arrival`` values).

    ``kind`` is one of :data:`ARRIVAL_KINDS` (which consume ``rate_rps``),
    ``diurnal:<period>`` (sinusoidal day-shape at mean ``rate_rps``; a
    ``burstiness`` above 1 rides the bursty stamper underneath), or
    ``trace:<path>`` (which replays the log — at its recorded rate when
    ``rate_rps`` is 0, rescaled to ``rate_rps`` otherwise).
    """
    if kind.startswith(TRACE_PREFIX):
        path = kind[len(TRACE_PREFIX):]
        if not path:
            raise ConfigurationError("trace arrival needs a path: trace:<path>")
        return trace_arrivals(
            base, path, rate_rps=rate_rps if rate_rps > 0 else None
        )
    if kind.startswith(DIURNAL_PREFIX):
        spec = kind[len(DIURNAL_PREFIX):]
        try:
            period = float(spec)
        except ValueError:
            raise ConfigurationError(
                f"malformed diurnal arrival {kind!r}: expected "
                f"{DIURNAL_PREFIX}<period-seconds>"
            ) from None
        return diurnal_arrivals(
            base, rate_rps, period, burstiness=burstiness, seed=seed
        )
    if kind == "poisson":
        return poisson_arrivals(base, rate_rps, seed=seed)
    if kind == "bursty":
        return bursty_arrivals(base, rate_rps, burstiness=burstiness, seed=seed)
    raise ConfigurationError(
        f"unknown arrival process {kind!r}; one of {ARRIVAL_KINDS}, "
        f"{DIURNAL_PREFIX}<period>, or {TRACE_PREFIX}<path>"
    )


def offered_rate(workload: WorkloadSpec) -> float:
    """Empirical request rate of a stamped workload (requests / span)."""
    arrivals = workload.arrival_time
    if arrivals.size == 0:
        raise ConfigurationError(
            "cannot compute the offered rate of an empty workload"
        )
    span = float(arrivals.max())
    if span <= 0:
        raise ConfigurationError("workload has no arrival span (offline?)")
    return arrivals.size / span
