"""Per-request distributed tracing on the shared virtual clock.

The telemetry hub (PR 7) answers *aggregate* questions; this module
answers the causal one — "where did *that request's* seconds go?" — by
recording a request-scoped span tree across every replica a request
touched, then decomposing its end-to-end latency into additive segments
via :mod:`repro.obs.critical_path`.

Design contract (same as telemetry): ``RunHooks.tracing`` is a
:class:`Tracer` or ``None``; when ``None`` every hot loop takes its
exact pre-tracing instruction path, so tracing off is bit-exact with the
pinned goldens. When on, engines and the cluster simulator record O(1)
per-request *marks* (dispatch, withdraw/re-dispatch, preempt/resume, KV
handoff) at life-cycle transitions — never per token — and the full
span tree is derived at :meth:`Tracer.finalize` by combining marks with
the sticky timestamps already carried by each
:class:`~repro.runtime.latency.RequestLatency` record. Paths that record
no marks at all (the fluid fast path, decoupled replicas) still produce
complete traces backfilled from their latency records.

The tracer also keeps one *phase track* per replica: each scheduler
iteration, re-shard, swap and idle jump becomes a :class:`PhaseSpan`.
Sampling does not apply (a phase belongs to a replica, not a request);
``--timeline`` draws the Fig. 2 schedule from a track.

Sampling keeps million-request runs bounded:

- ``all`` — trace every finished request;
- ``slo_miss`` — only requests that missed the TTFT/TPOT SLO;
- ``p99_exemplars`` — the worst 1% by e2e (at least one request);
- ``rate:<f>`` — a deterministic hash-based fraction ``f`` of requests
  (crc32 of the request id — no RNG, so runs stay reproducible and
  mark recording itself is filtered, bounding memory during the run).

Traces export as ``repro-trace-v1`` JSONL and as Chrome trace-event JSON
loadable in Perfetto (``chrome://tracing``): one track (pid) per
replica, one row (tid) per request, with flow arrows for the
follows-from links a storm re-dispatch or disaggregated KV handoff
creates between replicas.
"""

from __future__ import annotations

import json
import warnings
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence as TypingSequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.obs.critical_path import (
    DECODE,
    KV_HANDOFF,
    PREEMPT_STALL,
    PREFILL,
    PREFILL_WAIT,
    QUEUE_WAIT,
    STORM_REDISPATCH,
    SWAP_STALL,
    WARMUP_WAIT,
    Segment,
    check_conservation,
    decompose,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.latency import LatencyStats, RequestLatency
    from repro.runtime.metrics import EngineResult

TRACE_SCHEMA = "repro-trace-v1"

SAMPLING_MODES = ("all", "slo_miss", "p99_exemplars")

#: Cap on distinct requests whose marks are held during a run; beyond it
#: new requests are counted in ``dropped_requests`` instead of recorded.
DEFAULT_MAX_REQUESTS = 100_000

#: Cap on phase spans held across every replica track during a run;
#: beyond it new spans are counted in ``dropped_phases`` instead.
MAX_PHASE_SPANS = 500_000

#: Fraction of the population kept by ``p99_exemplars``.
_EXEMPLAR_FRACTION = 0.01


def parse_sampling(sampling: str) -> tuple[str, float]:
    """Validate a sampling spec; returns ``(mode, rate)``."""
    if sampling in SAMPLING_MODES:
        return sampling, 1.0
    if sampling.startswith("rate:"):
        try:
            rate = float(sampling.split(":", 1)[1])
        except ValueError:
            rate = -1.0
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(
                f"trace sampling rate must be in (0, 1], got {sampling!r}"
            )
        return "rate", rate
    raise ConfigurationError(
        f"unknown trace sampling {sampling!r}; expected one of "
        f"{', '.join(SAMPLING_MODES)} or rate:<f>"
    )


def _hash_keep(request_id: int, rate: float) -> bool:
    """Deterministic, seed-independent per-request coin flip."""
    return zlib.crc32(str(request_id).encode("ascii")) / 4294967296.0 < rate


# ---------------------------------------------------------------------- #
# Trace records
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Span:
    """One node of a request's span tree (root: the request itself)."""

    span_id: int
    parent_id: int | None
    kind: str
    start: float
    end: float
    replica: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Link:
    """A follows-from edge across replicas (storm re-dispatch, KV handoff)."""

    type: str
    kind: str
    t: float
    from_replica: int | None
    to_replica: int | None


@dataclass(frozen=True)
class RequestTrace:
    """The full trace of one request: span tree, critical path, links."""

    request_id: int
    arrival: float
    finish: float
    replica: int | None
    num_preemptions: int
    spans: tuple[Span, ...]
    segments: tuple[Segment, ...]
    links: tuple[Link, ...]

    @property
    def e2e(self) -> float:
        return max(0.0, self.finish - self.arrival)

    def seconds_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for seg in self.segments:
            out[seg.kind] = out.get(seg.kind, 0.0) + seg.duration
        return out


# ---------------------------------------------------------------------- #
# Phase spans (per-replica tracks)
# ---------------------------------------------------------------------- #

#: Phase span kinds engines emit (``idle``: event-driven serving jumped
#: the clock to the next arrival).
PHASE_KINDS = (
    "prefill", "decode", "mixed", "reshard", "swap_in", "swap_out", "stall", "idle"
)


@dataclass(frozen=True)
class PhaseSpan:
    """One timed span of replica activity.

    ``num_seqs`` counts the sequences involved (batch size for compute,
    transferred sequences for swaps), ``tokens`` the tokens processed or
    moved, and ``resident_seqs`` the sequences resident in GPU KV when the
    span started (the light-green area of Fig. 2).
    """

    kind: str
    start: float
    duration: float
    num_seqs: int = 0
    tokens: int = 0
    resident_seqs: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise SimulationError(f"unknown phase span kind {self.kind!r}")
        if self.start < 0 or self.duration < 0:
            raise SimulationError("phase spans must have non-negative time")

    @property
    def end(self) -> float:
        return self.start + self.duration


def phase_segments(spans: TypingSequence[PhaseSpan]) -> list[tuple[str, float, float]]:
    """Coalesce consecutive same-kind compute spans into (kind, start,
    end) segments — the prefill/mixed/decode/reshard alternation Fig. 2
    draws."""
    segments: list[tuple[str, float, float]] = []
    for e in sorted(spans, key=lambda e: e.start):
        if e.kind not in ("prefill", "decode", "mixed", "reshard"):
            continue
        if segments and segments[-1][0] == e.kind and e.start <= segments[-1][2] + 1e-9:
            kind, start, end = segments[-1]
            segments[-1] = (kind, start, max(end, e.end))
        else:
            segments.append((e.kind, e.start, e.end))
    return segments


def render_timeline(spans: TypingSequence[PhaseSpan], width: int = 72) -> str:
    """ASCII timeline of phase segments (a measured Fig. 2): one row per
    phase kind, ``#`` where it was active, over the latest span end."""
    segments = phase_segments(spans)
    if not segments:
        return "(empty trace)"
    span = max(e.end for e in spans)
    kinds = [k for k in ("prefill", "mixed", "decode", "reshard")
             if any(s[0] == k for s in segments)]
    label_w = max(len(k) for k in kinds)
    lines = [f"timeline over {span:.1f}s ({width} cols)"]
    for kind in kinds:
        row = [" "] * width
        for seg_kind, start, end in segments:
            if seg_kind == kind:
                lo = int(start / span * (width - 1))
                hi = max(lo, int(end / span * (width - 1)))
                row[lo : hi + 1] = "#" * (hi + 1 - lo)
        lines.append(f"{kind.ljust(label_w)} |{''.join(row)}|")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# The tracer
# ---------------------------------------------------------------------- #


class Tracer:
    """Request-scoped trace collector behind ``RunHooks.tracing``.

    Mark-recording methods (``note_*``) are safe to call from any layer
    that knows a request id (or, for :meth:`note_phase`, a replica id)
    and the virtual clock; they are O(1) and allocate only for requests
    the sampling spec keeps. All call sites must be guarded
    ``if tr is not None:`` so the off path stays instruction-identical
    (simlint R4 enforces it).
    """

    def __init__(
        self,
        sampling: str = "all",
        *,
        max_requests: int = DEFAULT_MAX_REQUESTS,
    ) -> None:
        if max_requests < 1:
            raise ConfigurationError("tracer max_requests must be >= 1")
        self.sampling = sampling
        self._mode, self._rate = parse_sampling(sampling)
        self.max_requests = max_requests
        self._marks: dict[int, list[tuple]] = {}
        self._warming: tuple[tuple[int, float, float], ...] = ()
        self._phases: dict[int, list[tuple]] = {}
        self._num_phases = 0
        self.dropped_requests = 0
        self.dropped_phases = 0
        self.num_requests = 0
        self.traces: tuple[RequestTrace, ...] = ()

    # ------------------------------------------------------------------ #
    # Marks (recorded during the run)
    # ------------------------------------------------------------------ #

    def _mark(self, request_id: int, mark: tuple) -> None:
        if self._mode == "rate" and not _hash_keep(request_id, self._rate):
            return
        marks = self._marks.get(request_id)
        if marks is None:
            if len(self._marks) >= self.max_requests:
                self.dropped_requests += 1
                return
            marks = self._marks[request_id] = []
        marks.append(mark)

    def note_dispatch(self, t: float, request_id: int, replica: int) -> None:
        """The router handed the request to ``replica`` at ``t``."""
        self._mark(request_id, ("dispatch", t, replica))

    def note_withdraw(self, t: float, request_id: int, replica: int) -> None:
        """A storm/drain withdrew the queued request from ``replica``."""
        self._mark(request_id, ("withdraw", t, replica))

    def note_redispatch(self, t: float, request_id: int, replica: int) -> None:
        """A withdrawn request was re-dispatched to ``replica``."""
        self._mark(request_id, ("redispatch", t, replica))

    def note_preempt(
        self, t: float, request_id: int, kind: str = "recompute"
    ) -> None:
        """The running request was preempted (``recompute`` or ``swap``)."""
        self._mark(request_id, ("preempt", t, kind))

    def note_resume(self, t: float, request_id: int) -> None:
        """The request made forward progress again after a preemption or
        a KV handoff.

        Ignored when no stall or handoff is open, so engines may call it
        at every prefill-completion / swap-in site without tracking state.
        """
        self._mark(request_id, ("resume", t))

    def note_handoff(
        self, t: float, request_id: int, src_replica: int, dst_replica: int
    ) -> None:
        """Prefill->decode KV handoff across pools at ``t``. It opens the
        transfer-wait segment, which the request's next
        :meth:`note_resume` (its decode-side admission) closes."""
        self._mark(request_id, ("handoff", t, src_replica, dst_replica))

    def note_phase(
        self, replica: int, kind: str, start: float, duration: float,
        num_seqs: int = 0, tokens: int = 0, resident_seqs: int = 0,
    ) -> None:
        """``replica`` spent ``[start, start + duration)`` in one phase
        span (see :class:`PhaseSpan` for the fields)."""
        if self._num_phases >= MAX_PHASE_SPANS:
            self.dropped_phases += 1
            return
        self._num_phases += 1
        track = self._phases.get(replica)
        if track is None:
            track = self._phases[replica] = []
        track.append((kind, start, duration, num_seqs, tokens, resident_seqs))

    def note_phases(self, replica: int, rows: list[tuple]) -> None:
        """Record ``rows``, each a :meth:`note_phase` argument tuple
        ``(kind, start, duration, num_seqs, tokens, resident_seqs)``, on
        ``replica``'s track: the same track and ``dropped_phases`` as one
        :meth:`note_phase` call per row, at the cost of one."""
        room = max(0, MAX_PHASE_SPANS - self._num_phases)
        if len(rows) > room:
            self.dropped_phases += len(rows) - room
            rows = rows[:room]
        if not rows:
            return
        self._num_phases += len(rows)
        track = self._phases.get(replica)
        if track is None:
            track = self._phases[replica] = []
        track.extend(rows)

    def phase_replicas(self) -> list[int]:
        """Ids of the replicas that recorded at least one phase span."""
        return sorted(self._phases)

    def phases(self, replica: int) -> tuple[PhaseSpan, ...]:
        """``replica``'s phase track in recording order (empty when it
        recorded none)."""
        return tuple(PhaseSpan(*row) for row in self._phases.get(replica, ()))

    def set_warming_windows(
        self, windows: Iterable[tuple[int, float, float]]
    ) -> None:
        """Record fleet warming windows ``(replica_id, created_at,
        active_at)`` so waits can be attributed to warm-up."""
        self._warming = tuple(windows)

    # ------------------------------------------------------------------ #
    # Finalize (derive traces from marks + latency records)
    # ------------------------------------------------------------------ #

    def finalize(
        self,
        result: "EngineResult | None",
        *,
        ttft_slo: float | None = None,
        tpot_slo: float | None = None,
    ) -> tuple[RequestTrace, ...]:
        """Build traces for the sampled subset of finished requests."""
        if result is None or result.latency is None:
            self.traces = ()
            return self.traces
        latency = result.latency
        self.num_requests = latency.num_requests
        selected = latency.records_at(
            self._select(latency, ttft_slo=ttft_slo, tpot_slo=tpot_slo)
        )
        traces = []
        for rec in selected:
            trace = self._build(rec)
            check_conservation(rec.request_id, trace.segments, rec.e2e)
            traces.append(trace)
        self.traces = tuple(traces)
        return self.traces

    def _select(
        self,
        latency: "LatencyStats",
        *,
        ttft_slo: float | None,
        tpot_slo: float | None,
    ) -> np.ndarray:
        """Rows of ``latency`` to trace, in tracing order."""
        ids = latency.request_id
        if self._mode == "all":
            return np.arange(ids.shape[0])
        if self._mode == "rate":
            return np.flatnonzero(
                [_hash_keep(i, self._rate) for i in ids.tolist()]
            )
        if self._mode == "slo_miss":
            miss = np.zeros(ids.shape[0], dtype=bool)
            if ttft_slo is not None:
                miss |= latency.ttft_values() > ttft_slo
            if tpot_slo is not None:
                has_decode, tpot = latency.tpot_values()
                miss |= has_decode & (tpot > tpot_slo)
            return np.flatnonzero(miss)
        # p99_exemplars: worst fraction by e2e (ties to the lower request
        # id), at least one request, traced in request-id order.
        count = max(1, int(ids.shape[0] * _EXEMPLAR_FRACTION))
        worst = np.lexsort((ids, -latency.e2e_values()))[:count]
        return worst[np.argsort(ids[worst], kind="stable")]

    def _build(self, rec: "RequestLatency") -> RequestTrace:
        arrival, finish = rec.arrival_time, rec.finish_time
        marks = sorted(self._marks.get(rec.request_id, ()), key=lambda m: m[1])
        dispatch: float | None = None
        replica: int | None = None
        overlays: list[tuple[str, float, float, int | None]] = []
        links: list[Link] = []
        open_stall: tuple[str, float] | None = None
        open_handoff: tuple[float, int] | None = None
        pending_withdraw: tuple[float, int] | None = None
        for mark in marks:
            tag = mark[0]
            if tag == "dispatch":
                _, t, rep = mark
                if dispatch is None:
                    dispatch = t
                replica = rep
            elif tag == "withdraw":
                _, t, rep = mark
                if pending_withdraw is None:
                    pending_withdraw = (t, rep)
            elif tag == "redispatch":
                _, t, rep = mark
                if pending_withdraw is not None:
                    w_t, w_rep = pending_withdraw
                    # The storm's cost is the re-queued wait at the new
                    # replica: withdraw and re-dispatch share one instant
                    # in the coupled loop, so the span runs until the
                    # request is actually scheduled.
                    overlays.append(
                        (STORM_REDISPATCH, w_t, max(t, rec.first_schedule_time), rep)
                    )
                    links.append(
                        Link("follows_from", "redispatch", t, w_rep, rep)
                    )
                    pending_withdraw = None
                replica = rep
            elif tag == "preempt":
                _, t, kind = mark
                if open_stall is None:
                    open_stall = (kind, t)
            elif tag == "resume":
                _, t = mark
                if open_handoff is not None:
                    start, dst = open_handoff
                    if t > start:
                        overlays.append((KV_HANDOFF, start, t, dst))
                    open_handoff = None
                if open_stall is not None:
                    kind, start = open_stall
                    stall = SWAP_STALL if kind == "swap" else PREEMPT_STALL
                    overlays.append((stall, start, t, replica))
                    open_stall = None
            elif tag == "handoff":
                _, t, src, dst = mark
                links.append(Link("follows_from", "kv_handoff", t, src, dst))
                open_handoff = (t, dst)
                replica = dst
        if open_stall is not None:
            kind, start = open_stall
            stall = SWAP_STALL if kind == "swap" else PREEMPT_STALL
            overlays.append((stall, start, finish, replica))
        if pending_withdraw is not None:
            w_t, w_rep = pending_withdraw
            if rec.first_schedule_time > w_t:
                overlays.append(
                    (STORM_REDISPATCH, w_t, rec.first_schedule_time, w_rep)
                )
        wait_start = arrival if dispatch is None else dispatch
        for rep, created, active in self._warming:
            lo = max(wait_start, created)
            hi = min(rec.first_schedule_time, active)
            if hi > lo:
                overlays.append((WARMUP_WAIT, lo, hi, rep))
        segments = decompose(
            arrival,
            finish,
            first_schedule=rec.first_schedule_time,
            first_token=rec.first_token_time,
            dispatch=dispatch,
            overlays=overlays,
            replica=replica,
        )
        spans = [
            Span(
                span_id=0,
                parent_id=None,
                kind="request",
                start=arrival,
                end=finish,
                replica=replica,
            )
        ]
        for i, seg in enumerate(segments):
            spans.append(
                Span(
                    span_id=i + 1,
                    parent_id=0,
                    kind=seg.kind,
                    start=seg.start,
                    end=seg.end,
                    replica=seg.replica,
                )
            )
        return RequestTrace(
            request_id=rec.request_id,
            arrival=arrival,
            finish=finish,
            replica=replica,
            num_preemptions=rec.num_preemptions,
            spans=tuple(spans),
            segments=segments,
            links=tuple(links),
        )


# ---------------------------------------------------------------------- #
# repro-trace-v1 JSONL export / import
# ---------------------------------------------------------------------- #


def _trace_row(trace: RequestTrace) -> dict:
    return {
        "request_id": trace.request_id,
        "arrival": trace.arrival,
        "finish": trace.finish,
        "e2e": trace.e2e,
        "replica": trace.replica,
        "num_preemptions": trace.num_preemptions,
        "spans": [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "kind": s.kind,
                "start": s.start,
                "end": s.end,
                "replica": s.replica,
            }
            for s in trace.spans
        ],
        "segments": [
            {
                "kind": s.kind,
                "start": s.start,
                "end": s.end,
                "replica": s.replica,
            }
            for s in trace.segments
        ],
        "links": [
            {
                "type": ln.type,
                "kind": ln.kind,
                "t": ln.t,
                "from_replica": ln.from_replica,
                "to_replica": ln.to_replica,
            }
            for ln in trace.links
        ],
    }


def write_trace_jsonl(
    tracer: Tracer, path: str, *, meta: dict | None = None
) -> int:
    """Write finalized traces as repro-trace-v1 JSONL; returns the number
    of traces written (the file carries one extra header line)."""
    header = {
        "schema": TRACE_SCHEMA,
        "sampling": tracer.sampling,
        "num_requests": tracer.num_requests,
        "num_traced": len(tracer.traces),
        "dropped_requests": tracer.dropped_requests,
        "meta": dict(meta or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for trace in tracer.traces:
            fh.write(json.dumps(_trace_row(trace), sort_keys=True) + "\n")
    return len(tracer.traces)


@dataclass(frozen=True)
class TraceArtifact:
    """A loaded repro-trace-v1 artifact."""

    sampling: str
    num_requests: int
    num_traced: int
    dropped_requests: int
    meta: dict
    traces: tuple[RequestTrace, ...]
    truncated: bool = False


def _trace_from_row(row: dict) -> RequestTrace:
    spans = tuple(
        Span(
            span_id=s["id"],
            parent_id=s["parent"],
            kind=s["kind"],
            start=s["start"],
            end=s["end"],
            replica=s.get("replica"),
        )
        for s in row.get("spans", ())
    )
    segments = tuple(
        Segment(
            kind=s["kind"],
            start=s["start"],
            end=s["end"],
            replica=s.get("replica"),
        )
        for s in row.get("segments", ())
    )
    links = tuple(
        Link(
            type=ln["type"],
            kind=ln["kind"],
            t=ln["t"],
            from_replica=ln.get("from_replica"),
            to_replica=ln.get("to_replica"),
        )
        for ln in row.get("links", ())
    )
    return RequestTrace(
        request_id=row["request_id"],
        arrival=row["arrival"],
        finish=row["finish"],
        replica=row.get("replica"),
        num_preemptions=row.get("num_preemptions", 0),
        spans=spans,
        segments=segments,
        links=links,
    )


def load_trace_jsonl(path: str) -> TraceArtifact:
    """Load a repro-trace-v1 artifact.

    A truncated final line (an interrupted writer) is tolerated with a
    warning rather than silently under-reporting or crashing; any other
    malformed content is an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    if not lines:
        raise ConfigurationError(f"empty trace artifact: {path}")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"unreadable trace artifact header in {path}: {exc}"
        ) from exc
    if header.get("schema") != TRACE_SCHEMA:
        raise ConfigurationError(
            f"not a {TRACE_SCHEMA} artifact: {path} "
            f"(schema={header.get('schema')!r})"
        )
    traces = []
    truncated = False
    for idx, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            if idx == len(lines):
                truncated = True
                warnings.warn(
                    f"trace artifact {path} is truncated at line {idx}; "
                    f"loaded {len(traces)} of {header.get('num_traced', '?')} "
                    "traces",
                    stacklevel=2,
                )
                break
            raise ConfigurationError(
                f"malformed trace artifact row at {path}:{idx}: {exc}"
            ) from exc
        traces.append(_trace_from_row(row))
    if not truncated and header.get("num_traced") not in (None, len(traces)):
        truncated = True
        warnings.warn(
            f"trace artifact {path} reports {header['num_traced']} traces "
            f"but contains {len(traces)}; treating it as truncated",
            stacklevel=2,
        )
    return TraceArtifact(
        sampling=header.get("sampling", "all"),
        num_requests=header.get("num_requests", len(traces)),
        num_traced=header.get("num_traced", len(traces)),
        dropped_requests=header.get("dropped_requests", 0),
        meta=header.get("meta", {}),
        traces=tuple(traces),
        truncated=truncated,
    )


# ---------------------------------------------------------------------- #
# Chrome trace-event export (Perfetto / chrome://tracing)
# ---------------------------------------------------------------------- #


def chrome_trace_events(traces: TypingSequence[RequestTrace]) -> dict:
    """Traces as a Chrome trace-event JSON object.

    One track (pid) per replica, one row (tid) per request; segments are
    complete ("X") slices with microsecond timestamps, and follows-from
    links become flow ("s"/"f") arrow pairs between replicas.
    """
    events: list[dict] = []
    flow_id = 0
    for trace in traces:
        for seg in trace.segments:
            events.append(
                {
                    "name": seg.kind,
                    "cat": "request",
                    "ph": "X",
                    "ts": seg.start * 1e6,
                    "dur": seg.duration * 1e6,
                    "pid": seg.replica if seg.replica is not None else 0,
                    "tid": trace.request_id,
                    "args": {
                        "request_id": trace.request_id,
                        "e2e_s": trace.e2e,
                        "num_preemptions": trace.num_preemptions,
                    },
                }
            )
        for link in trace.links:
            flow_id += 1
            src = link.from_replica if link.from_replica is not None else 0
            dst = link.to_replica if link.to_replica is not None else 0
            common = {
                "name": link.kind,
                "cat": "flow",
                "id": flow_id,
                "tid": trace.request_id,
            }
            events.append(
                {**common, "ph": "s", "ts": link.t * 1e6, "pid": src}
            )
            events.append(
                {**common, "ph": "f", "bp": "e", "ts": link.t * 1e6, "pid": dst}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(traces: TypingSequence[RequestTrace], path: str) -> int:
    """Write a Perfetto-loadable Chrome trace JSON; returns event count."""
    payload = chrome_trace_events(traces)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(payload["traceEvents"])


# ---------------------------------------------------------------------- #
# ASCII flame view
# ---------------------------------------------------------------------- #

_FLAME_GLYPHS = {
    QUEUE_WAIT: "q",
    PREFILL_WAIT: "w",
    WARMUP_WAIT: "W",
    STORM_REDISPATCH: "s",
    PREFILL: "P",
    KV_HANDOFF: "K",
    PREEMPT_STALL: "x",
    SWAP_STALL: "S",
    DECODE: "D",
}


def render_trace_flame(trace: RequestTrace, width: int = 64) -> str:
    """One request's critical path as a proportional ASCII bar."""
    if width < 8:
        raise SimulationError("flame width must be >= 8")
    e2e = trace.e2e
    lines = [
        f"request {trace.request_id}"
        + (f" @ replica {trace.replica}" if trace.replica is not None else "")
        + f": e2e {e2e:.3f}s"
        + (
            f", {trace.num_preemptions} preemption(s)"
            if trace.num_preemptions
            else ""
        )
    ]
    if e2e <= 0.0 or not trace.segments:
        lines.append("  (zero-length request)")
        return "\n".join(lines)
    bar = []
    for seg in trace.segments:
        cells = max(1, round(seg.duration / e2e * width))
        bar.append(_FLAME_GLYPHS.get(seg.kind, "?") * cells)
    lines.append("  [" + "".join(bar) + "]")
    for seg in trace.segments:
        glyph = _FLAME_GLYPHS.get(seg.kind, "?")
        rep = f" @r{seg.replica}" if seg.replica is not None else ""
        lines.append(
            f"  {glyph} {seg.kind:<16} {seg.duration:>9.4f}s "
            f"({seg.duration / e2e * 100.0:5.1f}%)"
            f"  [{seg.start:.3f}, {seg.end:.3f}]{rep}"
        )
    for link in trace.links:
        lines.append(
            f"  ~ {link.kind}: replica {link.from_replica} -> "
            f"{link.to_replica} @ {link.t:.3f}s"
        )
    return "\n".join(lines)
