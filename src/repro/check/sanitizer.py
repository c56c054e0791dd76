"""simsan — the shared-clock invariant sanitizer.

An opt-in runtime checker (``RunHooks.sanitize`` / ``--sanitize``)
that asserts, *while* a run executes, the invariants the simulator's
correctness rests on. The coupled (and autoscaled) event loop exercises
every rule; a decoupled run notes each planned dispatch (S2, S5), checks
each replica's clock as it steps (S1) and sweeps each replica at drain
(S3, S4):

- **S1 clock-monotonic** — per-replica and cluster clocks never move
  backwards.
- **S2 event-causality** — no request is dispatched before its arrival
  time, and the event heap never delivers an event later than the
  linear-scan oracle's minimum (a late pop means an earlier event was
  missed).
- **S3 token-conservation** — every finished request produced exactly
  its workload's prompt + output tokens, and every dispatched request
  finished by drain.
- **S4 kv-balance** — all KV blocks allocated during the run were freed
  by drain and the allocator's O(1) running total matches its per-
  sequence books.
- **S5 request-identity** — request ids stay unique across dispatch and
  storm re-dispatch (an id is owned by exactly one replica at a time).
- **S6 fleet-lifecycle** — replica lifecycle transitions only move along
  provisioning -> warming -> active -> draining -> stopped, and never at
  an earlier virtual time than the same replica's previous transition
  (a drained replica cannot stop before the order that drained it).

Violations raise :class:`SanitizerError` carrying the rule id, the
virtual timestamp, and the replica id. ``sanitize=None`` (the default)
keeps every loop on its exact unsanitized instruction path, bit-exact
with the pinned goldens — the same contract the telemetry hub honors.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError

#: Absolute tolerance for virtual-clock comparisons (the event loops use
#: 1e-12 admission epsilons; violations we care about are far larger).
_TOL = 1e-9

RULES: dict[str, str] = {
    "S1": "clock-monotonic",
    "S2": "event-causality",
    "S3": "token-conservation",
    "S4": "kv-balance",
    "S5": "request-identity",
    "S6": "fleet-lifecycle",
}

#: Legal lifecycle edges (strict forward order, no skips).
LEGAL_TRANSITIONS = frozenset(
    {
        ("provisioning", "warming"),
        ("warming", "active"),
        ("active", "draining"),
        ("draining", "stopped"),
    }
)


class SanitizerError(SimulationError):
    """A violated runtime invariant, with rule id / time / replica."""

    def __init__(
        self,
        rule: str,
        message: str,
        *,
        time: float | None = None,
        replica: int | None = None,
    ) -> None:
        self.rule = rule
        self.time = time
        self.replica = replica
        where = []
        if time is not None:
            where.append(f"t={time:.6f}")
        if replica is not None:
            where.append(f"replica={replica}")
        prefix = f"[{rule}:{RULES.get(rule, '?')}]"
        if where:
            prefix += f" ({', '.join(where)})"
        super().__init__(f"{prefix} {message}")


class Sanitizer:
    """Runtime invariant checks for one run (decoupled or coupled).

    Every hook is O(1) except :meth:`note_event_pop` (the heap-vs-oracle
    cross-check, O(replicas) per popped event) and the drain-time
    conservation sweep — the cost of sanitizing, paid only when opted
    in. ``run()`` calls :meth:`begin_run` before each run, so one
    instance can watch a sequence of runs; the per-rule check counters
    make a clean run auditable (``describe()``) rather than silently
    green.
    """

    def __init__(self) -> None:
        self.checks: dict[str, int] = {rule: 0 for rule in RULES}
        self._owner: dict[int, int] = {}  # request_id -> owning replica
        self._cluster_clock = -math.inf
        self._transition_at: dict[int, float] = {}  # replica -> last S6 stamp

    def begin_run(self) -> None:
        """Reset per-run state (request ownership, the cluster-clock
        watermark) so one sanitizer instance can watch a sequence of runs
        — e.g. every candidate an autotuner sweep simulates. The per-rule
        check counters keep accumulating across runs."""
        self._owner.clear()
        self._cluster_clock = -math.inf
        self._transition_at.clear()

    # ------------------------------------------------------------------ #
    # S1 — clock monotonicity
    # ------------------------------------------------------------------ #

    def note_replica_clock(self, replica: int, old: float, new: float) -> None:
        self.checks["S1"] += 1
        if new < old - _TOL:
            raise SanitizerError(
                "S1",
                f"replica clock moved backwards: {old:.9f} -> {new:.9f}",
                time=new,
                replica=replica,
            )

    def note_cluster_clock(self, now: float) -> None:
        self.checks["S1"] += 1
        if now < self._cluster_clock - _TOL:
            raise SanitizerError(
                "S1",
                f"cluster clock moved backwards: {self._cluster_clock:.9f} "
                f"-> {now:.9f}",
                time=now,
            )
        self._cluster_clock = max(self._cluster_clock, now)

    # ------------------------------------------------------------------ #
    # S2 — event causality
    # ------------------------------------------------------------------ #

    def note_event_pop(self, t: float, replica: int, oracle_t: float) -> None:
        """A validated heap pop at ``t`` vs. the linear-oracle minimum
        over every live replica's ``next_event_time()``."""
        self.checks["S2"] += 1
        if t > oracle_t + _TOL:
            raise SanitizerError(
                "S2",
                f"event heap delivered t={t:.9f} after the linear-oracle "
                f"minimum {oracle_t:.9f} (an earlier event was missed)",
                time=t,
                replica=replica,
            )

    # ------------------------------------------------------------------ #
    # S2 + S5 — dispatch identity and causality
    # ------------------------------------------------------------------ #

    def note_dispatch(self, request, replica: int, now: float) -> None:
        self.checks["S2"] += 1
        if now < request.arrival_time - _TOL:
            raise SanitizerError(
                "S2",
                f"request {request.request_id} dispatched at {now:.9f} "
                f"before its arrival at {request.arrival_time:.9f}",
                time=now,
                replica=replica,
            )
        self.checks["S5"] += 1
        owner = self._owner.get(request.request_id)
        if owner is not None:
            raise SanitizerError(
                "S5",
                f"request id {request.request_id} dispatched to replica "
                f"{replica} while already owned by replica {owner}",
                time=now,
                replica=replica,
            )
        self._owner[request.request_id] = replica

    def note_withdraw(self, request, replica: int, now: float) -> None:
        self.checks["S5"] += 1
        owner = self._owner.get(request.request_id)
        if owner != replica:
            raise SanitizerError(
                "S5",
                f"request id {request.request_id} withdrawn from replica "
                f"{replica} but owned by {owner}",
                time=now,
                replica=replica,
            )
        del self._owner[request.request_id]

    # ------------------------------------------------------------------ #
    # S3 — fluid-path analogs
    # ------------------------------------------------------------------ #

    def note_fluid_request(
        self,
        request_id: int,
        replica: int,
        *,
        arrival: float,
        sched: float,
        first: float,
        finish: float,
    ) -> None:
        """Causal ordering of one fluid request's latency timeline.

        The fluid path has no per-token events to conserve, so the S3
        analog per request is the ordering the mean-field algebra must
        preserve: arrival <= schedule <= first token <= finish (a sign
        error in the drain-tail correction or the boundary-quantization
        term shows up here first).
        """
        self.checks["S3"] += 1
        timeline = (
            ("arrival", arrival),
            ("sched", sched),
            ("first-token", first),
            ("finish", finish),
        )
        for (a_name, a), (b_name, b) in zip(timeline, timeline[1:], strict=False):
            if b < a - _TOL:
                raise SanitizerError(
                    "S3",
                    f"request {request_id}: {b_name} at {b:.9f} precedes "
                    f"{a_name} at {a:.9f}",
                    time=finish,
                    replica=replica,
                )

    def check_fluid_conservation(
        self,
        *,
        num_requests: int,
        dispatched: int,
        prompt_tokens: int,
        served_prompt_tokens: float,
        decode_tokens: int,
        expected_decode_tokens: int,
        total_tokens: int,
        expected_total_tokens: int,
        now: float,
    ) -> None:
        """End-of-run conservation over the mean-field accumulators.

        The fluid replicas carry aggregate counters instead of sequences,
        so drain-time S3 checks sums: every workload request was
        dispatched exactly once, the decode/total token ledgers match the
        workload exactly (integers), and the prefill busy-seconds times
        the analytic rate reproduces the prompt tokens served (a float
        accumulation, tolerated to 1e-6 relative).
        """
        self.checks["S3"] += 1
        if dispatched != num_requests:
            raise SanitizerError(
                "S3",
                f"{dispatched} requests dispatched across the fleet != "
                f"{num_requests} in the workload",
                time=now,
            )
        if decode_tokens != expected_decode_tokens:
            raise SanitizerError(
                "S3",
                f"fleet decoded {decode_tokens} tokens != workload "
                f"{expected_decode_tokens} (sum of output_len - 1)",
                time=now,
            )
        if total_tokens != expected_total_tokens:
            raise SanitizerError(
                "S3",
                f"fleet token ledger {total_tokens} != workload prompt + "
                f"output total {expected_total_tokens}",
                time=now,
            )
        tol = max(1.0, 1e-6 * prompt_tokens)
        if abs(served_prompt_tokens - prompt_tokens) > tol:
            raise SanitizerError(
                "S3",
                f"prefill streams served {served_prompt_tokens:.3f} prompt "
                f"tokens != workload {prompt_tokens} (fluid queues are "
                "work-conserving: busy-seconds x rate must reproduce the "
                "prompt tokens)",
                time=now,
            )

    # ------------------------------------------------------------------ #
    # S6 — fleet lifecycle
    # ------------------------------------------------------------------ #

    def note_transition(self, replica: int, old: str, new: str, now: float) -> None:
        self.checks["S6"] += 1
        if (old, new) not in LEGAL_TRANSITIONS:
            raise SanitizerError(
                "S6",
                f"illegal lifecycle transition {old} -> {new} (legal: "
                "provisioning -> warming -> active -> draining -> stopped)",
                time=now,
                replica=replica,
            )
        last = self._transition_at.get(replica, -math.inf)
        if now < last - _TOL:
            raise SanitizerError(
                "S6",
                f"lifecycle transition {old} -> {new} at {now:.9f} is stamped "
                f"before the replica's previous transition at {last:.9f}",
                time=now,
                replica=replica,
            )
        self._transition_at[replica] = now

    # ------------------------------------------------------------------ #
    # S3 + S4 — drain-time conservation
    # ------------------------------------------------------------------ #

    def check_drained(self, replica: int, state, now: float) -> None:
        """Conservation sweep over one replica at end of run."""
        self.checks["S3"] += 1
        leftover = len(state.pending) + len(state.waiting) + len(state.running)
        if leftover:
            raise SanitizerError(
                "S3",
                f"{leftover} dispatched requests never finished by drain",
                time=now,
                replica=replica,
            )
        for seq in state.finished:
            req = seq.request
            if seq.generated_tokens + 1 != req.output_len:
                raise SanitizerError(
                    "S3",
                    f"request {req.request_id}: decoded "
                    f"{seq.generated_tokens} + 1 prefill-emitted token != "
                    f"workload output_len {req.output_len}",
                    time=now,
                    replica=replica,
                )
            if seq.prefilled_tokens != req.prompt_len:
                raise SanitizerError(
                    "S3",
                    f"request {req.request_id}: prefilled "
                    f"{seq.prefilled_tokens} tokens != workload prompt_len "
                    f"{req.prompt_len}",
                    time=now,
                    replica=replica,
                )
        self.check_kv(state.kv, replica, now)

    def check_kv(self, kv, replica: int, now: float) -> None:
        """KV-balance at drain: everything allocated was freed, and the
        allocator's O(1) running total matches its per-sequence books."""
        self.checks["S4"] += 1
        if kv.num_sequences != 0 or kv.used_blocks != 0:
            raise SanitizerError(
                "S4",
                f"KV cache not drained: {kv.used_blocks} blocks across "
                f"{kv.num_sequences} sequences still allocated (a block was "
                "leaked, or freed twice and re-used)",
                time=now,
                replica=replica,
            )
        books = sum(kv._blocks.values()) + sum(kv._reserved_blocks.values())
        if books != kv._used:
            raise SanitizerError(
                "S4",
                f"KV accounting out of balance: running total {kv._used} != "
                f"per-sequence books {books}",
                time=now,
                replica=replica,
            )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> dict[str, int]:
        return dict(self.checks)

    def describe(self) -> str:
        parts = ", ".join(
            f"{rule} {RULES[rule]}: {count}" for rule, count in self.checks.items()
        )
        return f"{self.total_checks} checks passed ({parts})"
