"""Event-coupled cluster simulation: every DP replica on one shared clock.

The decoupled router (:meth:`repro.routing.policies.Router.route`) commits
every dispatch before any replica simulates, ranking replicas by a
*predicted* load ledger. :class:`ClusterSimulator` instead interleaves
dispatch into the discrete-event loop: it repeatedly pops the earliest
event among {next request arrival, each replica's next iteration
boundary, fleet membership changes}, runs replica iterations up to each
arrival, and only then asks the dispatch policy to place the arrival —
against the replicas' **observed** state (actual queued tokens, measured
preemptions, real idle gaps) via :class:`~repro.cluster.replica.ObservedLoad`.

Replica membership is owned by a :class:`~repro.cluster.fleet.ReplicaFleet`
rather than fixed at t=0: an optional autoscaler
(:mod:`repro.cluster.autoscaler`) is consulted on the shared clock and
its scale decisions become lifecycle events — new replicas pay the
cost-model provisioning latency (weight load + KV warmup) before joining
the dispatch membership, and scaled-down replicas drain their in-flight
work without accepting new dispatches. The routing policies rank whatever
membership is dispatchable at each decision instant.

Storm handling is observed too: when a replica's *measured* preemption
count since its last reset crosses the storm threshold, every request its
scheduler has not yet seen is withdrawn and re-dispatched to the calmest
replica — the coupled analog of the decoupled router's
predicted-preemption rebalancing.

With the ``static`` policy and no autoscaler nothing depends on load or
membership at all, so a coupled run reproduces the decoupled per-replica
results bit-exactly on offline workloads (the golden-equivalence contract
the tests pin).
"""

from __future__ import annotations

from typing import Sequence as TypingSequence, TYPE_CHECKING

import heapq
import math

from repro.cluster.fleet import build_fleet, workload_averages
from repro.cluster.replica import _EPS, ReplicaSim
from repro.errors import ConfigurationError, SimulationError
from repro.routing.policies import DEFAULT_STORM_PREEMPTIONS
from repro.runtime.metrics import EngineResult, merge_dp_results
from repro.runtime.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.base import BaseEngine


class ClusterSimulator:
    """Shared-clock co-simulation of an engine's DP replica fleet."""

    def __init__(
        self,
        engine: "BaseEngine",
        requests: TypingSequence[Request],
        use_heap: bool = True,
    ) -> None:
        self.engine = engine
        self.requests = list(requests)
        if not self.requests:
            raise ConfigurationError("cannot simulate an empty workload")
        # The policy object supplies select() and the rate context; its
        # predictive ledgers are replaced by observed views of the live
        # replica simulations, narrowed to the dispatchable membership
        # before every decision.
        self.policy = engine.make_router(self.requests)
        # The run's telemetry hub, tracer and sanitizer (RunHooks); a None
        # slot keeps the event loop on its exact unobserved path.
        self.hooks = engine.hooks
        self.fleet, self.autoscaler = build_fleet(
            engine, self.policy.context, workload_averages(self.requests)
        )
        self.redispatched_requests = 0
        self.redispatches = 0
        # Lazy event heap over (next_event_time, replica_id, serial): the
        # newest serial per replica wins, older entries are dropped on
        # pop. ``use_heap=False`` keeps the pre-refactor linear scan over
        # every live replica per arrival (the equivalence oracle).
        self.use_heap = use_heap
        self._heap: list[tuple[float, int, int]] = []
        self._serial: dict[int, int] = {}

    @property
    def sims(self) -> list[ReplicaSim]:
        """Every replica simulation that exists, in replica-id order."""
        return list(self.fleet.sims())

    # ------------------------------------------------------------------ #
    # Event heap
    # ------------------------------------------------------------------ #

    def _push(self, sim: ReplicaSim) -> None:
        """(Re-)schedule a replica: bump its serial (invalidating every
        older heap entry) and push its next event time if finite."""
        rid = sim.replica_id
        serial = self._serial.get(rid, 0) + 1
        self._serial[rid] = serial
        t = sim.next_event_time()
        if not math.isinf(t):
            heapq.heappush(self._heap, (t, rid, serial))

    def _advance_heap(self, now: float, stepped: set[int]) -> None:
        """Pop and execute every replica event that precedes ``now``."""
        heap = self._heap
        serials = self._serial
        handles = self.fleet.handles
        san = self.hooks.sanitize
        while heap:
            t, rid, serial = heap[0]
            if t + _EPS >= now:
                return
            heapq.heappop(heap)
            if serial != serials.get(rid):
                continue  # superseded by a later push
            handle = handles[rid]
            sim = handle.sim
            if sim is None or not handle.live:
                continue
            if san is not None:
                # S2: a validated pop must not come later than the linear
                # oracle's minimum over every live replica (O(R), the cost
                # of sanitizing).
                oracle = min(
                    (s.next_event_time() for s in self.fleet.live_sims()),
                    default=math.inf,
                )
                san.note_event_pop(t, rid, oracle)
            sim.advance(now)
            stepped.add(rid)
            self._push(sim)

    # ------------------------------------------------------------------ #

    def run(self) -> EngineResult:
        """Co-simulate to completion; returns the merged cluster result."""
        reqs = self.requests
        order = sorted(range(len(reqs)), key=lambda i: (reqs[i].arrival_time, i))
        fleet = self.fleet
        use_heap = self.use_heap
        tel = self.hooks.telemetry
        trc = self.hooks.tracing
        san = self.hooks.sanitize
        last_now = -1.0
        # Replicas that executed events since the last snapshot refresh —
        # every other replica's preemption counter is unchanged, so
        # re-snapshotting it would be a no-op.
        stepped: set[int] = set()
        if use_heap:
            for sim in fleet.live_sims():
                self._push(sim)

        for i in order:
            req = reqs[i]
            now = req.arrival_time
            if san is not None:
                san.note_cluster_clock(now)
            # Commit membership events due by this instant (replicas whose
            # provisioning/warming finished join the dispatchable set).
            for handle in fleet.poll(now):
                if use_heap and handle.sim is not None:
                    self._push(handle.sim)
            if now > last_now:
                # Stepping to a new instant: refresh the recency window so
                # only preemptions committed by *this* advance read as
                # "just happened" (the decaying slo penalty).
                if use_heap:
                    # Sorted for determinism: `stepped` is a set, and while
                    # these snapshot writes commute today, iteration order
                    # must never become load-bearing (simlint R3).
                    for rid in sorted(stepped):
                        sim = fleet.handles[rid].sim
                        if sim is not None:
                            sim.preemption_snapshot = sim.observed_preemptions()
                    stepped.clear()
                else:
                    for sim in fleet.live_sims():
                        sim.preemption_snapshot = sim.observed_preemptions()
                last_now = now
            # Pop every replica event (iteration boundary or idle jump)
            # that precedes this arrival — draining replicas keep working
            # through their in-flight backlog too.
            if use_heap:
                self._advance_heap(now, stepped)
            else:
                for sim in fleet.live_sims():
                    sim.advance(now)
            fleet.reap_drained(now)
            if self.autoscaler is not None:
                self.autoscaler.note_arrival(now)
                target = self.autoscaler.decide(now, fleet)
                if target is not None:
                    fleet.resize_to(target, now, reason=self.autoscaler.last_reason)
            if tel is not None:
                for t in tel.boundaries("cluster", now):
                    fleet.sample_cluster(tel, t)
            loads = fleet.dispatch_loads()
            if not loads:
                raise SimulationError("fleet has no dispatchable replica")
            self.policy.loads = loads
            rid = self.policy.select(req, i, now)
            handle = fleet.handle(rid)
            if not handle.dispatchable or handle.sim is None:
                raise SimulationError(
                    f"{self.policy.name} selected non-dispatchable replica {rid}"
                )
            sim = handle.sim
            if san is not None:
                san.note_dispatch(req, rid, now)
            if trc is not None:
                trc.note_dispatch(now, req.request_id, rid)
            sim.inject(req)
            sim.note_queue_depth(now)
            if use_heap:
                self._push(sim)
            if tel is not None:
                tel.event(now, "dispatch", request_id=req.request_id, replica=rid)
            if self.policy.rebalance_on_storm and len(loads) > 1:
                moved = self._redispatch_storms(now)
                if moved:
                    self.redispatched_requests += moved
                    self.redispatches += 1
                    if tel is not None:
                        tel.event(now, "storm", moved=moved)

        for sim in fleet.live_sims():
            sim.finish()
        makespan = fleet.makespan()
        fleet.close(makespan)
        if san is not None:
            # Drain-time conservation sweep (S3 token conservation + S4
            # KV balance) over every replica that ever simulated.
            for sim in fleet.sims():
                san.check_drained(sim.replica_id, sim.state, sim.clock)
        if trc is not None:
            trc.set_warming_windows(fleet.warming_windows())

        if tel is not None:
            # Close out the cluster timeline: sample every boundary
            # between the last arrival and the end of the run (the drain
            # tail, where queues empty and draining replicas stop).
            for t in tel.boundaries("cluster", makespan):
                fleet.sample_cluster(tel, t)
        results = [
            self.engine._replica_result(sim.state, sim.clock)
            for sim in fleet.sims()
            if sim.state.requests
        ]
        if not results:
            raise SimulationError("coupled run produced no replica results")
        return merge_dp_results(
            results,
            engine=self.engine.name,
            label=self.engine.label(),
            router=fleet.router_stats(
                self.policy.name,
                makespan,
                self.redispatched_requests,
                self.redispatches,
            ),
            # Partial-lifetime replicas may all have drained before the
            # fleet's last event, so the run ends at the cluster makespan
            # unless a replica reports a later end (an engine's own floor).
            total_time=max(makespan, max(r.total_time for r in results)),
        )

    # ------------------------------------------------------------------ #
    # Observed storm re-dispatch
    # ------------------------------------------------------------------ #

    def _redispatch_storms(self, now: float) -> int:
        """Move unseen requests away from replicas in a measured storm.

        A dispatchable replica whose observed preemption count since its
        last reset reached the threshold has every still-pending (never
        admitted) request withdrawn and re-dispatched to the least-loaded
        calm replica — ranked at the shared instant ``now`` so replicas
        whose committed iterations overshot the clock are compared fairly.
        Requiring a calm target keeps two storming replicas from bouncing
        the same requests back and forth; with no calm replica the work
        stays put. Draining replicas neither give up their in-flight
        backlog nor receive new work here.
        """
        sims = [h.sim for h in self.fleet.active_handles() if h.sim is not None]
        storming = [
            sim
            for sim in sims
            if sim.observed_preemptions() - sim.preemption_mark
            >= DEFAULT_STORM_PREEMPTIONS
        ]
        if not storming:
            return 0
        calm = [sim for sim in sims if sim not in storming]
        if not calm:
            return 0
        # Rank the calm pool once; every inject adds the request's token
        # footprint to the target's total (token counts are integers well
        # below 2**53, so the running float totals are exact and match a
        # recomputed outstanding_tokens bit-for-bit).
        candidates = [(s.outstanding_tokens(now), s.replica_id, s) for s in calm]
        heapq.heapify(candidates)
        san = self.hooks.sanitize
        trc = self.hooks.tracing
        moved = 0
        for src in storming:
            stolen = src.state.steal_pending()
            # Re-arm the watermark whether or not anything was stealable:
            # a measured storm is a point-in-time event, and leaving the
            # mark would exclude the replica from the calm pool forever.
            src.preemption_mark = src.observed_preemptions()
            if not stolen:
                continue
            if self.use_heap:
                self._push(src)
            for req in stolen:
                total, rid, target = heapq.heappop(candidates)
                if san is not None:
                    # S5: ownership moves src -> target exactly once.
                    san.note_withdraw(req, src.replica_id, now)
                    san.note_dispatch(req, rid, now)
                if trc is not None:
                    trc.note_withdraw(now, req.request_id, src.replica_id)
                    trc.note_redispatch(now, req.request_id, rid)
                target.inject(req)
                target.note_queue_depth(now)
                target.redispatched_in += 1
                moved += 1
                if self.use_heap:
                    self._push(target)
                heapq.heappush(
                    candidates,
                    (total + float(req.prompt_len + req.output_len - 1), rid, target),
                )
        return moved
