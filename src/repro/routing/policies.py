"""Dispatch policies: how the router picks a replica for each arrival.

All policies share the same event loop (:meth:`Router.route`): requests
are visited in arrival order, every replica's load ledger is advanced to
the arrival instant, the policy selects a replica, and — for the dynamic
policies — replicas whose predicted-preemption counter crossed the storm
threshold have their still-pending requests re-routed to the least-loaded
survivors. The policies differ only in :meth:`Router.select`:

- ``static``   — round-robin by submission index; bit-exact with the
  seed's t=0 deal (request ``i`` to replica ``i % dp``), and therefore the
  default (golden offline numbers are preserved). Never rebalances.
- ``jsq``      — join the shortest queue, measured in queued (not yet
  prefilled) prompt tokens.
- ``least-work`` — smallest outstanding work: queued prefill tokens plus
  predicted undecoded tokens, both drained against the cost-model rates.
- ``po2``      — power-of-two-choices: sample two distinct replicas with
  a seeded generator, join the shorter queue. The classic trick that
  captures most of JSQ's benefit with O(1) load probes.
- ``slo``      — SLO-aware dispatch: route to the replica with the best
  predicted attainment for *this* request — replicas predicted to
  preempt are penalized first, then replicas whose predicted TTFT
  (queue drain + prefill) misses the context's TTFT SLO, then the
  predicted TTFT itself. Without an SLO in the context it degrades to
  least-predicted-TTFT. Fully deterministic (ties break by replica id).
"""

from __future__ import annotations

import abc
from typing import Sequence as TypingSequence

from repro.errors import ConfigurationError, SimulationError
from repro.routing.load import ReplicaLoad, RouterContext
from repro.routing.stats import RouterStats, RoutingPlan
from repro.runtime.request import Request
from repro.utils.rng import make_rng

ROUTER_POLICIES = ("static", "jsq", "least-work", "po2", "slo")

# Predicted preemptions on one replica (since its last rebalance) that
# mark it as undergoing a preemption storm.
DEFAULT_STORM_PREEMPTIONS = 3


class Router(abc.ABC):
    """Shared routing loop; subclasses implement :meth:`select`."""

    name: str = "base"
    #: Dynamic policies re-route pending work away from storming replicas;
    #: the static deal must stay bit-exact with the seed, so it opts out.
    rebalance_on_storm: bool = True

    def __init__(
        self,
        num_replicas: int,
        context: RouterContext | None = None,
        seed: int | None = None,
    ) -> None:
        if num_replicas < 1:
            raise ConfigurationError("router needs at least one replica")
        self.num_replicas = num_replicas
        self.context = context if context is not None else RouterContext()
        # Stochastic policies (po2) draw from this; the others never do.
        self.rng = make_rng(seed)
        self.loads = [ReplicaLoad(i, self.context) for i in range(num_replicas)]

    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def select(self, request: Request, index: int, now: float) -> int:
        """Replica id for ``request`` (submission index ``index``) arriving
        at ``now``; loads have already been advanced to ``now``.

        Policies rank ``self.loads`` — the *current membership view* — and
        return the chosen entry's ``replica_id``. On the decoupled path the
        view is the fixed replica list; the event-coupled simulator swaps
        in the live dispatchable membership before every call (an elastic
        fleet grows and shrinks it), so implementations must size-index
        against ``len(self.loads)``, never ``self.num_replicas``.
        """

    def route(self, requests: TypingSequence[Request]) -> RoutingPlan:
        """Dispatch every request at its arrival time; returns the plan."""
        reqs = list(requests)
        if not reqs:
            raise ConfigurationError("cannot route an empty request list")
        # Arrival order with submission order breaking ties — the same
        # convention the replica schedulers use (the sort is stable).
        arrivals = [r.arrival_time for r in reqs]
        order = sorted(range(len(reqs)), key=arrivals.__getitem__)
        assignments = [0] * len(reqs)
        rebalanced = 0
        rebalances = 0
        loads, n, select = self.loads, self.num_replicas, self.select
        rebalance = self.rebalance_on_storm and n > 1
        for i in order:
            req, now = reqs[i], arrivals[i]
            for load in loads:
                load.advance(now)
            rid = select(req, i, now)
            if not 0 <= rid < n:
                raise SimulationError(f"{self.name} selected replica {rid} of {n}")
            # Decoupled membership is fixed, so ids and positions coincide.
            loads[rid].dispatch(i, req, now)
            assignments[i] = rid
            if rebalance:
                moved = self._rebalance_storms(now, assignments)
                if moved:
                    rebalanced += moved
                    rebalances += 1
        # Each replica's requests in submission order, dealt in one pass.
        buckets: list[list[Request]] = [[] for _ in range(n)]
        for req, rid in zip(reqs, assignments, strict=True):
            buckets[rid].append(req)
        partitions = tuple(map(tuple, buckets))
        return RoutingPlan(
            assignments=tuple(assignments),
            partitions=partitions,
            stats=self._stats(rebalanced, rebalances),
        )

    # ------------------------------------------------------------------ #
    # Storm rebalancing
    # ------------------------------------------------------------------ #

    def _rebalance_storms(self, now: float, assignments: list[int]) -> int:
        """Re-route still-pending requests away from storming replicas.

        A replica whose predicted-preemption counter reached the storm
        threshold has every dispatched-but-unstarted request stolen back
        and re-dispatched to the least-loaded *calm* replica. Requiring a
        calm target keeps two storming replicas from bouncing the same
        requests back and forth within one pass (and from double-counting
        them in the rebalance stats); when every other replica is storming
        too there is nowhere better, so the work stays put.
        """
        # Snapshot who is storming before moving anything: stealing resets
        # the source's counter and dispatching can push a target over the
        # threshold, and neither may change who gives or receives mid-pass.
        storming = [
            load
            for load in self.loads
            if load.storm_preemptions >= DEFAULT_STORM_PREEMPTIONS
        ]
        calm = [load for load in self.loads if load not in storming]
        if not calm:
            return 0
        moved = 0
        for load in storming:
            for rec in load.steal_queued(now):
                target = min(
                    calm,
                    key=lambda l: (l.outstanding_tokens(now), l.replica_id),
                )
                target.dispatch(rec.index, rec.request, now)
                assignments[rec.index] = target.replica_id
                moved += 1
        return moved

    def _stats(self, rebalanced: int, rebalances: int) -> RouterStats:
        return RouterStats(
            policy=self.name,
            num_replicas=self.num_replicas,
            requests_per_replica=tuple(l.num_dispatched for l in self.loads),
            tokens_per_replica=tuple(l.dispatched_tokens for l in self.loads),
            peak_queued_prefill_tokens=tuple(
                l.peak_queued_prefill_tokens for l in self.loads
            ),
            predicted_preemptions=tuple(
                l.predicted_preemptions for l in self.loads
            ),
            rebalanced_requests=rebalanced,
            rebalances=rebalances,
        )


class StaticRouter(Router):
    """The seed's round-robin-by-index deal, expressed as a policy.

    Partition membership is a pure function of the submission index, so
    offline workloads reproduce the seed's round-robin deal — and the
    pinned golden numbers — bit-exactly. Load is still tracked for
    reporting.
    """

    name = "static"
    rebalance_on_storm = False

    def select(self, request: Request, index: int, now: float) -> int:
        # Round-robin over the current membership view: with a fixed fleet
        # this is exactly ``index % num_replicas`` (the seed deal); under
        # elastic membership the deal rotates over whoever is active.
        return self.loads[index % len(self.loads)].replica_id


class JSQRouter(Router):
    """Join-shortest-queue by queued (not yet prefilled) prompt tokens."""

    name = "jsq"

    def select(self, request: Request, index: int, now: float) -> int:
        return min(
            self.loads,
            key=lambda load: (load.queued_prefill_tokens(now), load.replica_id),
        ).replica_id


class LeastWorkRouter(Router):
    """Smallest outstanding work: queued prefill plus predicted decode
    tokens, drained against the cost-model service rates."""

    name = "least-work"

    def select(self, request: Request, index: int, now: float) -> int:
        return min(
            self.loads,
            key=lambda load: (load.outstanding_tokens(now), load.replica_id),
        ).replica_id


class Po2Router(Router):
    """Power-of-two-choices: probe two random replicas, join the shorter
    prefill queue. Deterministic per seed."""

    name = "po2"

    def select(self, request: Request, index: int, now: float) -> int:
        n = len(self.loads)
        if n == 1:
            return self.loads[0].replica_id
        a, b = (int(x) for x in self.rng.choice(n, size=2, replace=False))
        return min(
            (self.loads[a], self.loads[b]),
            key=lambda load: (load.queued_prefill_tokens(now), load.replica_id),
        ).replica_id


class SLORouter(Router):
    """SLO-aware dispatch: best predicted attainment for each arrival.

    The per-replica key is lexicographic — (predicted preemption, predicted
    TTFT-SLO miss, predicted TTFT, replica id) — so a replica that would
    thrash its KV cache loses to any that would not, an SLO-missing replica
    loses to any predicted to meet it, and within a class the soonest first
    token wins. With no TTFT SLO in the context the miss term is constant
    and the policy is pure least-predicted-TTFT.
    """

    name = "slo"

    def select(self, request: Request, index: int, now: float) -> int:
        ttft_slo = self.context.ttft_slo

        def key(load: ReplicaLoad) -> tuple[bool, bool, float, int]:
            ttft = load.predicted_ttft(request, now)
            miss = ttft_slo is not None and ttft > ttft_slo
            return (load.would_preempt(request, now), miss, ttft, load.replica_id)

        return min(self.loads, key=key).replica_id


_POLICY_CLASSES: dict[str, type[Router]] = {
    cls.name: cls
    for cls in (StaticRouter, JSQRouter, LeastWorkRouter, Po2Router, SLORouter)
}
assert tuple(_POLICY_CLASSES) == ROUTER_POLICIES


def make_router(
    policy: str,
    num_replicas: int,
    *,
    context: RouterContext | None = None,
    seed: int | None = None,
) -> Router:
    """Instantiate a routing policy by CLI name."""
    cls = _POLICY_CLASSES.get(policy)
    if cls is None:
        raise ConfigurationError(
            f"unknown router policy {policy!r}; one of {ROUTER_POLICIES}"
        )
    return cls(num_replicas, context=context, seed=seed)
