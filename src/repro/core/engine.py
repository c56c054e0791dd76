"""The Seesaw inference engine (Sections 4 and 5 of the paper).

Execution alternates between a *prefill phase* under configuration ``cp``
and a *decode phase* under ``cd``:

1. **Prefill phase** — prompts stream through the (typically pipeline-
   parallel) cluster in micro-batches; each finished prompt's KV is pushed
   to the CPU pool over the d2h channel, overlapped with compute. The phase
   ends when the CPU pool is full, GPU staging space runs out, or no
   prompts remain (transition-minimizing scheduling).
2. **Re-shard** — every GPU reloads its ``cd`` weight shard from CPU
   memory; KV needs no extra pass because the shared CPU pool already holds
   it unsharded (each GPU later pulls its own ``cd`` shard on swap-in).
3. **Decode phase** — continuous batching at the full GPU batch size; the
   prefetcher swaps sequences in from the CPU pool as blocks free up,
   overlapped with decode compute. The phase ends when the pool has
   drained (back to 1) or everything finished.

The ablation flags in :class:`SeesawOptions` disable the tiered buffer,
the overlap pipeline, or transition-minimizing scheduling individually.
Without the tiered buffer a replica runs the shared batch-at-a-time loop
(:meth:`~repro.engines.base.BaseEngine._batch_loop`, Fig. 2(b)) with a
re-shard to ``cp`` before and to ``cd`` after every prefill wave.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from repro.core.options import SeesawOptions
from repro.core.state import SeesawState
from repro.costmodel.step import ITERATION_OVERHEAD, StepCostModel
from repro.engines.base import BaseEngine, ReplicaState
from repro.errors import CapacityError, ConfigurationError, SchedulingError
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.parallel.config import ParallelConfig, transition_label
from repro.parallel.memory import kv_capacity_tokens
from repro.parallel.resharding import plan_reshard
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.metrics import RunMetrics
from repro.runtime.request import Request, Sequence, SequenceState


class SeesawEngine(BaseEngine):
    """Dynamic model re-sharding engine: ``cp`` for prefill, ``cd`` for decode."""

    name = "seesaw"

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterSpec,
        prefill_config: ParallelConfig,
        decode_config: ParallelConfig,
        options: SeesawOptions | None = None,
    ) -> None:
        if prefill_config.dp != decode_config.dp:
            raise ConfigurationError(
                "Seesaw does not re-shard data parallelism (Section 4.1): "
                f"cp.dp={prefill_config.dp} != cd.dp={decode_config.dp}"
            )
        if prefill_config.num_gpus != decode_config.num_gpus:
            raise ConfigurationError(
                "prefill and decode configurations must occupy the same GPUs"
            )
        super().__init__(model, cluster, decode_config, options or SeesawOptions())
        if not isinstance(self.options, SeesawOptions):
            self.options = SeesawOptions()  # pragma: no cover - defensive
        self.prefill_config = prefill_config
        self.decode_config = decode_config

    def label(self) -> str:
        return transition_label(self.prefill_config, self.decode_config)

    # ------------------------------------------------------------------ #
    # Replica simulation
    # ------------------------------------------------------------------ #

    def _replica_setup(self, requests: list[Request], replica_id: int) -> SeesawState:
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        cp = replace(self.prefill_config, dp=1)
        cd = replace(self.decode_config, dp=1)
        capacity = min(
            kv_capacity_tokens(self.model, self.cluster, cp),
            kv_capacity_tokens(self.model, self.cluster, cd),
        )
        kv = KVCacheManager(capacity_tokens=capacity, block_size=opts.block_size)
        cpu_bytes = self.cluster.cpu_memory_per_gpu * cp.model_gpus
        cpu_tokens = (
            int(cpu_bytes // self.model.kv_bytes_per_token)
            if opts.use_cpu_buffer
            else 0
        )
        state = SeesawState(requests, kv, replica_id, cpu_capacity_tokens=cpu_tokens)
        state.cp, state.cd = cp, cd
        state.costs_p, state.costs_d = self.make_costs(cp), self.make_costs(cd)
        state.current = cp  # initial weights are laid out for prefill
        return state

    def _replica_loop(self, state: SeesawState, start: float) -> Iterator[float]:
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        metrics = state.metrics
        cp, cd = state.cp, state.cd
        costs_p, costs_d = state.costs_p, state.costs_d
        now = start

        if not opts.use_cpu_buffer:
            yield from self._batch_loop(state, start, costs_p, costs_d)
            return

        while not state.all_work_done:
            state.guard += 1
            if state.guard > 40 * len(state.requests) + 256:
                raise SchedulingError("Seesaw phase loop made no progress")

            state.admit_arrivals(now)
            if self._can_prefill(state) and not self._defer_prefill(state):
                now = self._reshard(state, now, cp)
                now = yield from self._prefill_phase(state, costs_p, metrics, now)

            if state.running or state.cpu_has_sequences or state.inflight:
                now = self._reshard(state, now, cd)
                now = yield from self._decode_phase(state, costs_d, metrics, now)
            elif state.waiting and not self._can_prefill(state):
                head = state.waiting[0]
                raise CapacityError(
                    f"prompt of {head.remaining_prefill} tokens fits neither the "
                    f"CPU pool ({state.cpu.capacity_tokens} tokens) nor GPU KV "
                    f"({state.kv.capacity_tokens} tokens)"
                )
            elif state.pending and (not state.waiting or self._defer_prefill(state)):
                # Transition-minimizing under live traffic: with nothing
                # decodable and nothing arrived (or a prefill batch still
                # worth growing), keep the current sharding and sleep until
                # the next arrival (re-sharding now could only add a
                # transition the arrival may not need).
                now = self.idle_advance(state, metrics, now)
                yield now

    # ------------------------------------------------------------------ #
    # Phase predicates and transitions
    # ------------------------------------------------------------------ #

    def _can_prefill(self, state: SeesawState) -> bool:
        """Whether the prefill phase could make progress right now."""
        if not state.waiting:
            return False
        head = state.waiting[0]
        need = head.remaining_prefill + 1
        return state.cpu.fits(need) and state.kv.can_allocate(need)

    def _transition_time(self) -> float:
        """One decode->prefill weight re-shard's transfer time (cached)."""
        cached = getattr(self, "_transition_time_cache", None)
        if cached is None:
            opts: SeesawOptions = self.options  # type: ignore[assignment]
            plan = plan_reshard(
                self.model,
                replace(self.decode_config, dp=1),
                replace(self.prefill_config, dp=1),
                reuse_overlap=opts.reuse_weight_overlap,
            )
            cached = plan.transfer_time(self.cluster)
            self._transition_time_cache = cached
        return cached

    def _defer_prefill(self, state: SeesawState) -> bool:
        """Wait-vs-re-shard decision under live traffic.

        When the objective layer told this engine the predicted arrival
        rate, defer the prefill re-shard while (a) more requests are still
        en route and (b) the arrivals expected within one transition time
        outnumber the batch currently waiting — waiting that long roughly
        doubles the batch the transition amortizes over, while at low
        rates (fewer than one expected arrival per transition) prefill
        starts immediately. Consulted only for real transitions: a
        degenerate (cp == cd) pair never re-shards, so never waits.
        """
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        rate = opts.arrival_rate
        if rate is None or not state.pending:
            return False
        if self.prefill_config == self.decode_config:
            return False
        expected = rate * self._transition_time()
        return len(state.waiting) < expected

    def _reshard(self, state: SeesawState, now: float, target: ParallelConfig) -> float:
        """Switch the replica's sharding to ``target`` if needed; returns
        the clock.

        The weight reload shares the host links with KV traffic, so it
        waits for both channels to drain; reloads then run in parallel
        across GPUs.
        """
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        metrics = state.metrics
        if state.current == target:
            return now
        plan = plan_reshard(
            self.model, state.current, target, reuse_overlap=opts.reuse_weight_overlap
        )
        start = max(now, state.d2h.free_at, state.h2d.free_at)
        elapsed = (start - now) + plan.transfer_time(self.cluster)
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_phase(
                state.replica_id, "reshard", now, elapsed, 0, 0, len(state.running)
            )
        metrics.add_phase("reshard", elapsed)
        metrics.transitions += 1
        metrics.resharded_bytes += plan.total_transfer_bytes
        now = now + elapsed
        state.d2h.idle_until(now)
        state.h2d.idle_until(now)
        state.current = target
        return now

    # ------------------------------------------------------------------ #
    # Prefill phase
    # ------------------------------------------------------------------ #

    def _prefill_phase(
        self, state: SeesawState, costs: StepCostModel, metrics: RunMetrics, now: float
    ) -> Iterator[float]:
        """Stream prefill micro-batches until the CPU pool fills (or GPU
        staging or the request queue runs out). KV swap-outs ride the d2h
        channel; with the async pipeline the phase only waits for them at
        the end (the re-shard needs quiesced links).

        A generator: yields the clock at every micro-batch boundary (and
        once more at the phase end) and returns the final clock."""
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        tr = self.hooks.tracing
        replica = state.replica_id
        pp = costs.config.pp
        last_stage_total = 0.0
        processed_any = False

        while True:
            # Prompts that arrived while earlier micro-batches ran join the
            # same phase — amortizing the upcoming re-shard over them is
            # exactly transition-minimizing scheduling under live traffic.
            state.admit_arrivals(now)
            if not state.waiting:
                break
            microbatch = self._admit_prefill_microbatch(state)
            if not microbatch:
                break
            for seq in microbatch:
                seq.mark_scheduled(now)
            lens = [s.remaining_prefill for s in microbatch]
            stage = costs.prefill_stage_time(lens)
            last_stage_total = stage.total
            # Steady-state stream: one micro-batch retires per stage time.
            elapsed = stage.total + ITERATION_OVERHEAD
            if tr is not None:
                tr.note_phase(
                    replica, "prefill", now, elapsed, len(microbatch), sum(lens),
                    len(state.running),
                )
            now += elapsed
            metrics.add_phase("prefill", elapsed, stage.scale(pp))
            metrics.iterations += 1
            processed_any = True

            swap_tokens = 0
            for seq in microbatch:
                seq.advance_prefill(seq.remaining_prefill)
                seq.prefill_end_time = now
                seq.mark_first_token(now)
                if tr is not None:
                    tr.note_resume(now, seq.seq_id)
                if seq.remaining_decode == 0:
                    # Prefill produced the only requested token; no reason
                    # to park the KV for a decode that will never happen.
                    state.kv.free(seq.seq_id)
                    seq.mark_finished(now)
                    state.finished.append(seq)
                    continue
                if self.prefill_config == self.decode_config:
                    # Degenerate pair: nothing will be re-sharded, so the
                    # KV can stay resident and decode directly (the CPU
                    # pool is still available to absorb overflow via
                    # preemption). This recovers plain continuous batching.
                    seq.state = SequenceState.RUNNING
                    state.start_running(seq)
                    continue
                state.kv.free(seq.seq_id)
                parked = seq.prefill_target
                seq.state = SequenceState.PREFILLED_CPU
                state.park_in_cpu(seq, parked)
                swap_tokens += parked
            swap_t = costs.kv_swap_time(swap_tokens)
            if swap_tokens and tr is not None:
                tr.note_phase(
                    replica, "swap_out", now, swap_t, len(microbatch), swap_tokens
                )
            if opts.overlap_swap:
                state.d2h.submit(now, swap_t)
            else:
                now = state.d2h.submit(now, swap_t)
            metrics.swapped_out_tokens += swap_tokens
            yield now

            if opts.eager_transitions:
                break  # Fig. 2(a) ablation: hop back to decode immediately

        if processed_any and pp > 1:
            # Drain the pipeline for the final micro-batch.
            ramp = (pp - 1) * last_stage_total
            if tr is not None:
                tr.note_phase(replica, "prefill", now, ramp)
            now += ramp
            metrics.add_phase("prefill", ramp)
        if opts.overlap_swap and state.d2h.free_at > now:
            # Swap-outs that outlived compute stall the transition.
            stall = state.d2h.free_at - now
            if tr is not None:
                tr.note_phase(replica, "stall", now, stall)
            metrics.add_phase("swap_stall", stall)
            now = state.d2h.free_at
        yield now
        return now

    def _admit_prefill_microbatch(self, state: SeesawState) -> list[Sequence]:
        """Pull waiting prompts into one micro-batch, bounded by the token
        budget, GPU staging space and CPU pool space."""
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        microbatch: list[Sequence] = []
        used = 0
        cpu_pending = 0  # tokens this micro-batch will park in the CPU pool
        while state.waiting:
            seq = state.waiting[0]
            tokens = seq.remaining_prefill
            need = tokens + 1
            if microbatch and used + tokens > opts.max_batched_tokens:
                break
            if not state.cpu.fits(cpu_pending + seq.prefill_target):
                break
            if not state.kv.can_allocate(need):
                break
            state.kv.allocate(seq.seq_id, need)
            state.waiting.popleft()
            seq.state = SequenceState.PREFILLING
            microbatch.append(seq)
            used += tokens
            cpu_pending += seq.prefill_target
            if used >= opts.max_batched_tokens:
                break
        if microbatch:
            state.prefill_epoch += 1
        return microbatch

    # ------------------------------------------------------------------ #
    # Decode phase
    # ------------------------------------------------------------------ #

    def _decode_phase(
        self, state: SeesawState, costs: StepCostModel, metrics: RunMetrics, now: float
    ) -> Iterator[float]:
        """Continuous batching with the swap-in prefetcher until the CPU
        pool drains (then back to prefill if work remains) or every
        resident sequence finishes.

        A generator: yields the clock after every decode iteration (and
        once more at the phase end) and returns the final clock."""
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        tr = self.hooks.tracing
        state.h2d.idle_until(now)

        while True:
            state.admit_arrivals(now)
            now = self._launch_prefetches(state, costs, metrics, now)
            for seq in state.arrived_inflight(now):
                seq.state = SequenceState.RUNNING
                state.start_running(seq)
                if tr is not None:
                    tr.note_resume(now, seq.seq_id)
            state.finish_ready(now)

            if not state.running:
                if state.inflight:
                    stall = state.next_arrival - now
                    if stall > 0:
                        if tr is not None:
                            tr.note_phase(state.replica_id, "stall", now, stall)
                        metrics.add_phase("swap_stall", stall)
                        now = state.next_arrival
                    continue
                if state.cpu_has_sequences:
                    raise CapacityError(
                        "CPU pool holds sequences the GPU KV cache cannot fit"
                    )
                break

            now = self.decode_step(state, costs, metrics, now)
            yield now

            if (
                not state.cpu_has_sequences
                and not state.inflight
                and state.waiting
                and not opts.eager_transitions
            ):
                if self._can_prefill(state) and not self._defer_prefill(state):
                    break  # transition-minimizing: pool drained, go prefill
            if opts.eager_transitions and state.waiting and self._can_prefill(state):
                break  # Fig. 2(a) ablation: eager hop to prefill
            if not state.running and not state.inflight and not state.cpu_has_sequences:
                break
        yield now
        return now

    def _launch_prefetches(
        self, state: SeesawState, costs: StepCostModel, metrics: RunMetrics, now: float
    ) -> float:
        """Start swap-ins for CPU-pooled sequences while GPU blocks last.

        Admission keeps :attr:`SeesawOptions.staging_tokens` free so the
        next prefill phase has working space even with decodes resident.
        Returns the (possibly advanced) clock — synchronous transfers block
        compute when the async pipeline is disabled.
        """
        opts: SeesawOptions = self.options  # type: ignore[assignment]
        tr = self.hooks.tracing
        while state.cpu_has_sequences:
            if len(state.running) + len(state.inflight) >= opts.max_num_seqs:
                break
            _, tokens = state.cpu.peek()
            need = tokens + 1
            if state.kv.free_tokens - need < opts.staging_tokens and (
                state.running or state.inflight
            ):
                break
            if not state.kv.can_allocate(need):
                break
            seq, _ = state.pop_cpu_head()
            state.kv.allocate(seq.seq_id, need)
            seq.state = SequenceState.SWAPPING_IN
            swap_t = costs.kv_swap_time(tokens)
            if tr is not None:
                tr.note_phase(state.replica_id, "swap_in", now, swap_t, 1, tokens)
            arrival = state.h2d.submit(now, swap_t)
            if not opts.overlap_swap:
                if tr is not None:
                    tr.note_phase(state.replica_id, "stall", now, arrival - now, 1)
                metrics.add_phase("swap_stall", arrival - now)
                now = arrival
            state.inflight.append((seq, arrival))
            metrics.swapped_in_tokens += tokens
        return now

    # ------------------------------------------------------------------ #
    # Preemption: swap out to the CPU pool instead of recompute
    # ------------------------------------------------------------------ #

    def preempt(
        self, state: ReplicaState, victim: Sequence, now: float, metrics: RunMetrics
    ) -> None:
        """Seesaw preempts by swapping the victim's KV back to the CPU pool
        (it rejoins FIFO later); recompute is the fallback if the pool is
        full."""
        assert isinstance(state, SeesawState)
        state.drop_slots()
        state.prefill_epoch += 1
        tokens = victim.context_len
        state.kv.free(victim.seq_id)
        state.running.remove(victim)
        victim.num_preemptions += 1
        metrics.preemptions += 1
        if state.cpu.fits(tokens):
            victim.state = SequenceState.PREFILLED_CPU
            state.park_in_cpu(victim, tokens)
            swap_t = state.costs_d.kv_swap_time(tokens)
            state.d2h.submit(now, swap_t)
            metrics.swapped_out_tokens += tokens
            stall_kind = "swap"
        else:
            victim.preempt_recompute()
            state.waiting.appendleft(victim)
            stall_kind = "recompute"
        tr = self.hooks.tracing
        if tr is not None:
            tr.note_preempt(now, victim.seq_id, stall_kind)

    # ------------------------------------------------------------------ #
    # Ablation: no CPU buffer (re-sharding around decode-prioritized batches)
    # ------------------------------------------------------------------ #

    # Without tiered buffering, re-sharding can only amortize over the
    # sequences GPU memory holds at once: the shared batch-at-a-time loop
    # (BaseEngine._batch_loop) admits a GPU-sized batch, which is prefilled
    # under cp and decoded to completion under cd.

    def _before_prefill(self, state: SeesawState, now: float) -> float:
        return self._reshard(state, now, state.cp)

    def _after_prefill(self, state: SeesawState, now: float) -> float:
        return self._reshard(state, now, state.cd)
