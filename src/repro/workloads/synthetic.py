"""Synthetic workloads for controlled sweeps.

``ratio_workload`` reproduces the Fig. 13 setup: uniform input length
(3000 in the paper) with the output length chosen to hit a target D:P
ratio; ``constant_workload`` and ``uniform_workload`` are general-purpose
building blocks used throughout the tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import make_rng
from repro.workloads.spec import WorkloadSpec


def constant_workload(
    num_requests: int,
    prompt_len: int,
    output_len: int,
    name: str | None = None,
) -> WorkloadSpec:
    """All requests identical — the paper's 'constant-length' workloads."""
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    return WorkloadSpec(
        name or f"const(p={prompt_len},d={output_len})",
        prompt_len=np.full(num_requests, prompt_len),
        output_len=np.full(num_requests, output_len),
    )


def uniform_workload(
    num_requests: int,
    prompt_range: tuple[int, int],
    output_range: tuple[int, int],
    seed: int | None = None,
    name: str | None = None,
) -> WorkloadSpec:
    """Independent uniform prompt/output lengths."""
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    lo_p, hi_p = prompt_range
    lo_o, hi_o = output_range
    if lo_p < 1 or lo_p > hi_p or lo_o < 1 or lo_o > hi_o:
        raise ConfigurationError("invalid length ranges")
    rng = make_rng(seed)
    prompts = rng.integers(lo_p, hi_p + 1, size=num_requests)
    outputs = rng.integers(lo_o, hi_o + 1, size=num_requests)
    return WorkloadSpec(name or "uniform", prompt_len=prompts, output_len=outputs)


def bimodal_workload(
    num_requests: int,
    long_prompt: int = 6144,
    short_prompt: int = 256,
    output_len: int = 16,
    period: int = 2,
    name: str | None = None,
) -> WorkloadSpec:
    """Long prompts every ``period``-th request, short ones otherwise.

    The adversarial shape for static round-robin DP partitioning: with the
    default ``period=2`` every long prompt has the same submission-index
    parity, so a 2-replica round-robin deal sends *all* of them to one
    replica while the other idles — the load-imbalance failure mode the
    routing subsystem's dynamic policies exist to fix.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if period < 1:
        raise ConfigurationError("period must be >= 1")
    if long_prompt < 1 or short_prompt < 1 or output_len < 1:
        raise ConfigurationError("lengths must be >= 1")
    return WorkloadSpec(
        name or f"bimodal(p={long_prompt}|{short_prompt},d={output_len})",
        prompt_len=np.where(
            np.arange(num_requests) % period == 0, long_prompt, short_prompt
        ),
        output_len=np.full(num_requests, output_len),
    )


def ratio_workload(
    num_requests: int,
    dp_ratio: float,
    prompt_len: int = 3000,
    name: str | None = None,
) -> WorkloadSpec:
    """Fixed prompt length, output length = ratio * prompt (Fig. 13).

    The paper fixes input at 3000 tokens and sweeps the output length; a
    ratio of 0 degenerates to prefill-only (output_len 1, the first token
    produced by the prefill pass).
    """
    if dp_ratio < 0:
        raise ConfigurationError("dp_ratio must be >= 0")
    output_len = max(1, int(round(dp_ratio * prompt_len)))
    return constant_workload(
        num_requests,
        prompt_len,
        output_len,
        name=name or f"ratio(D:P={dp_ratio:g})",
    )

