"""Dataset-shaped samplers for the paper's two evaluation workloads.

The engines only consume (prompt_len, output_len) pairs, so what matters is
the length distribution, not token identity. The samplers below are
lognormal fits to the published histograms (Fig. 9):

- ``sharegpt``: chat history; inputs and outputs of comparable length, both
  with medians of a few hundred tokens and heavy right tails. The paper
  samples 2000 requests.
- ``arxiv-summarization``: document summarization; inputs of a few thousand
  tokens, outputs (abstract-length) around two hundred. The paper samples
  500 requests.

The resulting D:P ratios — sharegpt near 1, arxiv well under 0.1 — are the
property that drives the differing optimal parallelism configurations in
the end-to-end results.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import make_rng
from repro.workloads.spec import WorkloadSpec


def _lognormal_lengths(
    rng: np.random.Generator,
    n: int,
    median: float,
    sigma: float,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Sample integer lengths from a clipped lognormal with given median."""
    mu = np.log(median)
    raw = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return np.clip(np.round(raw), lo, hi).astype(int)


def sharegpt_workload(
    num_requests: int = 2000, seed: int | None = None
) -> WorkloadSpec:
    """ShareGPT-like chat workload (Fig. 9b).

    Inputs: median ~250 tokens, sigma 1.0 (long conversational tails, capped
    at the 4k context the paper's models serve). Outputs: median ~200,
    sigma 0.85. Both distributions are visibly heavy-tailed in the paper's
    histogram, and input/output lengths are mildly positively correlated in
    chat data — we sample the output with a shared latent factor.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    rng = make_rng(seed)
    inputs = _lognormal_lengths(rng, num_requests, median=250, sigma=1.0, lo=4, hi=4096)
    # Shared latent: longer conversations tend to elicit longer replies.
    latent = rng.normal(size=num_requests)
    out_raw = np.exp(np.log(200) + 0.85 * (0.3 * latent + 0.7 * rng.normal(size=num_requests)))
    outputs = np.clip(np.round(out_raw), 4, 2048).astype(int)
    return WorkloadSpec("sharegpt", prompt_len=inputs, output_len=outputs)


def arxiv_workload(num_requests: int = 500, seed: int | None = None) -> WorkloadSpec:
    """arxiv-summarization-like workload (Fig. 9a).

    Inputs: document bodies, median ~2800 tokens with moderate spread,
    capped at 6k. Outputs: abstract-length summaries, median ~180 tokens.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    rng = make_rng(seed)
    inputs = _lognormal_lengths(
        rng, num_requests, median=2800, sigma=0.40, lo=512, hi=6144
    )
    outputs = _lognormal_lengths(
        rng, num_requests, median=180, sigma=0.45, lo=32, hi=640
    )
    return WorkloadSpec(
        "arxiv-summarization", prompt_len=inputs, output_len=outputs
    )


DATASET_SAMPLERS: dict[str, Callable[..., WorkloadSpec]] = {
    "sharegpt": sharegpt_workload,
    "arxiv": arxiv_workload,
    "arxiv-summarization": arxiv_workload,
}


def sample_dataset(
    name: str, num_requests: int | None = None, seed: int | None = None
) -> WorkloadSpec:
    """Sample a named dataset workload at the paper's default sizes."""
    key = name.lower()
    if key not in DATASET_SAMPLERS:
        raise ConfigurationError(
            f"unknown dataset {name!r}; known: {sorted(DATASET_SAMPLERS)}"
        )
    sampler = DATASET_SAMPLERS[key]
    if num_requests is None:
        num_requests = 2000 if key == "sharegpt" else 500
    return sampler(num_requests=num_requests, seed=seed)
