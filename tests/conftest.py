"""Shared fixtures: small model/cluster/workloads that keep tests fast."""

from __future__ import annotations

import contextlib

import pytest

from repro.engines import slots
from repro.hardware.cluster import make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.parallel.config import ParallelConfig
from repro.workloads.datasets import arxiv_workload, sharegpt_workload
from repro.workloads.synthetic import constant_workload


@pytest.fixture(scope="session")
def tiny_model() -> ModelConfig:
    """A small but structurally complete GQA model (fast engine runs)."""
    return ModelConfig(
        name="tiny-2b",
        num_layers=16,
        hidden_size=2048,
        num_heads=16,
        num_kv_heads=4,
        intermediate_size=5504,
        vocab_size=32000,
    )


@pytest.fixture(scope="session")
def model_34b() -> ModelConfig:
    return get_model("34b")


@pytest.fixture(scope="session")
def model_70b() -> ModelConfig:
    return get_model("70b")


@pytest.fixture(scope="session")
def cluster_a10_8():
    return make_cluster("A10", 8)


@pytest.fixture(scope="session")
def cluster_a10_4():
    return make_cluster("A10", 4)


@pytest.fixture(scope="session")
def cluster_l4_8():
    return make_cluster("L4", 8)


@pytest.fixture(scope="session")
def small_const_workload():
    return constant_workload(24, prompt_len=512, output_len=64)


@pytest.fixture(scope="session")
def small_arxiv():
    return arxiv_workload(40, seed=7)


@pytest.fixture(scope="session")
def small_sharegpt():
    return sharegpt_workload(80, seed=7)


@pytest.fixture(scope="session")
def cfg_t4p2() -> ParallelConfig:
    return ParallelConfig(tp=4, pp=2)


@pytest.fixture(scope="session")
def cfg_p8() -> ParallelConfig:
    return ParallelConfig(tp=1, pp=8)


@pytest.fixture
def scalar_oracle():
    """A context manager forcing the engines' scalar decode path for its
    block (the bit-exactness oracle of the decode slots and stretches): it
    sets ``slots.SCALAR_ORACLE``, so no batch builds decode slots, every
    decode step runs the one iteration its caller asked for on the object
    path, and no chunk stretch runs, prefill-only chunk runs included."""

    @contextlib.contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slots, "SCALAR_ORACLE", True)
            yield

    return forced
