"""Benchmark harness support.

Every benchmark regenerates one paper artifact (table or figure), times it
via pytest-benchmark, prints the rendered ASCII artifact, and writes it to
``benchmarks/artifacts/`` so its numbers can be re-checked without
scrolling logs.
"""

from __future__ import annotations

import pathlib

import pytest

ARTIFACT_DIR = pathlib.Path(__file__).parent / "artifacts"


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    ARTIFACT_DIR.mkdir(exist_ok=True)
    return ARTIFACT_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    """Persist a rendered artifact and echo it to stdout."""

    def _save(name: str, text: str) -> None:
        path = artifact_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[artifact saved to {path}]")

    return _save
