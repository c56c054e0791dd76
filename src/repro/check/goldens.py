"""Pinned golden cells, re-runnable from the CLI (``repro check goldens``).

The tier-1 suite pins the seed revision's offline totals in
``tests/test_online_serving.py``; this module carries the same scenarios
and literals on the library side so a working tree can be checked
against the goldens without a pytest install or the tests directory —
the smoke a refactor runs before trusting anything else. The scenarios
cover all four engines (plus the DP and chunked-prefill paths); values
were captured at the seed commit via ``tests/golden_offline.py`` and
must be regenerated only when an intentional cost-model change
invalidates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.runtime.metrics import EngineResult

# Relative tolerance of the equality check. The contract is bit-exact
# reproduction; the epsilon only absorbs decimal round-tripping of the
# pinned literals.
GOLDEN_REL_TOL = 1e-12

# Captured at the seed commit (tests/golden_offline.py). Keys map to the
# cells of golden_cell_specs(); values are the seed's totals and phase times.
GOLDEN_SEED: dict[str, dict[str, object]] = {
    "vllm_plain": {
        "total_time": 0.2112616800702835,
        "phase_time": {"decode": 0.09752755413333335, "prefill": 0.11373412593695029},
        "transitions": 0,
    },
    "vllm_chunked": {
        "total_time": 1.9104881969623662,
        "phase_time": {
            "decode": 1.7512111765333342,
            "mixed": 0.15079988755797333,
            "prefill": 0.008477132871059393,
        },
        "transitions": 0,
    },
    "vllm_dp": {
        "total_time": 1.917398817420879,
        "phase_time": {"decode": 1.7761419093333337, "prefill": 0.14125690808754426},
        "transitions": 0,
    },
    "decode_prio": {
        "total_time": 2.928148100890377,
        "phase_time": {"decode": 2.425880832, "prefill": 0.5022672688903757},
        "transitions": 2,
    },
    "seesaw": {
        "total_time": 44.14296480022675,
        "phase_time": {
            "decode": 36.980176979200024,
            "prefill": 6.551680282203229,
            "reshard": 0.610655774117647,
            "swap_stall": 0.00045176470588259576,
        },
        "transitions": 1,
    },
    "disagg": {
        "total_time": 0.1195430348080097,
        "phase_time": {"decode": 0.10313784320000002, "prefill": 0.1116169739369503},
        "transitions": 0,
    },
}

# Which engine each scenario exercises (the pass/fail table groups on it).
SCENARIO_ENGINES: dict[str, str] = {
    "vllm_plain": "vllm",
    "vllm_chunked": "vllm",
    "vllm_dp": "vllm",
    "decode_prio": "decode-prio",
    "seesaw": "seesaw",
    "disagg": "disagg",
}


def golden_cell_specs() -> dict:
    """The pinned scenarios as :class:`~repro.exec.spec.CellSpec` values,
    keyed like :data:`GOLDEN_SEED`; ``repro check goldens`` runs them
    through a :class:`~repro.exec.CellExecutor` at any ``--jobs``.

    Imports are local: the goldens checker is a CLI leaf and must not
    put engine construction on the import path of ``repro.check`` (the
    linter half of the package is imported by CI before any engine
    exists).
    """
    from repro.core.options import SeesawOptions
    from repro.engines.base import EngineOptions
    from repro.exec import CellSpec
    from repro.hardware.cluster import make_cluster
    from repro.models.config import ModelConfig
    from repro.models.registry import get_model
    from repro.workloads.datasets import sharegpt_workload
    from repro.workloads.synthetic import constant_workload

    tiny = ModelConfig(
        name="tiny-2b",
        num_layers=16,
        hidden_size=2048,
        num_heads=16,
        num_kv_heads=4,
        intermediate_size=5504,
        vocab_size=32000,
    )
    a10_4 = make_cluster("A10", 4)
    const = constant_workload(16, 256, 32)
    chat = sharegpt_workload(40, seed=7)
    return {
        "vllm_plain": CellSpec(
            engine="vllm", model=tiny, cluster=a10_4, config="T2P2",
            options=EngineOptions(), workload=const,
        ),
        "vllm_chunked": CellSpec(
            engine="vllm", model=tiny, cluster=a10_4, config="T2P2",
            options=EngineOptions(chunked_prefill=True, chunk_size=512),
            workload=chat,
        ),
        "vllm_dp": CellSpec(
            engine="vllm", model=tiny, cluster=a10_4, config="D2T2",
            options=EngineOptions(), workload=chat,
        ),
        "decode_prio": CellSpec(
            engine="decode-prio", model=tiny, cluster=a10_4, config="T4",
            options=EngineOptions(), workload=chat,
        ),
        "seesaw": CellSpec(
            engine="seesaw", model=get_model("34b"),
            cluster=make_cluster("A10", 8), config="P8->T4P2",
            options=SeesawOptions(), workload=sharegpt_workload(30, seed=7),
        ),
        "disagg": CellSpec(
            engine="disagg", model=tiny, cluster=a10_4, config="T2|T2",
            options=EngineOptions(), workload=const,
        ),
    }


@dataclass(frozen=True)
class GoldenOutcome:
    """One scenario's verdict against its pinned golden."""

    scenario: str
    engine: str
    passed: bool
    total_time: float
    expected_total: float
    mismatches: tuple[str, ...] = ()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0)


def check_result(name: str, result: EngineResult) -> GoldenOutcome:
    """Compare one scenario result against its golden literals."""
    golden = GOLDEN_SEED[name]
    expected_total = float(golden["total_time"])  # type: ignore[arg-type]
    expected_phase: dict[str, float] = golden["phase_time"]  # type: ignore[assignment]
    mismatches: list[str] = []
    if not _close(result.total_time, expected_total):
        mismatches.append(
            f"total_time {result.total_time!r} != {expected_total!r}"
        )
    if set(result.phase_time) != set(expected_phase):
        mismatches.append(
            f"phases {sorted(result.phase_time)} != {sorted(expected_phase)}"
        )
    else:
        for phase in sorted(expected_phase):
            if not _close(result.phase_time[phase], expected_phase[phase]):
                mismatches.append(
                    f"phase_time[{phase}] {result.phase_time[phase]!r} != "
                    f"{expected_phase[phase]!r}"
                )
    if result.transitions != golden["transitions"]:
        mismatches.append(
            f"transitions {result.transitions} != {golden['transitions']}"
        )
    return GoldenOutcome(
        scenario=name,
        engine=SCENARIO_ENGINES[name],
        passed=not mismatches,
        total_time=result.total_time,
        expected_total=expected_total,
        mismatches=tuple(mismatches),
    )


def run_goldens(
    names: tuple[str, ...] | None = None,
    executor=None,
) -> tuple[GoldenOutcome, ...]:
    """Re-run the pinned cells and compare (all of them by default).

    ``executor`` (a :class:`~repro.exec.CellExecutor`, inline by default)
    fans the scenarios over worker processes and/or serves them from the
    result cache. Every run is compared against the same pinned literals,
    so the serial-vs-parallel bit-exactness contract is itself
    golden-tested.
    """
    from repro.exec import CellExecutor

    specs = golden_cell_specs()
    selected = tuple(sorted(specs)) if names is None else names
    results = (executor or CellExecutor()).run([specs[name] for name in selected])
    return tuple(
        check_result(name, result)
        for name, result in zip(selected, results, strict=True)
    )


def render_goldens_table(outcomes: tuple[GoldenOutcome, ...]) -> str:
    """Fixed-width per-engine pass/fail table plus mismatch details."""
    rows = [("scenario", "engine", "total_time", "golden", "verdict")]
    for o in outcomes:
        rows.append(
            (
                o.scenario,
                o.engine,
                f"{o.total_time:.9f}",
                f"{o.expected_total:.9f}",
                "PASS" if o.passed else "FAIL",
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    for o in outcomes:
        for m in o.mismatches:
            lines.append(f"  {o.scenario}: {m}")
    failed = sum(1 for o in outcomes if not o.passed)
    lines.append(
        f"{len(outcomes) - failed}/{len(outcomes)} golden cells match the seed"
        + (f" ({failed} FAILED)" if failed else "")
    )
    return "\n".join(lines)
