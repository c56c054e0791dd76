"""Execution-time breakdown records.

A :class:`Breakdown` carries the five cost components of the paper's
Appendix A for some unit of work (a layer, a stage, an iteration, a whole
run), combined by the roofline rule. Breakdowns support addition and scalar
multiplication so engines can accumulate them across layers, micro-batches
and iterations, and they can be *attributed* into the three categories of
Fig. 1 (communication / compute / weight transfer).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Breakdown:
    """Roofline cost components, all in seconds.

    ``total`` applies the roofline combination at whatever granularity the
    breakdown was built (sub-additively combining already-summed components
    is an approximation the paper's own model also makes — eq. 2).
    """

    linear_dm: float = 0.0
    linear_comp: float = 0.0
    attn_dm: float = 0.0
    attn_comp: float = 0.0
    comm: float = 0.0
    overhead: float = 0.0

    @property
    def total(self) -> float:
        """Roofline total: max over the linear pair, max over the attention
        pair, plus communication and fixed overhead."""
        return (
            max(self.linear_dm, self.linear_comp)
            + max(self.attn_dm, self.attn_comp)
            + self.comm
            + self.overhead
        )

    def __add__(self, other: "Breakdown") -> "Breakdown":
        return Breakdown(
            linear_dm=self.linear_dm + other.linear_dm,
            linear_comp=self.linear_comp + other.linear_comp,
            attn_dm=self.attn_dm + other.attn_dm,
            attn_comp=self.attn_comp + other.attn_comp,
            comm=self.comm + other.comm,
            overhead=self.overhead + other.overhead,
        )

    def scale(self, k: float) -> "Breakdown":
        """Multiply every component by ``k`` (e.g. layer count)."""
        return Breakdown(
            linear_dm=self.linear_dm * k,
            linear_comp=self.linear_comp * k,
            attn_dm=self.attn_dm * k,
            attn_comp=self.attn_comp * k,
            comm=self.comm * k,
            overhead=self.overhead * k,
        )

    def attributed(self) -> dict[str, float]:
        """Project onto Fig. 1's categories.

        The linear roofline term is attributed to *weight transfer* when it
        is bandwidth-bound and to *compute* otherwise; the attention term is
        attributed to compute (its data movement is KV/activations, not
        weights); all-reduce time is communication.
        """
        linear = max(self.linear_dm, self.linear_comp)
        if self.linear_dm >= self.linear_comp:
            weight, compute = linear, 0.0
        else:
            weight, compute = 0.0, linear
        compute += max(self.attn_dm, self.attn_comp)
        return {
            "communication": self.comm,
            "compute": compute + self.overhead,
            "weight_transfer": weight,
        }

    def as_dict(self) -> dict[str, float]:
        """Raw components plus the roofline total."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["total"] = self.total
        return out

