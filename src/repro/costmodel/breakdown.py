"""Execution-time breakdown records.

A :class:`Breakdown` carries the five cost components of the paper's
Appendix A for some unit of work (a layer, a stage, an iteration, a whole
run), combined by the roofline rule. Breakdowns support addition and scalar
multiplication so engines can accumulate them across layers, micro-batches
and iterations, and they can be *attributed* into the three categories of
Fig. 1 (communication / compute / weight transfer).

The record is built on every costed iteration and micro-batch, so it is a
tuple underneath: construction is one tuple allocation, and the six
components are read-only fields (assigning one raises ``AttributeError``).
It compares as a record, not as a tuple: it equals only another
:class:`Breakdown`, has no ordering, and ``+`` and ``*`` keep their cost
meaning or raise (a plain tuple on the left does not concatenate, and
``bd * k`` does not repeat: scaling is :meth:`Breakdown.scale`). Like any
tuple it is iterable, indexable and sized, in field order: :data:`COMPONENTS`
names the components in that order, the order of the positional
constructor.
"""

from __future__ import annotations

from collections import namedtuple

#: The six components, in field order.
COMPONENTS = ("linear_dm", "linear_comp", "attn_dm", "attn_comp", "comm", "overhead")

_new = tuple.__new__


class Breakdown(namedtuple("_Components", COMPONENTS, defaults=(0.0,) * 6)):
    """Roofline cost components, all in seconds.

    ``total`` applies the roofline combination at whatever granularity the
    breakdown was built (sub-additively combining already-summed components
    is an approximation the paper's own model also makes — eq. 2).
    """

    __slots__ = ()

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
        if not isinstance(other, Breakdown):
            return NotImplemented
        return _new(Breakdown, (
            self.linear_dm + other.linear_dm,
            self.linear_comp + other.linear_comp,
            self.attn_dm + other.attn_dm,
            self.attn_comp + other.attn_comp,
            self.comm + other.comm,
            self.overhead + other.overhead,
        ))

    # A plain tuple of the same numbers is not equal: both operators
    # answer here, before tuple's own comparison could.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Breakdown) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    # Tuple operators with no cost meaning raise instead of answering as a
    # tuple would (a 12-tuple, a repetition, a lexicographic order).
    def __radd__(self, other: object) -> "Breakdown":
        # Reached only when the left operand is not a Breakdown.
        raise TypeError(f"cannot add {type(other).__name__} and Breakdown")

    def __mul__(self, other: object) -> "Breakdown":
        raise TypeError("a Breakdown is scaled with scale(k), not *")

    __rmul__ = __mul__

    def __lt__(self, other: object) -> bool:
        raise TypeError("Breakdowns are not ordered; compare their totals")

    __le__ = __gt__ = __ge__ = __lt__

    def scale(self, k: float) -> "Breakdown":
        """Multiply every component by ``k`` (e.g. layer count)."""
        return _new(Breakdown, (
            self.linear_dm * k,
            self.linear_comp * k,
            self.attn_dm * k,
            self.attn_comp * k,
            self.comm * k,
            self.overhead * k,
        ))

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
        out = dict(zip(COMPONENTS, self, strict=True))
        out["total"] = self.total
        return out
