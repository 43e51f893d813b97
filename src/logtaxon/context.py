"""Context signatures: which templates surround a message in the sequence.

A signature is the set of template ids seen in a bounded window before and
after a position, excluding the position itself. Windows clip silently at the
corpus edges, so early and late messages simply have smaller neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

ContextSignature = frozenset[int]


@dataclass(frozen=True, slots=True)
class ContextBounds:
    """Window sizes: `before` positions back, `after` positions forward."""

    before: int = 10
    after: int = 0

    def __post_init__(self) -> None:
        if self.before < 0 or self.after < 0:
            raise ValueError("context bounds must be non-negative")


def build_context(
    assignment: Sequence[int], index: int, bounds: ContextBounds = ContextBounds()
) -> ContextSignature:
    """Signature of the record at 1-based `index` over a template assignment."""
    n = len(assignment)
    if not 1 <= index <= n:
        raise ValueError(f"index {index} out of range 1..{n}")
    lo = max(1, index - bounds.before)
    hi = min(n, index + bounds.after)
    return frozenset(assignment[i - 1] for i in range(lo, hi + 1) if i != index)


def build_all_contexts(
    assignment: Sequence[int], bounds: ContextBounds = ContextBounds()
) -> tuple[ContextSignature, ...]:
    """Signatures for every position, order-aligned with the assignment.

    Signatures repeat heavily in real logs, so each one is collapsed onto a
    single shared frozenset instance as soon as it is built; only the
    distinct signatures stay in memory.
    """
    canon: dict[ContextSignature, ContextSignature] = {}
    built = (build_context(assignment, i, bounds) for i in range(1, len(assignment) + 1))
    return tuple(canon.setdefault(sig, sig) for sig in built)
