"""Context signatures: which templates surround a message in the sequence.

A signature is the set of template ids seen in a bounded window before and
after a position, excluding the position itself, held as a tuple of the
distinct ids in ascending order. Windows clip silently at the corpus edges,
so early and late messages simply have smaller neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

ContextSignature = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ContextBounds:
    """Window sizes: `before` positions back, `after` positions forward."""

    before: int = 10
    after: int = 0

    def __post_init__(self) -> None:
        if self.before < 0 or self.after < 0:
            raise ValueError("context bounds must be non-negative")


def build_all_contexts(
    assignment: Sequence[int], bounds: ContextBounds = ContextBounds()
) -> tuple[ContextSignature, ...]:
    """Signature of every position, order-aligned with the assignment.

    The window slides over a count per template id: each step adds the ids
    entering it and removes those leaving, the centre among them. A sorted
    tuple is built only when a count crosses 0, else the last one is reused,
    and equal signatures are one shared tuple.
    """
    counts: dict[int, int] = {}

    def shift(tid: int, delta: int) -> bool:
        """Move `tid`'s count in the window by `delta`; True when it crosses 0."""
        count = counts[tid] = counts.get(tid, 0) + delta
        if not count:
            del counts[tid]
        return count == (delta > 0)

    before, after, n = bounds.before, bounds.after, len(assignment)
    for tid in assignment[1 : 1 + after]:
        shift(tid, 1)
    canon: dict[ContextSignature, ContextSignature] = {}
    signatures = []
    changed, sig = True, ()
    for i in range(n):
        if i and before:  # adds before removes, so a kept id does not dip to 0
            changed |= shift(assignment[i - 1], 1)
        if i and after and i + after < n:
            changed |= shift(assignment[i + after], 1)
        if i > before > 0:
            changed |= shift(assignment[i - 1 - before], -1)
        if i and after:
            changed |= shift(assignment[i], -1)
        if changed:
            sig = tuple(sorted(counts))
            sig, changed = canon.setdefault(sig, sig), False
        signatures.append(sig)
    return tuple(signatures)
