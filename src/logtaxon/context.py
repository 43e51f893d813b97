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

    Signatures repeat heavily in real logs, so each one is collapsed onto a
    single shared tuple as soon as it is built; only the distinct signatures
    stay in memory.
    """
    canon: dict[ContextSignature, ContextSignature] = {}
    before, after = bounds.before, bounds.after
    signatures = []
    for i in range(len(assignment)):
        window = {*assignment[max(0, i - before) : i], *assignment[i + 1 : i + 1 + after]}
        sig = tuple(sorted(window))
        signatures.append(canon.setdefault(sig, sig))
    return tuple(signatures)
