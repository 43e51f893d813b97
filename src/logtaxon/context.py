"""Context signatures: which templates surround a message in the sequence.

A signature is the set of template ids seen in a bounded window before and
after a position, excluding the position itself, held as a tuple of the
distinct ids in ascending order. Windows clip silently at the corpus edges,
so early and late messages simply have smaller neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
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
    entering it, then removes those leaving, the centre among them. A sorted
    tuple is built only when a count crosses 0, else the last one is reused,
    and equal signatures are one shared tuple.
    """
    before, after, n = bounds.before, bounds.after, len(assignment)
    counts: dict[int, int] = {}
    get = counts.get
    for tid in assignment[1 : 1 + after]:
        counts[tid] = get(tid, 0) + 1
    # Step i >= 1 adds the ids at i - 1 and i + after and removes those at
    # i - 1 - before and i, with None where the bounds or an edge leave no id.
    none = repeat(None)
    steps = zip(
        assignment if before else none,
        chain(islice(assignment, 1 + after, None), none) if after else none,
        chain(repeat(None, before), assignment) if before else none,
        islice(assignment, 1, None) if after else none,
    )
    canon, signatures, changed = {}, [], True
    for enter, enter_after, leave, leave_after in islice(chain([(None,) * 4], steps), n):
        if enter is not None:
            count = counts[enter] = get(enter, 0) + 1
            changed = count == 1
        if enter_after is not None:
            count = counts[enter_after] = get(enter_after, 0) + 1
            changed = changed or count == 1
        if leave is not None:
            count = counts[leave] = counts[leave] - 1
            if not count:
                del counts[leave]
                changed = True
        if leave_after is not None:
            count = counts[leave_after] = counts[leave_after] - 1
            if not count:
                del counts[leave_after]
                changed = True
        if changed:
            sig = tuple(sorted(counts))
            sig, changed = canon.setdefault(sig, sig), False
        signatures.append(sig)
    return tuple(signatures)
