"""Context signatures: which templates surround a message in the sequence.

A signature is the set of template ids seen in a bounded window before and
after a position, excluding the position itself, held as one `int` whose bit
`tid` is set for each id in it. Windows clip silently at the corpus edges,
so early and late messages simply have smaller neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Sequence


class ContextSignature(int):
    """A set of template ids as a bitmask: an `int` whose `len` counts the ids."""

    __slots__ = ()
    __len__ = int.bit_count


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
    entering it, then removes those leaving, the centre among them, flipping
    an id's bit when its count leaves or returns to 0. Equal signatures are
    one shared object. Raises ValueError for a negative id.
    """
    before, after, n = bounds.before, bounds.after, len(assignment)
    if min(assignment, default=0) < 0:
        raise ValueError("template ids must be non-negative")
    counts, mask = [0] * (max(assignment, default=-1) + 1), 0
    for tid in assignment[1 : 1 + after]:
        counts[tid] += 1
        mask |= 1 << tid
    # Step i >= 1 adds the ids at i - 1 and i + after and removes those at
    # i - 1 - before and i, with None where the bounds or an edge leave no id.
    none = repeat(None)
    steps = zip(
        assignment if before else none,
        chain(islice(assignment, 1 + after, None), none) if after else none,
        chain(repeat(None, before), assignment) if before else none,
        islice(assignment, 1, None) if after else none,
    )
    # Keyed by the signature itself: a plain-int key would keep a second int per window.
    canon, signatures, sig = {}, [], None
    for enter, enter_after, leave, leave_after in islice(chain([(None,) * 4], steps), n):
        if enter is not None:
            count = counts[enter] = counts[enter] + 1
            if count == 1:
                mask ^= 1 << enter
        if enter_after is not None:
            count = counts[enter_after] = counts[enter_after] + 1
            if count == 1:
                mask ^= 1 << enter_after
        if leave is not None:
            count = counts[leave] = counts[leave] - 1
            if not count:
                mask ^= 1 << leave
        if leave_after is not None:
            count = counts[leave_after] = counts[leave_after] - 1
            if not count:
                mask ^= 1 << leave_after
        if mask != sig:
            sig = ContextSignature(mask)
            sig = canon.setdefault(sig, sig)
        signatures.append(sig)
    return tuple(signatures)
