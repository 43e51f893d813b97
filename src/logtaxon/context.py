"""Context signatures: which templates surround a message in the sequence.

A signature is the set of template ids seen in a bounded window before and
after a position, excluding the position itself (its id counts only where it
recurs in the window), held as one `int` whose bit `tid` is set for each id
in it. Windows clip silently at the corpus edges, so early and late messages
simply have smaller neighborhoods.
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
) -> list[ContextSignature]:
    """Signature of every position, order-aligned with the assignment.

    A window [i - before, i + after], centre included, slides over a count
    per template id: step i adds the id at i + after and removes the one at
    i - before - 1, flipping an id's bit when its count leaves or returns to
    0. The signature is that mask less the centre's bit when the centre is
    the only line of its id in the window. Equal signatures are one shared
    object. Raises ValueError for a negative id.
    """
    before, after = bounds.before, bounds.after
    if min(assignment, default=0) < 0:
        raise ValueError("template ids must be non-negative")
    counts, mask = [0] * (max(assignment, default=-1) + 1), 0
    for tid in assignment[:after]:
        counts[tid] += 1
        mask |= 1 << tid
    # None where an edge leaves no id to add or remove.
    entering = chain(islice(assignment, after, None), repeat(None))
    leaving = chain(repeat(None, before + 1), assignment)
    # Keyed by the signature itself: a plain-int key would keep a second int per window.
    canon, signatures, sig = {}, [], None
    for centre, enter, leave in zip(assignment, entering, leaving):
        if enter is not None:
            count = counts[enter] = counts[enter] + 1
            if count == 1:
                mask ^= 1 << enter
        if leave is not None:
            count = counts[leave] = counts[leave] - 1
            if not count:
                mask ^= 1 << leave
        value = mask ^ (1 << centre) if counts[centre] == 1 else mask
        if value != sig:
            sig = ContextSignature(value)
            sig = canon.setdefault(sig, sig)
        signatures.append(sig)
    return signatures
