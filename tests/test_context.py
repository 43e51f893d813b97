import os
import subprocess
import sys
from pathlib import Path

import pytest

import logtaxon
from oracle import mask_ids, naive_signature
from logtaxon.context import ContextBounds, ContextSignature, build_all_contexts


def signature_at(assignment, index, bounds=ContextBounds()):
    """The ids of the stage's signature for the record at 1-based `index`, ascending."""
    return mask_ids(build_all_contexts(assignment, bounds)[index - 1])


def test_window_looks_back_and_forward():
    #               1  2  3  4  5  6  7  8  9  10 11 12
    assignment = [9, 9, 9, 9, 9, 9, 9, 3, 4, 7, 5, 9]
    sig = signature_at(assignment, 10, ContextBounds(before=2, after=1))
    assert sig == (3, 4, 5)


def test_own_position_is_excluded():
    assignment = [1, 2, 1]
    sig = signature_at(assignment, 2, ContextBounds(before=1, after=1))
    assert 2 not in sig
    assert sig == (1,)


def test_signature_is_a_set_not_a_sequence():
    # Repeats collapse, and ids come out in ascending order, not window order.
    a = signature_at([5, 5, 5, 1], 4, ContextBounds(before=3, after=0))
    b = signature_at([5, 1, 9], 2, ContextBounds(before=1, after=1))
    c = signature_at([9, 1, 5], 2, ContextBounds(before=1, after=1))
    assert a == (5,)
    assert b == c == (5, 9)


def test_window_clips_at_start():
    assignment = [1, 2, 3, 4]
    assert signature_at(assignment, 1, ContextBounds(before=10, after=0)) == ()
    assert signature_at(assignment, 2, ContextBounds(before=10, after=0)) == (1,)


def test_window_clips_at_end():
    assignment = [1, 2, 3]
    sig = signature_at(assignment, 3, ContextBounds(before=0, after=10))
    assert sig == ()


def test_zero_bounds_give_empty_signature():
    assert signature_at([1, 2, 3], 2, ContextBounds(before=0, after=0)) == ()


def test_default_bounds_look_back_ten():
    assignment = list(range(1, 21))
    sig = signature_at(assignment, 15)
    assert sig == tuple(range(5, 15))


def test_bounds_must_be_non_negative():
    with pytest.raises(ValueError):
        ContextBounds(before=-1)
    with pytest.raises(ValueError):
        ContextBounds(after=-1)


def test_build_all_matches_per_index_calls():
    assignment = [1, 2, 1, 3, 2, 2, 1]
    bounds = ContextBounds(before=2, after=2)
    sigs = build_all_contexts(assignment, bounds)
    assert len(sigs) == len(assignment)
    for i in range(1, len(assignment) + 1):
        assert sigs[i - 1] == naive_signature(assignment, i, 2, 2)


def test_signatures_are_masks_whose_length_counts_their_ids():
    assignment = [4, 2, 4, 1, 3, 3, 2, 5, 1, 4]
    for sig in build_all_contexts(assignment, ContextBounds(before=3, after=2)):
        assert type(sig) is ContextSignature
        assert len(sig) == len(mask_ids(sig))
        assert hash(sig) == hash(int(sig)) and sig == int(sig)


def test_equal_signatures_share_one_instance():
    # Masks of ids 1 and 2 are small enough for CPython to share plain ints of
    # their value anyway; those of ids 256 and up are not.
    for assignment in ([1, 2, 1, 2, 1, 2, 1, 2], [300, 256, 300, 999, 256, 300, 999, 256, 300]):
        sigs = build_all_contexts(assignment, ContextBounds(before=2, after=2))
        seen = {}
        for sig in sigs:
            if sig in seen:
                assert sig is seen[sig]
            seen[sig] = sig
        assert len(set(map(id, sigs))) == len(seen) < len(sigs)


# Prints the traced bytes that the signatures of a seeded, mostly distinct
# assignment retain per position: 100k positions over 40 ids, 10 back and 10
# forward, about 97% of the windows distinct.
RETAINED_PER_POSITION = """
import random, tracemalloc
from logtaxon.context import ContextBounds, build_all_contexts
rng = random.Random(1)
assignment = tuple(rng.randrange(1, 41) for _ in range(100_000))
tracemalloc.start()
signatures = build_all_contexts(assignment, ContextBounds(10, 10))
print(tracemalloc.get_traced_memory()[0] / len(assignment))
"""

# Measured in a fresh interpreter, so that nothing earlier tests allocated
# moves it: 62.2 on 3.10.13, 3.11.7, 3.12.1 and 3.13.0, a pointer per position
# and one 56-byte mask per distinct window. Sorted tuples of ids read 169.6.
RETAINED_BYTES_PER_POSITION = 62.2
RETAINED_MARGIN = 5


def test_signatures_of_distinct_windows_retain_one_small_mask_each():
    src = str(Path(logtaxon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RETAINED_PER_POSITION],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert float(proc.stdout) < RETAINED_BYTES_PER_POSITION + RETAINED_MARGIN


def test_negative_ids_are_refused():
    # A mask has no bit for a negative id.
    with pytest.raises(ValueError, match="non-negative"):
        build_all_contexts([1, -2, 3])
