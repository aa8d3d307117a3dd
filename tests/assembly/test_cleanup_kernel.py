"""The junction-table cleanup kernel against the networkx reference.

``cleanup_reference`` is the graph implementation the kernel replaced;
every case here requires the same kept unitigs (same objects, same
order), the same counters and the same ``work`` — ``work`` is charged as
virtual compute by all five assemblers, so it is a result, not a detail.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly import cleanup
from repro.assembly.dbg import Unitig
from tests.assembly import cleanup_reference as reference

#: 3 and 4 are the smallest k a DeBruijnGraph accepts (2- and 3-base
#: junctions, below ``packed.MIN_K``); 34 and 51 have two-word junctions.
KS = [3, 4, 5, 8, 34, 51]


def make(codes, coverage: float) -> Unitig:
    codes = np.asarray(codes, dtype=np.uint8)
    return Unitig(codes=codes, coverage=coverage, n_kmers=len(codes))


def flip(codes):
    return [3 - int(b) for b in reversed(codes)]


def assert_same(got, want):
    (kept, stats), (ref_kept, ref_stats) = got, want
    assert [id(u) for u in kept] == [id(u) for u in ref_kept]
    assert stats == ref_stats


def assert_kernel_matches(unitigs, k, max_tip_length=None, ratio=0.5, tol=0.1):
    assert_same(
        cleanup.clean_unitigs(unitigs, k), reference.clean_unitigs(unitigs, k)
    )
    assert_same(
        cleanup.clip_tips(unitigs, k, max_tip_length, ratio),
        reference.clip_tips(unitigs, k, max_tip_length, ratio),
    )
    assert_same(
        cleanup.pop_bubbles(unitigs, k, tol), reference.pop_bubbles(unitigs, k, tol)
    )


@st.composite
def unitig_sets(draw, k):
    """Unitigs wired through a small pool of junctions: shared ends make
    hubs, bubbles and self-loops; fresh random ends are dead ends (and at
    k <= 5 collide with the pool anyway); either strand; coverages from a
    short list so ties are common."""
    j = k - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [rng.integers(0, 4, j).tolist() for _ in range(draw(st.integers(1, 4)))]
    if j % 2 == 0:  # a junction that is its own reverse complement
        half = rng.integers(0, 4, j // 2).tolist()
        pool.append(half + flip(half))
    end = st.one_of(
        st.sampled_from(pool), st.builds(lambda: rng.integers(0, 4, j).tolist())
    )
    middle = st.sampled_from([0, 0, 1, 2, 2 * k, 2 * k + 1])
    out = []
    for _ in range(draw(st.integers(1, 14))):
        codes = draw(end) + rng.integers(0, 4, draw(middle)).tolist() + draw(end)
        if draw(st.booleans()):
            codes = flip(codes)
        out.append(make(codes, draw(st.sampled_from([1.0, 2.0, 3.0, 9.0, 40.0]))))
    return out


@pytest.mark.parametrize("k", KS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_equals_graph_reference(k, data):
    unitigs = data.draw(unitig_sets(k))
    assert_kernel_matches(
        unitigs,
        k,
        max_tip_length=data.draw(st.sampled_from([None, 2 * k - 1, 4 * k])),
        ratio=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
        tol=data.draw(st.sampled_from([0.0, 0.1, 1.0])),
    )


def hub_with_tips(k, coverages, rng):
    """One long 100x unitig ending at junction ``hub`` plus one short
    dead-end tip per coverage, all hanging off ``hub``."""
    j = k - 1
    hub = rng.integers(0, 4, j).tolist()
    fresh = lambda n: rng.integers(0, 4, n).tolist()  # noqa: E731
    return [make(fresh(3 * k) + hub, 100.0)] + [
        make(hub + fresh(j), c) for c in coverages
    ]


@pytest.mark.parametrize("k", [5, 51])
def test_three_tips_on_one_junction_follow_the_graph_order(k):
    """The order-dependent case: whether the 30x tip dies depends on
    whether the 4x and 10x tips were visited (and doomed) before it."""
    unitigs = hub_with_tips(k, [4.0, 10.0, 30.0], np.random.default_rng(k))
    outcomes = set()
    for perm in itertools.permutations(unitigs):
        for flipped in (False, True):
            us = [
                make(flip(u.codes), u.coverage) if flipped and i % 2 else u
                for i, u in enumerate(perm)
            ]
            assert_kernel_matches(us, k)
            outcomes.add(cleanup.clip_tips(us, k)[1].tips_removed)
    assert len(outcomes) > 1, "scenario no longer depends on the visiting order"


def test_self_loop_counts_two_and_is_never_a_tip_or_bubble():
    k = 5
    loop = [0, 1, 2, 2]
    unitigs = [
        make(loop + [3] + loop, 1.0),         # self-loop, short, low coverage
        make(loop + [3, 3] + loop, 1.0),      # a second one: a self-pair, no bubble
        make(loop + [1, 1, 0, 3, 2], 50.0),   # a tip off the loop junction
    ]
    assert_kernel_matches(unitigs, k)
    kept, stats = cleanup.clean_unitigs(unitigs, k)
    assert len(kept) == 3 and stats.work == (3 + 2) + 3


def test_palindromic_junction_joins_both_strands():
    k = 5
    pal = [0, 1, 2, 3]  # ACGT is its own reverse complement
    unitigs = [
        make(pal + [0] * 12, 40.0),
        make(flip(pal + [1] * 12), 40.0),
        make(pal + [2, 2, 0], 2.0),           # short tip on the palindrome
    ]
    assert_kernel_matches(unitigs, k)
    assert cleanup.clip_tips(unitigs, k)[1].tips_removed == 1


@pytest.mark.parametrize("k", [4, 5, 51])
def test_bubble_members_tied_on_coverage(k):
    rng = np.random.default_rng(k)
    j = k - 1
    a, b = [0] * j, [1] * j
    arms = [a + rng.integers(0, 4, n).tolist() + b for n in (9, 9, 8, 30)]
    unitigs = [make(c, 7.0) for c in arms]
    unitigs[1] = make(flip(arms[1]), 7.0)
    for perm in itertools.permutations(unitigs):
        assert_kernel_matches(list(perm), k, tol=0.2)
    # All tie on coverage: the shortest arm wins, the 30-base arm is too
    # different in length to be the same bubble.
    kept, stats = cleanup.pop_bubbles(unitigs, k, 0.2)
    assert stats.bubbles_popped == 2 and unitigs[2] in kept and unitigs[3] in kept


@pytest.mark.parametrize("k", [3, 4])
def test_smallest_k_junctions_pack(k):
    """``packed.check_k`` rejects a 2-base k-mer; a 2-base *junction* is
    legal wherever DeBruijnGraph is (k >= 3)."""
    rng = np.random.default_rng(k)
    unitigs = [
        make(rng.integers(0, 4, int(n)).tolist(), float(c))
        for n, c in zip(rng.integers(k, 4 * k, 40), rng.integers(1, 30, 40))
    ]
    assert_kernel_matches(unitigs, k)


def test_flags_and_empty_input():
    assert cleanup.clean_unitigs([], 5) == ([], cleanup.CleanupStats())
    us = hub_with_tips(5, [1.0], np.random.default_rng(0))
    kept, stats = cleanup.clean_unitigs(us, 5, clip=False, pop=False)
    assert kept == us and stats == cleanup.CleanupStats()
