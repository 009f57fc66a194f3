"""Tests for window partitioning, target allocation, and composition."""

import random

import pytest

import oracle
from convexmatch import (
    Coloring,
    Matching,
    allocate,
    compose,
    crossing_number,
    find_with_k,
    plane_matching,
    window_partition,
)
from convexmatch.errors import TooSmall, Unachievable


def test_window_partition_frozen():
    plan = window_partition(Coloring("R" * 8 + "B" * 8))
    assert plan.windows == (tuple(range(1, 15)),)
    assert plan.remainder == (0, 15)
    assert plan.ell == 1


def test_window_partition_rejects_small():
    with pytest.raises(TooSmall):
        window_partition(Coloring("RB" * 6))


def test_window_partition_structure():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(7, 40)
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        col = Coloring("".join(colors))
        plan = window_partition(col)
        assert len(plan.windows) == n // 7
        seen = set()
        for window in plan.windows:
            assert len(window) == 14
            assert sum(1 for p in window if colors[p] == "R") == 7
            assert not seen & set(window)
            seen |= set(window)
        assert seen | set(plan.remainder) == set(range(col.size))
        assert len(plan.remainder) == col.size - 14 * (n // 7)


def _runs_coloring(rng, n):
    """Alternating runs of 1..9 points until one colour runs out, then
    the rest of the other, under a random rotation."""
    left = {"R": n, "B": n}
    color = rng.choice("RB")
    chars = []
    while left["R"] and left["B"]:
        length = min(rng.randint(1, 9), left[color])
        chars += [color] * length
        left[color] -= length
        color = "B" if color == "R" else "R"
    chars += [c for c in "RB" for _ in range(left[c])]
    turn = rng.randrange(2 * n)
    return "".join(chars[turn:] + chars[:turn])


def test_window_partition_matches_reference():
    rng = random.Random(16)
    wrapped = 0
    for trial in range(2000):
        n = rng.randint(7, 120)
        if trial % 2:
            colors = _runs_coloring(rng, n)
        else:
            chars = ["R"] * n + ["B"] * n
            rng.shuffle(chars)
            colors = "".join(chars)
        col = Coloring(colors)
        plan = window_partition(col)
        assert (plan.windows, plan.remainder) == \
            oracle.reference_windows(col), colors
        # residuals keep clockwise order, so a window wraps when its
        # last point comes before its first
        wrapped += any(w[-1] < w[0] for w in plan.windows)
    assert wrapped >= 100


def test_window_partition_matches_reference_on_periodic_colorings():
    for pattern in ("RB", "RRBB", "RRRBBB", "RRRRBBBB"):
        col = Coloring(pattern * (400 // (len(pattern) // 2)))
        plan = window_partition(col)
        assert (plan.windows, plan.remainder) == \
            oracle.reference_windows(col)


def test_achievable_range():
    plan = window_partition(Coloring("RB" * 7))
    assert plan.ell == 1
    assert plan.max_k == 15
    assert 0 in plan and 3 in plan and 15 in plan
    assert 1 not in plan and 2 not in plan and 16 not in plan
    assert window_partition(Coloring("RB" * 40)).ell == 5
    # allocate splits exactly the k that the plan contains
    for colors in ("RB" * 7, "RB" * 40, "RRBB" * 9 + "RB"):
        plan = window_partition(Coloring(colors))
        for k in range(-3, plan.max_k + 4):
            try:
                allocate(k, plan.ell)
            except Unachievable:
                assert k not in plan, (colors, k)
            else:
                assert k in plan, (colors, k)


def test_allocate_frozen():
    assert allocate(16, 2) == (13, 3)
    assert allocate(17, 2) == (14, 3)
    assert allocate(0, 3) == (0, 0, 0)
    assert allocate(45, 3) == (15, 15, 15)
    assert allocate(18, 2) == (15, 3)
    assert allocate(7, 1) == (7,)
    assert allocate(29, 2) == (15, 14)


def test_allocate_covers_every_k():
    for ell in range(1, 6):
        for k in [0] + list(range(3, 15 * ell + 1)):
            targets = allocate(k, ell)
            assert len(targets) == ell
            assert sum(targets) == k
            for t in targets:
                assert t == 0 or 3 <= t <= 15


def test_allocate_rejects_impossible():
    for k, ell in ((1, 1), (2, 3), (-1, 2), (16, 1), (31, 2)):
        with pytest.raises(Unachievable):
            allocate(k, ell)


def test_compose_hits_exact_counts():
    col = Coloring("RB" * 7)
    for k in (0, 3, 9, 15):
        matching, plan = compose(col, k)
        assert crossing_number(col, matching) == k
        assert sum(plan.targets) == k
    with pytest.raises(Unachievable):
        compose(col, 2)


def test_compose_random_colorings():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(7, 24)
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        col = Coloring("".join(colors))
        top = 15 * (n // 7)
        for k in {0, 3, top, rng.randint(3, top)}:
            matching, plan = compose(col, k)
            assert crossing_number(col, matching) == k
            assert len(plan.targets) == len(plan.windows)


def test_compose_equals_window_by_window_search():
    # periodic colorings repeat their windows; 2n = 140 points, except
    # that the period-6 pattern takes 144 to close its last period
    for pattern, reps in (("RB", 70), ("RRBB", 35), ("RRRBBB", 24)):
        col = Coloring(pattern * reps)
        plan = window_partition(col)
        for k in (0, 3, 16, 77, 15 * plan.ell):
            pairs = []
            for window, target in zip(plan.windows, allocate(k, plan.ell)):
                sub = Coloring("".join(col.colors[p] for p in window))
                local = find_with_k(sub, target)
                pairs += [(window[a], window[b]) for a, b in local]
            if plan.remainder:
                rest = Coloring(
                    "".join(col.colors[p] for p in plan.remainder))
                pairs += [(plan.remainder[a], plan.remainder[b])
                          for a, b in plane_matching(rest)]
            matching, _ = compose(col, k)
            assert matching == Matching.from_pairs(pairs)
