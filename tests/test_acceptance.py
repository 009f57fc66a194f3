"""Acceptance suite: one test per criterion, each timed against its budget.

Every test prints a single PASS line with the measured figures; a failed
assert is the FAIL line.  Budgets are wall-clock seconds on a small
machine, deliberately generous.
"""

import random
import time
from itertools import combinations

import oracle
from convexmatch import (
    Coloring,
    SearchBudget,
    all_symmetries,
    alternating_max_matching,
    balanced_fourblock_bound,
    balanced_fourblock_coloring,
    block_profile,
    canonicalize,
    compose,
    crossing_number,
    enumerate_colorings,
    find_with_k,
    fourblock_max_matching,
    h_value,
    lemma3_witness,
    max_crossing,
    minmax_sweep,
    sixblock_crossing_count,
    sixblock_witness,
    spectrum,
)


def comb2(n):
    return n * (n - 1) // 2


def report(criterion, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s"
    print(f"criterion {criterion} PASS: {detail} [{elapsed:.1f}s < {budget}s]")


def test_criterion_01_bound_closed_forms():
    start = time.time()
    m_form = {
        0: lambda m: 6 * m * m - 2 * m,
        1: lambda m: 6 * m * m + m,
        2: lambda m: 6 * m * m + 4 * m,
        3: lambda m: 6 * m * m + 7 * m + 2,
    }
    for n in range(2, 401):
        value = balanced_fourblock_bound(n).value
        assert value == m_form[n % 4](n // 4)
        assert value == comb2(n) - h_value(n, n // 2, n // 2).h_value
    report(1, time.time() - start, 1, "bound == residue form == C(n,2)-h "
           "for 2 <= n <= 400")


def test_criterion_02_fourblock_profiles_are_maxima():
    start = time.time()
    for colors in ("RRRRBBBBRRRRBBBB", "RRRRRBBBBRRRBBBB"):
        col = Coloring(colors)
        _, count = fourblock_max_matching(col)
        assert count == 20
        exhaustive, _ = max_crossing(col)
        assert exhaustive == 20
    report(2, time.time() - start, 10,
           "both 8-point 4-block profiles: construction 20 == exhaustive 20")


def test_criterion_03_sweep_agrees_with_bound():
    start = time.time()
    for n in range(2, 8):
        value, minimizers = minmax_sweep(n)
        assert value == balanced_fourblock_bound(n).value
        canon, _ = canonicalize(balanced_fourblock_coloring(n))
        assert str(canon) in {str(c) for c in minimizers}
    sequential = time.time() - start
    assert sequential < 120
    value, minimizers = minmax_sweep(8, SearchBudget(jobs=2))
    assert value == balanced_fourblock_bound(8).value == 20
    canon, _ = canonicalize(balanced_fourblock_coloring(8))
    assert str(canon) in {str(c) for c in minimizers}
    report(3, time.time() - start, 1800,
           f"sweeps 2..7 sequential ({sequential:.1f}s) and 8 with jobs=2 "
           "all equal the bound, balanced 4-block among minimizers")


def test_criterion_04_seven_point_spectra_cover_low_range():
    start = time.time()
    required = {0} | set(range(3, 16))
    for rep in enumerate_colorings(7):
        spec = spectrum(rep)
        assert required <= set(spec.achievable), rep.colors
    alternating = spectrum(Coloring("RB" * 7))
    assert 1 not in alternating.achievable
    assert 2 not in alternating.achievable
    report(4, time.time() - start, 600,
           "85 orbits at n=7 all achieve {0} u [3,15]; "
           "alternating misses 1 and 2")


def test_criterion_05_alternating_maxima_and_edge_degrees():
    start = time.time()
    for n in (2, 4, 6, 8):
        col, matching, _ = alternating_max_matching(n)
        count = crossing_number(col, matching)
        assert count == comb2(n) - n // 2
        value, _ = max_crossing(col)
        assert value == count
        # no edge of any matching crosses more than n-2 others
        for pairs in oracle.all_matchings(str(col)):
            per_edge = [0] * n
            for i, j in combinations(range(n), 2):
                if oracle.chords_cross(pairs[i], pairs[j]):
                    per_edge[i] += 1
                    per_edge[j] += 1
            assert max(per_edge) <= n - 2
    report(5, time.time() - start, 60,
           "alternating n in {2,4,6,8}: C(n,2)-n/2 is the maximum and "
           "every edge of every matching crosses at most n-2 others")


def test_criterion_06_composition_hits_every_target():
    start = time.time()
    rng = random.Random(60214)
    checked = 0
    for _ in range(200):
        n = rng.randint(7, 40)
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        col = Coloring("".join(colors))
        top = 15 * (n // 7)
        if n <= 14:
            targets = [0] + list(range(3, top + 1))
        else:
            pool = list(range(4, top))
            targets = [0, 3, top] + rng.sample(pool, 22)
        for k in targets:
            matching, _ = compose(col, k)
            assert crossing_number(col, matching) == k
            checked += 1
    report(6, time.time() - start, 600,
           f"200 random colorings, {checked} (coloring, k) pairs recounted "
           "exactly")


def test_criterion_07_witness_meets_bound():
    start = time.time()
    for n in range(1, 9):
        bound = balanced_fourblock_bound(n).value
        for colors in oracle.colorings(n):
            col = Coloring(colors)
            matching, count = lemma3_witness(col)
            assert count >= bound
            assert crossing_number(col, matching) == count
    rng = random.Random(93411)
    for _ in range(1000):
        n = rng.randint(9, 30)
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        col = Coloring("".join(colors))
        matching, count = lemma3_witness(col)
        assert count >= balanced_fourblock_bound(n).value
        assert crossing_number(col, matching) == count
    report(7, time.time() - start, 900,
           "witness >= bound on all 17576 colorings n <= 8 and 1000 random "
           "colorings 9 <= n <= 30")


def test_criterion_08_max_matchings_have_crossing_block_families():
    start = time.time()
    checked_colorings = checked_matchings = 0
    for n in range(2, 7):
        for colors in oracle.colorings(n):
            profile = block_profile(Coloring(colors))
            if len(profile.runs) != 4:
                continue
            checked_colorings += 1
            blocks = [set(b) for b in profile.block_positions()]
            for pairs in oracle.max_matchings(colors):
                checked_matchings += 1
                for block in blocks:
                    family = [e for e in pairs if set(e) & block]
                    for e, f in combinations(family, 2):
                        assert oracle.chords_cross(e, f), (colors, pairs)
    report(8, time.time() - start, 60,
           f"{checked_matchings} maximum matchings over {checked_colorings} "
           "4-block colorings n <= 6: per-block edge families pairwise cross")


def test_criterion_09_sixblock_closed_form():
    start = time.time()
    for m in range(6):
        for y1 in range(1, 5):
            for y2 in range(1, 5):
                col, matching, _ = sixblock_witness(m, y1, y2)
                assert crossing_number(col, matching) == \
                    sixblock_crossing_count(m, y1, y2)
        assert sixblock_crossing_count(m, 1, 1) == 6 * m * m + 10 * m + 5
        assert sixblock_crossing_count(m, 1, 2) == 6 * m * m + 13 * m + 9
    report(9, time.time() - start, 1,
           "6-block count == closed form for all m <= 5, y1, y2 <= 4, "
           "including both instance families")


def test_criterion_10_searches_equal_naive_enumeration():
    start = time.time()
    for n in range(1, 6):
        for colors in oracle.colorings(n):
            col = Coloring(colors)
            expected = oracle.spectrum(colors)
            spec = spectrum(col)
            assert list(spec.achievable) == expected
            value, witness = max_crossing(col)
            assert value == expected[-1]
            assert crossing_number(col, witness) == value
            achievable = set(expected)
            for k in range(comb2(n) + 1):
                found = find_with_k(col, k)
                if k in achievable:
                    assert found is not None
                    assert crossing_number(col, found) == k
                else:
                    assert found is None
    report(10, time.time() - start, 60,
           "spectrum, max, and find agree with permutation enumeration on "
           "all 350 colorings n <= 5")


def test_criterion_11_sweep_n10_single_balanced_fourblock_minimizer():
    start = time.time()
    value, minimizers = minmax_sweep(10, SearchBudget(max_n=10))
    assert value == balanced_fourblock_bound(10).value == 32
    canon, _ = canonicalize(balanced_fourblock_coloring(10))
    assert [str(c) for c in minimizers] == [str(canon)] == \
        ["BBBBBRRRRRBBBBBRRRRR"]
    report(11, time.time() - start, 120,
           "sweep over all 2518 orbits at n=10 equals the bound 32, the "
           "balanced 4-block coloring is the only minimizer")


def test_criterion_12_sweep_n12_two_fourblock_minimizers():
    start = time.time()
    settled = {}
    value, minimizers = minmax_sweep(12, SearchBudget(max_n=12), settled)
    assert value == balanced_fourblock_bound(12).value == 48
    assert [str(c) for c in minimizers] == [
        "BBBBBBBRRRRRRBBBBBRRRRRR", "BBBBBBRRRRRRBBBBBBRRRRRR"]
    assert settled == {"witness": 28966, "search": 2}
    report(12, time.time() - start, 120,
           "sweep over all 28968 orbits at n=12 equals the bound 48; the "
           "witness settles all but the two 4-block minimizers")


def test_criterion_13_sweep_n14_single_balanced_fourblock_minimizer():
    start = time.time()
    settled = {}
    value, minimizers = minmax_sweep(14, SearchBudget(max_n=14), settled)
    assert value == balanced_fourblock_bound(14).value == 66
    canon, _ = canonicalize(balanced_fourblock_coloring(14))
    assert [str(c) for c in minimizers] == [str(canon)] == \
        ["BBBBBBBRRRRRRRBBBBBBBRRRRRRR"]
    assert settled == {"witness": 361269, "search": 1}
    assert sum(settled.values()) == oracle.burnside_orbits(14)
    report(13, time.time() - start, 60,
           "sweep over all 361270 orbits at n=14 equals the bound 66; only "
           "the balanced 4-block orbit is built and searched")
