"""Tests for the bound, the constructions, and the witness machinery."""

import random
from fractions import Fraction
from itertools import product

import pytest

import oracle
from oracle import _balanced_cut_partitions, _cut_pair_join, _half_turn
from convexmatch import (
    RED,
    BLUE,
    Coloring,
    Matching,
    alternating_coloring,
    alternating_max_matching,
    balanced_fourblock_bound,
    balanced_fourblock_coloring,
    block_profile,
    canonicalize,
    crossing_number,
    fourblock_max_matching,
    h_value,
    lemma3_witness,
    plane_matching,
    sixblock_crossing_count,
    sixblock_witness,
    validate,
)
from convexmatch.construct import _frames, _sixblock_shape, sixblock_sizes
from convexmatch.core import (
    _crossing_count,
    all_symmetries,
    edges_cross,
)
from convexmatch.errors import (
    NotFourBlock,
    OddN,
    OutOfRange,
    WitnessBelowBound,
)


def comb2(n):
    return n * (n - 1) // 2


def assert_checked(coloring, matching, count):
    """A construction's returned count is its valid matching's count by
    the oracle's pairwise interleaving test."""
    assert validate(coloring, matching) == []
    assert count == oracle.count_crossings(matching.sorted_edges)


# ---------------------------------------------------------------- plane


def test_plane_matching_frozen():
    m, count = plane_matching(Coloring("RRBB"))
    assert (m.sorted_edges, count) == (((0, 3), (1, 2)), 0)


def test_plane_matching_is_crossing_free():
    for n in range(1, 6):
        for s in oracle.colorings(n):
            col = Coloring(s)
            m, count = plane_matching(col)
            assert crossing_number(col, m) == count == 0
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 12)
        colors = [RED] * n + [BLUE] * n
        rng.shuffle(colors)
        col = Coloring("".join(colors))
        m, count = plane_matching(col)
        assert_checked(col, m, count)
        assert count == 0


# ---------------------------------------------------------- alternating


def test_alternating_coloring():
    assert str(alternating_coloring(3)) == "RBRBRB"


def test_alternating_max_matching_counts():
    # even n reaches C(n,2) - n/2, the most any coloring allows
    for n in range(2, 13, 2):
        col, m, count = alternating_max_matching(n)
        assert str(col) == "RB" * n
        assert_checked(col, m, count)
        assert count == comb2(n) - n // 2


def test_alternating_max_matching_frozen_n4():
    _, m, _ = alternating_max_matching(4)
    assert m.sorted_edges == ((0, 5), (1, 4), (2, 7), (3, 6))


def test_alternating_max_matching_is_the_maximum():
    for n in (2, 4):
        col, _, count = alternating_max_matching(n)
        assert count == oracle.maximum(str(col))


def test_alternating_miscount_raises_alarm(monkeypatch):
    # the plane, alternating, 4-block and 6-block constructions share
    # one recount, which reads crossing_number through the module
    import convexmatch.construct as construct

    monkeypatch.setattr(construct, "crossing_number",
                        lambda coloring, matching: comb2(coloring.n) - 1)
    builds = (
        (lambda: plane_matching(Coloring("RRRBBB")),
         "plane construction counted 2, expected 0"),
        (lambda: alternating_max_matching(4),
         "alternating construction counted 5, expected 4"),
        (lambda: fourblock_max_matching(Coloring("RRRBBRBB")),
         "4-block construction counted 5, expected 4"),
        (lambda: sixblock_witness(1, 1, 1),
         "6-block construction counted 27, expected 21"),
    )
    for build, message in builds:
        with pytest.raises(WitnessBelowBound) as alarm:
            build()
        assert str(alarm.value) == message


def test_alternating_rejects_odd_and_tiny():
    with pytest.raises(OddN):
        alternating_max_matching(3)
    with pytest.raises(OddN):
        alternating_max_matching(0)


# -------------------------------------------------------------- h value


def test_h_value_frozen_plans():
    plan = h_value(8, 3, 4)
    assert (plan.x, plan.h_value) == (1, 8)  # f(1) = f(2), tie to smaller x
    assert plan.x_star == Fraction(3, 2)
    plan = h_value(8, 1, 1)
    assert (plan.x, plan.h_value) == (0, 1)
    plan = h_value(8, 4, 4)
    assert (plan.x, plan.h_value) == (2, 8)
    assert plan.x_star == Fraction(2)


def test_h_value_validation():
    with pytest.raises(OutOfRange):
        h_value(8, 0, 4)
    with pytest.raises(OutOfRange):
        h_value(8, 5, 4)  # lead blocks larger than n/2 are not normalized
    with pytest.raises(OutOfRange):
        h_value(1, 1, 1)


def test_h_value_is_the_feasible_minimum():
    for n in range(2, 13):
        for r1 in range(1, n // 2 + 1):
            for b1 in range(1, n // 2 + 1):
                plan = h_value(n, r1, b1)
                lo = max(0, r1 + b1 - n)
                hi = min(r1, b1)
                f = lambda x: (n - 2 * r1 - 2 * b1) * x + 2 * x * x + r1 * b1
                best = min(f(x) for x in range(lo, hi + 1))
                assert plan.h_value == best
                assert lo <= plan.x <= hi
                assert f(plan.x) == best


# ------------------------------------------------------------ the bound


def test_bound_frozen_values():
    values = [balanced_fourblock_bound(n).value for n in range(2, 9)]
    assert values == [0, 2, 4, 7, 10, 15, 20]


def test_bound_residue_forms():
    for n in range(1, 50):
        breakdown = balanced_fourblock_bound(n)
        m = n // 4
        expected = {
            0: 6 * m * m - 2 * m,
            1: 6 * m * m + m,
            2: 6 * m * m + 4 * m,
            3: 6 * m * m + 7 * m + 2,
        }[n % 4]
        assert breakdown.value == expected
        assert breakdown.m == m
        assert breakdown.residue == n % 4


def test_bound_fractional_identity():
    t_for = {0: 0, 1: 1, 2: -4, 3: 1}
    for n in range(1, 60):
        breakdown = balanced_fourblock_bound(n)
        t = t_for[n % 4]
        assert 8 * breakdown.value == 3 * n * n - 4 * n + t


def test_bound_equals_balanced_h_complement():
    for n in range(2, 30):
        plan = h_value(n, n // 2, n // 2)
        assert balanced_fourblock_bound(n).value == comb2(n) - plan.h_value


def test_bound_rejects_nonpositive():
    with pytest.raises(OutOfRange):
        balanced_fourblock_bound(0)


def test_balanced_fourblock_coloring():
    assert str(balanced_fourblock_coloring(5)) == "RRBBRRRBBB"
    profile = block_profile(balanced_fourblock_coloring(9))
    assert tuple(length for _, length in profile.runs) == (4, 4, 5, 5)


# ------------------------------------------------------------ four-block


def test_fourblock_frozen_profiles():
    for colors in ("RRRRBBBBRRRRBBBB", "RRRRRBBBBRRRBBBB"):
        col = Coloring(colors)
        matching, count = fourblock_max_matching(col)
        assert count == 20
        assert crossing_number(col, matching) == 20


def test_fourblock_matches_h_complement():
    seen = 0
    for n in range(2, 8):
        for s in oracle.colorings(n):
            col = Coloring(s)
            profile = block_profile(col)
            if len(profile.runs) != 4:
                continue
            matching, count = fourblock_max_matching(col)
            r1 = min(length for color, length in profile.runs if color == RED)
            b1 = min(length for color, length in profile.runs if color == BLUE)
            assert count == comb2(n) - h_value(n, r1, b1).h_value
            assert_checked(col, matching, count)
            seen += 1
    assert seen > 100


def test_fourblock_is_the_exhaustive_maximum_small():
    for s in ("RRBBRB".replace(" ", ""), "RRRBBB", "RRBRBB", "RRRBBBRB"):
        col = Coloring(s)
        if len(block_profile(col).runs) != 4:
            continue
        _, count = fourblock_max_matching(col)
        assert count == oracle.maximum(s)


def test_fourblock_frame_normalization_is_symmetry_proof():
    # every dihedral image of a 4-block coloring reaches the same count
    base = Coloring("RRRRRBBBBRRRBBBB")
    for sym in all_symmetries(base.size):
        image = sym.apply(base)
        _, count = fourblock_max_matching(image)
        assert count == 20


def test_fourblock_rejects_other_shapes():
    for colors in ("RRBB", "RBRBRB", "RRBRBRBB"):
        with pytest.raises(NotFourBlock):
            fourblock_max_matching(Coloring(colors))


# ------------------------------------------------------------- six-block


def test_sixblock_sizes_and_coloring():
    assert sixblock_sizes(0, 1, 1) == (2, 1, 1, 1, 1, 2)
    col, matching, count = sixblock_witness(0, 1, 1)
    assert str(col) == "RRBRBRBB"
    assert matching.sorted_edges == ((0, 4), (1, 6), (2, 5), (3, 7))
    assert crossing_number(col, matching) == count == 5
    assert sixblock_crossing_count(0, 1, 1) == 5


def test_sixblock_count_matches_direct_recount():
    for m, y1, y2 in product(range(4), range(1, 4), range(1, 4)):
        col, matching, count = sixblock_witness(m, y1, y2)
        assert_checked(col, matching, count)
        assert count == sixblock_crossing_count(m, y1, y2)


def test_sixblock_instance_forms():
    for m in range(6):
        assert sixblock_crossing_count(m, 1, 1) == 6 * m * m + 10 * m + 5
        assert sixblock_crossing_count(m, 1, 2) == 6 * m * m + 13 * m + 9


def test_sixblock_guards():
    with pytest.raises(OutOfRange):
        sixblock_witness(-1, 1, 1)
    with pytest.raises(OutOfRange):
        sixblock_witness(0, 0, 1)
    with pytest.raises(OutOfRange):
        sixblock_witness(0, 1, 0)


def test_sixblock_shape_inverts_sixblock_sizes():
    # the shape is read through sixblock_sizes; the hand-written
    # predicate it replaced is the reference
    def reference(sizes):
        s0, s1, s2, s3, s4, s5 = sizes
        if s1 != s4 or s1 % 2 == 0 or s0 != s1 + s3 or s5 != s4 + s2:
            return None
        return (s1 - 1) // 2, s3, s2

    for sizes in product(range(1, 9), repeat=6):
        assert _sixblock_shape(sizes) == reference(sizes), sizes
    assert _sixblock_shape([3, 1, 2, 2, 1, 3]) == (0, 2, 2)


# -------------------------------------------------------- group partition


def core_positions(colors):
    """Positions whose antipode has the same color."""
    n = len(colors) // 2
    return {p for p, ch in enumerate(colors) if ch == colors[(p + n) % (2 * n)]}


def test_group_partition_structure():
    """Every balanced cut pair's arcs tile the cycle, are antipodal in
    pairs and are core-balanced in each arc."""
    for n in range(1, 6):
        for s in oracle.colorings(n):
            col = Coloring(s)
            core = core_positions(s)
            size = col.size
            for _, arcs in _balanced_cut_partitions(col):
                assert sorted(p for g in arcs for p in g) == list(range(size))
                for near, far in ((0, 2), (1, 3)):
                    assert tuple((p + n) % size for p in arcs[near]) == \
                        arcs[far]
                for g in arcs:
                    in_core = [p for p in g if p in core]
                    reds = sum(1 for p in in_core if s[p] == "R")
                    assert 2 * reds == len(in_core)


def test_bundle_crossings_bound():
    """Red and blue edge families of an arc pair cross enough.

    In every balanced cut pair's join, the edges at the red points and
    the edges at the blue points of the first and the last arc must
    cross at least (bichromatic red count) * (bichromatic blue count)
    times, counting the arc's points whose antipode has the other color.
    """
    for n in range(1, 7):
        for s in oracle.colorings(n):
            col = Coloring(s)
            core = core_positions(s)
            for _, arcs in _balanced_cut_partitions(col):
                pairs = _cut_pair_join(col, arcs)
                for arc in (arcs[0], arcs[3]):
                    members = set(arc)
                    b_red = sum(1 for p in arc
                                if p not in core and s[p] == "R")
                    b_blue = sum(1 for p in arc
                                 if p not in core and s[p] == "B")
                    fam_r = [e for e in pairs
                             if any(p in members and s[p] == "R" for p in e)]
                    fam_b = [e for e in pairs
                             if any(p in members and s[p] == "B" for p in e)]
                    crossings = sum(
                        edges_cross(tuple(sorted(e)), tuple(sorted(f)),
                                    col.size)
                        for e in fam_r for f in fam_b
                        if not set(e) & set(f)
                    )
                    assert crossings >= b_red * b_blue


# ---------------------------------------------------------------- witness


def test_witness_regression_eight_runs():
    # lexicographically first cuts alone reach only 6 here; the witness
    # must consider other cuts c to clear the bound of 7
    col = Coloring("RRBRBRBRBB")
    matching, count = lemma3_witness(col)
    assert count == 9
    assert crossing_number(col, matching) == count
    assert count >= balanced_fourblock_bound(5).value


@pytest.fixture
def calls(monkeypatch):
    """Sizes passed to ``construct._crossing_count``: one per join the
    witness scores."""
    import convexmatch.construct as construct

    real = construct._crossing_count
    seen = []

    def counting(pairs, size):
        seen.append(size)
        return real(pairs, size)

    monkeypatch.setattr(construct, "_crossing_count", counting)
    return seen


def test_witness_empty_core_uses_antipodal_family(calls):
    matching, count = lemma3_witness(Coloring("RRBB"))
    assert matching.sorted_edges == ((0, 2), (1, 3))
    assert count == 1
    # with an empty core the first cut, c = 0, joins every point to its
    # antipode; nothing beats its C(n,2) crossings, so it is the only
    # candidate scored
    swap = str.maketrans("RB", "BR")
    for n in range(1, 9):
        for half in product("RB", repeat=n):
            first = "".join(half)
            calls.clear()
            matching, count = lemma3_witness(
                Coloring(first + first.translate(swap))
            )
            assert matching.sorted_edges == tuple(
                (i, i + n) for i in range(n)
            )
            assert count == n * (n - 1) // 2
            assert len(calls) == 1


def test_witness_scores_at_most_one_join_per_cut(calls):
    for n in range(1, 7):
        for colors in oracle.colorings(n):
            calls.clear()
            lemma3_witness(Coloring(colors))
            assert len(calls) <= n, colors
    # no half-turn of a full core reaches C(n,2), so all 16 are scored;
    # a scan of every balanced cut pair would score 23
    calls.clear()
    lemma3_witness(Coloring("R" * 8 + "B" * 8 + "R" * 8 + "B" * 8))
    assert len(calls) == 16


def test_witness_tiny():
    matching, count = lemma3_witness(Coloring("RB"))
    assert count == 0


def test_witness_meets_bound_exhaustively():
    for n in range(1, 7):
        bound = balanced_fourblock_bound(n).value
        for rep in oracle.canonical_reps(n):
            col = Coloring(rep)
            matching, count = lemma3_witness(col)
            assert crossing_number(col, matching) == count
            assert count >= bound


def test_balanced_cut_arcs_match_modular_ranges():
    # reference: the cut pair and its arcs [lo, hi) mod 2n for every cut
    # pair whose first two arcs are color-balanced on the monochromatic
    # antipodal pairs; the scan tests only the first, so this also checks
    # that the second always holds
    rng = random.Random(2309)
    for _ in range(3000):
        n = rng.randint(1, 30)
        size = 2 * n
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        col = Coloring("".join(colors))

        def core_balance(lo, hi):
            return sum(
                (1 if colors[p % size] == RED else -1)
                for p in range(lo, hi)
                if colors[p % size] == colors[(p + n) % size]
            )

        expected = [
            ((c1, c2), tuple(
                tuple((lo + ofs) % size for ofs in range((hi - lo) % size))
                for lo, hi in ((c1, c2), (c2, c1 + n), (c1 + n, c2 + n),
                               (c2 + n, c1 + 2 * n))
            ))
            for c1 in range(n)
            for c2 in range(c1, n)
            if core_balance(c1, c2) == core_balance(c2, c1 + n) == 0
        ]
        assert list(_balanced_cut_partitions(col)) == expected


def cut_pair_cases():
    """Every coloring with n <= 7, then 200 seeded random ones, n <= 60."""
    for n in range(1, 8):
        yield from oracle.colorings(n)
    rng = random.Random(41733)
    for _ in range(200):
        n = rng.randint(8, 60)
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        yield "".join(colors)


def core_surplus(colors):
    """S(t) for t < n: red minus blue monochromatic antipodal pairs
    among positions 0..t-1."""
    return oracle._core_surplus(Coloring(colors))


def test_cut_pair_joins_count_in_closed_form():
    # every cut pair (c1, c2) joins into C(n,2) - sum_t |S(t) - S(c1)|
    # crossings, and both the closed-form _half_turn and lemma3_witness
    # are the scan's first-best join and count; the sweep's "witness"
    # check rests on that identity
    for colors in cut_pair_cases():
        col = Coloring(colors)
        walk = core_surplus(colors)
        best = None
        for (c1, _), arcs in _balanced_cut_partitions(col):
            pairs = _cut_pair_join(col, arcs)
            count = _crossing_count(pairs, col.size)
            assert count == comb2(col.n) - sum(abs(s - walk[c1])
                                                for s in walk), (colors, c1)
            if best is None or count > best[1]:
                best = pairs, count
        assert _half_turn(col) == best, colors
        assert lemma3_witness(col) == \
            (Matching.from_pairs(best[0]), best[1]), colors


# ------------------------------------------- witness without block candidates


def block_colors(sizes):
    """Alternating runs of these sizes, starting with red."""
    return "".join(("R" if i % 2 == 0 else "B") * s
                   for i, s in enumerate(sizes))


def turns(colors):
    """Every rotation and reflection of a color string."""
    return {c[r:] + c[:r] for c in (colors, colors[::-1])
            for r in range(len(colors))}


def witness_cases():
    """Every coloring with n <= 6; every rotation and reflection of every
    4-block coloring with n <= 10; every rotation, reflection and swap of
    the six-block family with m <= 2 and 1 <= y1, y2 <= 3."""
    for n in range(1, 7):
        yield from oracle.colorings(n)
    # block colorings with n <= 6 are among those above
    fourblock = set()
    for n in range(7, 11):
        for r1, b1 in product(range(1, n), repeat=2):
            fourblock |= turns(block_colors((r1, b1, n - r1, n - b1)))
    yield from sorted(fourblock)
    sixblock = set()
    for m, y1, y2 in product(range(3), range(1, 4), range(1, 4)):
        sixblock |= oracle.orbit(block_colors(sixblock_sizes(m, y1, y2)))
    yield from sorted(c for c in sixblock if len(c) > 12)


def test_witness_matches_reference_with_block_candidates():
    # the 4- and 6-block candidates the reference also scores never
    # change the witness or its count
    for colors in witness_cases():
        col = Coloring(colors)
        matching, count = lemma3_witness(col)
        ref_matching, ref_count = oracle.reference_lemma3_witness(col)
        assert (matching.sorted_edges, count) == \
            (ref_matching.sorted_edges, ref_count), colors


def test_fourblock_walk_deviation_is_the_plan_objective():
    # the best join of R^r1 B^b1 R^(n-r1) B^(n-b1) misses h pairs, as the
    # exact 4-block maximum does
    for n in range(2, 31):
        for r1, b1 in product(range(1, n // 2 + 1), repeat=2):
            walk = core_surplus(block_colors((r1, b1, n - r1, n - b1)))
            assert set(walk) == set(range(min(r1, b1) + 1))
            deviation = {m: sum(abs(s - m) for s in walk) for m in set(walk)}
            for m, value in deviation.items():
                assert value == 2 * m * m + (n - 2 * (r1 + b1)) * m + r1 * b1
            assert min(deviation.values()) == h_value(n, r1, b1).h_value


def test_sixblock_walk_deviation_closed_form():
    # the six-block count is C(n,2) minus the deviation sum about m, so
    # at most the best join's
    for m, y1, y2 in product(range(7), range(1, 7), range(1, 7)):
        o = 2 * m + 1
        walk = core_surplus(block_colors(sixblock_sizes(m, y1, y2)))
        assert set(walk) == set(range(o + 1))
        for big_m in range(o + 1):
            assert sum(abs(s - big_m) for s in walk) == \
                2 * big_m ** 2 + (y1 + y2 - 2 * o) * big_m + o * o
        assert comb2(len(walk)) - sum(abs(s - m) for s in walk) == \
            sixblock_crossing_count(m, y1, y2)


# ------------------------------------------ constructions as half-turn joins


def assert_same_layout(coloring, matching, count, pairs):
    """A construction's matching is its reference arc layout, edge for edge,
    and its count is that layout's by the oracle's Fenwick-tree counter."""
    assert matching.sorted_edges == \
        Matching.from_pairs(pairs).sorted_edges, coloring
    assert count == \
        oracle.reference_crossing_count(pairs, coloring.size), coloring


def test_alternating_matches_reference_layout():
    # the half-turn join at 0 is the oracle's step loop
    for n in range(2, 41, 2):
        col, matching, count = alternating_max_matching(n)
        assert_same_layout(col, matching, count,
                           oracle.reference_alternating_join(n))


def test_frames_read_the_reference_blocks():
    # each frame's lead position and run sizes are those of the blocks
    # the reference scan builds, on every coloring with n <= 6
    for n in range(1, 7):
        for colors in oracle.colorings(n):
            profile = block_profile(Coloring(colors))
            assert list(_frames(profile)) == [
                (color, step, blocks[0][0], [len(b) for b in blocks])
                for color, step, blocks in oracle.reference_frames(profile)
            ], colors


def test_fourblock_matches_reference_layout():
    # the half-turn join at a1[x], on a forward or a reflected frame, is
    # the oracle's four-arc join on every 4-block coloring with n <= 10
    fourblock = set()
    for n in range(2, 11):
        for r1, b1 in product(range(1, n), repeat=2):
            fourblock |= turns(block_colors((r1, b1, n - r1, n - b1)))
    assert len(fourblock) == sum(n * (n - 1) ** 2 for n in range(2, 11))
    for colors in sorted(fourblock):
        col = Coloring(colors)
        matching, count = fourblock_max_matching(col)
        assert_same_layout(col, matching, count,
                           oracle.reference_fourblock_join(col))


def test_sixblock_matches_reference_layout():
    # the half-turn join at m + y1 is the oracle's six-arc join
    for m, y1, y2 in product(range(6), range(1, 7), range(1, 7)):
        col, matching, count = sixblock_witness(m, y1, y2)
        blocks = oracle.block_positions(block_profile(col))
        assert_same_layout(col, matching, count,
                           oracle._sixblock_joins(blocks, m, y1, y2))
