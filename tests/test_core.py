"""Unit tests for colorings, crossings, symmetry, and profiles."""

import random

import pytest

import oracle
from convexmatch import (
    BLUE,
    RED,
    Coloring,
    Matching,
    all_symmetries,
    block_profile,
    canonicalize,
    crossing_number,
    edge,
    edges_cross,
    plane_matching,
    validate,
)
import convexmatch.core as core
from convexmatch.core import Symmetry, _crossing_count
from convexmatch.errors import (
    InvalidMatching,
    OutOfRange,
    ParseError,
    SharedEndpoint,
    UnbalancedColors,
)


def test_coloring_normalizes_case():
    col = Coloring("rbRB")
    assert str(col) == "RBRB"
    assert col.n == 2
    assert col.size == 4


def test_coloring_rejects_garbage():
    with pytest.raises(ParseError):
        Coloring("")
    with pytest.raises(ParseError):
        Coloring("RBXB")
    with pytest.raises(UnbalancedColors):
        Coloring("RRB")
    with pytest.raises(UnbalancedColors):
        Coloring("RRRB")


def test_edge_normalizes_and_rejects_loops():
    assert edge(5, 2) == (2, 5)
    assert edge(2, 5) == (2, 5)
    with pytest.raises(SharedEndpoint):
        edge(3, 3)


def test_edges_cross_examples():
    assert edges_cross((0, 2), (1, 3), 4)
    assert not edges_cross((0, 1), (2, 3), 4)
    # wrapping chord: (5, 1) separates 0 from 2..4 on six points
    assert edges_cross((1, 5), (0, 2), 6)
    assert not edges_cross((1, 5), (2, 4), 6)


def test_edges_cross_validation():
    with pytest.raises(OutOfRange):
        edges_cross((0, 8), (1, 2), 8)
    with pytest.raises(SharedEndpoint):
        edges_cross((0, 3), (3, 5), 8)
    with pytest.raises(SharedEndpoint):
        edges_cross((2, 2), (0, 1), 8)


def test_edges_cross_matches_oracle_everywhere():
    size = 8
    points = range(size)
    edges = [(a, b) for a in points for b in points if a < b]
    for e in edges:
        for f in edges:
            if set(e) & set(f):
                continue
            assert edges_cross(e, f, size) == oracle.chords_cross(e, f)
            assert edges_cross(f, e, size) == edges_cross(e, f, size)


def _random_perfect_matching(rng, n):
    points = list(range(2 * n))
    rng.shuffle(points)
    return [(points[2 * i], points[2 * i + 1]) for i in range(n)]


def test_crossing_count_matches_oracle():
    rng = random.Random(31)
    for n in range(1, 61):
        size = 2 * n
        for _ in range(3):
            pairs = _random_perfect_matching(rng, n)
            expected = oracle.count_crossings(pairs)
            assert _crossing_count(pairs, size) == expected
        antipodal = [(i, i + n) for i in range(n)]
        assert _crossing_count(antipodal, size) == n * (n - 1) // 2
        nested = [(i, size - 1 - i) for i in range(n)]
        assert _crossing_count(nested, size) == 0
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        plane = plane_matching(Coloring("".join(colors)))[0].sorted_edges
        assert _crossing_count(plane, size) == 0


def test_crossing_count_matches_pairwise_at_n_200():
    rng = random.Random(37)
    size = 400
    for _ in range(3):
        pairs = _random_perfect_matching(rng, 200)
        pairwise = sum(
            edges_cross(e, f, size)
            for i, e in enumerate(pairs) for f in pairs[i + 1:]
        )
        assert _crossing_count(pairs, size) == pairwise


def _partial_matchings(points):
    """Every set of pairwise disjoint chords on ``points``, the empty one
    included; chords come with either endpoint first."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    yield from _partial_matchings(rest)
    for i, other in enumerate(rest):
        for tail in _partial_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other) if i % 2 else (other, first), *tail]


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_crossing_count_reaches_back_across_narrow_segments(
    monkeypatch, bits
):
    # segments of 2, 4 or 8 points make almost every chord reach back,
    # so the branch runs exhaustively on every matching of <= 10 points
    monkeypatch.setattr(core, "_SEGMENT_BITS", bits)
    for size in range(11):
        for pairs in _partial_matchings(list(range(size))):
            expected = oracle.count_crossings(pairs)
            assert _crossing_count(pairs, size) == expected, (bits, pairs)
            assert oracle.reference_crossing_count(pairs, size) == expected


def test_crossing_count_of_empty_and_partial_matchings():
    assert _crossing_count([], 0) == 0
    assert _crossing_count([], 12) == 0
    rng = random.Random(41)
    for size in (5, 40, 200, 1001):
        points = list(range(size))
        for _ in range(5):
            rng.shuffle(points)
            k = rng.randrange(size // 2 + 1)
            pairs = [(points[2 * i], points[2 * i + 1]) for i in range(k)]
            expected = oracle.count_crossings(pairs)
            assert _crossing_count(pairs, size) == expected
            assert oracle.reference_crossing_count(pairs, size) == expected


def _families(n, rng):
    """Diameter, nested, plane and random matchings on 2n points."""
    size = 2 * n
    yield "diameters", [(i, i + n) for i in range(n)], n * (n - 1) // 2
    yield "nested", [(i, size - 1 - i) for i in range(n)], 0
    colors = [RED] * n + [BLUE] * n
    rng.shuffle(colors)
    plane = plane_matching(Coloring("".join(colors)))[0].sorted_edges
    yield "plane", plane, 0
    yield "random", _random_perfect_matching(rng, n), None


@pytest.mark.parametrize("segments", [1, 2])
@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_crossing_count_at_segment_boundaries(segments, offset):
    size = (segments << core._SEGMENT_BITS) + offset
    rng = random.Random(size)
    for name, pairs, expected in _families(size // 2, rng):
        reference = oracle.reference_crossing_count(pairs, size)
        if expected is not None:
            assert reference == expected, name
        assert _crossing_count(pairs, size) == reference, name


def test_crossing_count_on_a_random_matching_over_three_segments():
    size = (3 << core._SEGMENT_BITS) + 1234
    pairs = _random_perfect_matching(random.Random(43), size // 2)
    assert _crossing_count(pairs, size) == \
        oracle.reference_crossing_count(pairs, size)


def test_matching_api():
    m = Matching.from_pairs([(5, 0), (1, 4), (2, 7), (3, 6)])
    assert m.sorted_edges == ((0, 5), (1, 4), (2, 7), (3, 6))
    assert len(m) == 4
    assert (0, 5) in m
    assert (5, 0) not in m.edges  # stored normalized


def test_validate_lists_problems():
    col = Coloring("RRBB")
    assert validate(col, Matching.from_pairs([(0, 2), (1, 3)])) == []
    # wrong edge count
    assert validate(col, Matching.from_pairs([(0, 2)]))
    # monochromatic edge
    assert validate(col, Matching.from_pairs([(0, 1), (2, 3)]))
    # doubled endpoint
    assert validate(col, Matching.from_pairs([(0, 2), (0, 3)]))
    # position outside the cycle
    assert validate(col, Matching.from_pairs([(0, 2), (1, 9)]))


def test_crossing_number_checks_matching():
    col = Coloring("RRBB")
    with pytest.raises(InvalidMatching):
        crossing_number(col, Matching.from_pairs([(0, 1), (2, 3)]))


def test_crossing_number_frozen_examples():
    col = Coloring("RBRBRBRB")
    m = Matching.from_pairs([(0, 5), (1, 4), (2, 7), (3, 6)])
    assert crossing_number(col, m) == 4
    assert crossing_number(Coloring("RBRB"), Matching.from_pairs([(0, 1), (2, 3)])) == 0


def test_crossing_number_matches_oracle():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 6)
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        col = Coloring("".join(colors))
        reds = [i for i, c in enumerate(col.colors) if c == RED]
        blues = [i for i, c in enumerate(col.colors) if c == BLUE]
        rng.shuffle(blues)
        pairs = list(zip(reds, blues))
        m = Matching.from_pairs(pairs)
        assert crossing_number(col, m) == oracle.count_crossings(
            [tuple(sorted(p)) for p in pairs]
        )


def test_symmetry_preserves_crossing_number():
    col = Coloring("RRBRBBRB")
    m = Matching.from_pairs([(0, 2), (1, 4), (3, 5), (6, 7)])
    base = crossing_number(col, m)
    for sym in all_symmetries(col.size):
        image_col = sym.apply(col)
        image_m = Matching.from_pairs(
            (sym.position(a, col.size), sym.position(b, col.size))
            for a, b in m.edges
        )
        assert crossing_number(image_col, image_m) == base


def test_all_symmetries_covers_orbit():
    col = Coloring("RRBRBBRB")
    symmetries = list(all_symmetries(col.size))
    assert len(symmetries) == 8 * col.n
    assert {str(sym.apply(col)) for sym in symmetries} == oracle.orbit(str(col))


def test_identity_symmetry():
    col = Coloring("RBRB")
    assert str(Symmetry(0, False, False).apply(col)) == "RBRB"
    assert Symmetry(1, False, False).position(3, 4) == 0
    assert Symmetry(0, True, False).position(1, 4) == 3


def test_canonicalize_frozen():
    canon, _ = canonicalize(Coloring("RRRRBBBBRRRRBBBB"))
    assert str(canon) == "BBBBRRRRBBBBRRRR"
    canon, _ = canonicalize(Coloring("RRRRRBBBBRRRBBBB"))
    assert str(canon) == "BBBBBRRRRBBBRRRR"


def test_sorted_edges_is_kept_and_equality_reads_the_set():
    pairs = [(5, 0), (1, 4), (3, 2), (7, 6)]
    m = Matching.from_pairs(pairs)
    first = m.sorted_edges
    assert first == ((0, 5), (1, 4), (2, 3), (6, 7))
    assert m.sorted_edges is first
    rng = random.Random(3)
    for _ in range(10):
        rng.shuffle(pairs)
        other = Matching.from_pairs((b, a) if rng.random() < 0.5 else (a, b)
                                    for a, b in pairs)
        assert other == m and hash(other) == hash(m)
        assert other.sorted_edges == first
    assert m == Matching.from_pairs(pairs)  # one read, one not


def test_canonicalize_matches_oracle():
    for n in range(1, 5):
        for s in oracle.colorings(n):
            expected = oracle.canonical(s)
            col = Coloring(s)
            canon, sym = canonicalize(col)
            assert str(canon) == expected
            # the witness is the first symmetry in scan order that works
            assert sym == next(t for t in all_symmetries(col.size)
                               if str(t.apply(col)) == expected)
            assert oracle.is_canonical(s) == (s == expected)


def test_block_profile():
    profile = block_profile(Coloring("RRBBRRBB"))
    assert profile.start == 0
    assert profile.runs == (("R", 2), ("B", 2), ("R", 2), ("B", 2))
    assert oracle.block_positions(profile) == \
        ((0, 1), (2, 3), (4, 5), (6, 7))
    # runs that wrap across position 0 start at the first boundary
    wrapped = block_profile(Coloring("RBBR"))
    assert wrapped.start == 1
    assert wrapped.runs == (("B", 2), ("R", 2))
    assert oracle.block_positions(wrapped) == ((1, 2), (3, 0))


def test_block_profile_roundtrip():
    # each run's color, laid on its block's positions, spells the coloring
    for n in range(1, 5):
        for s in oracle.colorings(n):
            profile = block_profile(Coloring(s))
            back = [""] * len(s)
            for (color, _), block in zip(
                    profile.runs, oracle.block_positions(profile)):
                for p in block:
                    back[p] = color
            assert "".join(back) == s
