"""Colorings, matchings, and crossing counts on convex point sets.

Everything in this package lives on 2n points in convex position, labeled
0..2n-1 clockwise and colored with n red and n blue.  For straight-line
segments between points in convex position, whether two segments cross
depends only on the cyclic order of their four endpoints: they cross
exactly when the endpoint pairs interleave.  All geometry therefore
reduces to arithmetic mod 2n, and every quantity here is an exact integer.

A coloring is the cyclic color sequence; a matching is a perfect matching
of red points to blue points by straight segments.  Two colorings that
differ by rotation, reflection, or swapping the color classes behave
identically, so colorings are compared through a canonical form that is
minimal over that symmetry group.  One scan, ``_images``, lists the 8n
images of a color string; ``canonicalize`` and the CLI's atlas read the
group action from it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice

from .errors import (
    InvalidMatching,
    OutOfRange,
    ParseError,
    SharedEndpoint,
    UnbalancedColors,
    brief,
)

RED = "R"
BLUE = "B"

# Canonical forms are lexicographic minima, so the color order is fixed
# once and for all: BLUE sorts before RED.
_SWAP = str.maketrans(RED + BLUE, BLUE + RED)


@dataclass(frozen=True)
class Coloring:
    """Cyclic two-coloring of 2n convex-position points, n of each color."""

    colors: str

    def __post_init__(self):
        normalized = self.colors.upper()
        if normalized != self.colors:
            object.__setattr__(self, "colors", normalized)
        if not self.colors:
            raise ParseError("empty coloring")
        bad = set(self.colors) - {RED, BLUE}
        if bad:
            raise ParseError(f"invalid color characters: {sorted(bad)!r}")
        reds = self.colors.count(RED)
        if reds * 2 != len(self.colors):
            raise UnbalancedColors(
                f"{reds} red vs {len(self.colors) - reds} blue points"
            )

    @property
    def size(self) -> int:
        return len(self.colors)

    @property
    def n(self) -> int:
        return len(self.colors) // 2

    def __str__(self) -> str:
        return self.colors


def _from_runs(runs) -> Coloring:
    """The coloring of (text, count) runs, each text repeated count times;
    one of over ``sys.maxsize`` points is refused before it is built."""
    if sum(len(text) * count for text, count in runs) > sys.maxsize:
        raise OutOfRange(f"coloring has more than {sys.maxsize} points")
    return Coloring("".join(text * count for text, count in runs))


def edge(a: int, b: int) -> tuple[int, int]:
    """Normalized edge: endpoint pair with the smaller position first."""
    if a == b:
        raise SharedEndpoint(f"degenerate edge at position {brief(a)}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Matching:
    """Set of pairwise disjoint edges on positions 0..2n-1.

    ``edges`` is the only field, so equality and hashing read the set;
    ``sorted_edges`` is sorted on first read and kept.
    """

    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_pairs(cls, pairs) -> "Matching":
        return cls(frozenset(edge(a, b) for a, b in pairs))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.sorted_edges)

    def __contains__(self, pair) -> bool:
        return edge(*pair) in self.edges


def edges_cross(e1: tuple[int, int], e2: tuple[int, int], size: int) -> bool:
    """Whether two segments on the convex cycle of ``size`` points cross.

    They cross exactly when the endpoints interleave, i.e. exactly one
    endpoint of ``e2`` lies on the open clockwise arc between the
    endpoints of ``e1``.  Sharing an endpoint is an error, not a crossing.
    """
    a, b = e1
    c, d = e2
    for p in (a, b, c, d):
        if not 0 <= p < size:
            raise OutOfRange(f"position {brief(p)} outside 0..{size - 1}")
    if a == b or c == d:
        raise SharedEndpoint("edge with two equal endpoints")
    if {a, b} & {c, d}:
        raise SharedEndpoint(f"edges {e1} and {e2} share an endpoint")
    # x lies strictly between a and b exactly when (x - a) * (x - b) < 0
    return ((c - a) * (c - b) < 0) != ((d - a) * (d - b) < 0)


# Width of a segment of ``_crossing_count``'s scan, as a power of two.
_SEGMENT_BITS = 14


def _crossing_count(edges_seq, size: int) -> int:
    """Crossing count of pairwise disjoint edges, no validation.

    One clockwise scan that marks the left end of every chord open at
    the scan position.  When chord (a, b) closes at b, the open chords
    whose left end lies in (a, b) began inside it and end beyond it, so
    each crosses it; every other chord is nested in it, disjoint from
    it, or encloses it.

    The positions are cut into segments of 2**_SEGMENT_BITS, and each
    segment keeps its open left ends as one int bitset.  A chord that
    closes in the segment where it opened counts with one shift and one
    ``bit_count``.  One that reaches back to an earlier segment adds
    that segment's bits above its left end, the open counts of the
    segments in between and the popcount of the current segment.  Each
    step works on ints of at most 2**_SEGMENT_BITS bits, and a reach-back
    sums at most size / 2**_SEGMENT_BITS counts, so the scan costs
    O(size) interpreted steps plus O(size**2 / 2**_SEGMENT_BITS) integer
    additions.  The bound on the bitsets is what keeps large inputs
    fast: at 2*10**5 points one flat bitset of every position is 2-3
    times slower than a Fenwick tree, and the segments are faster.
    """
    partner = [-1] * size
    for a, b in edges_seq:
        partner[a] = b
        partner[b] = a
    shift = _SEGMENT_BITS
    width = 1 << shift
    low = width - 1
    done_bits = []  # open left ends of each earlier segment
    done_open = []  # and their number
    total = 0
    for start in range(0, size, width):
        bits = 0  # open left ends of this segment, bit i at start + i
        for p, a in enumerate(partner[start:start + width], start):
            if a > p:  # p opens a chord
                bits |= 1 << p - start
            elif a >= start:  # p closes a chord opened in this segment
                a -= start
                total += (bits >> a + 1).bit_count()
                bits ^= 1 << a
            elif a >= 0:  # p closes a chord from an earlier segment
                s = a >> shift
                a &= low
                total += ((done_bits[s] >> a + 1).bit_count()
                          + sum(done_open[s + 1:]) + bits.bit_count())
                done_bits[s] ^= 1 << a
                done_open[s] -= 1
        done_bits.append(bits)
        done_open.append(bits.bit_count())
    return total


def validate(coloring: Coloring, matching: Matching) -> list[str]:
    """All reasons the matching is not a perfect bichromatic matching."""
    problems = []
    size = coloring.size
    if len(matching.edges) != coloring.n:
        problems.append(
            f"expected {coloring.n} edges, got {len(matching.edges)}"
        )
    seen: set[int] = set()
    for a, b in matching.sorted_edges:
        for p in (a, b):
            if not 0 <= p < size:
                problems.append(f"position {brief(p)} outside 0..{size - 1}")
            elif p in seen:
                problems.append(f"position {p} used twice")
            else:
                seen.add(p)
        if 0 <= a < size and 0 <= b < size:
            if coloring.colors[a] == coloring.colors[b]:
                problems.append(f"monochromatic edge {a}-{b}")
    return problems


def crossing_number(coloring: Coloring, matching: Matching) -> int:
    """Number of crossing edge pairs of a valid perfect matching."""
    problems = validate(coloring, matching)
    if problems:
        raise InvalidMatching("; ".join(problems))
    return _crossing_count(matching.sorted_edges, coloring.size)


@dataclass(frozen=True)
class Symmetry:
    """Element of the symmetry group: dihedral relabeling plus color swap.

    Acts on positions by i -> rotation + i (or rotation - i when
    reflected), mod the cycle size, and optionally swaps the two colors.
    """

    rotation: int
    reflected: bool
    swapped: bool

    def position(self, i: int, size: int) -> int:
        if self.reflected:
            return (self.rotation - i) % size
        return (self.rotation + i) % size

    def apply(self, coloring: Coloring) -> Coloring:
        size = coloring.size
        out = [""] * size
        src = coloring.colors.translate(_SWAP) if self.swapped else coloring.colors
        for i in range(size):
            out[self.position(i, size)] = src[i]
        return Coloring("".join(out))



def all_symmetries(size: int):
    """The 8n symmetries, in the fixed scan order used for tie-breaking."""
    for swapped in (False, True):
        for reflected in (False, True):
            for rotation in range(size):
                yield Symmetry(rotation, reflected, swapped)


def _images(colors: str):
    """The 8n images of a color string under the group, as strings, in
    ``all_symmetries`` order.

    Every image is a rotation of the string, its reversal, its color
    swap or the swapped reversal, so one doubled copy of each of those
    four bases yields all of them as slices.
    """
    size = len(colors)
    for swapped in (False, True):
        doubled = (colors.translate(_SWAP) if swapped else colors) * 2
        # rotation r moves position i to r + i: the slice from size - r
        for start in range(size, 0, -1):
            yield doubled[start:start + size]
        doubled = doubled[::-1]
        # reflection r moves position i to r - i: from size - 1 - r
        for start in range(size - 1, -1, -1):
            yield doubled[start:start + size]


def canonicalize(coloring: Coloring) -> tuple[Coloring, Symmetry]:
    """Lexicographically smallest image of the coloring under the group.

    Returns the canonical coloring together with a symmetry mapping the
    input onto it (the first such symmetry in scan order).  The canonical
    form is constant on orbits and idempotent.
    """
    images = list(_images(coloring.colors))
    best = min(images)
    symmetries = all_symmetries(coloring.size)
    return Coloring(best), next(islice(symmetries, images.index(best), None))


@dataclass(frozen=True)
class BlockProfile:
    """Run-length view of a coloring: maximal single-color arcs.

    ``start`` is the first position at or after 0 that begins a run, so
    the runs tile the cycle starting there.
    """

    size: int
    start: int
    runs: tuple[tuple[str, int], ...]

    def block_positions(self) -> tuple[tuple[int, ...], ...]:
        """Positions of each run, clockwise, in run order."""
        out = []
        at = self.start
        for _, length in self.runs:
            out.append(tuple((at + i) % self.size for i in range(length)))
            at += length
        return tuple(out)


def block_profile(coloring: Coloring) -> BlockProfile:
    colors = coloring.colors
    # a Coloring holds both colors, so some position starts a run
    start = next(p for p, c in enumerate(colors) if c != colors[p - 1])
    rotated = colors[start:] + colors[:start]
    runs = tuple((c, len(list(run))) for c, run in groupby(rotated))
    return BlockProfile(coloring.size, start, runs)
