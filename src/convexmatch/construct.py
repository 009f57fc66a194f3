"""Constructions with prescribed crossing counts, and the closed-form bound.

The centerpiece is the minimum over all balanced colorings of the maximum
crossing number, attained by the balanced 4-block coloring.  The closed
form ``balanced_fourblock_bound`` is exact integer arithmetic split by
n mod 4; the constructions below realize the matchings behind it:

* ``plane_matching``: zero crossings, for any coloring;
* ``alternating_max_matching``: C(n,2) - n/2 crossings on the alternating
  coloring (n even), the overall maximum;
* ``fourblock_max_matching``: the exact maximum C(n,2) - h on any 4-block
  coloring, where ``h_value`` minimizes the non-crossing pair count;
* ``sixblock_witness``: a 6-block family needed when 4-block reasoning
  falls one crossing short;
* ``lemma3_witness``: for every coloring, a matching whose crossing count
  is at least ``balanced_fourblock_bound(n)``, certifying that no
  coloring can force fewer crossings than the balanced 4-block one.
  It scores the n half-turn joins and stops early at C(n,2) crossings;
  the 4- and 6-block constructions never count more than the best join
  (proved in its docstring).

A half-turn join (``_half_join``) joins the half [c, c+n) to its
antipode.  It stands for every balanced antipodal cut pair (c1, c2)
with c1 = c: the join of that pair's arcs has exactly
C(n,2) - sum_{t<n} |S(t) - S(c1)| crossings, where S is the
core-surplus walk (S(0) = 0, and step t adds +1 when positions t and
t+n are both red, -1 when both are blue).  The count does not depend on
c2, and in lexicographic order (c1, c1) comes before every (c1, c2), so
the first-best cut pair is always some (c, c) and scoring the n
half-turns finds it.  ``tests/oracle.py`` keeps the scan over every cut
pair, and the same join picked in closed form from the medians of S,
as references.  The min-max sweep settles each orbit it builds with
one witness; ``search._screen_survivors`` proves its count.

The constructions share one arc join (``_join``, index by index), one
scan of block frames (``_frames``) and one builder from run sizes to a
coloring (``_runs_coloring``).  The alternating, 4-block and 6-block
constructions share one self-check, ``_checked``: the validating
``crossing_number`` recounts the matching, and a count other than the
closed form raises a falsification alarm instead of returning quietly.
``plane_matching`` needs none: its zero follows from its stack
discipline, and its callers (the CLI and ``compose``) recount it.
``lemma3_witness`` scores its joins with the unvalidated O(n log n)
counter ``_crossing_count`` and checks only the winner, against the
bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor

from .core import (
    BLUE,
    RED,
    BlockProfile,
    Coloring,
    Matching,
    _crossing_count,
    block_profile,
    crossing_number,
)
from .errors import (
    NotFourBlock,
    OddN,
    OutOfRange,
    WitnessBelowBound,
    brief,
)


def _join(arc_pairs) -> list[tuple[int, int]]:
    """Join each pair of equal-sized arcs index by index.

    Joining the i-th point of one arc to the i-th point of the other
    (both read in the same rotational direction) makes the edges of one
    join pairwise crossing whenever the arcs are disjoint.
    """
    return [pair for xs, ys in arc_pairs for pair in zip(xs, ys)]


def _frames(profile: BlockProfile):
    """Every relabeling of the runs: (lead run's color, blocks).

    Starts at each run in turn, forward and then reflected.  The blocks
    are position tuples in a consistent rotational direction (reversed
    tuples for the reflected frames), so joins can speak of the first or
    last points of a block without caring about the original orientation.
    """
    blocks = profile.block_positions()
    k = len(blocks)
    for j, (color, _) in enumerate(profile.runs):
        yield color, [blocks[(j + t) % k] for t in range(k)]
        yield color, [blocks[(j - t) % k][::-1] for t in range(k)]


def _runs_coloring(sizes) -> Coloring:
    """The coloring whose runs have these sizes, starting with red."""
    if sum(sizes) > sys.maxsize:
        raise OutOfRange(f"coloring has more than {sys.maxsize} points")
    return Coloring(
        "".join((RED if i % 2 == 0 else BLUE) * s for i, s in enumerate(sizes))
    )


def _checked(
    name: str, coloring: Coloring, matching: Matching, expected: int
) -> int:
    """The construction's count by the validating ``crossing_number``;
    a count other than its closed form raises a falsification alarm."""
    count = crossing_number(coloring, matching)
    if count != expected:
        raise WitnessBelowBound(
            f"{name} construction counted {count}, expected {expected}"
        )
    return count


def plane_matching(coloring: Coloring) -> Matching:
    """Crossing-free perfect matching, built by one clockwise stack pass.

    Unmatched positions are stacked; the stack is always monochromatic,
    so any arriving point of the other color pops and matches the top.
    Balance guarantees the stack drains by the end of the pass, and the
    nesting discipline makes the result crossing-free.
    """
    stack: list[int] = []
    pairs = []
    colors = coloring.colors
    for p in range(coloring.size):
        if stack and colors[stack[-1]] != colors[p]:
            pairs.append((stack.pop(), p))
        else:
            stack.append(p)
    assert not stack, "balanced coloring left unmatched points"
    return Matching.from_pairs(pairs)


def alternating_coloring(n: int) -> Coloring:
    """The coloring whose colors alternate at every step."""
    if n < 1:
        raise OutOfRange("need at least one pair")
    if 2 * n > sys.maxsize:
        raise OutOfRange(f"coloring has more than {sys.maxsize} points")
    return Coloring((RED + BLUE) * n)


def alternating_max_matching(n: int) -> tuple[Coloring, Matching]:
    """Matching with C(n,2) - n/2 crossings on the alternating coloring.

    Even positions are matched n+1 steps ahead, odd positions n-1 steps
    ahead.  Each edge then crosses all but one of the others, which is the
    most the alternating coloring admits, and no coloring admits more
    than C(n,2) overall.  Requires even n.
    """
    if n < 2 or n % 2:
        raise OddN(f"construction needs even n >= 2, got {brief(n)}")
    coloring = alternating_coloring(n)
    pairs = []
    for i in range(n):
        step = n + 1 if i % 2 == 0 else n - 1
        pairs.append((i, (i + step) % (2 * n)))
    matching = Matching.from_pairs(pairs)
    _checked("alternating", coloring, matching, comb(n, 2) - n // 2)
    return coloring, matching


def balanced_fourblock_coloring(n: int) -> Coloring:
    """Four blocks with sizes as equal as possible, small blocks first."""
    if n < 2:
        raise OutOfRange("need n >= 2 for four nonempty blocks")
    lo, hi = n // 2, n - n // 2
    return _runs_coloring((lo, lo, hi, hi))


@dataclass(frozen=True)
class FourBlockPlan:
    """Split choice minimizing non-crossing pairs on a 4-block coloring.

    For first-block sizes r1, b1 (both at most n/2 after normalization),
    a maximum matching sends x red points of the first red block into the
    first blue block; the non-crossing pair count is then

        f(x) = (n - 2*r1 - 2*b1) * x + 2*x**2 + r1*b1.

    ``x_star`` is the rational minimizer of f, ``x`` the best integer in
    the feasible interval [max(0, r1+b1-n), min(r1, b1)], and ``h_value``
    equals f(x).  When both integer neighbors of ``x_star`` tie, the
    smaller one is chosen.
    """

    n: int
    r1: int
    b1: int
    x_star: Fraction
    x: int
    h_value: int


def h_value(n: int, r1: int, b1: int) -> FourBlockPlan:
    """Minimum non-crossing pair count over 4-block maximum matchings."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {brief(n)}")
    for name, v in (("r1", r1), ("b1", b1)):
        if not 1 <= v <= n - 1:
            raise OutOfRange(f"{name}={brief(v)} outside 1..{brief(n - 1)}")
        if 2 * v > n:
            raise OutOfRange(
                f"{name}={brief(v)} not normalized: relabel so "
                "blocks are <= n/2"
            )

    def f(x: int) -> int:
        return (n - 2 * r1 - 2 * b1) * x + 2 * x * x + r1 * b1

    lo = max(0, r1 + b1 - n)
    hi = min(r1, b1)
    x_star = Fraction(2 * (r1 + b1) - n, 4)
    candidates = {
        min(max(floor(x_star), lo), hi),
        min(max(ceil(x_star), lo), hi),
    }
    # f is convex, so the better clamped neighbor of x_star is the integer
    # minimum over the interval; ties resolve to the smaller x.
    x = min(candidates, key=lambda c: (f(c), c))
    return FourBlockPlan(n, r1, b1, x_star, x, f(x))


def fourblock_max_matching(profile: BlockProfile) -> tuple[Matching, int]:
    """Maximum-crossing matching on a coloring with exactly four blocks.

    The construction pairs the four blocks through four index-by-index
    arc joins governed by the split ``x`` from ``h_value``; the crossing
    count is exactly C(n,2) minus the plan's minimum non-crossing count.
    """
    if len(profile.runs) != 4:
        raise NotFourBlock(f"{len(profile.runs)} runs, need exactly 4")
    coloring = profile.to_coloring()
    n = coloring.n
    # some red-led frame has both lead blocks <= n/2
    a1, a2, a3, a4 = next(
        blocks for color, blocks in _frames(profile)
        if color == RED and 2 * len(blocks[0]) <= n and 2 * len(blocks[1]) <= n
    )
    r1, b1, r2 = len(a1), len(a2), len(a3)
    plan = h_value(n, r1, b1)
    x = plan.x
    matching = Matching.from_pairs(_join((
        (a1[:x], a2[b1 - x:]),
        (a1[x:], a4[:r1 - x]),
        (a2[:b1 - x], a3[r2 - (b1 - x):]),
        (a3[:n - r1 - b1 + x], a4[r1 - x:]),
    )))
    count = _checked("4-block", coloring, matching, comb(n, 2) - plan.h_value)
    return matching, count


@dataclass(frozen=True)
class BoundBreakdown:
    """Closed-form minimum of the maximum crossing number, by n mod 4."""

    n: int
    m: int
    residue: int
    value: int


def balanced_fourblock_bound(n: int) -> BoundBreakdown:
    """Fewest crossings any coloring can force, met by balanced 4 blocks.

    With m = n // 4 the value is one of four quadratics in m chosen by
    n mod 4; equivalently (3n^2 - 4n + t) / 8 with t in {0, 1, -4, 1}.
    """
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {brief(n)}")
    m, residue = divmod(n, 4)
    value = {
        0: 6 * m * m - 2 * m,
        1: 6 * m * m + m,
        2: 6 * m * m + 4 * m,
        3: 6 * m * m + 7 * m + 2,
    }[residue]
    return BoundBreakdown(n, m, residue, value)


def _sixblock_joins(blocks, m: int, y1: int, y2: int):
    """Arc joins of the six-block construction, given the six blocks in
    frame order (alternating colors, sizes 2m+1+y1, 2m+1, y2, y1, 2m+1,
    2m+1+y2)."""
    b0, b1, b2, b3, b4, b5 = blocks
    return _join((
        (b0[:m], b1[m + 1:]),             # lead block into its neighbor
        (b0[m:m + y1], b3),               # middle of lead block across
        (b0[m + y1:], b5[:m + 1]),        # tail of lead block to far side
        (b2, b5[m + 1:m + 1 + y2]),
        (b4[:m], b5[m + 1 + y2:]),
        (b1[:m + 1], b4[m:]),
    ))


def sixblock_sizes(m: int, y1: int, y2: int) -> tuple[int, ...]:
    return (2 * m + 1 + y1, 2 * m + 1, y2, y1, 2 * m + 1, 2 * m + 1 + y2)


def sixblock_crossing_count(m: int, y1: int, y2: int) -> int:
    """Closed-form crossing count of the six-block construction.

    Equals 6m^2 + 10m + 5 at y1 = y2 = 1 and 6m^2 + 13m + 9 at
    y1 = 1, y2 = 2.
    """
    return (
        2 * comb(m, 2)
        + 2 * comb(m + 1, 2)
        + comb(y1, 2)
        + comb(y2, 2)
        + 4 * m * m
        + 4 * m
        + 2 * y1 * (m + 1)
        + 2 * y2 * (m + 1)
        + m * y1
        + m * y2
        + y1 * y2
    )


def sixblock_witness(m: int, y1: int, y2: int) -> tuple[Coloring, Matching]:
    """Six-block coloring and matching realizing ``sixblock_crossing_count``.

    The coloring has n = 4m + 2 + y1 + y2 and block sizes
    (2m+1+y1, 2m+1, y2, y1, 2m+1, 2m+1+y2), colors alternating by block.
    """
    if m < 0:
        raise OutOfRange(f"need m >= 0, got {brief(m)}")
    if y1 < 1 or y2 < 1:
        raise OutOfRange(f"need y1, y2 >= 1, got {brief(y1)}, {brief(y2)}")
    coloring = _runs_coloring(sixblock_sizes(m, y1, y2))
    blocks = block_profile(coloring).block_positions()
    matching = Matching.from_pairs(_sixblock_joins(blocks, m, y1, y2))
    _checked("6-block", coloring, matching, sixblock_crossing_count(m, y1, y2))
    return coloring, matching


def _sixblock_shape(sizes) -> tuple[int, int, int] | None:
    """(m, y1, y2) when six positive block sizes read, in the order
    given, ``sixblock_sizes(m, y1, y2)``; else None."""
    shape = ((sizes[1] - 1) // 2, sizes[3], sizes[2])
    return shape if sixblock_sizes(*shape) == tuple(sizes) else None


def _half_join(coloring: Coloring, c: int) -> list[tuple[int, int]]:
    """Join the half [c, c+n) to its antipode so same-colored bundles
    cross: the half's red points, in order, to the antipodal half's blue
    points, then its blue points to the antipodal red points."""
    colors = coloring.colors
    half = range(c, c + coloring.n)
    far = [(p + coloring.n) % coloring.size for p in half]
    return _join(
        (
            [p for p in half if colors[p] == color],
            [p for p in far if colors[p] != color],
        )
        for color in (RED, BLUE)
    )


def lemma3_witness(coloring: Coloring) -> tuple[Matching, int]:
    """Matching certifying the coloring's maximum is at least the bound.

    Scores the n half-turn joins ``_half_join(coloring, c)``, for
    c = 0, ..., n-1, and keeps the first with the highest count.  They
    stand for every balanced antipodal cut pair (c1, c2), c1 <= c2: the
    arcs [c1, c2) and [c2, c1+n), each joined to its antipode, have
    C(n,2) - sum_t |S(t) - S(c1)| crossings whatever c2 is, and in
    lexicographic order (c1, c1), the half-turn at c1, comes before
    every (c1, c2), so the first-best cut pair is always some (c, c).
    Every c counts, not just Lemma 3's evenly halved cut: where the cut
    falls relative to the bichromatic pairs can swing the count by more
    than the slack in the bound.  Scoring stops at the first join with
    all C(n,2) pairs crossing, as with an empty core at c = 0.  Joins
    are scored with the unvalidated ``_crossing_count``; the winner
    alone is recounted by ``crossing_number``, and a count below
    ``balanced_fourblock_bound`` raises a falsification alarm.

    The best join has C(n,2) - min_c D(S(c)) crossings, S being the
    core-surplus walk and D(m) = sum_{t<n} |S(t) - m|.  The 4- and
    6-block constructions count at most that, and after it they could
    only tie, so they are not scored:

    * 4 blocks, normalized frame R^r1 B^b1 R^(n-r1) B^(n-b1) with
      r1, b1 <= n/2; a = min(r1, b1), b = max(r1, b1), s = r1 + b1.
      S steps +1 on [0, a), 0 on [a, b), -1 on [b, s) and 0 after, so
      it takes 0 exactly n+1-s times, each of 1..a-1 twice and a
      exactly b-a+1 times.  Hence D(m) = 2m^2 + (n - 2s)m + r1*b1 for
      0 <= m <= a: ``FourBlockPlan``'s f(m) over the same integers, so
      the best join has C(n,2) - h crossings, the exact 4-block maximum.
    * 6 blocks, sizes (o+y1, o, y2, y1, o, o+y2) with o = 2m+1.  S is 0
      on [0, y1], rises by one per step to o, falls back to 0 by
      t = y1 + 2o and stays 0.  Hence D(M) = 2M^2 + (y1 + y2 - 2o)M + o^2
      for 0 <= M <= o, and C(n,2) - D(m) is
      ``sixblock_crossing_count(m, y1, y2)``.
    * Symmetry.  Rotation, reflection and colour swap rotate, reverse
      or negate the n-periodic steps, which moves the walk's values by
      a translation and a sign and leaves min_c D(S(c)) alone: both
      results hold in every frame that ``_frames`` can find.
    """
    best_pairs = None
    best_count = -1
    for c in range(coloring.n):
        pairs = _half_join(coloring, c)
        count = _crossing_count(pairs, coloring.size)
        if count > best_count:
            best_pairs, best_count = pairs, count
            if count == comb(coloring.n, 2):
                break
    assert best_pairs is not None
    matching = Matching.from_pairs(best_pairs)
    count = crossing_number(coloring, matching)
    bound = balanced_fourblock_bound(coloring.n).value
    if count < bound:
        raise WitnessBelowBound(
            f"best witness for {coloring} has {count} crossings, "
            f"bound is {bound}"
        )
    return matching, count
