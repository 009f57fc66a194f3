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
  It scores the n half-turn joins and stops early at C(n,2) crossings.

A half-turn join (``_half_join``) joins the half [c, c+n) to its
antipode.  Every maximum construction is one: the alternating one is
the join at c = 0, the 6-block one the join at c = m + y1, and the
4-block one the join at a cut read off its frame and ``h_value``'s
split (each docstring says why), so none can beat the best half-turn
join.  It stands for every balanced antipodal cut pair (c1, c2) with
c1 = c: the join of that pair's arcs has exactly
C(n,2) - sum_{t<n} |S(t) - S(c1)| crossings, where S is the
core-surplus walk (S(0) = 0, and step t adds +1 when positions t and
t+n are both red, -1 when both are blue).  The count does not depend on
c2, and in lexicographic order (c1, c1) comes before every (c1, c2), so
the first-best cut pair is always some (c, c) and scoring the n
half-turns finds it.  ``tests/oracle.py`` keeps the scan over every cut
pair, and the same join picked in closed form from the medians of S,
as references.  The min-max sweep settles each orbit it builds with
one witness; ``search._screen_survivors`` proves its count.

Every construction returns its matching with the count it checked, so
no caller recounts it or restates the closed form.  The plane,
alternating, 4-block and 6-block constructions check through
``_checked``: the validating ``crossing_number`` counts the matching
once, and a count other than the closed form (0 for the plane one)
raises a falsification alarm.  ``lemma3_witness`` scores its joins with
the unvalidated ``_crossing_count``, the scan that ``crossing_number``
runs after validating, and checks the winner against the bound.  The
constructions share one join (``_half_join``), one scan of block frames
(``_frames``) and one builder from run sizes to a coloring
(``_runs_coloring``).
"""

from __future__ import annotations

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
    _from_runs,
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


def _half_join(coloring: Coloring, c: int) -> list[tuple[int, int]]:
    """Join the half [c, c+n) to its antipode so same-colored bundles
    cross: the half's red points, in order, to the antipodal half's blue
    points, then its blue points to the antipodal red points.

    Index by index, so the edges of one bundle pairwise cross.  Every
    maximum construction of this module is this join at some cut
    0 <= c < n.  The joins at c and c + n are the same matching, and so
    is the join read in the other rotational direction: each bundle
    pairs the i-th point of one half with the i-th of the other, from
    either end.
    """
    colors = coloring.colors
    n = coloring.n
    size = 2 * n
    half = range(c, c + n)
    far = [(p + n) % size for p in half]
    return [
        pair
        for color in (RED, BLUE)
        for pair in zip(
            [p for p in half if colors[p] == color],
            [p for p in far if colors[p] != color],
        )
    ]


def _frames(profile: BlockProfile):
    """Every relabeling of the runs: (lead run's color, step, first,
    sizes).

    Starts at each run in turn, forward (step 1) and then reflected
    (step -1).  ``sizes`` are the run lengths read in the step's
    rotational direction from the lead run, and ``first`` is the lead
    run's first position in that direction: its first position forward,
    its last reflected.  So a construction can speak of a block's first
    point without caring about the original orientation, and no block's
    positions are built.
    """
    size = profile.size
    sizes = [length for _, length in profile.runs]
    k = len(sizes)
    at = profile.start
    for j, (color, length) in enumerate(profile.runs):
        yield color, 1, at % size, sizes[j:] + sizes[:j]
        at += length
        yield color, -1, (at - 1) % size, [sizes[(j - t) % k]
                                           for t in range(k)]


def _runs_coloring(sizes) -> Coloring:
    """The coloring whose runs have these sizes, starting with red."""
    return _from_runs(
        [(BLUE if i % 2 else RED, s) for i, s in enumerate(sizes)]
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


def plane_matching(coloring: Coloring) -> tuple[Matching, int]:
    """Crossing-free perfect matching and its checked count, 0.

    One clockwise pass stacks unmatched positions.  The stack is always
    monochromatic, so any arriving point of the other color pops and
    matches the top.  Balance guarantees the stack drains by the end of
    the pass, and the nesting discipline makes the result crossing-free.
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
    matching = Matching.from_pairs(pairs)
    return matching, _checked("plane", coloring, matching, 0)


def alternating_coloring(n: int) -> Coloring:
    """The coloring whose colors alternate at every step."""
    if n < 1:
        raise OutOfRange("need at least one pair")
    return _from_runs([(RED + BLUE, n)])


def alternating_max_matching(n: int) -> tuple[Coloring, Matching, int]:
    """Alternating coloring, matching and its checked count C(n,2) - n/2.

    The half-turn join at c = 0.  With n even, the reds of [0, n) are
    its even positions and the blues of [n, 2n) are n+1, n+3, ..., so
    red i meets blue i+n+1 and blue i meets red i+n-1.  Each edge then
    crosses all but one of the others, which is the most the alternating
    coloring admits, and no coloring admits more than C(n,2) overall.
    Requires even n.
    """
    if n < 2 or n % 2:
        raise OddN(f"construction needs even n >= 2, got {brief(n)}")
    coloring = alternating_coloring(n)
    matching = Matching.from_pairs(_half_join(coloring, 0))
    count = _checked("alternating", coloring, matching, comb(n, 2) - n // 2)
    return coloring, matching, count


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


def fourblock_max_matching(coloring: Coloring) -> tuple[Matching, int]:
    """Maximum-crossing matching on four blocks, and its checked count.

    The half-turn join that starts at a1[x], for the frame's blocks
    a1, a2, a3, a4 (r1 = |a1|, b1 = |a2|) and the split ``x`` from
    ``h_value``; the crossing count is exactly C(n,2) minus the plan's
    minimum non-crossing count.  On a forward frame that half holds
    a1[x:], a2 and a3[:n-r1-b1+x].
    Its reds meet a4 in order; a2 meets a3's last b1-x reds and then
    a1[:x].  A reflected frame reads the same half in the other
    direction, so its clockwise start is a1[0] - x + 1.  ``_frames``
    gives a1[0] as ``first``, with the block sizes.
    """
    profile = block_profile(coloring)
    if len(profile.runs) != 4:
        raise NotFourBlock(f"{len(profile.runs)} runs, need exactly 4")
    n = coloring.n
    # some red-led frame has both lead blocks <= n/2
    step, first, (r1, b1, _, _) = next(
        (step, first, sizes) for color, step, first, sizes in _frames(profile)
        if color == RED and 2 * sizes[0] <= n and 2 * sizes[1] <= n
    )
    plan = h_value(n, r1, b1)
    c = first + plan.x if step > 0 else first - plan.x + 1
    matching = Matching.from_pairs(_half_join(coloring, c % n))
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


def sixblock_witness(
    m: int, y1: int, y2: int
) -> tuple[Coloring, Matching, int]:
    """Six-block coloring, matching and its checked count.

    The coloring has n = 4m + 2 + y1 + y2 and blocks b0, ..., b5 of
    sizes (2m+1+y1, 2m+1, y2, y1, 2m+1, 2m+1+y2), colors alternating by
    block from red at position 0.  The matching is the half-turn join at
    c = m + y1: that half holds b0[m+y1:], b1, b2, b3 and b4[:m].  Its
    reds meet b5 in order; its blues meet b4[m:] and then b0[:m+y1].
    """
    if m < 0:
        raise OutOfRange(f"need m >= 0, got {brief(m)}")
    if y1 < 1 or y2 < 1:
        raise OutOfRange(f"need y1, y2 >= 1, got {brief(y1)}, {brief(y2)}")
    coloring = _runs_coloring(sixblock_sizes(m, y1, y2))
    matching = Matching.from_pairs(_half_join(coloring, m + y1))
    count = _checked(
        "6-block", coloring, matching, sixblock_crossing_count(m, y1, y2)
    )
    return coloring, matching, count


def _sixblock_shape(sizes) -> tuple[int, int, int] | None:
    """(m, y1, y2) when six positive block sizes read, in the order
    given, ``sixblock_sizes(m, y1, y2)``; else None."""
    shape = ((sizes[1] - 1) // 2, sizes[3], sizes[2])
    return shape if sixblock_sizes(*shape) == tuple(sizes) else None


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
    are scored with the unvalidated ``_crossing_count``, one clockwise
    scan of 2n points whose open chords fit one int bitset up to
    n = 2**13; the winner alone is recounted by ``crossing_number``,
    which runs the same scan after validating, and a count below
    ``balanced_fourblock_bound`` raises a falsification alarm.

    Every maximum construction of this module is a half-turn join, so
    none can beat the best one, and the witness scores nothing else.  The
    join at c has C(n,2) - D(S(c)) crossings, S being the core-surplus
    walk and D(m) = sum_{t<n} |S(t) - m|, and on block colorings D
    gives the constructions' closed forms:

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
    size = coloring.size
    every_pair = comb(coloring.n, 2)
    best_pairs = None
    best_count = -1
    for c in range(coloring.n):
        pairs = _half_join(coloring, c)
        count = _crossing_count(pairs, size)
        if count > best_count:
            best_pairs, best_count = pairs, count
            if count == every_pair:
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
