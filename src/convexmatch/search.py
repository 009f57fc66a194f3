"""Exhaustive exploration of matchings and colorings at desk scale.

A perfect matching of a coloring assigns each red point a blue point, so
the n! assignments can be enumerated by depth-first search: red points
are processed in clockwise order, and each tries the unused blue points
in clockwise order.  That fixed order makes every reported witness
deterministic: it is the first matching with its count in lexicographic
order.  ``spectrum``, ``max_crossing``, ``find_with_k`` and the sweep
all run one kernel, ``_dfs``, and differ only in what they want.  The
kernel carries a bitmask of the crossing counts still wanted and each
search's leaf callback shrinks it: ``spectrum`` wants every count not
yet found, ``max_crossing`` every count above its incumbent, and
``_first_hit`` a fixed set (k for ``find_with_k``, every count above
the bound for the sweep) until its first leaf; the counts above k are
``_above(n, k)``.  A leaf hands the callback its count and its edge
mask, bit i * n + j set when red i takes blue j, from which
``_Tables.matching`` decodes the witness.
Crossing counts are maintained incrementally through a precomputed
crossing-mask table (one n^2-bit int per candidate edge, bit i * n + j
for each edge it crosses), and a subtree is cut when no wanted count
fits its completion interval.
That interval is sharp per edge: a partial assignment with c crossings
so far and r reds left adds between 0 and C(r,2) crossings among the r
edges still to come, and each chosen edge, with aR remaining reds and
aB free blues strictly inside its chord, is crossed between |aR - aB|
and min(aR, r - aB) + min(aB, r - aR) more times.  Two index masks per
candidate edge, its inside reds and its inside blues, make that two
popcounts per chosen edge.  Only live chords are walked: once aR + aB
is 0 or 2r, every remaining point lies on one side of the chord, which
adds nothing from then on and is not handed down the recursion.  With
one red left the interval is exact, the count of the only completion,
so the last level is settled in place by its parent.  The search stops
as soon as nothing is left to want, so ``max_nodes`` counts only the
nodes visited before then; the kernel counts it down as a plain int and
raises ``BudgetExceeded`` on the node after the last one allowed, the
settled last level included.

``spectrum`` keeps the edge mask of the first leaf with each count, and
its ``Spectrum`` decodes them into witnesses on first read.  The CLI's
atlas, which writes only the counts, calls the same ``spectrum`` and
decodes none.

``enumerate_colorings`` lists one canonical representative per symmetry
orbit, for the CLI's atlas.  It generates the fixed-content necklaces,
the strings that no rotation makes smaller, in sorted order, so the
rotation images are never built; each necklace is kept when no image
under reflection, colour swap or both is smaller.

``minmax_sweep`` closes the loop with the closed-form bound: it computes
the minimum over all colorings (one canonical representative per
symmetry orbit) of the maximum crossing number and insists the two
routes agree, raising a falsification alarm otherwise.  It does not
enumerate the orbits.  An orbit whose Lemma-3 witness counts above the
bound cannot be a minimizer, and that count is a function of the
orbit's core-surplus walk alone.  ``_screen_survivors`` walks the step
sequences depth first, cutting every prefix whose walk cannot reach
the deviation the bound asks for, and builds the canonical colorings
of the walks that do: at n = 8 two of the 257 orbits, at n = 12 two of
28,968.  The others are counted by ``_orbit_count``, Burnside's lemma
in closed form.  Each survivor runs one job: its witness must count
exactly the bound, so its maximum is the bound unless a matching counts
more, and the search looks for one in at most ``max_nodes`` nodes.
The job is mapped in-process or over a pool of at most
``os.cpu_count()`` workers, and no more workers than survivors; there
is no second path.

A default size limit keeps accidental combinatorial explosions out of
interactive use; raise it through ``SearchBudget`` or the environment
variable ``CONVEXMATCH_MAX_N``.  One gate, ``_check_size``, applies it
to the searches, the sweep and the CLI's atlas.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import comb, gcd

from .construct import balanced_fourblock_bound, lemma3_witness
from .core import (
    BLUE,
    RED,
    Coloring,
    Matching,
    _SWAP,
    _images,
)
from .errors import (
    BudgetExceeded,
    OutOfRange,
    SizeLimitExceeded,
    SweepMismatch,
    brief,
    brief_text,
)

DEFAULT_SEARCH_LIMIT = 10


@dataclass(frozen=True)
class SearchBudget:
    """Resource knobs for searches.

    ``max_nodes`` caps visited assignment nodes (None = unlimited; per
    searched orbit in a sweep), ``jobs`` is the worker count for sweeps
    (at most ``os.cpu_count()`` and the orbits searched), and ``max_n``
    overrides the default instance-size limit.
    """

    max_nodes: int | None = None
    jobs: int = 1
    max_n: int | None = None

    def __post_init__(self):
        for name in ("max_nodes", "jobs", "max_n"):
            value = getattr(self, name)
            if value is None and name != "jobs":
                continue
            # type() rather than isinstance(), which lets True pass as 1
            if type(value) is not int:
                raise OutOfRange(
                    f"{name} must be an int, not {type(value).__name__}"
                )
        if self.max_nodes is not None and self.max_nodes < 0:
            raise OutOfRange(f"max_nodes={brief(self.max_nodes)} is negative")
        if self.jobs < 1:
            raise OutOfRange(f"jobs={brief(self.jobs)} is below 1")
        if self.max_n is not None and self.max_n < 1:
            raise OutOfRange(f"max_n={brief(self.max_n)} is below 1")


def _check_size(n: int, budget: SearchBudget):
    """Reject an n above the search limit: ``budget.max_n`` if set, else
    ``CONVEXMATCH_MAX_N``, else ``DEFAULT_SEARCH_LIMIT``."""
    limit = DEFAULT_SEARCH_LIMIT
    if budget.max_n is not None:
        limit = budget.max_n
    elif (text := os.environ.get("CONVEXMATCH_MAX_N")) is not None:
        try:
            limit = int(text)
        except ValueError:
            raise OutOfRange(
                f"CONVEXMATCH_MAX_N={brief_text(text)} is not an integer"
            ) from None
        if limit < 1:
            raise OutOfRange(f"CONVEXMATCH_MAX_N={brief(limit)} is below 1")
    if n > limit:
        raise SizeLimitExceeded(
            f"n={brief(n)} exceeds search limit {brief(limit)}; raise it "
            "via SearchBudget(max_n=...) or CONVEXMATCH_MAX_N"
        )


@dataclass(frozen=True)
class Spectrum:
    """Achievable crossing numbers of a coloring, with one witness each.

    ``witnesses`` holds the first matching found with each count, in
    hit order.  It is decoded from the search's edge masks on its first
    read, so a caller that reads only the counts decodes none.
    """

    n: int
    achievable: tuple[int, ...]
    complete: bool
    _tables: _Tables = field(compare=False, repr=False)
    _hits: dict[int, int] = field(compare=False, repr=False)

    @cached_property
    def witnesses(self) -> dict[int, Matching]:
        return {k: self._tables.matching(m) for k, m in self._hits.items()}

    @property
    def missing(self) -> tuple[int, ...]:
        present = set(self.achievable)
        return tuple(
            k for k in range(comb(self.n, 2) + 1) if k not in present
        )


class _Tables:
    """Candidate edges of a coloring: crossing masks and inside points.

    Edge ``i * n + j`` joins the i-th red to the j-th blue point, both in
    clockwise order, and its mask has bit ``i' * n + j'`` set when edge
    (i', j') crosses it: when exactly one of red i' and blue j' lies
    strictly inside its chord.  The reds inside a chord, and the blues
    inside, are runs of consecutive indices, so each mask is the inside
    blues written into every outside red's row plus the outside blues
    written into every inside red's row, neither with the shared ends.
    ``reds_in[e]`` and ``blues_in[e]`` keep those runs as index masks
    (bit i for red i, bit j for blue j), from which ``_dfs`` bounds how
    often the edges still to come can cross edge e.

    The runs come from ranks, not searches: one pass over the coloring
    records, for each red, how many blues come before it, and for each
    blue, how many reds.  Take red i with B blues before it and blue j
    with R reds before it.  If red i comes first (j >= B), the inside
    runs are reds i+1 .. R-1 and blues B .. j-1; if blue j comes first
    (j < B), they are reds R .. i-1 and blues j+1 .. B-1.
    """

    def __init__(self, coloring: Coloring):
        reds: list[int] = []
        blues: list[int] = []
        blues_before = []  # blues_before[i]: blues before red i
        reds_before = []  # reds_before[j]: reds before blue j
        for p, c in enumerate(coloring.colors):
            if c == RED:
                blues_before.append(len(blues))
                reds.append(p)
            else:
                reds_before.append(len(reds))
                blues.append(p)
        self.reds = tuple(reds)
        self.blues = tuple(blues)
        n = self.n = len(reds)
        # rows[k] has the lowest bit of each of the first k red rows, so
        # row_bits * (rows[c] - rows[a]) copies row_bits into rows a..c-1
        rows = [0]
        for i in range(n):
            rows.append(rows[-1] | 1 << (i * n))
        full = (1 << n) - 1
        masks = self.masks = []
        reds_in = self.reds_in = []
        blues_in = self.blues_in = []
        for i, before in enumerate(blues_before):
            for j, rank in enumerate(reds_before):
                if j < before:  # blue j, then red i
                    first, stop = rank, i
                    inside = (1 << before) - (2 << j)
                else:  # red i, then blue j
                    first, stop = i + 1, rank
                    inside = (1 << j) - (1 << before)
                inside_rows = rows[stop] - rows[first]
                masks.append(
                    inside * (rows[n] - inside_rows - (1 << i * n))
                    + (full - inside - (1 << j)) * inside_rows
                )
                reds_in.append((1 << stop) - (1 << first))
                blues_in.append(inside)

    def matching(self, chosen: int) -> Matching:
        """The matching whose edge mask is ``chosen``."""
        n = self.n
        return Matching.from_pairs(
            (self.reds[e // n], self.blues[e % n])
            for e in range(n * n) if chosen >> e & 1
        )


def _dfs(
    tables: _Tables,
    wanted: int,
    max_nodes: int | None,
    hit: Callable[[int, int], int],
) -> None:
    """Depth-first search for matchings whose crossing counts are wanted.

    ``wanted`` is a bitmask of the counts still worth reaching.  The
    search visits at most ``max_nodes`` nodes (None = unlimited) and
    raises ``BudgetExceeded`` on the next one; a node whose completion
    interval holds no wanted count is cut.  At depth d with c crossings
    so far, the r = n - d edges still to come cross one another between
    0 and C(r,2) times, and cross a chosen edge e, with aR remaining
    reds and aB free blues strictly inside its chord, between
    |aR - aB| and min(aR, r - aB) + min(aB, r - aR) times; every
    completion's count lies in c plus the sums of those bounds.  A chord
    with aR + aB equal to 0 or 2r has every remaining point on one side,
    adds 0 to both ends here and in every descendant, and is not handed
    down: each node walks only the live chords.  With one red left the
    interval shrinks to the count of the single completion, so a node
    with two reds left settles each child in place: two popcounts give
    the leaf's count, and the child's node, and the leaf's when its count
    is wanted, are spent as if visited.  A leaf with a wanted count calls
    ``hit(count, chosen)``, where ``chosen`` is the leaf's edge mask (bit
    ``i * n + j`` set when red i takes blue j), and ``hit`` returns the
    new wanted mask; the search stops once that is 0.
    """
    n = tables.n
    masks = tables.masks
    reds_in = tables.reds_in
    blues_in = tables.blues_in
    # -1 counts down without ever reaching 0: no budget
    left = -1 if max_nodes is None else max_nodes

    def dive(depth: int, free: int, chosen: int, current: int,
             wanted: int, live: list[int]) -> int:
        nonlocal left
        if not left:
            raise BudgetExceeded("node budget exhausted")
        left -= 1
        if depth == n:  # only at n = 1: deeper leaves are settled in place
            return hit(current, chosen) if wanted >> current & 1 else wanted
        r = n - depth
        span = 2 * r
        low = current
        high = current + r * (r - 1) // 2
        kept = []
        for e in live:
            red = (reds_in[e] >> depth).bit_count()
            blue = (blues_in[e] & free).bit_count()
            both = red + blue
            if both and both != span:
                low += red - blue if red > blue else blue - red
                high += both if both <= r else span - both
                kept.append(e)
        # cut unless a wanted count lies in low..high
        if not wanted >> low & ((2 << (high - low)) - 1):
            return wanted
        base = depth * n
        if r == 2:
            # red depth takes one free blue, red depth + 1 the other, and
            # the child's interval is that leaf's count
            first = free & -free
            ends = ((first, free ^ first), (free ^ first, first))
            for jbit, last in ends:
                e = base + jbit.bit_length() - 1
                step = chosen | 1 << e
                f = base + n + last.bit_length() - 1
                count = (current + (masks[e] & chosen).bit_count()
                         + (masks[f] & step).bit_count())
                if not left:
                    raise BudgetExceeded("node budget exhausted")
                left -= 1
                if wanted >> count & 1:
                    if not left:
                        raise BudgetExceeded("node budget exhausted")
                    left -= 1
                    wanted = hit(count, step | 1 << f)
                    if not wanted:
                        break
            return wanted
        kept.append(0)  # the child's own edge goes in this slot
        rest = free
        while rest:
            jbit = rest & -rest
            rest ^= jbit
            e = kept[-1] = base + jbit.bit_length() - 1
            wanted = dive(depth + 1, free ^ jbit, chosen | 1 << e,
                          current + (masks[e] & chosen).bit_count(),
                          wanted, kept)
            if not wanted:
                break
        return wanted

    try:
        dive(0, (1 << n) - 1, 0, 0, wanted, [])
    finally:
        del dive  # the closure holds itself through its cell


def _above(n: int, k: int) -> int:
    """The wanted mask of every count above k: bits k + 1 .. C(n,2),
    0 for k = C(n,2)."""
    return (1 << comb(n, 2) + 1) - (1 << k + 1)


def spectrum(coloring: Coloring, budget: SearchBudget | None = None) -> Spectrum:
    """Every achievable crossing number, with a first-found witness each.

    Every count not yet found is wanted, so no subtree that could hold
    one is cut, and the search stops once all C(n,2) + 1 counts are
    found.  Each count keeps the edge mask of its first leaf, in hit
    order, and ``Spectrum.witnesses`` decodes them on first read.
    Exhausting the node budget raises with the incomplete spectrum
    attached as ``partial``.
    """
    budget = budget or SearchBudget()
    _check_size(coloring.n, budget)
    tables = _Tables(coloring)
    unseen = _above(tables.n, -1)
    found: dict[int, int] = {}

    def hit(count: int, chosen: int) -> int:
        nonlocal unseen
        found[count] = chosen
        unseen &= ~(1 << count)
        return unseen

    def result(complete: bool) -> Spectrum:
        return Spectrum(tables.n, tuple(sorted(found)), complete, tables,
                        found)

    try:
        _dfs(tables, unseen, budget.max_nodes, hit)
    except BudgetExceeded as out:
        out.partial = result(False)
        raise
    return result(True)


def max_crossing(
    coloring: Coloring, budget: SearchBudget | None = None
) -> tuple[int, Matching]:
    """Exhaustive maximum crossing number and its first witness.

    Branch and bound: only counts above the incumbent are wanted, so
    subtrees that cannot beat it are cut.
    """
    budget = budget or SearchBudget()
    _check_size(coloring.n, budget)
    tables = _Tables(coloring)
    best = (-1, 0)

    def hit(count: int, chosen: int) -> int:
        nonlocal best
        best = count, chosen
        return _above(tables.n, count)

    _dfs(tables, _above(tables.n, -1), budget.max_nodes, hit)
    return best[0], tables.matching(best[1])


def _first_hit(
    tables: _Tables, wanted: int, max_nodes: int | None
) -> int | None:
    """The edge mask of the first leaf whose count is wanted, or None.

    None is a verified answer: the pruned search is exhaustive, so it
    proves no matching has a wanted count.
    """
    found = None

    def hit(count: int, chosen: int) -> int:
        nonlocal found
        found = chosen
        return 0

    _dfs(tables, wanted, max_nodes, hit)
    return found


def find_with_k(
    coloring: Coloring, k: int, budget: SearchBudget | None = None
) -> Matching | None:
    """First matching with exactly k crossings, or None if none exists
    (a verified answer, as ``_first_hit``'s).  A k outside 0..C(n,2)
    is answered without a search."""
    budget = budget or SearchBudget()
    _check_size(coloring.n, budget)
    if not 0 <= k <= comb(coloring.n, 2):
        return None
    tables = _Tables(coloring)
    chosen = _first_hit(tables, 1 << k, budget.max_nodes)
    return None if chosen is None else tables.matching(chosen)


def _necklaces(n: int) -> list[str]:
    """The necklaces of n blues and n reds, B < R, in lexicographic order.

    A necklace is a string that no rotation makes smaller.  This is the
    fixed-content form of the Fredricksen-Kessler-Maiorana rule (Ruskey
    and Sawada): ``extend(t, p)`` extends a prenecklace ``word[1..t-1]``
    of least period p by each colour not below ``word[t - p]`` with
    points left; the period stays p with that same colour and becomes t
    with a larger one, and a full word is a necklace when p divides 2n.
    Every word starts with B.
    """
    size = 2 * n
    word = [BLUE] * (size + 1)  # word[0] is unused
    left = {BLUE: n - 1, RED: n}  # colours not yet placed after word[1]
    found = []

    def extend(t: int, p: int) -> None:
        if t > size:
            if size % p == 0:
                found.append("".join(word[1:]))
            return
        back = word[t - p]
        for color in (BLUE, RED):
            if color >= back and left[color]:
                word[t] = color
                left[color] -= 1
                extend(t + 1, p if color == back else t)
                left[color] += 1

    extend(2, 1)
    del extend  # the closure holds itself through its cell
    return found


def _least_under_flips(colors: str) -> bool:
    """Whether no rotation of the reversal, the colour swap or the
    swapped reversal of ``colors`` is smaller than it.

    A smaller rotation starts with at least the leading run of blues of
    ``colors``, so only the rotations that start with that run are
    compared.
    """
    size = len(colors)
    head = colors[:colors.index(RED)]
    reverse = colors[::-1]
    for base in (reverse, colors.translate(_SWAP),
                 reverse.translate(_SWAP)):
        doubled = base * 2
        start = doubled.find(head)
        while 0 <= start < size:
            if doubled[start:start + size] < colors:
                return False
            start = doubled.find(head, start + 1)
    return True


def enumerate_colorings(n: int) -> list[Coloring]:
    """One canonical representative per symmetry orbit, sorted.

    The canonical form is the least image under rotation, reflection
    and colour swap.  ``_necklaces`` lists, in sorted order, exactly the
    strings that no rotation makes smaller, so the rotation images are
    neither generated nor compared: a necklace is kept when no image
    under reflection, colour swap or both is smaller.  The list length
    is the orbit count.
    """
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {brief(n)}")
    return [Coloring(c) for c in _necklaces(n) if _least_under_flips(c)]


def _orbit_count(n: int) -> int:
    """The number of symmetry orbits of balanced colorings of 2n points.

    Burnside's lemma over the 8n symmetries, in closed form.  Rotation
    by r has g = gcd(r, 2n) cycles of length L = 2n / g.  It fixes the
    colorings constant on its cycles with n reds, C(g, n / L) when L
    divides n, and with the colour swap the colorings that alternate
    along every cycle, 2^g when L is even.  Of the 2n reflections, n fix
    no point and have n 2-cycles, and n fix two points and have n - 1
    2-cycles.  Alone, both kinds fix C(n, n/2) colorings when n is even;
    when n is odd only the second kind fixes any, 2 C(n-1, (n-1)/2), one
    of its fixed points red.  With the swap only the first kind fixes
    any, 2^n.  ``tests/oracle.py`` counts the same from the cycles of
    every permutation.
    """
    size = 2 * n
    fixed = 0
    for r in range(size):
        cycles = gcd(r, size)
        length = size // cycles
        if n % length == 0:
            fixed += comb(cycles, n // length)
        if length % 2 == 0:
            fixed += 2 ** cycles
    if n % 2 == 0:
        fixed += 2 * n * comb(n, n // 2)
    else:
        fixed += 2 * n * comb(n - 1, n // 2)
    fixed += n * 2 ** n
    return fixed // (8 * n)


def _walk_caps(n: int) -> list[list[int]]:
    """``caps[t][a]``: the most |S(t)| + ... + |S(n-1)| can be for a walk
    with |S(t)| = a that steps by -1, 0 or +1 and is back at 0 after
    step n - 1.  Only a <= n - t can get back, so ``caps[t]`` has
    n - t + 1 entries; ``caps[n]`` is [0]."""
    caps = [[0]]
    for left in range(1, n + 1):  # steps still to take from t = n - left
        after = caps[-1]
        caps.append([
            a + max(after[b] for b in (abs(a - 1), a, a + 1) if b < left)
            for a in range(left + 1)
        ])
    caps.reverse()
    return caps


# the pair (t, t + n) for each step of the core-surplus walk
_STEP_PAIRS = {1: ((RED, RED),), -1: ((BLUE, BLUE),),
               0: ((RED, BLUE), (BLUE, RED))}


def _screen_survivors(n: int, bound: int) -> list[str]:
    """The canonical colorings whose Lemma-3 witness counts at most
    ``bound``, sorted: the orbits a witness cannot settle.

    A coloring is its core-surplus walk S(0) = 0, ..., S(n-1) plus an
    orientation for each 0 step: step t is +1 when positions t and t + n
    are both red, -1 when both are blue, and 0 when they differ, in
    either order, and the n steps sum to 0.  ``lemma3_witness`` keeps
    the best half-turn join ``construct._half_join(coloring, c)``, so by
    the two facts below it counts C(n,2) - min_c sum_t |S(t) - S(c)|,
    which is C(n,2) - sum_t |S(t) - med| for a median med of the walk,
    since the deviation sum is least at a median and the lower median is
    some S(c).  The count is the same on every coloring of an orbit, so
    an orbit survives exactly when its walks have that deviation at
    least D = C(n,2) - ``bound``.  A depth-first search over the steps
    keeps such walks; the deviation about 0 is at least the deviation
    about the median, so a prefix whose sum of |S| plus ``_walk_caps``'
    most for the rest falls short of D has no surviving completion and
    is cut.  Each kept walk is expanded over both orientations of its
    0 steps, and an expansion is kept when it is its own canonical form,
    the least of its ``_images``.  Every coloring arises from exactly one
    walk and orientation, so each surviving orbit comes once.
    ``tests/oracle.py`` keeps the closed-form join as the reference.

    * The count.  Index the half H = [c, c+n) and its antipode H' by
      u = 0..n-1 (points c+u and c+u+n).  Every edge of the join joins
      H to H', so the edges from u to p(u) and from v to p(v), u < v,
      cross exactly when p(u) < p(v): the non-crossing pairs are the
      inversions of p.  p sends the reds of H in order onto the blues of
      H', and the blues of H in order onto the reds of H', so it is
      increasing on each of two classes and no three indices are
      pairwise inverted.  For any permutation, p(u) - u is the number
      of inversions with u on the left less those with u on the right;
      here one of the two is 0, so the inversions number
      sum_u max(0, p(u) - u), which counts, over every cut t, the u < t
      with p(u) >= t.  Among indices below t, let RR, BB, RB and BR
      count the pairs by their colours in H and H'.  H has RR + RB reds
      and H' has RB + BB blues, and the red of rank i lands at or beyond
      t exactly when i >= RB + BB, so max(0, RR - BB) reds cross cut t;
      likewise max(0, BB - RR) blues.  RR - BB = S(c+t) - S(c), and the
      walk is n-periodic, so the inversions sum to
      sum_{t<n} |S(t) - S(c)|.
    * Orbit invariance.  Positions p and p+n form the same pair as p+n
      and p+2n, so rotating the coloring rotates the cyclic step
      sequence and the walk becomes t -> S(t+r) - S(r) for some r;
      reflecting reverses the steps, giving t -> S(r) - S(r-t); the
      colour swap negates them, giving -S(t).  Each moves the walk's
      values over one period by a translation and a sign, which leaves
      min_m sum_t |S(t) - m|, and with it the count, the same on every
      coloring of an orbit.
    """
    need = comb(n, 2) - bound
    caps = _walk_caps(n)
    steps = [0] * n
    values = [0] * n  # S(0), ..., S(n-1) along the current walk
    found = []

    def walk(t: int, s: int, dev: int) -> None:
        a = abs(s)
        if a > n - t or dev + caps[t][a] < need:
            return
        if t == n:
            med = sorted(values)[(n - 1) // 2]
            if sum(abs(v - med) for v in values) >= need:
                for pairs in product(*(_STEP_PAIRS[x] for x in steps)):
                    colors = "".join(p[0] for p in pairs) + "".join(
                        p[1] for p in pairs)
                    if colors == min(_images(colors)):
                        found.append(colors)
            return
        values[t] = s
        for step in (-1, 0, 1):
            steps[t] = step
            walk(t + 1, s + step, dev + a)

    walk(0, 0, 0)
    del walk  # the closure holds itself through its cell
    found.sort()
    return found


def _sweep_job(args: tuple[str, int, int | None]) -> str:
    """How one survivor was settled: ``"tight"`` when its maximum is the
    bound, ``"beaten"`` when a matching counts more, ``"budget"`` when
    the search ran out of nodes.

    Its ``lemma3_witness``, counted by the validating
    ``crossing_number``, proves the maximum is at least its count and
    raises its alarm below the bound.  On a ``_screen_survivors`` orbit
    it counts exactly the bound; any other count means the closed-form
    screen is wrong and raises ``SweepMismatch``.  So the search only
    has to show that no matching counts more: ``_first_hit`` wants
    every count above the bound and stops at the first.
    """
    colors, bound, max_nodes = args
    coloring = Coloring(colors)
    count = lemma3_witness(coloring)[1]
    if count != bound:
        raise SweepMismatch(
            f"orbit {colors} left by the screen has a half-turn join that "
            f"counts {count}, not the closed-form value {bound}"
        )
    try:
        beaten = _first_hit(_Tables(coloring), _above(coloring.n, bound),
                            max_nodes) is not None
    except BudgetExceeded:
        return "budget"
    return "beaten" if beaten else "tight"


def minmax_sweep(
    n: int,
    budget: SearchBudget | None = None,
    settled: dict[str, int] | None = None,
) -> tuple[int, list[Coloring]]:
    """Minimum over all orbits of the maximum crossing number.

    Returns the value and every canonical coloring attaining it, and
    cross-checks the value against ``balanced_fourblock_bound``; any
    disagreement raises a falsification alarm.  Every orbit's maximum is
    at least its Lemma-3 witness's count, which is at least the bound,
    so the minimizers are the orbits whose maximum is exactly the bound,
    and an orbit whose witness counts above it is not one.  Only the
    orbits that witness leaves are built: ``_screen_survivors``
    generates them from their core-surplus walks, and the others are
    counted, not enumerated, as ``_orbit_count`` less the survivors.
    Each survivor runs ``_sweep_job``, which checks that its witness
    counts exactly the bound and searches for a matching that counts
    more; the survivors with none are the minimizers, and no minimizer
    at all raises ``SweepMismatch``.  ``budget.max_nodes`` caps each
    searched orbit; running out raises ``BudgetExceeded``.
    ``budget.jobs`` above 1, clamped to the CPU count and the survivor
    count, maps the same job over a process pool, so results do not
    depend on the worker count.  A ``settled`` dict receives how many
    orbits the witness screen and the search settled.
    """
    budget = budget or SearchBudget()
    _check_size(n, budget)
    bound = balanced_fourblock_bound(n).value
    survivors = _screen_survivors(n, bound)
    jobs = min(budget.jobs, os.cpu_count() or 1, len(survivors))
    args = [(colors, bound, budget.max_nodes) for colors in survivors]
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            hows = pool.map(_sweep_job, args)
    else:
        hows = list(map(_sweep_job, args))

    if "budget" in hows:
        raise BudgetExceeded(
            f"node budget exhausted on orbit {survivors[hows.index('budget')]}"
        )
    minimizers = [Coloring(c) for c, how in zip(survivors, hows)
                  if how == "tight"]
    if not minimizers:
        raise SweepMismatch(
            f"every orbit at n={n} exceeds the closed-form value {bound}"
        )
    if settled is not None:
        settled.update(witness=_orbit_count(n) - len(survivors),
                       search=len(survivors))
    return bound, minimizers
