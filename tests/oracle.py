"""Brute-force reference implementations used to cross-check the package.

Nothing here imports the package under test, apart from the exceptions
``reference_dfs`` and ``reference_windows`` raise, the ``Coloring``
that ``reference_colorings`` builds, the ``_images`` scan that
``is_canonical`` reads, and the core-surplus walk, arc join,
constructions, counters and alarm that ``reference_lemma3_witness``
scans, scores and raises.  Matchings are
enumerated through permutations, crossings through pairwise
interleaving, and symmetry through string rotation, so any agreement
with the library is evidence rather than tautology.  Sizes must stay small: all_matchings is n! and
colorings(n) is C(2n, n).  ``reference_dfs`` is the slow path of the search kernel:
it walks every chosen chord at every node and visits the last level
node by node, and the kernel must make the same calls and spend the
same nodes.  ``reference_colorings`` is the slow path of the orbit
enumeration, and ``burnside_orbits`` counts the orbits independently.
``reference_windows`` is the window scan that restarts at 0 after every
cut, and ``reference_tables`` the candidate-edge tables built by
bisection; the library's sliding scan and rank-indexed tables must give
the same output.  ``reference_lemma3_witness`` is the Lemma-3 witness
that scanned every balanced cut pair (``_balanced_cut_partitions``,
each joined by the four-arc ``_cut_pair_join``) and then scored the 4-
and 6-block candidates.  The library scores only the n half-turn joins
(c, c) and must give the same matching and count: the count of cut
pair (c1, c2) does not depend on c2, and (c1, c1) comes before every
(c1, c2), so the first-best cut pair is always a half-turn.
"""

from bisect import bisect_left, bisect_right
from itertools import combinations, permutations
from math import comb
from types import SimpleNamespace

from convexmatch.construct import (
    _core_surplus,
    _frames,
    _join,
    _sixblock_joins,
    _sixblock_shape,
    balanced_fourblock_bound,
    fourblock_max_matching,
)
from convexmatch.core import (
    BLUE,
    RED,
    Coloring,
    Matching,
    _crossing_count,
    _images,
    block_profile,
    crossing_number,
)
from convexmatch.errors import (
    BudgetExceeded,
    NoBalancedWindow,
    TooSmall,
    WitnessBelowBound,
)

WINDOW_POINTS = 14

SWAP = str.maketrans("RB", "BR")


def chords_cross(e, f):
    a, b = sorted(e)
    c, d = sorted(f)
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def count_crossings(pairs):
    return sum(chords_cross(e, f) for e, f in combinations(pairs, 2))


def colorings(n):
    for reds in combinations(range(2 * n), n):
        inside = set(reds)
        yield "".join("R" if i in inside else "B" for i in range(2 * n))


def all_matchings(coloring):
    reds = [i for i, c in enumerate(coloring) if c == "R"]
    blues = [i for i, c in enumerate(coloring) if c == "B"]
    for image in permutations(blues):
        yield tuple(tuple(sorted(p)) for p in zip(reds, image))


def spectrum(coloring):
    return sorted({count_crossings(m) for m in all_matchings(coloring)})


def maximum(coloring):
    return max(count_crossings(m) for m in all_matchings(coloring))


def max_matchings(coloring):
    best = maximum(coloring)
    return [
        m for m in all_matchings(coloring) if count_crossings(m) == best
    ]


def orbit(coloring):
    """Every image under rotation, reflection, and color swap."""
    variants = set()
    for mirrored in (coloring, coloring[::-1]):
        for swapped in (mirrored, mirrored.translate(SWAP)):
            for r in range(len(swapped)):
                variants.add(swapped[r:] + swapped[:r])
    return variants


def canonical(coloring):
    return min(orbit(coloring))


def canonical_reps(n):
    return sorted({canonical(c) for c in colorings(n)})


def is_canonical(colors: str) -> bool:
    """Fast test that a color string equals its own canonical form."""
    for image in _images(colors):
        if image < colors:
            return False
    return True


def reference_colorings(n):
    """``search.enumerate_colorings`` before the necklace generator:
    every string that starts with B and ends with R, filtered through
    ``is_canonical``, verbatim apart from the range check."""
    size = 2 * n
    reps = []
    for blue_positions in combinations(range(1, size - 1), n - 1):
        chars = [RED] * size
        chars[0] = BLUE
        for p in blue_positions:
            chars[p] = BLUE
        colors = "".join(chars)
        if is_canonical(colors):
            reps.append(colors)
    return [Coloring(c) for c in reps]


def _cycle_lengths(perm):
    seen = set()
    lengths = []
    for start in range(len(perm)):
        length = 0
        at = start
        while at not in seen:
            seen.add(at)
            at = perm[at]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def burnside_orbits(n):
    """Orbit count of the balanced colorings of 2n points under rotation,
    reflection and colour swap, by Burnside's lemma.

    A rotation or reflection fixes the colorings that are constant on its
    cycles and have n reds: the subsets of cycles whose lengths sum to
    n.  Composed with the colour swap it fixes the colorings that
    alternate along every cycle: 2^cycles when every cycle is even, else
    none.
    """
    size = 2 * n
    perms = [[(r + i) % size for i in range(size)] for r in range(size)]
    perms += [[(r - i) % size for i in range(size)] for r in range(size)]
    fixed = 0
    for perm in perms:
        lengths = _cycle_lengths(perm)
        sums = [1] + [0] * n  # sums[s]: subsets of cycles of total length s
        for length in lengths:
            for s in range(n, length - 1, -1):
                sums[s] += sums[s - length]
        fixed += sums[n]
        if all(length % 2 == 0 for length in lengths):
            fixed += 2 ** len(lengths)
    assert fixed % (2 * len(perms)) == 0
    return fixed // (2 * len(perms))


def min_max(n):
    """Sweep value and its minimizers, both by raw enumeration."""
    per_rep = {rep: maximum(rep) for rep in canonical_reps(n)}
    low = min(per_rep.values())
    return low, sorted(rep for rep, v in per_rep.items() if v == low)


def reference_dfs(tables, wanted, max_nodes, hit):
    """``search._dfs`` before live chords and the in-place last level,
    verbatim apart from returning the number of nodes it visited."""
    n = tables.n
    masks = tables.masks
    reds_in = tables.reds_in
    blues_in = tables.blues_in
    path = [0] * n  # path[i] is the edge chosen for red i
    # -1 counts down without ever reaching 0: no budget
    left = -1 if max_nodes is None else max_nodes

    def dive(depth: int, used: int, chosen: int, current: int,
             wanted: int) -> int:
        nonlocal left
        if not left:
            raise BudgetExceeded("node budget exhausted")
        left -= 1
        if depth == n:
            return hit(current, chosen) if wanted >> current & 1 else wanted
        r = n - depth
        low = current
        high = current + r * (r - 1) // 2
        free = ~used
        for e in path[:depth]:
            red = (reds_in[e] >> depth).bit_count()
            blue = (blues_in[e] & free).bit_count()
            low += red - blue if red > blue else blue - red
            both = red + blue
            high += both if both <= r else 2 * r - both
        # cut unless a wanted count lies in low..high
        if not wanted >> low & ((2 << (high - low)) - 1):
            return wanted
        base = depth * n
        for j in range(n):
            jbit = 1 << j
            if used & jbit:
                continue
            e = path[depth] = base + j
            wanted = dive(depth + 1, used | jbit, chosen | (1 << e),
                          current + (masks[e] & chosen).bit_count(), wanted)
            if not wanted:
                break
        return wanted

    dive(0, 0, 0, 0, wanted)
    return (-1 if max_nodes is None else max_nodes) - left


def reference_windows(coloring):
    """``compose.window_partition`` before the sliding scan, verbatim
    apart from returning the windows and the remainder as a pair: every
    cut rescans the residual from 0, a fresh 14-point list per start."""
    if coloring.n < 7:
        raise TooSmall(f"need n >= 7 to cut a window, got n={coloring.n}")
    colors = coloring.colors
    residual = list(range(coloring.size))
    windows = []
    while len(residual) >= WINDOW_POINTS:
        m = len(residual)
        window = None
        for t in range(m):
            picked = [residual[(t + i) % m] for i in range(WINDOW_POINTS)]
            reds = sum(1 for p in picked if colors[p] == RED)
            if 2 * reds == WINDOW_POINTS:
                window = picked
                break
        if window is None:
            raise NoBalancedWindow(
                f"residual of {m} points has no balanced window: {coloring}"
            )
        windows.append(tuple(window))
        gone = set(window)
        residual = [p for p in residual if p not in gone]
    return tuple(windows), tuple(residual)


def reference_tables(coloring):
    """``search._Tables`` before ranks, verbatim apart from filling a
    namespace: four bisections per candidate edge find its inside runs."""
    self = SimpleNamespace()
    colors = coloring.colors
    reds = self.reds = tuple(i for i, c in enumerate(colors) if c == RED)
    blues = self.blues = tuple(i for i, c in enumerate(colors) if c == BLUE)
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
    for i, r in enumerate(reds):
        for j, b in enumerate(blues):
            lo, hi = (r, b) if r < b else (b, r)
            first, stop = bisect_right(reds, lo), bisect_left(reds, hi)
            inside = ((1 << bisect_left(blues, hi))
                      - (1 << bisect_right(blues, lo)))
            inside_rows = rows[stop] - rows[first]
            masks.append(
                inside * (rows[n] - inside_rows - (1 << i * n))
                + (full - inside - (1 << j)) * inside_rows
            )
            reds_in.append((1 << stop) - (1 << first))
            blues_in.append(inside)
    return self


def _cut_pair_join(coloring: Coloring, arcs):
    """Join each arc of a cut pair to its antipode so same-colored
    bundles cross."""
    rt, rb, lb, lt = arcs
    colors = coloring.colors
    return _join(
        (
            [p for p in x_arc if colors[p] == color],
            [p for p in y_arc if colors[p] != color],
        )
        for x_arc, y_arc in ((rt, lb), (rb, lt))
        for color in (RED, BLUE)
    )


def _balanced_cut_partitions(coloring: Coloring):
    """Balanced antipodal cut pairs, as ``((c1, c2), arcs)``.

    The arcs are [c1, c2), [c2, c1+n) and their antipodes.  Each
    unordered cut set {c1, c2, c1+n, c2+n} comes once, as 0 <= c1 <= c2
    < n in lexicographic order.  A pair is balanced when [c1, c2) holds
    as many red as blue core points, and that one test suffices.  Core
    pairs are antipodal and monochromatic, so an arc and its antipode
    hold the same core colors.  Bichromatic pairs hold one point of each
    color, so the core has as many red pairs as blue; the half
    [c1, c1+n) holds one point of each pair, so it is balanced, and so
    is [c2, c1+n).  No size constraint is imposed on the split: Lemma
    3's proof halves the core evenly, but the witness search wants every
    shape.

    The join of cut pair (c1, c2), as ``_cut_pair_join`` builds it, has
    exactly C(n,2) - sum_t |S(t) - S(c1)| crossings, S being
    ``_core_surplus`` and t running over 0 <= t < n.  The count does not
    depend on c2, so every c2 ties for a given c1 and the first-best cut
    pair is always some (c, c); ``_half_turn`` finds it in closed form.
    """
    n = coloring.n
    surplus = _core_surplus(coloring)
    # every arc is [lo, hi) with lo < 2n and hi - lo <= n, so a slice of
    # two laps of the cycle gives its positions mod 2n
    ring = tuple(range(coloring.size)) * 2
    for c1 in range(n):
        for c2 in range(c1, n):
            if surplus[c2] == surplus[c1]:
                yield (c1, c2), (
                    ring[c1:c2],
                    ring[c2:c1 + n],
                    ring[c1 + n:c2 + n],
                    ring[c2 + n:c1 + 2 * n],
                )


def _sixblock_frame(profile):
    """Fit a 6-run profile to the six-block pattern, if possible.

    Tries all rotations and both directions; on success returns the six
    blocks as position tuples in frame order plus (m, y1, y2).
    """
    if len(profile.runs) != 6:
        return None
    for _, blocks in _frames(profile):
        shape = _sixblock_shape([len(b) for b in blocks])
        if shape is not None:
            return (blocks, *shape)
    return None


def _lemma3_candidates(coloring):
    """Candidate witness matchings, as pair sequences, in tie-break order."""
    for _, groups in _balanced_cut_partitions(coloring):
        yield _cut_pair_join(coloring, groups)
    blocks = block_profile(coloring)
    if len(blocks.runs) == 4:
        matching, _ = fourblock_max_matching(blocks)
        yield matching.sorted_edges
    fitted = _sixblock_frame(blocks)
    if fitted is not None:
        frame, m, y1, y2 = fitted
        yield _sixblock_joins(frame, m, y1, y2)


def reference_lemma3_witness(coloring):
    """``construct.lemma3_witness`` before the block candidates were
    dropped and the cut-pair scan became the n half-turns, verbatim:
    the cut-pair joins, then the exact 4-block maximum, then the
    six-block join, keeping the first best."""
    best_pairs = None
    best_count = -1
    for pairs in _lemma3_candidates(coloring):
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
