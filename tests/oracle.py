"""Brute-force reference implementations used to cross-check the package.

Nothing here imports the package under test, apart from the exceptions
``reference_dfs`` and ``reference_windows`` raise, the ``Coloring``
that ``reference_colorings`` builds, the ``_images`` scan that
``is_canonical`` reads, the half-turn join, 4-block plan, six-block
shape, validating recount and alarm that the joins below,
``reference_lemma3_witness`` and ``_half_turn`` build on, check and
raise, and the orbit enumeration that ``reference_sweep`` walks.
Joins are scored with ``reference_crossing_count``, the package's
Fenwick-tree counter before its segmented bitsets, never with the
counter under test.
Matchings are enumerated through permutations, crossings through
pairwise interleaving, and symmetry through string rotation, so any
agreement with the library is evidence rather than tautology.  Sizes
must stay small: all_matchings is n! and colorings(n) is C(2n, n).
``reference_dfs`` is the slow path of the search kernel: it walks every
chosen chord at every node and visits the last level node by node, and
the kernel must make the same calls and spend the same nodes.
``reference_first_hit`` runs it on ``reference_tables`` for the first
matching with a wanted count, the reference for every closed-form
answer of ``find_with_k`` and ``max_crossing``.
``reference_colorings`` is the slow path of the orbit enumeration,
``reference_necklaces`` filters every string for the necklaces it
starts from, and ``burnside_orbits`` counts the orbits independently.
``reference_windows`` is the window scan that restarts at 0 after every
cut, and ``reference_tables`` the candidate-edge tables built by
bisection; the library's sliding scan and rank-indexed tables must give
the same output.  ``reference_frames`` is the block-frame scan that
built every block's positions, from which the 4- and 6-block layouts
below read their arcs.  ``_join`` is the arc join the constructions used
before each became a half-turn join at a closed-form cut, and
``reference_alternating_join``, ``reference_fourblock_join`` and
``_sixblock_joins`` are their layouts on it; each construction must
give the same matching.  ``reference_lemma3_witness`` is the Lemma-3
witness that scanned every balanced cut pair
(``_balanced_cut_partitions``, each joined by the four-arc
``_cut_pair_join``) and then scored the 4- and 6-block candidates.
The library scores only the n half-turn joins (c, c) and must give the
same matching and count: the count of cut pair (c1, c2) does not
depend on c2, and (c1, c1) comes before every (c1, c2), so the
first-best cut pair is always a half-turn.
``_half_turn`` is that join picked in closed form from the medians of
the core-surplus walk ``_core_surplus``, with its count; the sweep's
survivor generator rests on the same count.
``reference_sweep`` is the min-max sweep with no witness: the capped
maximum search ``reference_max_search`` (the library's before its
sweep started from the witness), run through ``reference_dfs`` and
``reference_tables`` on every orbit of ``enumerate_colorings``.  The
library builds only the orbits the half-turn screen leaves and
searches each for a count above the bound; it must give the same value
and minimizers.  Without a cap, ``reference_max_search`` is also
``max_crossing`` before it searched for the closed-form maximum alone:
the climb through ever larger counts, which must end on the same count
and witness.
"""

from bisect import bisect_left, bisect_right
from itertools import combinations, permutations
from math import comb
from types import SimpleNamespace

from convexmatch.construct import (
    _half_join,
    _sixblock_shape,
    balanced_fourblock_bound,
    h_value,
)
from convexmatch.core import (
    BLUE,
    RED,
    Coloring,
    Matching,
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
from convexmatch.search import enumerate_colorings

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


def reference_crossing_count(edges_seq, size: int) -> int:
    """``core._crossing_count`` before the segmented bitsets, verbatim:
    the crossing count of pairwise disjoint edges, no validation.

    One clockwise scan in O(len(edges_seq) * log size) time.  A Fenwick
    tree marks the left end of every chord that is open at the scan
    position.  When chord (a, b) closes at b, the open chords whose left
    end lies in (a, b) began inside it and end beyond it, so each
    crosses it; every other chord is nested in it, disjoint from it, or
    encloses it.
    """
    partner = [-1] * size
    for a, b in edges_seq:
        partner[a] = b
        partner[b] = a
    tree = [0] * (size + 1)  # 1-based; slot i + 1 holds position i
    opened = 0
    total = 0
    for p in range(size):
        a = partner[p]
        if a > p:  # p opens a chord
            opened += 1
            i = p + 1
            while i <= size:
                tree[i] += 1
                i += i & -i
        elif a >= 0:  # p closes the chord from a
            # every open left end lies before p; those after a cross
            total += opened
            i = a + 1
            while i:
                total -= tree[i]
                i -= i & -i
            opened -= 1
            i = a + 1
            while i <= size:
                tree[i] -= 1
                i += i & -i
    return total


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


def reference_necklaces(n):
    """Every string of n B and n R that no rotation makes smaller, sorted."""
    return sorted(
        colors for colors in colorings(n)
        if all(colors <= colors[r:] + colors[:r] for r in range(2 * n))
    )


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


def reference_first_hit(coloring, wanted):
    """The first matching in lexicographic order whose crossing count is
    in the bitmask ``wanted``, by ``reference_dfs`` on
    ``reference_tables``, as sorted position pairs; None if there is
    none."""
    tables = reference_tables(coloring)
    found = []

    def hit(count, chosen):
        found.append(chosen)
        return 0

    reference_dfs(tables, wanted, None, hit)
    return reference_pairs(tables, found[0]) if found else None


def reference_pairs(tables, chosen):
    """The matching of the edge mask ``chosen`` (bit i * n + j set when
    red i takes blue j) as sorted position pairs."""
    n = tables.n
    return tuple(sorted(
        tuple(sorted((tables.reds[e // n], tables.blues[e % n])))
        for e in range(n * n) if chosen >> e & 1
    ))


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


def reference_frames(profile):
    """``construct._frames`` before it yielded only the lead block's
    first position and the run sizes, verbatim: every relabeling of the
    runs as (lead run's color, step, blocks), the blocks position tuples
    read in the step's rotational direction (reversed tuples for the
    reflected frames)."""
    blocks = profile.block_positions()
    k = len(blocks)
    for j, (color, _) in enumerate(profile.runs):
        yield color, 1, [blocks[(j + t) % k] for t in range(k)]
        yield color, -1, [blocks[(j - t) % k][::-1] for t in range(k)]


def _join(arc_pairs) -> list[tuple[int, int]]:
    """Join each pair of equal-sized arcs index by index.

    Joining the i-th point of one arc to the i-th point of the other
    (both read in the same rotational direction) makes the edges of one
    join pairwise crossing whenever the arcs are disjoint.
    """
    return [pair for xs, ys in arc_pairs for pair in zip(xs, ys)]


def reference_alternating_join(n):
    """``construct.alternating_max_matching``'s layout before the
    half-turn join, verbatim apart from returning the pairs: even
    positions are matched n+1 steps ahead, odd positions n-1 steps
    ahead."""
    pairs = []
    for i in range(n):
        step = n + 1 if i % 2 == 0 else n - 1
        pairs.append((i, (i + step) % (2 * n)))
    return pairs


def reference_fourblock_join(coloring):
    """``construct.fourblock_max_matching``'s layout before the
    half-turn join, verbatim apart from returning the pairs: four
    index-by-index arc joins on the first red-led frame with both lead
    blocks <= n/2, governed by the split ``x`` from ``h_value``."""
    profile = block_profile(coloring)
    n = coloring.n
    a1, a2, a3, a4 = next(
        blocks for color, _, blocks in reference_frames(profile)
        if color == RED and 2 * len(blocks[0]) <= n and 2 * len(blocks[1]) <= n
    )
    r1, b1, r2 = len(a1), len(a2), len(a3)
    x = h_value(n, r1, b1).x
    return _join((
        (a1[:x], a2[b1 - x:]),
        (a1[x:], a4[:r1 - x]),
        (a2[:b1 - x], a3[r2 - (b1 - x):]),
        (a3[:n - r1 - b1 + x], a4[r1 - x:]),
    ))


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


def _core_surplus(coloring: Coloring) -> list[int]:
    """The core-surplus walk S(0), ..., S(n-1).

    S(c) counts the red minus the blue core points before cut c:
    S(0) = 0, and step t adds +1 when positions t and t+n are both red,
    -1 when both are blue and 0 otherwise.  A balanced coloring has as
    many red core pairs as blue, so the walk is n-periodic.
    """
    colors, n = coloring.colors, coloring.n
    surplus = [0]
    for p, color in enumerate(colors[:n - 1]):
        step = (1 if color == RED else -1) if color == colors[p + n] else 0
        surplus.append(surplus[-1] + step)
    return surplus


def _half_turn(coloring: Coloring):
    """The witness's best half-turn join and its count, with no scoring.

    The join ``_half_join(coloring, c)`` has C(n,2) - sum_t |S(t) - S(c)|
    crossings (proved in ``search._screen_survivors``), so the
    first-best half-turn is the first c whose S(c) lies between the
    medians of the walk, where that deviation sum is least.  The count
    is C(n,2) minus that sum, not validated here.
    """
    n = coloring.n
    surplus = _core_surplus(coloring)
    ranked = sorted(surplus)
    low, high = ranked[(n - 1) // 2], ranked[n // 2]
    c = next(c for c, s in enumerate(surplus) if low <= s <= high)
    count = comb(n, 2) - sum(abs(s - surplus[c]) for s in surplus)
    return _half_join(coloring, c), count


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
    for _, _, blocks in reference_frames(profile):
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
        yield reference_fourblock_join(coloring)
    fitted = _sixblock_frame(blocks)
    if fitted is not None:
        frame, m, y1, y2 = fitted
        yield _sixblock_joins(frame, m, y1, y2)


def reference_lemma3_witness(coloring):
    """``construct.lemma3_witness`` before the block candidates were
    dropped and the cut-pair scan became the n half-turns, verbatim
    apart from scoring with ``reference_crossing_count``: the cut-pair
    joins, then the exact 4-block maximum, then the six-block join,
    keeping the first best."""
    best_pairs = None
    best_count = -1
    for pairs in _lemma3_candidates(coloring):
        count = reference_crossing_count(pairs, coloring.size)
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


def reference_max_search(tables, cap, max_nodes):
    """``search._max_search`` before the sweep started from the witness,
    verbatim apart from running ``reference_dfs``: the exact maximum via
    branch and bound, with its witness's edge mask, or None once it
    exceeds ``cap``.

    Only counts above the incumbent are wanted, so subtrees that cannot
    beat it are cut; with a cap, the search stops as soon as any
    matching surpasses it.
    """
    every = (1 << comb(tables.n, 2) + 1) - 1
    best = best_chosen = -1

    def hit(count: int, chosen: int) -> int:
        nonlocal best, best_chosen
        best, best_chosen = count, chosen
        if cap is not None and count > cap:
            return 0
        return every >> (count + 1) << (count + 1)

    reference_dfs(tables, every, max_nodes, hit)
    if cap is not None and best > cap:
        return None
    return best, best_chosen


def reference_sweep(n):
    """The min-max sweep with no witness: ``reference_max_search``,
    capped at the bound, on every orbit of ``enumerate_colorings``.
    Returns the least maximum at most the bound and the orbits that
    attain it."""
    bound = balanced_fourblock_bound(n).value
    exact = []
    for coloring in enumerate_colorings(n):
        result = reference_max_search(reference_tables(coloring), bound, None)
        if result is not None:
            exact.append((coloring, result[0]))
    low = min(v for _, v in exact)
    return low, [c for c, v in exact if v == low]
