"""Assembling a matching with any prescribed crossing number.

Every balanced coloring with n >= 7 admits, for every k in
{0} union [3, 15*floor(n/7)], a perfect matching with exactly k
crossings.  The construction cuts the point set into disjoint 14-point
windows plus a small remainder, gives each window a per-window target
from the menu {0} union [3, 15] (every 14-point coloring realizes that
whole menu), and matches the remainder without crossings.  Windows are
contiguous in the residual cyclic sequence, so edges from different
windows never cross and the total is the sum of the targets.
The plan holds that range (``k in plan``, ``plan.max_k``), and
``allocate`` accepts exactly those k: both ask ``_in_menu``.

The existence of a balanced window at every step follows from a parity
walk: sliding a 14-point window one step changes its color surplus by
-2, 0, or +2, and the surpluses sum to zero around the cycle, so a zero
crossing exists.  Violations raise falsification alarms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import RED, Coloring, Matching, crossing_number
from .construct import plane_matching
from .errors import (
    CrossWindowCrossing,
    NoBalancedWindow,
    TooSmall,
    Unachievable,
    WindowSpectrumGap,
    brief,
)
from .search import find_with_k

WINDOW_POINTS = 14
WINDOW_MAX = 15


def _in_menu(k: int, ell: int) -> bool:
    """Whether ell windows guarantee k: k in {0} union [3, 15*ell]."""
    return k == 0 or 3 <= k <= WINDOW_MAX * ell


@dataclass(frozen=True)
class CompositionPlan:
    """Windows, their crossing targets, and the crossing-free remainder;
    ``k in plan`` for the guaranteed k, {0} union [3, ``max_k``]."""

    windows: tuple[tuple[int, ...], ...]
    remainder: tuple[int, ...]
    targets: tuple[int, ...] | None = None

    @property
    def ell(self) -> int:
        return len(self.windows)

    @property
    def max_k(self) -> int:
        return WINDOW_MAX * self.ell

    def __contains__(self, k: int) -> bool:
        return _in_menu(k, self.ell)


def window_partition(coloring: Coloring) -> CompositionPlan:
    """Disjoint balanced 14-point windows plus a balanced remainder.

    Repeatedly excises the first balanced window of 14 consecutive
    points of the residual cyclic sequence, the points not yet cut, kept
    in clockwise order from position 0.  Stops once fewer than 14 points
    remain.

    One sliding scan finds every window.  It keeps the red count of the
    14 residual points from index t on, and steps t by adding the point
    that enters and dropping the one that leaves.  After the window at
    index t is cut, the scan resumes at t - 13 (or 0), not at 0: every
    earlier start was unbalanced, and a window that starts 14 or more
    places before the cut lies wholly before it, so it is unchanged and
    still unbalanced.  A window that wraps past the end of the residual
    leaves the middle slice, which starts afresh at 0.
    """
    if coloring.n < 7:
        raise TooSmall(f"need n >= 7 to cut a window, got n={coloring.n}")
    red = [c == RED for c in coloring.colors]
    residual = list(range(coloring.size))
    windows = []
    t = 0  # every start before t is known to be unbalanced
    while len(residual) >= WINDOW_POINTS:
        m = len(residual)
        reds = sum(red[residual[(t + i) % m]] for i in range(WINDOW_POINTS))
        while 2 * reds != WINDOW_POINTS:
            reds += red[residual[(t + WINDOW_POINTS) % m]] - red[residual[t]]
            t += 1
            if t == m:
                raise NoBalancedWindow(
                    f"residual of {m} points has no balanced window: "
                    f"{coloring}"
                )
        end = t + WINDOW_POINTS
        if end <= m:
            windows.append(tuple(residual[t:end]))
            del residual[t:end]
            t = max(0, t - WINDOW_POINTS + 1)
        else:
            end -= m
            windows.append(tuple(residual[t:] + residual[:end]))
            residual = residual[end:t]
            t = 0
    # the remainder keeps at most 12 points, so 7*ell >= n - 6
    assert 7 * len(windows) >= coloring.n - 6
    return CompositionPlan(tuple(windows), tuple(residual))


def allocate(k: int, ell: int) -> tuple[int, ...]:
    """Split k into ell per-window targets from {0} union [3, 15].

    Larger targets come first.  Writing k = 15q + r: r = 0 uses q
    fifteens; r >= 3 appends one window of r; r in {1, 2} borrows from a
    fifteen to form 13 + 3 or 14 + 3.  Exactly k in {1, 2} (and k < 0 or
    k > 15*ell) has no allocation: ``allocate`` accepts exactly the k
    of a plan with ell windows (``k in plan``).
    """
    if not _in_menu(k, ell):
        raise Unachievable(
            f"k={brief(k)} outside {{0}} union [3, {WINDOW_MAX * ell}] "
            f"for {ell} windows"
        )
    if k == 0:
        return (0,) * ell
    q, r = divmod(k, WINDOW_MAX)
    if r == 0:
        head = [WINDOW_MAX] * q
    elif r >= 3:
        head = [WINDOW_MAX] * q + [r]
    else:
        # k = 15(q-1) + (r + 12) + 3, and k >= 16 guarantees q >= 1
        head = [WINDOW_MAX] * (q - 1) + [r + 12, 3]
    head += [0] * (ell - len(head))
    return tuple(head)


def _relabeled(coloring: Coloring, positions) -> Coloring:
    return Coloring("".join(coloring.colors[p] for p in positions))


def compose(coloring: Coloring, k: int) -> tuple[Matching, CompositionPlan]:
    """Perfect matching with exactly k crossings, k in the achievable set.

    Each window is solved independently for its target (the window keeps
    the cyclic order of its points, so window-local crossing counts equal
    global ones), the remainder is matched crossing-free, and the union
    is recounted; any discrepancy raises a falsification alarm.  Windows
    with the same colors and target get the same local solution, so each
    such pair is searched once per call.
    """
    plan = window_partition(coloring)
    targets = allocate(k, plan.ell)
    solved: dict[tuple[str, int], tuple[tuple[int, int], ...]] = {}
    pairs = []
    for window, target in zip(plan.windows, targets):
        sub = _relabeled(coloring, window)
        key = (sub.colors, target)
        if key not in solved:
            local = find_with_k(sub, target)
            if local is None:
                raise WindowSpectrumGap(
                    f"window {window} of {coloring} misses target {target}"
                )
            solved[key] = local.sorted_edges
        pairs += [(window[a], window[b]) for a, b in solved[key]]
    if plan.remainder:
        sub = _relabeled(coloring, plan.remainder)
        for a, b in plane_matching(sub).sorted_edges:
            pairs.append((plan.remainder[a], plan.remainder[b]))
    matching = Matching.from_pairs(pairs)
    total = crossing_number(coloring, matching)
    if total != k:
        raise CrossWindowCrossing(
            f"composed matching recounts to {total}, wanted {k}"
        )
    return matching, CompositionPlan(plan.windows, plan.remainder, targets)
