"""Building a matching with any prescribed crossing number.

Run with: python3 demos/05_composition.py
"""

import random

from convexmatch import (
    Coloring,
    SearchBudget,
    achievable_range,
    compose,
    crossing_number,
    find_with_k,
)

# Any target k in {0} u [3, 15 * (n // 7)] is achievable for any
# coloring: the points are split into balanced 14-point windows, each
# window contributes a small exact count, and everything else is matched
# without crossings.
rng = random.Random(5)
colors = ["R"] * 20 + ["B"] * 20
rng.shuffle(colors)
col = Coloring("".join(colors))

window_range = achievable_range(col)
print("coloring:", col)
print("windows :", window_range.ell, " max k:", window_range.max_k)

for k in (0, 3, 17, window_range.max_k):
    matching, plan = compose(col, k)
    got = crossing_number(col, matching)
    print(f"k={k:2d} -> counted {got}  (window targets {plan.targets})")
    assert got == k

# 1 and 2 lie outside what composition guarantees: no split into window
# targets from {0} u [3, 15] sums to them.  They are not impossible in
# general: this coloring has matchings with 1 and 2 crossings, which a
# search finds directly.  The alternating coloring of demos/03 is one
# that really misses both.
print("\n1 in range:", 1 in window_range, " 2 in range:", 2 in window_range)
for k in (1, 2):
    found = find_with_k(col, k, SearchBudget(max_n=col.n))
    print(f"k={k} by search -> counted {crossing_number(col, found)}")
