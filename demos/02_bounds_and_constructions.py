"""The minmax bound and the constructions that attain or beat it.

Run with: python3 demos/02_bounds_and_constructions.py
"""

from convexmatch import (
    Coloring,
    alternating_max_matching,
    balanced_fourblock_bound,
    balanced_fourblock_coloring,
    fourblock_max_matching,
    h_value,
    lemma3_witness,
    sixblock_crossing_count,
    sixblock_witness,
)

# Every coloring of n red and n blue points forces a matching with at
# least this many crossings; the balanced 4-block coloring shows the
# value is tight.
print("n      :", *(f"{n:4d}" for n in range(2, 13)))
print("bound  :", *(f"{balanced_fourblock_bound(n).value:4d}"
                    for n in range(2, 13)))

# The bound is C(n,2) - h where h comes from a one-variable quadratic
# over the split x of the leading blocks.
plan = h_value(8, 4, 4)
print("\nh_value(8,4,4): x* =", plan.x_star, " x =", plan.x,
      " h =", plan.h_value)

# Every construction returns its matching with the count it checked.
# For any 4-block coloring the maximum is met exactly by joining block
# arcs in parallel.
col = balanced_fourblock_coloring(8)
matching, count = fourblock_max_matching(col)
print("\n4-block", col, "max matching has", count, "crossings")

# Alternating colorings sit at the other extreme: C(n,2) - n/2, the
# most any coloring allows.
col, matching, count = alternating_max_matching(8)
print("alternating", col, "reaches", count)

# A special 6-block family has an exact closed form too.
col, matching, count = sixblock_witness(1, 1, 2)
print("\n6-block", col, "count", count,
      "== closed form", sixblock_crossing_count(1, 1, 2))

# For an arbitrary coloring, lemma3_witness produces a concrete matching
# certifying the bound, whatever the block structure looks like.
col = Coloring("RRBRBRBRBB")
matching, count = lemma3_witness(col)
print("\nwitness for", col, "has", count,
      "crossings; bound is", balanced_fourblock_bound(col.n).value)
