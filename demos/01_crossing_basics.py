"""Points on a circle, two colors, and what it means for edges to cross.

Run with: python3 demos/01_crossing_basics.py
"""

from convexmatch import (
    Coloring,
    Matching,
    canonicalize,
    crossing_number,
    edges_cross,
    plane_matching,
    validate,
)

# Positions 0..2n-1 sit clockwise on a circle.  A coloring is just the
# color sequence; position i of "RBRRBB" is red, blue, red, red, blue, blue.
col = Coloring("RBRRBB")
print("coloring:", col, " n =", col.n, " size =", col.size)

# Two chords cross exactly when their endpoints interleave around the
# circle.  No coordinates are ever involved.
print("(0,4) x (1,3):", edges_cross((0, 4), (1, 3), col.size))
print("(0,4) x (1,5):", edges_cross((0, 4), (1, 5), col.size))

# A perfect bichromatic matching pairs each red with a blue.
m = Matching.from_pairs([(0, 4), (1, 3), (2, 5)])
print("matching:", m.sorted_edges)
print("problems:", validate(col, m) or "none")
print("crossings:", crossing_number(col, m))

# Every balanced coloring admits a crossing-free matching.
flat, count = plane_matching(col)
print("plane matching:", flat.sorted_edges, "crossings:", count)

# Rotations, reflections, and swapping the two colors never change
# crossing counts, so colorings are classified up to those symmetries.
canon, sym = canonicalize(col)
print("canonical form:", canon, " via", sym)
