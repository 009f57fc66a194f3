"""Sweeping all colorings of a size and tabulating their spectra.

Run with: python3 demos/04_sweep_and_atlas.py
"""

import tempfile
from pathlib import Path

from convexmatch import enumerate_colorings, minmax_sweep
from convexmatch.cli import atlas

# One canonical representative per symmetry class.
for n in range(2, 7):
    print(f"n={n}: {len(enumerate_colorings(n))} orbits")

# The sweep returns the least max crossing number over all orbits,
# i.e. the crossing number no coloring can avoid.  It builds only the
# orbits its half-turn screen leaves and searches none: every orbit's
# maximum is its witness count.  The balanced 4-block coloring is always
# among the minimizers.
value, minimizers = minmax_sweep(6)
print("\nn=6 sweep value:", value)
print("minimizers:", [str(c) for c in minimizers])

# The atlas writes one CSV row per orbit (spectrum range and gaps) plus
# a JSON summary, journaling progress so an interrupted run resumes.
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "atlas_n4.csv"
    summary = atlas(4, str(out))
    print("\natlas summary:", {k: summary[k] for k in
                               ("n", "orbit_count", "min_max_crossings")})
    print(out.read_text())
