"""Independent checks of convexmatch CLI reports.

Nothing here imports convexmatch.  Crossings are recounted by pairwise
interleaving, spectra of small colorings by enumerating every
permutation, symmetry orbits by string rotation, and the sweep value by
the paper's interval: every convex bichromatic set of 2n points has a
matching with at least 3n^2/8 - n/2 + c crossings, -1/2 <= c <= 1/8, and
some set has no more.  The interval is shorter than 1, so it holds at
most one integer, which must be the sweep value.

``Checker.check`` takes the operation's own input (never the report's
echo of it) and the parsed JSON report, and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

SWAP = str.maketrans("RB", "BR")
BRUTE_MAX_N = 8  # spectra up to this n are compared with all n! matchings


def crosses(e, f) -> bool:
    """Chords (a, b) and (c, d), a < b and c < d, interleave."""
    a, b = e
    c, d = f
    return a < c < b < d or c < a < d < b


def recount(edges) -> int:
    return sum(crosses(e, f) for e, f in combinations(edges, 2))


def parse_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for token in text.split(","):
        a, b = (int(x) for x in token.split("-"))
        edges.append((min(a, b), max(a, b)))
    return edges


def matching_problems(colors: str, edges) -> list[str]:
    """Reasons ``edges`` is not a perfect bichromatic matching."""
    problems = []
    n = len(colors) // 2
    if len(edges) != n:
        problems.append(f"{len(edges)} edges for n={n}")
    seen = sorted(p for e in edges for p in e)
    if seen != list(range(len(colors))):
        problems.append("edges do not cover every point exactly once")
    for a, b in edges:
        if 0 <= a < len(colors) and 0 <= b < len(colors):
            if colors[a] == colors[b]:
                problems.append(f"monochromatic edge {a}-{b}")
    return problems


def bound_interval(n: int) -> tuple[Fraction, Fraction]:
    base = Fraction(3 * n * n, 8) - Fraction(n, 2)
    return base - Fraction(1, 2), base + Fraction(1, 8)


def bound_value(n: int) -> int | None:
    """The unique integer in the paper's interval, or None."""
    lo, hi = bound_interval(n)
    inside = [v for v in range(int(lo) - 1, int(hi) + 2) if lo <= v <= hi]
    return inside[0] if len(inside) == 1 else None


def brute_spectrum(colors: str) -> set[int]:
    """Crossing numbers of all n! perfect matchings of ``colors``."""
    reds = [i for i, c in enumerate(colors) if c == "R"]
    blues = [i for i, c in enumerate(colors) if c == "B"]
    found: set[int] = set()
    chosen: list[tuple[int, int]] = []

    def walk(i: int, free: tuple[int, ...], count: int):
        if i == len(reds):
            found.add(count)
            return
        for j, b in enumerate(free):
            e = (min(reds[i], b), max(reds[i], b))
            extra = sum(crosses(e, f) for f in chosen)
            chosen.append(e)
            walk(i + 1, free[:j] + free[j + 1:], count + extra)
            chosen.pop()

    walk(0, tuple(blues), 0)
    return found


def orbit(colors: str) -> set[str]:
    """Images under rotation, reflection and color swap."""
    out = set()
    for mirrored in (colors, colors[::-1]):
        for base in (mirrored, mirrored.translate(SWAP)):
            out.update(base[r:] + base[:r] for r in range(len(base)))
    return out


@cache
def canonical_strings(n: int) -> frozenset[str]:
    reps = set()
    for reds in combinations(range(2 * n), n):
        inside = set(reds)
        colors = "".join("R" if i in inside else "B" for i in range(2 * n))
        reps.add(min(orbit(colors)))
    return frozenset(reps)


def expected_codes(spec: dict) -> tuple[int, ...]:
    """Exit codes of an operation that answered: find exits 1 for a
    verified "no such matching", everything else exits 0."""
    return (0, 1) if spec["kind"] == "find" else (0,)


class Checker:
    """Checks reports one by one; results shared across operations.

    Spectra returned by ``spectrum`` operations are remembered per
    coloring, so ``max`` and ``find`` on the same coloring are checked
    against them, and sweep values per n, so atlas minima are checked
    against the sweep.  Two reports of one coloring's spectrum or
    maximum must agree.  ``finish`` runs the checks that need both.
    """

    def __init__(self):
        self.spectra: dict[str, set[int]] = {}
        self.maxima: dict[str, int] = {}
        self.finds: list[tuple[str, int, bool]] = []
        self.sweeps: dict[int, int] = {}
        self.atlas_minima: dict[int, int] = {}
        self._brute: dict[str, set[int]] = {}

    def brute(self, colors: str) -> set[int]:
        if colors not in self._brute:
            self._brute[colors] = brute_spectrum(colors)
        return self._brute[colors]

    def check(self, spec: dict, report: dict,
              artifacts: dict | None = None) -> list[str]:
        kind = spec["kind"]
        result = report["result"]
        if "coloring" in spec and result.get("coloring") != spec["coloring"]:
            return [f"report is for coloring {result.get('coloring')!r}"]
        handler = getattr(self, "_" + kind)
        return handler(spec, result, artifacts or {})

    def _witnessed(self, colors: str, text: str, count: int) -> list[str]:
        edges = parse_edges(text)
        problems = matching_problems(colors, edges)
        if not problems and recount(edges) != count:
            problems.append(
                f"matching recounts to {recount(edges)}, reported {count}")
        return problems

    def _in_bound_range(self, n: int, count: int) -> list[str]:
        lo, _ = bound_interval(n)
        if not lo <= count <= comb(n, 2):
            return [f"count {count} outside [{lo}, C({n},2)]"]
        return []

    def _spectrum(self, spec, result, _):
        colors = spec["coloring"]
        n = len(colors) // 2
        achievable = result["achievable"]
        problems = []
        if sorted(set(achievable) | set(result["missing"])) != list(
                range(comb(n, 2) + 1)) or set(achievable) & set(
                result["missing"]):
            problems.append("achievable and missing do not split 0..C(n,2)")
        if sorted(int(k) for k in result["witnesses"]) != sorted(achievable):
            problems.append("witness keys differ from achievable values")
        for k, text in result["witnesses"].items():
            problems += self._witnessed(colors, text, int(k))
        if n <= BRUTE_MAX_N and set(achievable) != self.brute(colors):
            problems.append("spectrum differs from brute-force enumeration")
        if self.spectra.setdefault(colors, set(achievable)) != set(achievable):
            problems.append("spectrum differs from an earlier report")
        return problems

    def _max(self, spec, result, _):
        colors = spec["coloring"]
        count = result["count"]
        problems = self._witnessed(colors, result["matching"]["text"], count)
        problems += self._in_bound_range(len(colors) // 2, count)
        if self.maxima.setdefault(colors, count) != count:
            problems.append("max differs from an earlier report")
        return problems

    def _find(self, spec, result, _):
        colors, k = spec["coloring"], spec["k"]
        problems = []
        if result["k"] != k:
            problems.append(f"report is for k={result['k']}")
        if result["found"]:
            problems += self._witnessed(colors, result["matching"]["text"], k)
        n = len(colors) // 2
        # every coloring with n >= 7 realizes {0} u [3, 15 floor(n/7)]
        if n >= 7 and (k == 0 or 3 <= k <= 15 * (n // 7)) and not result[
                "found"]:
            problems.append(f"k={k} is guaranteed achievable, not found")
        # all C(n,2) pairs cross only when every edge joins antipodes
        diameters = all(colors[i] != colors[i + n] for i in range(n))
        if k == comb(n, 2) and result["found"] != diameters:
            problems.append(f"k=C(n,2) found={result['found']} although "
                            f"the antipodal pairs say {diameters}")
        self.finds.append((colors, k, bool(result["found"])))
        return problems

    def _compose(self, spec, result, _):
        colors, k = spec["coloring"], spec["k"]
        problems = self._witnessed(colors, result["matching"]["text"], k)
        seen: set[int] = set()
        for window in result["windows"]:
            reds = sum(colors[p] == "R" for p in window)
            if len(window) != 14 or reds != 7 or seen & set(window):
                problems.append(f"window {window} is not a fresh balanced "
                                "14-point window")
            seen |= set(window)
        if k > result["achievable_max"]:
            problems.append(f"k={k} above achievable_max")
        return problems

    def _construct(self, spec, result, _):
        colors = spec["coloring"]
        n = len(colors) // 2
        count = result["count"]
        problems = self._witnessed(colors, result["matching"]["text"], count)
        if spec["construction"] == "plane":
            if count != 0:
                problems.append(f"plane matching has {count} crossings")
        else:
            problems += self._in_bound_range(n, count)
        if spec["construction"] == "witness" and result[
                "bound"] != bound_value(n):
            problems.append(f"bound {result['bound']} is not the integer in "
                            "the paper's interval")
        return problems

    def _sweep(self, spec, result, _):
        n = spec["n"]
        problems = []
        value = result["value"]
        if value != bound_value(n) or result["bound"] != value:
            problems.append(f"sweep value {value} is not the integer in "
                            "the paper's interval")
        reps = canonical_strings(n)
        for colors in result["minimizers"]:
            if colors not in reps:
                problems.append(f"minimizer {colors} is not canonical")
            elif n <= BRUTE_MAX_N and max(self.brute(colors)) != value:
                problems.append(f"minimizer {colors} has brute-force "
                                f"maximum {max(self.brute(colors))}")
        self.sweeps[n] = value
        return problems

    def _atlas(self, spec, result, artifacts):
        n = spec["n"]
        problems = []
        rows = list(csv.DictReader(io.StringIO(artifacts["csv"])))
        reps = canonical_strings(n)
        if len(rows) != len(reps) or result["orbit_count"] != len(reps):
            problems.append(f"{len(rows)} rows and orbit_count "
                            f"{result['orbit_count']} for {len(reps)} orbits")
        if sum(int(row["orbit_size"]) for row in rows) != comb(2 * n, n):
            problems.append("orbit sizes do not sum to C(2n, n)")
        for row in rows:
            colors = row["coloring"]
            if colors not in reps or int(row["orbit_size"]) != len(
                    orbit(colors)):
                problems.append(f"row {colors} is not a canonical orbit")
                continue
            if n <= BRUTE_MAX_N:
                values = self.brute(colors)
                missing = [v for v in range(min(values), max(values) + 1)
                           if v not in values]
                text = ";".join(str(v) for v in missing)
                if (int(row["spectrum_min"]), int(row["max_crossings"]),
                        row["missing_values"]) != (min(values), max(values),
                                                   text):
                    problems.append(f"row {colors} differs from brute force")
        low = min(int(row["max_crossings"]) for row in rows)
        if low != result["min_max_crossings"] or low != bound_value(n):
            problems.append(f"least max_crossings {low} is not the integer "
                            "in the paper's interval")
        self.atlas_minima[n] = low
        return problems

    def finish(self) -> list[str]:
        """Cross-operation checks: find and max against spectrum, atlas
        minimum against the sweep."""
        problems = []
        for colors, k, found in self.finds:
            if colors in self.spectra and found != (k in self.spectra[colors]):
                problems.append(f"find k={k} on {colors} found={found} "
                                "disagrees with spectrum")
        for colors, count in self.maxima.items():
            if colors in self.spectra and count != max(self.spectra[colors]):
                problems.append(f"max {count} on {colors} is not the top of "
                                "its spectrum")
        for n, low in self.atlas_minima.items():
            if n in self.sweeps and self.sweeps[n] != low:
                problems.append(f"atlas n={n} minimum {low} differs from "
                                f"sweep value {self.sweeps[n]}")
        return problems
