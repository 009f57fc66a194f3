"""The four workloads: fixed lists of CLI operations made from a seed.

An operation is a dict with the CLI ``argv`` (without ``--format``) and
the input facts the checker needs (``kind``, ``coloring``, ``n``, ``k``,
``construction``).  ``build(name, seed, scratch)`` returns the warm-up
operations and the round, the list every timed round repeats.  Sizes
and families are fixed per slot; the seed draws the random colorings,
block sizes, k values and the order of the round, so run time depends
little on the seed.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import ceil, comb

WINDOW_MAX = 15


def random_coloring(rng: random.Random, n: int) -> str:
    """Uniform balanced coloring with at least one monochromatic
    antipodal pair, so that C(n,2) crossings are impossible."""
    while True:
        chars = ["R"] * n + ["B"] * n
        rng.shuffle(chars)
        colors = "".join(chars)
        if any(colors[i] == colors[i + n] for i in range(n)):
            return colors


def empty_core_coloring(rng: random.Random, n: int) -> str:
    """Every antipodal pair bichromatic: the second half swaps the first."""
    half = "".join(rng.choice("RB") for _ in range(n))
    return half + half.translate(str.maketrans("RB", "BR"))


def blocks(sizes) -> str:
    return "".join(("R" if i % 2 == 0 else "B") * s
                   for i, s in enumerate(sizes))


def fourblock_sizes(rng: random.Random, n: int) -> tuple[int, ...]:
    r1 = rng.randint(1, n - 1)
    b1 = rng.randint(1, n - 1)
    return (r1, b1, n - r1, n - b1)


def lower_end(n: int) -> int:
    """Smallest integer at or above 3n^2/8 - n/2 - 1/2."""
    return ceil(Fraction(3 * n * n, 8) - Fraction(n, 2) - Fraction(1, 2))


def _on(kind: str, colors: str, **extra) -> dict:
    return {"kind": kind, "coloring": colors, "n": len(colors) // 2,
            "argv": [kind, "--coloring", colors] + [
                a for key, v in extra.items() for a in (f"--{key}", str(v))],
            **extra}


def _construct(construction: str, colors: str, argv_tail: list[str]) -> dict:
    return {"kind": "construct", "construction": construction,
            "coloring": colors, "n": len(colors) // 2,
            "argv": ["construct", construction] + argv_tail}


def _explore_ops(colors: str, k_low: int, k_high: int | None) -> list[dict]:
    """spectrum, max and finds for k_low, k_high and C(n,2); without
    k_high, only the two finds."""
    top = comb(len(colors) // 2, 2)
    if k_high is None:
        return [_on("find", colors, k=k_low), _on("find", colors, k=top)]
    return [_on("spectrum", colors), _on("max", colors),
            *(_on("find", colors, k=k) for k in (k_low, k_high, top))]


def _k_low(rng: random.Random) -> int:
    return rng.choice([0] + list(range(3, WINDOW_MAX + 1)))


def explore(rng: random.Random, scratch: str):
    """spectrum, max and find at n = 8..10.

    spectrum, max and three finds on six seeded random colorings at n = 8,
    four at n = 9, and on the balanced 4-block and the alternating
    coloring at n = 10; two finds on each of eight seeded random
    colorings at n = 10.  The finds ask for k from {0} u [3, 15]
    (achievable at n >= 7), for k = C(n,2) (missing whenever an antipodal
    pair is monochromatic), and, where spectrum runs too, for a k between
    the paper's lower end and C(n,2) - 1 (seeded on random colorings,
    the lower end itself on the fixed ones), which may go either way.
    Random n = 10 colorings get no spectrum or max: their cost varies
    tenfold with the coloring, and a round must cost the same on every
    seed.  The finds at n = 10 are the middle of the round, so op_ms_p50
    is the time of a find at n = 10.
    """
    ops = []
    for n in (8,) * 6 + (9,) * 4:
        colors = random_coloring(rng, n)
        ops += _explore_ops(colors, _k_low(rng),
                            rng.randint(lower_end(n), comb(n, 2) - 1))
    for colors in (blocks((5, 5, 5, 5)), "RB" * 10):
        ops += _explore_ops(colors, _k_low(rng), lower_end(10))
    for _ in range(8):
        ops += _explore_ops(random_coloring(rng, 10), _k_low(rng), None)
    rng.shuffle(ops)
    warm = _explore_ops(random_coloring(rng, 6), 3, lower_end(6))
    return warm, ops


# twelve sizes across 50..400, and twelve operations at n = 200 so that
# the median operation is an n = 200 compose, not one particular size
COMPOSE_SIZES = (tuple(50 + round(i * 350 / 11) for i in range(12))
                 + (200,) * 12)
COMPOSE_PATTERNS = ("RB", "RRBB", "RRRBBB", "RRRRBBBB")


def _compose_op(rng: random.Random, colors: str) -> dict:
    n = len(colors) // 2
    ell = ceil((n - 6) / 7)  # every partition has at least this many windows
    k = 0 if rng.random() < 1 / 8 else rng.randint(3, WINDOW_MAX * ell)
    return _on("compose", colors, k=k)


def compose(rng: random.Random, scratch: str):
    """compose at n = 50..400, k in {0} u [3, 15*ell].

    Every third coloring is periodic (alternating or blocks of 2, 3, 4),
    so its windows repeat; the rest are uniform random.
    """
    ops = []
    for i, n in enumerate(COMPOSE_SIZES):
        if i % 3 == 2:
            pattern = rng.choice(COMPOSE_PATTERNS)
            colors = pattern * (n // (len(pattern) // 2))
        else:
            colors = random_coloring(rng, n)
        ops.append(_compose_op(rng, colors))
    rng.shuffle(ops)
    return [_compose_op(rng, random_coloring(rng, 30))], ops


def _witness(colors: str) -> dict:
    return _construct("witness", colors, ["--coloring", colors])


def sixblock(m: int, y1: int, y2: int) -> str:
    odd = 2 * m + 1
    return blocks((odd + y1, odd, y2, y1, odd, odd + y2))


def certify(rng: random.Random, scratch: str):
    """construct witness at n = 40..160 over four families, with
    construct fourblock and construct plane.

    The 4-block and six-block shapes are fixed, because their witness
    cost swings a hundredfold with the shape; the seed draws the nine
    random colorings (n = 40..72), the empty-core colorings, and the
    fourblock and plane inputs.  fourblock and plane (12 each, all at
    n = 100) are the cheap majority, so op_ms_p50 is their time.
    """
    ops = [_witness(random_coloring(rng, n)) for n in range(40, 73, 4)]
    ops += [_witness(blocks((r1, b1, n - r1, n - b1)))
            for n, r1, b1 in ((80, 16, 48), (100, 25, 50), (120, 30, 30),
                              (160, 80, 80))]
    ops += [_witness(sixblock(m, y1, y2))
            for m, y1, y2 in ((2, 15, 15), (9, 21, 21), (14, 31, 31),
                              (38, 3, 3))]
    ops += [_witness("R" * 160 + "B" * 160)]
    ops += [_witness(empty_core_coloring(rng, n)) for n in (60, 100, 140)]
    for _ in range(12):
        sizes = fourblock_sizes(rng, 100)
        ops.append(_construct("fourblock", blocks(sizes),
                              ["--blocks", ",".join(map(str, sizes))]))
        colors = random_coloring(rng, 100)
        ops.append(_construct("plane", colors, ["--coloring", colors]))
    rng.shuffle(ops)
    warm = [_witness(random_coloring(rng, 12)), _witness(blocks((3, 3, 3, 3)))]
    return warm, ops


def _whole(kind: str, n: int, scratch: str, name: str = "") -> dict:
    op = {"kind": kind, "n": n, "argv": [kind, "--n", str(n)]}
    if kind == "atlas":
        op["out"] = os.path.join(scratch, f"atlas{n}{name}.csv")
        op["argv"] += ["--out", op["out"]]
    else:
        op["argv"] += ["--jobs", "1"]
    return op


def sweep(rng: random.Random, scratch: str):
    """sweep --n 7 and 8 (capped max search per orbit), atlas --n 6 and 7
    (full spectrum per orbit, orbit sizes, journal and CSV writes).

    atlas --n 7 runs twice, into two files, so that by cost it is the
    middle of the round and op_ms_p50 is its time rather than a value
    between two operations.  The inputs do not depend on the seed; it
    only orders the round.
    """
    ops = [_whole("sweep", 7, scratch), _whole("sweep", 8, scratch),
           _whole("atlas", 6, scratch), _whole("atlas", 7, scratch),
           _whole("atlas", 7, scratch, "b")]
    rng.shuffle(ops)
    return [_whole("sweep", 5, scratch), _whole("atlas", 4, scratch)], ops


WORKLOADS = {"explore": explore, "compose": compose, "certify": certify,
             "sweep": sweep}


def build(name: str, seed: int, scratch: str):
    """(warm-up operations, round operations) for a workload and seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), scratch)
