"""Seeded fuzz of the command line: every argv ends in exit 0, 1 or 2.

Each draw picks a subcommand and fills its options from the grammar with
valid, mutated or hostile tokens: empty strings, negative numbers,
zero-length runs, repeated edges, unknown formats, a 3000-digit ``--n``
for ``bound``, 3000-digit run counts and block sizes for constructions
and ``compose``, run counts and matching positions of 5000 digits (past
the interpreter's 4300-digit conversion limit) for every command that
reads them, and ``--out`` into a missing directory.  Searches on
colorings with n <= 4 often get a ``--max-nodes`` of 0..60, so that the
budget sometimes runs out inside the last level, which ``_dfs`` settles
in place.  ``cli.main`` runs
in-process with every ``--out`` under ``tmp_path`` and must return 0, 1
or 2 without raising.  Exit 3 is a falsification alarm and fails the
test; it is never filtered out.  Sizes stay small by construction
(``spectrum`` at n <= 8, as one alternating spectrum at n = 10 takes
about 0.6 s; ``max`` and ``find`` at n <= 11, across the default search
gate, which accepts n = 10 and refuses n = 11; ``sweep`` at n <= 11,
across the same gate, as a sweep at n = 10 takes a few milliseconds;
``atlas`` at n <= 4, constructions from sizes <= 60), so the draws take
about a second.
"""

import random

from convexmatch.cli import main

SEED = 7
DRAWS = 400

HUGE = "9" * 3000
OVER = "9" * 5000  # more digits than int() converts
# no huge value here.  Constructions and compose draw run counts and block
# sizes from HUGE, far above sys.maxsize, which they refuse before building
# a string.  They have no size gate yet, so a value between 10**6 and
# sys.maxsize would build a huge coloring: never draw one.
HOSTILE = ("", " ", "-1", "-7", "0", "x", "1.5", "0R0B", "1R0B1B", "0-0",
           "0-1,0-1", "RBX", ",", "-", "3-", "1e3", "\x00")


def colors(rng, n):
    chars = ["R"] * n + ["B"] * n
    rng.shuffle(chars)
    return "".join(chars)


def runs(text):
    """Run-length form of a compact coloring: RRBRBB -> 2R 1B 1R 2B."""
    parts = []
    for ch in text:
        if parts and parts[-1][1] == ch:
            parts[-1][0] += 1
        else:
            parts.append([1, ch])
    return " ".join(f"{k}{ch}" for k, ch in parts)


def mutate(rng, text):
    if not text:
        return rng.choice(HOSTILE)
    i = rng.randrange(len(text))
    return rng.choice((
        text[:i] + text[i + 1:],
        text[:i] + rng.choice("RBXrb0-, 9") + text[i:],
        text[:i] + text[i] * 2 + text[i + 1:],
        text.swapcase(),
        text[::-1],
    ))


def pick(rng, valid):
    """The valid token, a mutation of it, or a hostile one."""
    roll = rng.random()
    if roll < 0.6:
        return valid
    if roll < 0.85:
        return mutate(rng, valid)
    return rng.choice(HOSTILE)


def coloring_token(rng, n, huge=False):
    text = colors(rng, n)
    roll = rng.random()
    if roll < 0.05:
        # runs whose counts do not convert: unreadable text
        text = f"{OVER}R {runs(text)} {OVER}B"
    elif huge and roll < 0.15:
        # one red and one blue run of HUGE points: balanced, unindexable
        text = f"{HUGE}R {runs(text)} {HUGE}B"
    elif roll < 0.4:
        text = runs(text)
    if rng.random() < 0.2:
        text = text.lower()
    return pick(rng, text)


def matching_token(rng, text):
    reds = [i for i, ch in enumerate(text) if ch == "R"]
    blues = [i for i, ch in enumerate(text) if ch == "B"]
    rng.shuffle(blues)
    pairs = [f"{r}-{b}" if rng.random() < 0.5 else f"{b}-{r}"
             for r, b in zip(reds, blues)]
    roll = rng.random()
    if roll < 0.15 and pairs:
        pairs.append(rng.choice(pairs))  # repeated edge
    elif roll < 0.25 and pairs:
        a, b = rng.choice(pairs).split("-")
        pairs.append(f"{b}-{a}")  # repeated edge, reversed
    elif roll < 0.35 and pairs:
        pairs.pop()
    elif roll < 0.4:
        pairs.append(f"0-{OVER}")  # a position that does not convert
    return pick(rng, ",".join(pairs))


def number(rng, low, high, huge=False):
    """A number in [low, high] or a hostile token, never a mutation: one
    extra digit could turn a quick search into an hour-long one."""
    roll = rng.random()
    if huge and roll < 0.15:
        return HUGE
    if roll < 0.3:
        return rng.choice(HOSTILE)
    return str(rng.randint(low, high))


def option(rng, argv, name, token):
    """Append ``--name token``, now and then leaving it out."""
    if rng.random() < 0.95:
        argv += [name, token]


def draw(rng, tmp_path, index):
    command = rng.choice(("spectrum", "max", "bound", "find", "construct",
                          "compose", "sweep", "atlas", "render"))
    argv = [command]
    if command in ("spectrum", "max", "find"):
        n = rng.randint(1, 8 if command == "spectrum" else 11)
        option(rng, argv, "--coloring", coloring_token(rng, n))
        if command == "find":
            option(rng, argv, "--k", number(rng, -2, 30, huge=True))
        if n <= 4 and rng.random() < 0.5:
            # small enough that the budget often runs out in the last
            # level, which the search settles in place
            argv += ["--max-nodes", number(rng, 0, 60)]
        elif rng.random() < 0.4:
            argv += ["--max-nodes", number(rng, 0, 200)]
    elif command == "bound":
        option(rng, argv, "--n", number(rng, 1, 10**6, huge=True))
    elif command == "construct":
        kind = rng.choice(("alternating", "fourblock", "sixblock",
                           "witness", "plane"))
        argv.append(pick(rng, kind))
        if kind == "alternating":
            option(rng, argv, "--n", number(rng, 1, 60, huge=True))
        elif kind == "fourblock":
            if rng.random() < 0.5:
                n = rng.randint(2, 30)
                r1, b1 = rng.randint(1, n - 1), rng.randint(1, n - 1)
                if rng.random() < 0.3:
                    n = int(HUGE)  # the last two blocks become huge
                sizes = (r1, b1, n - r1, n - b1)
                option(rng, argv, "--blocks",
                       pick(rng, ",".join(map(str, sizes))))
            else:
                option(rng, argv, "--coloring",
                       coloring_token(rng, rng.randint(1, 60), True))
        elif kind == "sixblock":
            m, y1, y2 = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
            if rng.random() < 0.3:
                m = int(HUGE)  # four blocks of about 2 * HUGE points
            sizes = (2 * m + 1 + y1, 2 * m + 1, y2, y1, 2 * m + 1,
                     2 * m + 1 + y2)
            option(rng, argv, "--blocks", pick(rng, ",".join(map(str, sizes))))
        else:
            option(rng, argv, "--coloring",
                   coloring_token(rng, rng.randint(1, 60), True))
    elif command == "compose":
        option(rng, argv, "--coloring",
               coloring_token(rng, rng.randint(1, 60), True))
        option(rng, argv, "--k", number(rng, -2, 400, huge=True))
    elif command == "sweep":
        option(rng, argv, "--n", number(rng, 1, 11, huge=True))
        if rng.random() < 0.4:
            argv += ["--jobs", number(rng, 1, 2)]
    elif command == "atlas":
        option(rng, argv, "--n", number(rng, 1, 4, huge=True))
        if rng.random() < 0.3:
            argv += ["--max-nodes", number(rng, 0, 200)]
    else:
        text = colors(rng, rng.randint(1, 8))
        option(rng, argv, "--coloring", pick(rng, text))
        option(rng, argv, "--matching", matching_token(rng, text))
    if rng.random() < 0.5:
        argv += ["--format", pick(rng, rng.choice(("text", "json", "csv")))]
    roll = rng.random()
    if roll < 0.1:
        argv += ["--out", str(tmp_path / "missing" / f"out{index}")]
    elif roll < 0.7 or command in ("atlas", "render"):
        argv += ["--out", str(tmp_path / f"out{index}")]
    return argv


def test_cli_fuzz_exits_0_1_or_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CONVEXMATCH_MAX_N", raising=False)
    rng = random.Random(SEED)
    for index in range(DRAWS):
        argv = draw(rng, tmp_path, index)
        try:
            code = main(argv)
        except Exception as err:
            raise AssertionError(f"{argv!r} raised {err!r}") from err
        capsys.readouterr()
        assert code in (0, 1, 2), argv
