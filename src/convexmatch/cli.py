"""Command-line interface: explore, construct, verify, and render.

Exit codes separate the four kinds of outcome: 0 for success, 1 for
honest negative answers (no matching with that count, budget exhausted),
2 for usage errors, and 3 for falsification alarms, i.e. conditions that
are supposed to be impossible.  Reports are deterministic apart from the
timing field; JSON output is the machine-readable form.  JSON reports
and the atlas sidecar are the text of ``json.dumps(value, indent=2,
sort_keys=True)``, assembled by ``_indented_json`` from C-coded pieces,
since an ``indent`` makes ``json`` use its pure-Python encoder.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import comb, cos, pi, sin

from . import __version__
from .compose import compose
from .construct import (
    _runs_coloring,
    _sixblock_shape,
    alternating_max_matching,
    balanced_fourblock_bound,
    fourblock_max_matching,
    lemma3_witness,
    plane_matching,
    sixblock_crossing_count,
    sixblock_witness,
)
from .core import Coloring, Matching, _images, block_profile, crossing_number
from .errors import (
    BudgetExceeded,
    CorruptJournal,
    DomainNegative,
    FalsificationAlarm,
    NotSixBlockPattern,
    OutOfRange,
    ParseError,
    UsageError,
    brief_text,
)
from .search import (
    SearchBudget,
    _check_size,
    enumerate_colorings,
    find_with_k,
    max_crossing,
    minmax_sweep,
    spectrum,
)

_RUN_TOKEN = re.compile(r"(\d+)([RBrb])")

SVG_WIDTH = 440
SVG_HEIGHT = 470
SVG_CENTER = 220
SVG_RADIUS = 175
SVG_RED = "#cc3333"
SVG_BLUE = "#3366cc"


def _number(digits: str, what: str, text: str) -> int:
    """``digits`` as an int; text Python will not convert (past its
    4300-digit limit) is unreadable ``what``, quoting ``text`` briefly."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"unreadable {what} {brief_text(text)}") from None


def parse_coloring(text: str, budget: SearchBudget | None = None) -> Coloring:
    """Coloring from compact ("RBRB") or run-length ("2R 2B") text.

    Given a search budget, run-length text is checked against the search
    size gate before it is expanded, so a huge run count is rejected
    without building the string.
    """
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty coloring text")
    if set(stripped.upper()) <= {"R", "B"}:
        return Coloring(stripped)
    runs = []
    consumed = 0
    for match in _RUN_TOKEN.finditer(stripped):
        if match.start() != consumed:
            raise ParseError(f"unreadable coloring text {brief_text(text)}")
        count = _number(match.group(1), "coloring text", text)
        if count == 0:
            raise ParseError(
                f"zero-length run in coloring text {brief_text(text)}"
            )
        runs.append((count, match.group(2).upper()))
        consumed = match.end()
    if consumed != len(stripped):
        raise ParseError(f"unreadable coloring text {brief_text(text)}")
    size = sum(count for count, _ in runs)
    if budget is not None:
        _check_size(size // 2, budget)
    if size > sys.maxsize:
        raise OutOfRange(f"coloring has more than {sys.maxsize} points")
    return Coloring("".join(color * count for count, color in runs))


def format_matching(matching: Matching) -> str:
    return ",".join(f"{a}-{b}" for a, b in matching.sorted_edges)


def parse_matching(text: str) -> Matching:
    """Matching from its text form "0-5,1-4"; no edge may repeat."""
    pairs = []
    for token in text.split(","):
        token = token.strip()
        if not re.fullmatch(r"\d+-\d+", token):
            raise ParseError(f"unreadable edge {brief_text(token)}")
        a, b = token.split("-")
        pairs.append((_number(a, "edge", token), _number(b, "edge", token)))
    matching = Matching.from_pairs(pairs)
    if len(matching) != len(pairs):
        raise ParseError(f"an edge is given twice in {brief_text(text)}")
    return matching


def _matching_payload(matching: Matching) -> dict:
    return {
        "edges": [list(e) for e in matching.sorted_edges],
        "text": format_matching(matching),
    }


def render_svg(
    coloring: Coloring, matching: Matching, out_path: str | None = None
) -> str:
    """SVG picture: points on a circle, position 0 on top, clockwise.

    The styling is fixed so identical inputs yield byte-identical files.
    ``crossing_number`` validates the matching before anything is written.
    """
    count = crossing_number(coloring, matching)
    size = coloring.size

    def point(i: int) -> tuple[float, float]:
        angle = 2 * pi * i / size
        return (
            SVG_CENTER + SVG_RADIUS * sin(angle),
            SVG_CENTER - SVG_RADIUS * cos(angle),
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>',
        f'<circle cx="{SVG_CENTER}" cy="{SVG_CENTER}" r="{SVG_RADIUS}" '
        f'fill="none" stroke="#dddddd" stroke-width="1"/>',
    ]
    for a, b in matching.sorted_edges:
        xa, ya = point(a)
        xb, yb = point(b)
        lines.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="#333333" stroke-width="1.5"/>'
        )
    for i in range(size):
        x, y = point(i)
        fill = SVG_RED if coloring.colors[i] == "R" else SVG_BLUE
        lines.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="7" fill="{fill}" '
            f'stroke="#1a1a1a" stroke-width="1"/>'
        )
        lx = SVG_CENTER + (SVG_RADIUS + 16) * sin(2 * pi * i / size)
        ly = SVG_CENTER - (SVG_RADIUS + 16) * cos(2 * pi * i / size)
        lines.append(
            f'<text x="{lx:.2f}" y="{ly + 3:.2f}" font-family="monospace" '
            f'font-size="10" text-anchor="middle" fill="#666666">{i}</text>'
        )
    lines.append(
        f'<text x="{SVG_CENTER}" y="{SVG_HEIGHT - 15}" '
        f'font-family="monospace" font-size="16" text-anchor="middle" '
        f'fill="#222222">crossings: {count}</text>'
    )
    lines.append("</svg>")
    svg = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(svg)
    return svg


ATLAS_HEADER = (
    "n",
    "coloring",
    "orbit_size",
    "max_crossings",
    "spectrum_min",
    "spectrum_max",
    "missing_values",
)


def _is_row(row) -> bool:
    """Whether a decoded journal line is an atlas row: exactly the
    ``ATLAS_HEADER`` keys, a string coloring, a list of integers for
    ``missing_values`` and an integer (not a bool) for every other
    column."""
    # type() rather than isinstance(), which lets True pass as an int
    return (
        isinstance(row, dict) and row.keys() == set(ATLAS_HEADER)
        and type(row["coloring"]) is str
        and type(row["missing_values"]) is list
        and all(type(v) is int for v in row["missing_values"])
        and all(type(row[key]) is int for key in ATLAS_HEADER
                if key not in ("coloring", "missing_values"))
    )


def _read_journal(path: str, n: int) -> dict[str, dict]:
    """Rows of an atlas journal for n, keyed by coloring.

    A line is a row only when ``_is_row`` accepts its JSON.  A write cut
    short leaves a last line that is not a row or lacks its newline.
    That line is dropped and the file truncated to the end of the last
    complete line, so the next row starts on a line of its own.  Any
    earlier line that is not a row is corruption and raises, and so is
    any complete row for another n or with a coloring not 2n long.
    """
    done: dict[str, dict] = {}
    with open(path, "rb") as handle:
        lines = handle.readlines()
    complete = 0  # bytes up to the end of the last complete line
    for number, line in enumerate(lines, 1):
        last = number == len(lines)
        if line.strip():
            try:
                row = json.loads(line)
            except ValueError:
                row = None
            if not _is_row(row):
                if not last:
                    raise CorruptJournal(
                        f"{path} line {number} is not a journal row"
                    )
                break
            if last and not line.endswith(b"\n"):
                break
            if row["n"] != n or len(row["coloring"]) != 2 * n:
                raise CorruptJournal(
                    f"{path} line {number} is not a row for n={n}"
                )
            done[row["coloring"]] = row
        complete += len(line)
    if complete < sum(len(line) for line in lines):
        with open(path, "r+b") as handle:
            handle.truncate(complete)
    return done


def _replace(path: str, text: str):
    """Write the file through a temporary sibling, so it appears whole.

    A write or rename that fails removes the sibling and re-raises."""
    tmp = path + ".tmp"
    handle = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def atlas(n: int, out_path: str, budget: SearchBudget | None = None) -> dict:
    """Spectrum atlas over all orbits: CSV rows plus a JSON summary.

    Each orbit's size is the number of distinct images in the one scan
    of its canonical coloring under the symmetry group.  Its counts are
    its ``spectrum``'s, whose witnesses the atlas never reads and so
    never decodes.  Progress is journaled per canonical coloring next to
    the output file, so an interrupted run resumes where it stopped,
    even after a torn last write or an orbit that ran out of nodes,
    which ``BudgetExceeded`` names; the journal is removed once the CSV
    and sidecar have been written atomically.  An n above the search
    limit, and a CSV or sidecar path that is an existing directory, are
    rejected before any file is touched.
    """
    budget = budget or SearchBudget()
    _check_size(n, budget)
    sidecar = out_path + ".json"
    for path in (out_path, sidecar):
        if os.path.isdir(path):
            raise IsADirectoryError(f"Is a directory: {path!r}")
    journal_path = out_path + ".journal"
    done = (_read_journal(journal_path, n)
            if os.path.exists(journal_path) else {})
    reps = enumerate_colorings(n)
    with open(journal_path, "a", encoding="utf-8") as journal:
        for rep in reps:
            if rep.colors in done:
                continue
            try:
                achievable = spectrum(rep, budget).achievable
            except BudgetExceeded as out:
                raise BudgetExceeded(
                    f"node budget exhausted on orbit {rep.colors}", out.partial
                ) from None
            low = achievable[0]
            high = achievable[-1]
            missing = [v for v in range(low, high + 1) if v not in achievable]
            row = dict(zip(ATLAS_HEADER, (
                n, rep.colors, len(set(_images(rep.colors))), high, low,
                high, missing,
            )))
            journal.write(json.dumps(row, sort_keys=True) + "\n")
            journal.flush()
            done[rep.colors] = row

    rows = [done[rep.colors] for rep in reps]
    table = io.StringIO()
    writer = csv.DictWriter(table, ATLAS_HEADER)
    writer.writeheader()
    for row in rows:
        writer.writerow({
            **row,
            "missing_values": ";".join(map(str, row["missing_values"])),
        })
    _replace(out_path, table.getvalue())

    min_max = min(row["max_crossings"] for row in rows)
    summary = {
        "n": n,
        "orbit_count": len(rows),
        "min_max_crossings": min_max,
        "max_max_crossings": max(row["max_crossings"] for row in rows),
        "minimizers": [
            row["coloring"] for row in rows if row["max_crossings"] == min_max
        ],
        "csv": out_path,
    }
    _replace(sidecar, _indented_json(summary) + "\n")
    os.remove(journal_path)
    summary["sidecar"] = sidecar
    return summary


# --- subcommand handlers ----------------------------------------------------


def _int(text: str) -> int:
    """An int option's value; text that does not convert is quoted only
    while it is short, else named by its length."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {brief_text(text)}"
        ) from None


def _budget(ns) -> SearchBudget:
    return SearchBudget(
        max_nodes=getattr(ns, "max_nodes", None),
        jobs=getattr(ns, "jobs", 1),
    )


def _parse_blocks(text: str, expected: int) -> list[int]:
    sizes = [_number(part, "block sizes", text) for part in text.split(",")]
    if len(sizes) != expected:
        raise ParseError(f"need {expected} block sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ParseError("block sizes must be positive")
    return sizes


def _cmd_spectrum(ns) -> tuple[dict, int]:
    budget = _budget(ns)
    coloring = parse_coloring(ns.coloring, budget)
    spec = spectrum(coloring, budget)
    result = {
        "coloring": coloring.colors,
        "n": coloring.n,
        "achievable": list(spec.achievable),
        "missing": list(spec.missing),
        "witnesses": {
            str(k): format_matching(m) for k, m in sorted(spec.witnesses.items())
        },
    }
    return result, 0


def _cmd_max(ns) -> tuple[dict, int]:
    budget = _budget(ns)
    coloring = parse_coloring(ns.coloring, budget)
    count, matching = max_crossing(coloring, budget)
    return {
        "coloring": coloring.colors,
        "count": count,
        "matching": _matching_payload(matching),
    }, 0


def _cmd_bound(ns) -> tuple[dict, int]:
    # the value has about twice n's digits; str() prints at most 4300
    if ns.n >= 10**2000:
        raise OutOfRange("n must be below 10**2000 to be reported")
    breakdown = balanced_fourblock_bound(ns.n)
    return {
        "n": breakdown.n,
        "m": breakdown.m,
        "residue": breakdown.residue,
        "value": breakdown.value,
    }, 0


def _cmd_find(ns) -> tuple[dict, int]:
    budget = _budget(ns)
    coloring = parse_coloring(ns.coloring, budget)
    matching = find_with_k(coloring, ns.k, budget)
    if matching is None:
        return {
            "coloring": coloring.colors,
            "k": ns.k,
            "found": False,
        }, 1
    return {
        "coloring": coloring.colors,
        "k": ns.k,
        "found": True,
        "matching": _matching_payload(matching),
    }, 0


def _cmd_construct(ns) -> tuple[dict, int]:
    kind = ns.kind
    if kind == "alternating":
        coloring, matching = alternating_max_matching(ns.n)
        count = comb(ns.n, 2) - ns.n // 2
    elif kind == "fourblock":
        if ns.blocks is not None:
            coloring = _runs_coloring(_parse_blocks(ns.blocks, 4))
        else:
            coloring = parse_coloring(ns.coloring)
        matching, count = fourblock_max_matching(block_profile(coloring))
    elif kind == "sixblock":
        shape = _sixblock_shape(_parse_blocks(ns.blocks, 6))
        if shape is None:
            raise NotSixBlockPattern(
                "sizes must fit (2m+1+y1, 2m+1, y2, y1, 2m+1, 2m+1+y2)"
            )
        coloring, matching = sixblock_witness(*shape)
        count = sixblock_crossing_count(*shape)
    elif kind == "witness":
        coloring = parse_coloring(ns.coloring)
        matching, count = lemma3_witness(coloring)
    elif kind == "plane":
        coloring = parse_coloring(ns.coloring)
        matching = plane_matching(coloring)
        count = crossing_number(coloring, matching)
    result = {
        "kind": kind,
        "coloring": coloring.colors,
        "n": coloring.n,
        "count": count,
        "matching": _matching_payload(matching),
    }
    if kind == "witness":
        result["bound"] = balanced_fourblock_bound(coloring.n).value
    return result, 0


def _cmd_compose(ns) -> tuple[dict, int]:
    coloring = parse_coloring(ns.coloring)
    matching, plan = compose(coloring, ns.k)
    return {
        "coloring": coloring.colors,
        "k": ns.k,
        "achievable_max": plan.max_k,
        "windows": [list(w) for w in plan.windows],
        "targets": list(plan.targets),
        "remainder": list(plan.remainder),
        "matching": _matching_payload(matching),
    }, 0


def _cmd_sweep(ns) -> tuple[dict, int]:
    settled: dict[str, int] = {}
    value, minimizers = minmax_sweep(ns.n, _budget(ns), settled)
    return {
        "n": ns.n,
        "value": value,
        "bound": balanced_fourblock_bound(ns.n).value,
        "minimizers": [c.colors for c in minimizers],
        "settled": settled,
    }, 0


def _cmd_atlas(ns) -> tuple[dict, int]:
    if not ns.out:
        raise UsageError("atlas needs --out for the CSV path")
    summary = atlas(ns.n, ns.out, _budget(ns))
    return summary, 0


def _cmd_render(ns) -> tuple[dict, int]:
    coloring = parse_coloring(ns.coloring)
    matching = parse_matching(ns.matching)
    if not ns.out:
        raise UsageError("render needs --out for the SVG path")
    render_svg(coloring, matching, ns.out)
    return {
        "coloring": coloring.colors,
        "count": crossing_number(coloring, matching),
        "out": ns.out,
    }, 0


def _flatten(value) -> str:
    if isinstance(value, dict):
        if "text" in value:
            return str(value["text"])
        return json.dumps(value, sort_keys=True)
    if isinstance(value, (list, tuple)):
        return " ".join(_flatten(v) for v in value) if value else "-"
    return str(value)


def _indented_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, with every line
    after the first led by ``pad`` (a newline and the current indent).

    Dicts, lists and tuples are laid out here, and a list of ints, or of
    non-empty lists of ints, is laid out from its ``repr`` in one go.
    Any other value has no inner layout, so ``json``'s C encoder gives
    its text, or raises ``json``'s error.  A container that holds itself
    recurses without end, where ``json`` reports the cycle.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            (encode_basestring_ascii(key) if isinstance(key, str)
             else json.dumps({key: 0})[1:-4])  # json's text for the key
            + ": " + _indented_json(item, inner)
            for key, item in sorted(value.items())
        ) + pad + "}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    kinds = set(map(type, value))
    if kinds == {int}:
        body = ("," + inner).join(map(repr, value))
    elif (kinds == {list} and all(value)
          and set(map(type, chain.from_iterable(value))) == {int}):
        deeper = inner + "  "
        body = (
            repr(list(value))[1:-1]
            .replace(", ", "," + deeper)
            .replace("]," + deeper + "[", "]," + inner + "[")
            .replace("[", "[" + deeper)
            .replace("]", inner + "]")
        )
    else:
        body = ("," + inner).join(
            _indented_json(item, inner) for item in value
        )
    return "[" + inner + body + pad + "]"


def _format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _indented_json(report) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("key", "value"))
        for key in sorted(report["result"]):
            writer.writerow((key, _flatten(report["result"][key])))
        return buffer.getvalue()
    lines = [f"{report['command']} (v{report['version']})"]
    for key in sorted(report["result"]):
        lines.append(f"  {key}: {_flatten(report['result'][key])}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="convexmatch",
        description=(
            "Bichromatic perfect matchings with prescribed crossing "
            "numbers on convex point sets."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="report format")
        sp.add_argument("--out", help="write the report (or artifact) here")

    sp = sub.add_parser("spectrum", help="all achievable crossing numbers")
    sp.set_defaults(run=_cmd_spectrum)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--max-nodes", type=_int, dest="max_nodes")
    common(sp)

    sp = sub.add_parser("max", help="exhaustive maximum crossing number")
    sp.set_defaults(run=_cmd_max)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--max-nodes", type=_int, dest="max_nodes")
    common(sp)

    sp = sub.add_parser("bound", help="closed-form min-max crossing bound")
    sp.set_defaults(run=_cmd_bound)
    sp.add_argument("--n", type=_int, required=True)
    common(sp)

    sp = sub.add_parser("find", help="matching with exactly k crossings")
    sp.set_defaults(run=_cmd_find)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--k", type=_int, required=True)
    sp.add_argument("--max-nodes", type=_int, dest="max_nodes")
    common(sp)

    sp = sub.add_parser("construct", help="named matching constructions")
    sp.set_defaults(run=_cmd_construct)
    kinds = sp.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("alternating", help="maximum on alternating colors")
    k.add_argument("--n", type=_int, required=True)
    common(k)
    k = kinds.add_parser("fourblock", help="exact maximum on four blocks")
    given = k.add_mutually_exclusive_group(required=True)
    given.add_argument("--blocks", help="r1,b1,r2,b2")
    given.add_argument("--coloring")
    common(k)
    k = kinds.add_parser("sixblock", help="six-block witness construction")
    k.add_argument("--blocks", required=True, help="six block sizes")
    common(k)
    k = kinds.add_parser("witness", help="matching meeting the bound")
    k.add_argument("--coloring", required=True)
    common(k)
    k = kinds.add_parser("plane", help="crossing-free matching")
    k.add_argument("--coloring", required=True)
    common(k)

    sp = sub.add_parser("compose", help="matching with exactly k crossings "
                                        "via 14-point windows")
    sp.set_defaults(run=_cmd_compose)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--k", type=_int, required=True)
    common(sp)

    sp = sub.add_parser("sweep", help="min over orbits of max crossings")
    sp.set_defaults(run=_cmd_sweep)
    sp.add_argument("--n", type=_int, required=True)
    sp.add_argument("--jobs", type=_int, default=1)
    common(sp)

    sp = sub.add_parser("atlas", help="per-orbit spectrum atlas (CSV)")
    sp.set_defaults(run=_cmd_atlas)
    sp.add_argument("--n", type=_int, required=True)
    sp.add_argument("--max-nodes", type=_int, dest="max_nodes")
    common(sp)

    sp = sub.add_parser("render", help="SVG picture of a matching")
    sp.set_defaults(run=_cmd_render)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--matching", required=True)
    common(sp)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    started = time.monotonic()
    try:
        result, code = ns.run(ns)
        report = {
            "schema": 1,
            "version": __version__,
            "command": ns.command,
            "input": {
                key: value for key, value in vars(ns).items()
                if key not in ("command", "format", "run")
                and value is not None
            },
            "result": result,
            "elapsed_ms": int((time.monotonic() - started) * 1000),
        }
        text = _format_report(report, ns.format)
        # atlas and render already wrote their artifact to --out
        if ns.out and ns.command not in ("atlas", "render"):
            with open(ns.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainNegative as err:
        print(f"no: {err}", file=sys.stderr)
        return 1
    except FalsificationAlarm as err:
        print(f"FALSIFICATION ALARM: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
