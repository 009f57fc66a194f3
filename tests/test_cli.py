"""End-to-end tests for the command line interface."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import convexmatch
from convexmatch import Coloring, Matching, cli, core
from convexmatch.cli import (
    _replace,
    atlas,
    format_matching,
    main,
    parse_coloring,
    parse_matching,
    render_svg,
)
from convexmatch.errors import InvalidMatching, ParseError, brief
from test_demos import readme_commands


def package_env() -> dict:
    """The environment with this checkout's package first on the path."""
    src = str(Path(convexmatch.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    report = json.loads(capsys.readouterr().out)
    return code, report


# ----------------------------------------------------------- text parsing


def test_parse_coloring_compact_and_runlength():
    assert str(parse_coloring("rrbb")) == "RRBB"
    assert str(parse_coloring("2R2B")) == "RRBB"
    assert str(parse_coloring("1R 1B 7R 7B")) == "RB" + "R" * 7 + "B" * 7
    assert str(parse_coloring("2r2b")) == "RRBB"


def test_parse_coloring_rejects_junk():
    for bad in ("", "2X", "R2B", "2R2", "RB2R", "12", "1R0B1B", "0R0B"):
        with pytest.raises(ParseError):
            parse_coloring(bad)


def test_matching_text_roundtrip():
    m = Matching.from_pairs([(0, 4), (1, 3), (2, 5)])
    text = format_matching(m)
    assert text == "0-4,1-3,2-5"
    assert parse_matching(text).sorted_edges == m.sorted_edges
    for bad in ("0-4,nope", "0-1,0-1", "0-2,1-3,2-0"):
        with pytest.raises(ParseError):
            parse_matching(bad)


# ------------------------------------------------------------- exit codes


def test_exit_codes(capsys, monkeypatch):
    assert main(["bound", "--n", "8"]) == 0
    assert main(["find", "--coloring", "RBRB", "--k", "1"]) == 1
    assert main(["construct", "alternating", "--n", "3"]) == 2
    assert main(["sweep", "--n", "11"]) == 2
    assert main(["bound", "--n", "not-a-number"]) == 2
    assert main(["bound", "--n", "9" * 3000]) == 2
    assert main(["no-such-command"]) == 2
    for blocks in ("4,x,4,4", "4,4,4", "4,0,4,4"):
        assert main(["construct", "fourblock", "--blocks", blocks]) == 2
    assert main(["render", "--coloring", "RRBB", "--matching", "0-2,1-3"]) == 2
    # point counts beyond sys.maxsize are refused before any string is built
    big = "9" * 20
    for argv in (
        ["construct", "alternating", "--n", "1" + "0" * 20],
        ["construct", "fourblock", "--blocks", f"{big},1,1,{big}"],
        ["construct", "fourblock", "--coloring", f"{big}R1B1R{big}B"],
        ["construct", "witness", "--coloring", f"{big}R{big}B"],
        ["compose", "--coloring", f"{big}R{big}B", "--k", "3"],
    ):
        assert main(argv) == 2, argv
    capsys.readouterr()
    # messages name a 3000-digit argument by its length, not in full
    huge = "9" * 3000
    for argv, code in (
        (["construct", "alternating", "--n", huge], 2),
        (["compose", "--coloring", "RBRBRBRBRBRBRB", "--k", huge], 1),
        (["sweep", "--n", huge], 2),
        (["spectrum", "--coloring", "RRBB", "--max-nodes", "-" + huge], 2),
    ):
        assert main(argv) == code, argv[:-1]
        assert len(capsys.readouterr().err.encode()) < 300, argv[:-1]
    # past the interpreter's 4300-digit limit int() refuses the text, and
    # it is named by its length too
    over = "9" * 5000
    for argv in (
        ["bound", "--n", over],
        ["spectrum", "--coloring", "RRBB", "--max-nodes", over],
    ):
        assert main(argv) == 2, argv[:-1]
        err = capsys.readouterr().err
        assert len(err.encode()) < 300, argv[:-1]
        assert "invalid int value: a 5000-character text" in err
    monkeypatch.setenv("CONVEXMATCH_MAX_N", over)
    assert main(["spectrum", "--coloring", "RRBB"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert "CONVEXMATCH_MAX_N=a 5000-character text is not an integer" in err
    monkeypatch.delenv("CONVEXMATCH_MAX_N")
    # short text that does not convert is still quoted in full
    assert main(["bound", "--n", "abc"]) == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_text_parsers_name_long_input_by_length(capsys):
    # run counts and positions past the 4300-digit limit are parse
    # errors, and no message quotes long input in full
    over = "9" * 5000
    twice = ",".join(["0-2"] * 2000)
    for argv, message in (
        (["spectrum", "--coloring", f"{over}R1B"], "unreadable coloring text"),
        (["compose", "--coloring", f"{over}R1B", "--k", "3"],
         "unreadable coloring text"),
        (["render", "--coloring", "RRBB", "--matching", f"0-{over}"],
         "unreadable edge"),
        (["spectrum", "--coloring", f"x{over}"], "unreadable coloring text"),
        (["spectrum", "--coloring", f"0R1B{over}"],
         "zero-length run in coloring text"),
        (["construct", "fourblock", "--blocks", f"1,x,{over}"],
         "unreadable block sizes"),
        (["render", "--coloring", "RRBB", "--matching", f"0-x{over}"],
         "unreadable edge"),
        (["render", "--coloring", "RRBB", "--matching", twice],
         "an edge is given twice in"),
    ):
        assert main(argv) == 2, argv[:2]
        err = capsys.readouterr().err
        assert len(err.encode()) < 200, argv[:2]
        assert f"error: {message} a " in err, argv[:2]
    # short text is still quoted in full
    for argv, message in (
        (["spectrum", "--coloring", "2R2B3"],
         "unreadable coloring text '2R2B3'"),
        (["spectrum", "--coloring", "0R1B"],
         "zero-length run in coloring text '0R1B'"),
        (["construct", "fourblock", "--blocks", "1,x"],
         "unreadable block sizes '1,x'"),
        (["render", "--coloring", "RRBB", "--matching", "0-x"],
         "unreadable edge '0-x'"),
        (["render", "--coloring", "RRBB", "--matching", "0-2,0-2"],
         "an edge is given twice in '0-2,0-2'"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


def test_brief_names_long_ints_by_digit_count():
    assert brief(-(10**20 - 1)) == "-" + "9" * 20
    assert brief(10**20) == "a 21-digit number"
    assert brief(-int("9" * 3000)) == "a 3000-digit negative number"
    assert brief(10**5000) == "a 5001-digit number"


def test_bad_budgets_are_usage_errors(capsys, monkeypatch):
    assert main(["spectrum", "--coloring", "RRBRBB", "--max-nodes", "-1"]) == 2
    assert main(["sweep", "--n", "5", "--jobs", "-3"]) == 2
    assert main(["spectrum", "--coloring", "RRBRBB", "--max-nodes", "0"]) == 1
    monkeypatch.setenv("CONVEXMATCH_MAX_N", "abc")
    assert main(["spectrum", "--coloring", "RRBB"]) == 2
    capsys.readouterr()


def test_usage_error_message(capsys):
    assert main(["construct", "alternating", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_domain_negative_message(capsys):
    assert main(["compose", "--coloring", "RB" * 7, "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("no:")


# ---------------------------------------------------------------- reports


def test_report_schema(capsys):
    code, report = run_json(capsys, ["bound", "--n", "8"])
    assert code == 0
    assert set(report) == {
        "schema", "version", "command", "input", "result", "elapsed_ms",
    }
    assert report["schema"] == 1
    assert report["version"] == convexmatch.__version__
    assert report["command"] == "bound"
    assert report["input"]["n"] == 8
    assert report["result"] == {"n": 8, "m": 2, "residue": 0, "value": 20}


def test_text_format_header(capsys):
    main(["bound", "--n", "8", "--format", "text"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"bound (v{convexmatch.__version__})"
    assert "  value: 20" in out


def test_csv_format(capsys):
    main(["bound", "--n", "8", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "value,20" in lines


def test_out_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    main(["bound", "--n", "8", "--out", str(target), "--format", "json"])
    capsys.readouterr()
    assert json.loads(target.read_text())["result"]["value"] == 20


def test_out_to_missing_directory_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["spectrum", "--coloring", "RRBB", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("io error:")
    assert captured.out == ""


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["bound", "--n", "8", "--format", "json"]
    done = subprocess.run([sys.executable, "-m", "convexmatch", *argv],
                          env=package_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0

    def untimed(text):
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)

    assert untimed(done.stdout) == untimed(capsys.readouterr().out)


# ------------------------------------------------------------- subcommands


def test_spectrum_command(capsys):
    code, report = run_json(capsys, ["spectrum", "--coloring", "RBRRBB"])
    assert code == 0
    result = report["result"]
    assert result["achievable"] == [0, 1, 2]
    assert result["witnesses"]["2"] == "0-4,1-3,2-5"
    assert result["missing"] == [3]  # gaps up to C(n,2)


def test_max_command(capsys):
    code, report = run_json(capsys, ["max", "--coloring", "RBRRBB"])
    assert code == 0
    assert report["result"]["count"] == 2
    assert report["result"]["matching"]["text"] == "0-4,1-3,2-5"


def test_find_command(capsys):
    code, report = run_json(capsys, ["find", "--coloring", "RBRRBB", "--k", "2"])
    assert code == 0
    assert report["result"]["found"] is True
    assert report["result"]["matching"]["text"] == "0-4,1-3,2-5"
    code, report = run_json(capsys, ["find", "--coloring", "RBRB", "--k", "1"])
    assert code == 1
    assert report["result"]["found"] is False


def test_construct_alternating(capsys):
    code, report = run_json(capsys, ["construct", "alternating", "--n", "4"])
    assert code == 0
    result = report["result"]
    assert result["coloring"] == "RBRBRBRB"
    assert result["count"] == 4
    assert result["matching"]["text"] == "0-5,1-4,2-7,3-6"


def test_construct_alternating_counts_once(capsys, monkeypatch):
    # the construction validates its own count; the CLI reports the
    # closed form C(n,2) - n/2 without recounting
    def recount(coloring, matching):
        raise AssertionError("construct alternating recounted its matching")

    monkeypatch.setattr(convexmatch.cli, "crossing_number", recount)
    code, report = run_json(capsys, ["construct", "alternating", "--n", "6"])
    assert code == 0
    assert report["result"]["count"] == 12


def test_construct_fourblock(capsys):
    code, report = run_json(
        capsys, ["construct", "fourblock", "--blocks", "4,4,4,4"]
    )
    assert code == 0
    assert report["result"]["count"] == 20
    # the echo keeps every parsed value that was given, and only those
    assert report["input"] == {"kind": "fourblock", "blocks": "4,4,4,4"}
    # exactly one of --blocks and --coloring
    assert main(["construct", "fourblock", "--blocks", "1,1,1,1",
                 "--coloring", "RRRRBBBB"]) == 2
    assert main(["construct", "fourblock"]) == 2
    capsys.readouterr()
    code, report = run_json(
        capsys,
        ["construct", "fourblock", "--coloring", "RRRRRBBBBRRRBBBB"],
    )
    assert code == 0
    assert report["result"]["count"] == 20


def test_construct_sixblock(capsys):
    code, report = run_json(
        capsys, ["construct", "sixblock", "--blocks", "2,1,1,1,1,2"]
    )
    assert code == 0
    result = report["result"]
    assert result["coloring"] == "RRBRBRBB"
    assert result["count"] == 5
    assert result["matching"]["text"] == "0-4,1-6,2-5,3-7"
    # size vector that is not of the special shape
    assert main(["construct", "sixblock", "--blocks", "1,1,1,1,1,1"]) == 2
    # a rotation of the special shape is read in the order given
    assert main(["construct", "sixblock", "--blocks", "1,1,1,1,2,2"]) == 2
    capsys.readouterr()


def test_construct_witness(capsys):
    code, report = run_json(
        capsys, ["construct", "witness", "--coloring", "RRBRBRBRBB"]
    )
    assert code == 0
    result = report["result"]
    assert result["bound"] == 7
    assert result["count"] == 9


def test_construct_plane(capsys):
    code, report = run_json(capsys, ["construct", "plane", "--coloring", "RRBB"])
    assert code == 0
    assert report["result"]["count"] == 0
    assert report["result"]["matching"]["text"] == "0-3,1-2"


# The README's construct and render commands: (argv, echoed input,
# result), the matching given by its text.
GOLDEN = (
    ("construct alternating --n 8", {"kind": "alternating", "n": 8},
     {"coloring": "RB" * 8, "count": 24, "kind": "alternating", "n": 8,
      "matching": "0-9,1-8,2-11,3-10,4-13,5-12,6-15,7-14"}),
    ("construct fourblock --blocks 4,4,4,4",
     {"kind": "fourblock", "blocks": "4,4,4,4"},
     {"coloring": "RRRRBBBBRRRRBBBB", "count": 20, "kind": "fourblock",
      "n": 8, "matching": "0-6,1-7,2-12,3-13,4-10,5-11,8-14,9-15"}),
    ("construct sixblock --blocks 2,1,1,1,1,2",
     {"kind": "sixblock", "blocks": "2,1,1,1,1,2"},
     {"coloring": "RRBRBRBB", "count": 5, "kind": "sixblock", "n": 4,
      "matching": "0-4,1-6,2-5,3-7"}),
    ("construct witness --coloring RRBRBRBRBB",
     {"kind": "witness", "coloring": "RRBRBRBRBB"},
     {"bound": 7, "coloring": "RRBRBRBRBB", "count": 9, "kind": "witness",
      "n": 5, "matching": "0-4,1-6,2-7,3-8,5-9"}),
    ("construct plane --coloring RRBB", {"kind": "plane", "coloring": "RRBB"},
     {"coloring": "RRBB", "count": 0, "kind": "plane", "n": 2,
      "matching": "0-3,1-2"}),
    ("render --coloring RRBB --matching 0-2,1-3 --out m.svg",
     {"coloring": "RRBB", "matching": "0-2,1-3", "out": "m.svg"},
     {"coloring": "RRBB", "count": 1, "out": "m.svg"}),
)


def test_readme_construct_and_render_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert [argv.split() for argv, _, _ in GOLDEN] == [
        argv for argv in readme_commands()
        if argv[0] in ("construct", "render")]
    for argv, echoed, result in GOLDEN:
        code, report = run_json(capsys, argv.split())
        assert code == 0, argv
        del report["elapsed_ms"]
        if "matching" in result:
            text = result["matching"]
            result = {**result, "matching": {"text": text, "edges": [
                [int(p) for p in e.split("-")] for e in text.split(",")]}}
        assert report == {
            "command": argv.split()[0], "input": echoed, "result": result,
            "schema": 1, "version": convexmatch.__version__,
        }, argv


# The README's max and find commands: (argv, echoed input, result),
# the matching given by its text.
SEARCH_GOLDEN = (
    ('max --coloring "1R 1B 7R 7B"', {"coloring": "1R 1B 7R 7B"},
     {"coloring": "RBRRRRRRRBBBBBBB", "count": 27,
      "matching": "0-9,1-8,2-10,3-11,4-12,5-13,6-14,7-15"}),
    ("find --coloring RBRRBB --k 2", {"coloring": "RBRRBB", "k": 2},
     {"coloring": "RBRRBB", "found": True, "k": 2,
      "matching": "0-4,1-3,2-5"}),
    ("find --coloring RBRRBB --k 0", {"coloring": "RBRRBB", "k": 0},
     {"coloring": "RBRRBB", "found": True, "k": 0,
      "matching": "0-1,2-5,3-4"}),
)


def matching_payload(text):
    return {"text": text, "edges": [
        [int(p) for p in e.split("-")] for e in text.split(",")]}


def test_readme_max_and_find_reports(capsys):
    assert [shlex.split(argv) for argv, _, _ in SEARCH_GOLDEN] == [
        argv for argv in readme_commands() if argv[0] in ("max", "find")]
    for argv, echoed, result in SEARCH_GOLDEN:
        code, report = run_json(capsys, shlex.split(argv))
        assert code == 0, argv
        del report["elapsed_ms"]
        result = {**result, "matching": matching_payload(result["matching"])}
        assert report == {
            "command": shlex.split(argv)[0], "input": echoed,
            "result": result, "schema": 1,
            "version": convexmatch.__version__,
        }, argv


def test_find_answers_the_extreme_targets_with_no_nodes(capsys):
    # k = 0 and k = C(n,2) need no search, as an out-of-range k does
    for colors, k, code, text in (
        ("RBRRBB", 0, 0, "0-1,2-5,3-4"),
        ("RRRBBB", 3, 0, "0-3,1-4,2-5"),
        ("RBRRBB", 3, 1, None),  # positions 0 and 3 are both red
        ("RBRRBB", 4, 1, None),
    ):
        got, report = run_json(capsys, [
            "find", "--coloring", colors, "--k", str(k), "--max-nodes", "0"])
        assert got == code, (colors, k)
        assert report["result"].get("matching") == (
            text and matching_payload(text)), (colors, k)
    assert main(["find", "--coloring", "RRRBBB", "--k", "2",
                 "--max-nodes", "0"]) == 1
    assert "node budget exhausted" in capsys.readouterr().err


def test_constructions_and_render_count_once(tmp_path, monkeypatch, capsys):
    # each construction checks its count with one validating
    # crossing_number, and the report reads that count; render reads the
    # count that render_svg validated
    calls = []
    validate = core.validate

    def counted(coloring, matching):
        calls.append(coloring.colors)
        return validate(coloring, matching)

    monkeypatch.setattr(core, "validate", counted)
    monkeypatch.chdir(tmp_path)
    for argv, _, _ in GOLDEN:
        calls.clear()
        assert main(argv.split()) == 0, argv
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_compose_command(capsys):
    code, report = run_json(
        capsys, ["compose", "--coloring", "RB" * 7, "--k", "9"]
    )
    assert code == 0
    result = report["result"]
    assert result["k"] == 9
    assert result["achievable_max"] == 15
    assert result["targets"] == [9]
    assert len(result["windows"]) == 1
    from convexmatch import crossing_number
    from convexmatch.cli import parse_matching
    rebuilt = parse_matching(result["matching"]["text"])
    assert crossing_number(Coloring("RB" * 7), rebuilt) == 9


def test_sweep_command(capsys):
    code, report = run_json(capsys, ["sweep", "--n", "4"])
    assert code == 0
    result = report["result"]
    assert result["value"] == 4
    assert result["minimizers"] == ["BBBRRBRR", "BBRRBBRR", "BRBRBRBR"]
    assert result["settled"] == {"witness": 4, "search": 3}
    assert report["input"] == {"n": 4, "jobs": 1}
    assert main(["sweep", "--n", "4", "--seed", "1"]) == 2
    capsys.readouterr()


def test_sweep_report_does_not_depend_on_jobs(capsys):
    for n in range(2, 9):
        reports = []
        for jobs in ("1", "2"):
            code, report = run_json(
                capsys, ["sweep", "--n", str(n), "--jobs", jobs])
            assert code == 0
            del report["elapsed_ms"], report["input"]["jobs"]
            reports.append(report)
        assert reports[0] == reports[1], n


# ------------------------------------------------------------------ atlas


def test_atlas_golden_n2(tmp_path, capsys):
    out = tmp_path / "atlas.csv"
    code, report = run_json(capsys, ["atlas", "--n", "2", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (
        b"n,coloring,orbit_size,max_crossings,spectrum_min,spectrum_max,"
        b"missing_values\r\n"
        b"2,BBRR,4,1,0,1,\r\n"
        b"2,BRBR,2,0,0,0,\r\n"
    )
    sidecar = json.loads((tmp_path / "atlas.csv.json").read_text())
    assert sidecar["orbit_count"] == 2
    assert sidecar["min_max_crossings"] == 0
    assert sidecar["minimizers"] == ["BRBR"]
    assert not (tmp_path / "atlas.csv.journal").exists()
    assert report["result"]["orbit_count"] == 2


def test_atlas_requires_out(capsys):
    assert main(["atlas", "--n", "2"]) == 2
    capsys.readouterr()


def test_atlas_rejects_oversized_n_before_writing(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setenv("CONVEXMATCH_MAX_N", "3")
    assert main(["atlas", "--n", "4", "--out", str(tmp_path / "a.csv")]) == 2
    assert "exceeds search limit 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_atlas_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    # the atlas refuses a directory --out before searching, so the failed
    # rename is forced on its writer directly
    def refuse(src, dst):
        raise OSError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "atlas.csv"
    with pytest.raises(OSError, match="cannot rename .*atlas.csv.tmp"):
        _replace(str(out), "n,coloring\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("taken", ["atlas.csv", "atlas.csv.json"])
def test_atlas_refuses_directory_outputs_before_searching(
        tmp_path, capsys, monkeypatch, taken):
    searched = []
    real = cli.spectrum
    monkeypatch.setattr(cli, "spectrum",
                        lambda *args: searched.append(args) or real(*args))
    argv = ["atlas", "--n", "3", "--out", str(tmp_path / "atlas.csv")]
    (tmp_path / taken).mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error:") and "Is a directory" in err
    assert searched == []
    assert [p.name for p in tmp_path.iterdir()] == [taken]
    # the same run searches every orbit once the path is free
    (tmp_path / taken).rmdir()
    assert main(argv) == 0
    assert len(searched) == len(cli.enumerate_colorings(3))


def test_find_out_of_range_k_needs_no_node(capsys):
    code, report = run_json(capsys, [
        "find", "--coloring", "RRBB", "--k", "9", "--max-nodes", "0"])
    assert code == 1
    assert report["result"]["found"] is False


def test_cli_import_loads_no_pool_modules():
    # the sweep imports its process pool only when it runs one
    code = ("import sys, convexmatch.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_search_gate_precedes_run_length_expansion(capsys):
    import tracemalloc

    # never a larger count: a gate after the expansion builds the string
    text = "10000000R10000000B"
    for argv in (["spectrum"], ["max"], ["find", "--k", "0"]):
        tracemalloc.start()
        try:
            code = main(argv + ["--coloring", text])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "n=10000000 exceeds search limit 10" in capsys.readouterr().err
        assert peak < 5 * 2**20


def test_atlas_resumes_from_journal(tmp_path):
    out = tmp_path / "atlas.csv"
    journal = tmp_path / "atlas.csv.journal"
    # a sentinel value proves the row is replayed, not recomputed
    fake = {
        "n": 2,
        "coloring": "BBRR",
        "orbit_size": 4,
        "max_crossings": 999,
        "spectrum_min": 0,
        "spectrum_max": 999,
        "missing_values": [],
    }
    journal.write_text(json.dumps(fake) + "\n")
    atlas(2, str(out))
    content = out.read_text()
    assert "2,BBRR,4,999,0,999," in content
    assert "2,BRBR,2,0,0,0," in content
    assert not journal.exists()


def _interrupted_atlas(monkeypatch, n, out, rows):
    """Run atlas until it has journaled ``rows`` more rows."""
    import convexmatch.cli as cli

    real = cli.spectrum
    calls = []

    def stopping(*args):
        if len(calls) == rows:
            raise KeyboardInterrupt
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "spectrum", stopping)
    with pytest.raises(KeyboardInterrupt):
        atlas(n, str(out))
    monkeypatch.setattr(cli, "spectrum", real)


def test_atlas_resumes_after_torn_journal(tmp_path, monkeypatch):
    clean = tmp_path / "clean.csv"
    atlas(4, str(clean))
    out = tmp_path / "atlas.csv"
    journal = tmp_path / "atlas.csv.journal"
    _interrupted_atlas(monkeypatch, 4, out, 2)
    with open(journal, "a") as handle:
        handle.write('{"n": 4, "coloring": "BBBBRRRR", "orbit_si')
    # the next rows must start on a fresh line, not on the fragment
    _interrupted_atlas(monkeypatch, 4, out, 2)
    lines = journal.read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["n"] == 4 for line in lines)
    atlas(4, str(out))
    assert out.read_bytes() == clean.read_bytes()
    assert not journal.exists()
    # a complete last row without its newline is dropped like a torn one:
    # the sentinel orbit size never reaches the CSV
    clean = tmp_path / "clean3.csv"
    atlas(3, str(clean))
    out = tmp_path / "atlas3.csv"
    journal = tmp_path / "atlas3.csv.journal"
    journal.write_text(json.dumps({
        "n": 3, "coloring": "BBBRRR", "orbit_size": 999, "max_crossings": 0,
        "spectrum_min": 0, "spectrum_max": 0, "missing_values": [],
    }))
    assert main(["atlas", "--n", "3", "--out", str(out)]) == 0
    assert out.read_bytes() == clean.read_bytes()
    assert not journal.exists()


def test_atlas_rejects_corrupt_journal(tmp_path, capsys):
    out = tmp_path / "atlas.csv"
    journal = tmp_path / "atlas.csv.journal"
    row = {"n": 2, "coloring": "BRBR", "orbit_size": 2, "max_crossings": 0,
           "spectrum_min": 0, "spectrum_max": 0, "missing_values": []}
    for first in (
        '{"n": 2, "coloring": "BB',
        '{"coloring": "BBRR"}',  # a row needs every column
        '{"coloring": ["x"]}',  # its coloring is a string
        json.dumps({**row, "coloring": "BBRR", "extra": 1}),  # no others
        # every other column holds integers
        json.dumps({**row, "coloring": "BBRR", "missing_values": 5}),
        json.dumps({**row, "coloring": "BBRR", "max_crossings": "x"}),
        json.dumps({**row, "coloring": "BBRR", "orbit_size": True}),
        json.dumps({**row, "coloring": "BBRR", "missing_values": [1.5]}),
    ):
        journal.write_text(first + "\n" + json.dumps(row) + "\n")
        assert main(["atlas", "--n", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["atlas.csv.journal"]


def test_atlas_journal_for_another_n_is_refused(tmp_path, capsys):
    out = tmp_path / "b.csv"
    journal = tmp_path / "b.csv.journal"
    row = {"n": 2, "coloring": "BBRR", "orbit_size": 4, "max_crossings": 1,
           "spectrum_min": 0, "spectrum_max": 1, "missing_values": []}
    for bad in (
        {**row, "n": 99, "max_crossings": 0, "spectrum_max": 0},
        {**row, "coloring": "BBBRRR"},  # right n, coloring not 2n long
    ):
        # as the only line and as the last one, with its newline
        for text in (json.dumps(bad) + "\n",
                     json.dumps({**row, "coloring": "BRBR"}) + "\n"
                     + json.dumps(bad) + "\n"):
            journal.write_text(text)
            assert main(["atlas", "--n", "2", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error:")
            assert [p.name for p in tmp_path.iterdir()] == ["b.csv.journal"]


def test_atlas_rows_agree_with_library(tmp_path):
    import csv as csv_module

    from convexmatch import (
        all_symmetries,
        enumerate_colorings,
        max_crossing,
        spectrum,
    )

    for n in range(2, 7):
        out = tmp_path / f"atlas{n}.csv"
        atlas(n, str(out))
        with open(out, newline="") as handle:
            rows = list(csv_module.DictReader(handle))
        reps = enumerate_colorings(n)
        assert [row["coloring"] for row in rows] == [c.colors for c in reps]
        for row in rows:
            col = Coloring(row["coloring"])
            achievable = spectrum(col).achievable
            value, _ = max_crossing(col)
            low, high = achievable[0], achievable[-1]
            missing = [k for k in range(low, high + 1)
                       if k not in achievable]
            orbit = {s.apply(col).colors for s in all_symmetries(col.size)}
            assert row == {
                "n": str(n),
                "coloring": col.colors,
                "orbit_size": str(len(orbit)),
                "max_crossings": str(value),
                "spectrum_min": str(low),
                "spectrum_max": str(high),
                "missing_values": ";".join(map(str, missing)),
            }


def test_atlas_budget_agrees_with_spectrum(tmp_path):
    from convexmatch import SearchBudget, enumerate_colorings, spectrum
    from convexmatch.errors import BudgetExceeded

    def runs_out(search, *args):
        try:
            search(*args)
        except BudgetExceeded:
            return True
        return False

    for n in range(1, 5):
        reps = enumerate_colorings(n)
        for k in range(41):
            budget = SearchBudget(max_nodes=k)
            out = str(tmp_path / f"atlas{n}-{k}.csv")
            assert runs_out(atlas, n, out, budget) == any(
                runs_out(spectrum, rep, budget) for rep in reps
            ), (n, k)


def test_atlas_names_the_orbit_that_ran_out_of_nodes(tmp_path, capsys):
    from convexmatch import SearchBudget, enumerate_colorings, spectrum
    from convexmatch.errors import BudgetExceeded

    def runs_out(rep):
        try:
            spectrum(rep, SearchBudget(max_nodes=36))
        except BudgetExceeded:
            return True
        return False

    reps = enumerate_colorings(4)
    stop = next(i for i, rep in enumerate(reps) if runs_out(rep))
    assert stop > 0
    out = tmp_path / "atlas.csv"
    argv = ["atlas", "--n", "4", "--out", str(out)]
    assert main(argv + ["--max-nodes", "36"]) == 1
    assert capsys.readouterr().err == (
        f"no: node budget exhausted on orbit {reps[stop].colors}\n")
    # the orbits before it are journaled, and a run without the cap
    # resumes from them
    journal = tmp_path / "atlas.csv.journal"
    assert [json.loads(line)["coloring"]
            for line in journal.read_text().splitlines()] == [
        rep.colors for rep in reps[:stop]]
    assert [p.name for p in tmp_path.iterdir()] == [journal.name]
    clean = tmp_path / "clean.csv"
    atlas(4, str(clean))
    assert main(argv) == 0
    assert out.read_bytes() == clean.read_bytes()
    assert not journal.exists()


def test_atlas_decodes_no_witness(tmp_path, monkeypatch):
    from convexmatch import search

    clean = tmp_path / "clean.csv"
    atlas(6, str(clean))

    def matching(self, chosen):
        raise AssertionError("the atlas decoded a witness")

    monkeypatch.setattr(search._Tables, "matching", matching)
    out = tmp_path / "atlas.csv"
    atlas(6, str(out))
    assert out.read_bytes() == clean.read_bytes()


# ----------------------------------------------------------------- render


def test_render_svg_structure(tmp_path, capsys):
    out = tmp_path / "m.svg"
    code = main([
        "render", "--coloring", "RRBB", "--matching", "0-2,1-3",
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert 'width="440" height="470"' in svg
    assert svg.count('stroke="#333333"') == 2  # one line per edge
    assert svg.count('r="7"') == 4  # one dot per point
    assert svg.count("#cc3333") == 2 and svg.count("#3366cc") == 2
    assert "crossings: 1" in svg


def test_render_rejects_invalid_matching(tmp_path, capsys):
    out = tmp_path / "bad.svg"
    code = main([
        "render", "--coloring", "RRBB", "--matching", "0-1,2-3",
        "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    capsys.readouterr()


def test_render_svg_function_validates():
    with pytest.raises(InvalidMatching):
        render_svg(Coloring("RRBB"), Matching.from_pairs([(0, 1), (2, 3)]))
