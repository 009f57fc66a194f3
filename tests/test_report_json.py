"""JSON reports: ``cli._indented_json`` is ``json.dumps(value, indent=2,
sort_keys=True)``, on the reports of every README command and on seeded
random trees, errors included; and every JSON report and atlas sidecar
keeps that layout."""

import enum
import json
import random

import pytest

from convexmatch import cli
from convexmatch.cli import _indented_json, main
from test_demos import readme_commands


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def readme_json_runs(tmp_path, monkeypatch, capsys):
    """(argv, report, stdout) of each README command under
    ``--format json``, run in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    reports = []
    format_report = cli._format_report

    def keep(report, fmt):
        reports.append(report)
        return format_report(report, fmt)

    monkeypatch.setattr(cli, "_format_report", keep)
    runs = []
    for argv in readme_commands():
        assert main(argv + ["--format", "json"]) == 0, argv
        runs.append((argv, reports.pop(), capsys.readouterr().out))
    return runs


def test_indented_json_matches_json_on_readme_reports(
        tmp_path, monkeypatch, capsys):
    runs = readme_json_runs(tmp_path, monkeypatch, capsys)
    assert {argv[0] for argv, _, _ in runs} == {
        "bound", "spectrum", "max", "find", "construct", "compose", "sweep",
        "atlas", "render",
    }
    for argv, report, _ in runs:
        assert _indented_json(report) == reference(report), argv


def test_json_reports_and_sidecar_keep_json_layout(
        tmp_path, monkeypatch, capsys):
    runs = readme_json_runs(tmp_path, monkeypatch, capsys)
    sidecars = [tmp_path / (argv[argv.index("--out") + 1] + ".json")
                for argv, _, _ in runs if argv[0] == "atlas"]
    texts = [text for _, _, text in runs]
    texts += [path.read_text() for path in sidecars]
    assert len(sidecars) == 1
    for text in texts:
        assert text == reference(json.loads(text)) + "\n"


class Count(int):
    pass


class Shade(enum.IntEnum):
    RED = 1


PIECES = ("a", "Z", " ", "é", "☃", "\U0001f600", "\x00", "\x1f", "\x7f",
          "\n", "\t", '"', "\\", "[", "]", ",", '", "', '": "', "null")
FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300,
          0.1, -2.5, 1e-300)


def random_text(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(5)))


def random_keys(rng):
    """Keys of one family, so that json can sort them."""
    family = rng.randrange(5)
    size = rng.randrange(1, 5)
    if family == 0:
        return [random_text(rng) for _ in range(size)]
    if family == 1:  # 9 sorts before 10 as a number, not as text
        return rng.sample([0, 1, 2, 9, 10, 11, -3, 100, True, False], size)
    if family == 2:
        return rng.sample(FLOATS, size)
    return [None] if family == 3 else [True]


def random_leaf(rng):
    return rng.choice((
        None, True, False, rng.randrange(-10**20, 10**20), 0, Count(7),
        Shade.RED, rng.choice(FLOATS), random_text(rng), [], {}, (),
    ))


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng)
    shape = rng.randrange(8)
    size = rng.randrange(1, 5)
    if shape == 0:
        return {key: random_tree(rng, depth - 1) for key in random_keys(rng)}
    if shape == 1:
        return [random_tree(rng, depth - 1) for _ in range(size)]
    if shape == 2:
        return tuple(random_tree(rng, depth - 1) for _ in range(size))
    if shape == 3:
        return (random_tree(rng, depth - 1),)
    if shape == 4:
        return [rng.randrange(-50, 500) for _ in range(size)]
    if shape == 5:  # edges and windows; sometimes one inner list is empty
        rows = [[rng.randrange(100) for _ in range(rng.randrange(1, 4))]
                for _ in range(size)]
        if rng.random() < 0.3:
            rows[rng.randrange(size)] = []
        return rows
    if shape == 6:
        return [rng.choice((0, 1, True, False, Count(2))) for _ in range(size)]
    return tuple(rng.randrange(9) for _ in range(size))


def test_indented_json_matches_json_on_random_trees():
    rng = random.Random(20231019)
    for _ in range(600):
        tree = random_tree(rng, 4)
        assert _indented_json(tree) == reference(tree), repr(tree)


@pytest.mark.parametrize("value, error", [
    ({1, 2}, TypeError),
    (object(), TypeError),
    ([1, {"a": {3}}], TypeError),
    ({"a": 1, 2: 3}, TypeError),
    ({"a": {None: 1, 0: 2}}, TypeError),
    ({(1, 2): 3}, TypeError),
    (10**4300, ValueError),
    ([10**4300], ValueError),
    ([[1, 10**4300]], ValueError),
    ({10**4300: 1}, ValueError),
], ids=["set", "object", "nested set", "mixed keys", "None and int keys",
        "tuple key", "long int", "long int in list", "long int in edges",
        "long int key"])
def test_indented_json_raises_json_errors(value, error):
    with pytest.raises(error):
        reference(value)
    with pytest.raises(error):
        _indented_json(value)
