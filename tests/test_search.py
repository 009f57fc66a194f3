"""Tests for the exhaustive searches and the minmax sweep."""

import gc
import random
from dataclasses import replace
from math import comb

import pytest

import oracle
from convexmatch import (
    Coloring,
    Matching,
    SearchBudget,
    balanced_fourblock_bound,
    canonicalize,
    compose,
    crossing_number,
    enumerate_colorings,
    find_with_k,
    max_crossing,
    minmax_sweep,
    plane_matching,
    spectrum,
)
from convexmatch import construct, search
from convexmatch.cli import main
from convexmatch.core import edges_cross
from convexmatch.errors import (
    BudgetExceeded,
    MaximumMismatch,
    OutOfRange,
    SizeLimitExceeded,
    SweepMismatch,
    WitnessBelowBound,
)
from convexmatch.search import (
    _dfs,
    _sweep_job,
    _Tables,
)


def test_spectrum_frozen_small():
    assert spectrum(Coloring("RRBB")).achievable == (0, 1)
    assert spectrum(Coloring("RBRB")).achievable == (0,)
    assert spectrum(Coloring("RBRRBB")).achievable == (0, 1, 2)


def test_spectrum_matches_oracle():
    for n in range(1, 5):
        for rep in oracle.canonical_reps(n):
            spec = spectrum(Coloring(rep))
            assert list(spec.achievable) == oracle.spectrum(rep)
            assert spec.complete


def test_spectrum_witnesses_verify():
    for rep in oracle.canonical_reps(4):
        col = Coloring(rep)
        spec = spectrum(col)
        for k in spec.achievable:
            assert crossing_number(col, spec.witnesses[k]) == k


def test_spectrum_alternating_seven_frozen():
    spec = spectrum(Coloring("RB" * 7))
    assert spec.achievable == (0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                               15, 17, 18, 21)
    assert spec.missing == (1, 2, 16, 19, 20)


def test_spectrum_is_deterministic():
    first = spectrum(Coloring("RRBRBBRB"))
    second = spectrum(Coloring("RRBRBBRB"))
    assert first.achievable == second.achievable
    assert {k: m.sorted_edges for k, m in first.witnesses.items()} == \
        {k: m.sorted_edges for k, m in second.witnesses.items()}


def test_spectrum_budget_partial():
    with pytest.raises(BudgetExceeded) as info:
        spectrum(Coloring("RB" * 8), SearchBudget(max_nodes=50))
    partial = info.value.partial
    assert partial is not None
    assert not partial.complete
    # whatever was reached is still correct
    full = set(oracle.spectrum("RB" * 5))
    spec = spectrum(Coloring("RB" * 5))
    assert set(spec.achievable) == full


def test_spectrum_decodes_first_hits_in_hit_order():
    # every count not yet found is wanted, so the reference kernel's hits
    # are the first leaf of each count, in the order the search meets them
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 7)
        colors = list("R" * n + "B" * n)
        rng.shuffle(colors)
        col = Coloring("".join(colors))
        tables = _Tables(col)
        every = (1 << comb(n, 2) + 1) - 1

        def reference(max_nodes):
            found = {}

            def hit(count, chosen):
                found[count] = tables.matching(chosen)
                return every & ~sum(1 << k for k in found)

            try:
                oracle.reference_dfs(tables, every, max_nodes, hit)
            except BudgetExceeded:
                return found, False
            return found, True

        found, _ = reference(None)
        spec = spectrum(col)
        assert list(spec.witnesses.items()) == list(found.items())
        assert spec.achievable == tuple(sorted(found))
        # a budget cut hands back the reference's prefix
        for max_nodes in (0, 3, 17):
            prefix, complete = reference(max_nodes)
            if complete:
                assert spectrum(col, SearchBudget(max_nodes=max_nodes)) == spec
                continue
            with pytest.raises(BudgetExceeded) as cut:
                spectrum(col, SearchBudget(max_nodes=max_nodes))
            partial = cut.value.partial
            assert not partial.complete
            assert partial.achievable == tuple(sorted(prefix))
            assert list(partial.witnesses.items()) == list(prefix.items())
            assert list(prefix.items()) == list(found.items())[:len(prefix)]


def test_spectrum_decodes_each_witness_once_on_first_read(monkeypatch):
    decoded = []
    real = _Tables.matching

    def matching(self, chosen):
        decoded.append(chosen)
        return real(self, chosen)

    monkeypatch.setattr(_Tables, "matching", matching)
    full = spectrum(Coloring("RRBRBBRBRBRB"))
    with pytest.raises(BudgetExceeded) as cut:
        spectrum(Coloring("RB" * 8), SearchBudget(max_nodes=50))
    assert decoded == []
    for spec in (full, cut.value.partial):
        decoded.clear()
        witnesses = spec.witnesses
        assert len(decoded) == len(spec.achievable) > 0
        assert spec.witnesses is witnesses
        assert len(decoded) == len(spec.achievable)


def test_max_crossing_frozen():
    value, matching = max_crossing(Coloring("RB" + "R" * 7 + "B" * 7))
    assert value == 27
    value, _ = max_crossing(Coloring("RRBB"))
    assert value == 1


def test_max_crossing_matches_oracle():
    for n in range(1, 5):
        for rep in oracle.canonical_reps(n):
            col = Coloring(rep)
            value, matching = max_crossing(col)
            assert value == oracle.maximum(rep)
            assert crossing_number(col, matching) == value


def test_find_with_k():
    col = Coloring("RBRRBB")
    m = find_with_k(col, 2)
    assert m is not None and m.sorted_edges == ((0, 4), (1, 3), (2, 5))
    assert crossing_number(col, m) == 2
    assert find_with_k(Coloring("RBRB"), 1) is None
    assert find_with_k(col, -1) is None
    assert find_with_k(col, 50) is None


def no_tables(coloring):
    raise AssertionError(f"tables built for {coloring}")


def test_out_of_range_k_is_answered_without_a_search(monkeypatch):
    monkeypatch.setattr(search, "_Tables", no_tables)
    for n in range(1, 5):
        for colors in oracle.colorings(n):
            col = Coloring(colors)
            for k in (-1, comb(n, 2) + 1, 10**30):
                assert find_with_k(col, k, SearchBudget(max_nodes=0)) is None


def test_find_with_k_agrees_with_spectrum():
    for rep in oracle.canonical_reps(4):
        col = Coloring(rep)
        achievable = set(oracle.spectrum(rep))
        for k in range(8):
            m = find_with_k(col, k)
            if k in achievable:
                assert m is not None
                assert crossing_number(col, m) == k
            else:
                assert m is None


def test_extreme_targets_are_answered_without_a_search(monkeypatch):
    # k = 0 is the stack matching and k = C(n,2) the diameters, each the
    # oracle kernel's first hit at that count, or None where it has none
    monkeypatch.setattr(search, "_Tables", no_tables)
    budget = SearchBudget(max_nodes=0)
    for n in range(1, 7):
        for colors in oracle.colorings(n):
            col = Coloring(colors)
            for k in (0, comb(n, 2)):
                found = find_with_k(col, k, budget)
                assert (found and found.sorted_edges) == \
                    oracle.reference_first_hit(col, 1 << k), (colors, k)


def test_plane_target_is_the_first_plane_leaf_n7_to_10(monkeypatch):
    monkeypatch.setattr(search, "_Tables", no_tables)
    rng = random.Random(131)
    for n in range(7, 11):
        for _ in range(10):
            colors = ["R"] * n + ["B"] * n
            rng.shuffle(colors)
            col = Coloring("".join(colors))
            found = find_with_k(col, 0, SearchBudget(max_nodes=0))
            first = oracle.reference_first_hit(col, 1)
            assert found.sorted_edges == first, col


def reference_maximum(col):
    """The oracle climb's maximum and its witness as sorted pairs."""
    tables = oracle.reference_tables(col)
    count, chosen = oracle.reference_max_search(tables, None, None)
    return count, oracle.reference_pairs(tables, chosen)


def test_max_crossing_equals_reference_climb():
    # the first hit at the closed-form maximum is the leaf the climb
    # through ever larger counts ends on: same count, same edge mask
    cases = [c for n in range(1, 9) for c in enumerate_colorings(n)]
    rng = random.Random(137)
    for n in (9, 10):
        for _ in range(4):
            colors = ["R"] * n + ["B"] * n
            rng.shuffle(colors)
            cases.append(Coloring("".join(colors)))
    for col in cases:
        count, matching = max_crossing(col)
        assert (count, matching.sorted_edges) == reference_maximum(col), col


def test_every_matching_misses_the_walk_deviation():
    # steps 1-4 of the _walk_maximum proof, by brute force: every
    # matching's sum of d(e) = |n - 1 - a| is at least twice the least
    # deviation D* of the core-surplus walk, some matching meets it, and
    # the maximum is C(n,2) - D*
    for n in range(1, 7):
        for rep in oracle.canonical_reps(n):
            walk = oracle._core_surplus(Coloring(rep))
            assert search._core_surplus(rep) == walk
            least = min(sum(abs(s - m) for s in walk)
                        for m in range(-n, n + 1))
            sums = [sum(abs(n - 1 - (j - i - 1)) for i, j in pairs)
                    for pairs in oracle.all_matchings(rep)]
            assert min(sums) == 2 * least, rep
            assert search._walk_maximum(walk) == comb(n, 2) - least \
                == oracle.maximum(rep), rep


def test_max_crossing_alarms_below_the_closed_form(monkeypatch, capsys):
    # a closed form one above the true maximum leaves the search with no
    # leaf to find: a falsification alarm, exit code 3
    walk_maximum = search._walk_maximum
    monkeypatch.setattr(search, "_walk_maximum",
                        lambda values: walk_maximum(values) + 1)
    col = Coloring("RRBRBB")
    with pytest.raises(MaximumMismatch):
        max_crossing(col)
    assert main(["max", "--coloring", str(col)]) == 3
    assert "FALSIFICATION ALARM" in capsys.readouterr().err


def test_enumerate_colorings():
    counts = [len(enumerate_colorings(n)) for n in range(1, 7)]
    assert counts == [1, 2, 3, 7, 13, 35]
    for n in range(1, 9):
        reps = enumerate_colorings(n)
        assert [str(c) for c in reps] == oracle.canonical_reps(n)
    with pytest.raises(OutOfRange):
        enumerate_colorings(0)


def test_necklaces_are_the_least_rotations():
    for n in range(1, 8):
        assert list(search._necklaces(n)) == oracle.reference_necklaces(n), n


def test_enumerate_colorings_matches_reference_filter():
    for n in range(1, 11):
        got = [c.colors for c in enumerate_colorings(n)]
        assert got == [c.colors for c in oracle.reference_colorings(n)], n


def test_orbit_counts_match_burnside():
    for n in range(1, 12):
        assert len(enumerate_colorings(n)) == oracle.burnside_orbits(n), n
    assert oracle.burnside_orbits(11) == 8359
    assert len(enumerate_colorings(12)) == oracle.burnside_orbits(12) == 28968


def test_minmax_sweep_frozen():
    expected = {
        2: (0, ["BRBR"]),
        3: (2, ["BBRBRR"]),
        4: (4, ["BBBRRBRR", "BBRRBBRR", "BRBRBRBR"]),
        5: (7, ["BBBRRBBRRR"]),
        6: (10, ["BBBRRRBBBRRR"]),
    }
    for n, (value, minimizers) in expected.items():
        got_value, got_cols = minmax_sweep(n)
        assert got_value == value == balanced_fourblock_bound(n).value
        assert [str(c) for c in got_cols] == minimizers


def test_minmax_sweep_matches_oracle():
    for n in (2, 3, 4):
        value, cols = minmax_sweep(n)
        expected_value, expected_min = oracle.min_max(n)
        assert value == expected_value
        assert [str(c) for c in cols] == expected_min


def test_minmax_sweep_contains_balanced_fourblock():
    from convexmatch import balanced_fourblock_coloring

    for n in range(2, 7):
        _, cols = minmax_sweep(n)
        canon, _ = canonicalize(balanced_fourblock_coloring(n))
        assert str(canon) in {str(c) for c in cols}


def test_minmax_sweep_parallel_equals_sequential():
    seq_value, seq_cols = minmax_sweep(4)
    par_value, par_cols = minmax_sweep(4, SearchBudget(jobs=2))
    assert (seq_value, [str(c) for c in seq_cols]) == \
        (par_value, [str(c) for c in par_cols])


def sweep(n, budget=None):
    """Sweep value, minimizer strings and settled counts."""
    settled = {}
    value, minimizers = minmax_sweep(n, budget, settled)
    return value, [str(c) for c in minimizers], settled


def test_minmax_sweep_jobs2_equals_jobs1_n6():
    assert sweep(6, SearchBudget(jobs=2)) == sweep(6)


def test_sweep_frozen_with_settled_counts():
    expected = {
        7: (15, ["BBBBRRRBBBRRRR"]),
        8: (20, ["BBBBBRRRRBBBRRRR", "BBBBRRRRBBBBRRRR"]),
        9: (26, ["BBBBBRRRRBBBBRRRRR"]),
    }
    settled = {2: (1, 1), 3: (2, 1), 4: (4, 3), 5: (12, 1), 6: (34, 1),
               7: (84, 1), 8: (255, 2), 9: (764, 1)}
    for n, (witness, searched) in settled.items():
        value, minimizers, counts = sweep(n, SearchBudget(max_n=9))
        assert counts == {"witness": witness, "search": searched}
        assert witness + searched == len(enumerate_colorings(n))
        if n in expected:
            assert (value, minimizers) == expected[n]


def test_sweep_job_equals_capped_search():
    # an orbit the job settles as tight has the bound as its maximum; one
    # it settles otherwise has a larger one, or its witness is not a
    # survivor's
    for n in range(1, 8):
        bound = balanced_fourblock_bound(n).value
        for rep in enumerate_colorings(n):
            capped = oracle.reference_max_search(
                oracle.reference_tables(rep), bound, None)
            try:
                how = _sweep_job((rep.colors, bound, None))
            except SweepMismatch:
                how = "witness"
            assert how in ("witness", "beaten", "tight"), rep
            assert (how == "tight") == (capped is not None), rep
            assert capped is None or capped[0] == bound, rep


def test_sweep_alarms_without_witnesses(monkeypatch):
    # a survivor's witness must count the bound: the crossing-free
    # matching instead is an alarm, whatever the worker count, and the
    # survivor generator does not read the witness
    bound = balanced_fourblock_bound(6).value
    survivors = search._screen_survivors(6, bound)
    monkeypatch.setattr(search, "lemma3_witness", plane_matching)
    for jobs in (1, 2):
        with pytest.raises(SweepMismatch, match="counts 0, not the "
                           f"closed-form value {bound}"):
            minmax_sweep(6, SearchBudget(jobs=jobs))
    assert search._screen_survivors(6, bound) == survivors


def test_sweep_with_screen_equals_sweep_without():
    # the sweep builds only the screen's survivors; a capped search of
    # every orbit, with no witness, finds the same value and minimizers,
    # and the sweep's two counts add up to the orbit count
    for n in range(2, 11):
        value, minimizers, counts = sweep(n, SearchBudget(max_n=10))
        expected = oracle.reference_sweep(n)
        assert (value, minimizers) == \
            (expected[0], [str(c) for c in expected[1]]), n
        assert counts["witness"] + counts["search"] == \
            len(enumerate_colorings(n)), n


def test_screen_survivors_are_the_screened_orbits():
    # the walk generator against the closed-form screen: the validating
    # count of each orbit's half-turn join, at most the bound
    for n in range(1, 13):
        bound = balanced_fourblock_bound(n).value
        reps = enumerate_colorings(n)
        screened = [
            c.colors for c in reps
            if crossing_number(
                c, Matching.from_pairs(oracle._half_turn(c)[0])) <= bound
        ]
        assert search._screen_survivors(n, bound) == screened, n
        assert search._orbit_count(n) == len(reps), n


def test_orbit_count_matches_burnside():
    for n in range(1, 25):
        assert search._orbit_count(n) == oracle.burnside_orbits(n), n


def test_sweep_does_not_enumerate_orbits(monkeypatch):
    def refused(n):
        raise AssertionError("the sweep enumerated every orbit")

    monkeypatch.setattr(search, "enumerate_colorings", refused)
    assert sweep(8) == (20, ["BBBBBRRRRBBBRRRR", "BBBBRRRRBBBBRRRR"],
                        {"witness": 255, "search": 2})


def test_sweep_job_counts_one_join(monkeypatch):
    # each survivor's witness is its only validated count: the job builds
    # and recounts no join of its own
    calls = []
    for module in (construct, search):
        if hasattr(module, "crossing_number"):
            count = module.crossing_number
            monkeypatch.setattr(module, "crossing_number", lambda c, m, f=count:
                                calls.append(c.colors) or f(c, m))
    bound = balanced_fourblock_bound(8).value
    survivors = search._screen_survivors(8, bound)
    assert len(survivors) == 2
    for colors in survivors:
        calls.clear()
        assert _sweep_job((colors, bound, None)) == "tight"
        assert calls == [colors]


def test_sweep_mismatch_when_a_survivor_beats_the_bound(monkeypatch):
    # the alternating orbit's half-turn join counts above the bound, so
    # a generator that lets it through contradicts the screen
    generate = search._screen_survivors
    monkeypatch.setattr(search, "_screen_survivors", lambda n, bound: sorted(
        generate(n, bound) + ["BR" * n]))
    with pytest.raises(SweepMismatch, match="BRBRBRBRBRBRBRBR"):
        minmax_sweep(8)


def test_sweep_drops_a_survivor_the_search_beats(monkeypatch):
    # an orbit whose witness counts the bound but whose maximum is larger
    # is not a minimizer: the alternating orbit let through the screen
    # with a witness faked to the bound
    generate = search._screen_survivors
    monkeypatch.setattr(search, "_screen_survivors", lambda n, bound: sorted(
        generate(n, bound) + ["BR" * n]))
    monkeypatch.setattr(search, "lemma3_witness", lambda coloring: (
        None, balanced_fourblock_bound(coloring.n).value))
    assert sweep(8)[:2] == (20, ["BBBBBRRRRBBBRRRR", "BBBBRRRRBBBBRRRR"])


def test_witness_below_bound_stops_the_sweep(monkeypatch, capsys):
    # a witness below the bound is an alarm, not an orbit left to search
    true_bound = balanced_fourblock_bound(5)
    fake = replace(true_bound, value=true_bound.value + 1)
    monkeypatch.setattr(construct, "balanced_fourblock_bound", lambda n: fake)
    with pytest.raises(WitnessBelowBound):
        minmax_sweep(5)
    assert main(["sweep", "--n", "5"]) == 3
    assert capsys.readouterr().err.startswith("FALSIFICATION ALARM:")


def test_sweep_mismatch_when_bound_is_off(monkeypatch):
    true_bound = balanced_fourblock_bound(5)
    for shift in (-1, 1):
        fake = replace(true_bound, value=true_bound.value + shift)
        monkeypatch.setattr(search, "balanced_fourblock_bound",
                            lambda n: fake)
        for jobs in (1, 2):
            with pytest.raises(SweepMismatch):
                minmax_sweep(5, SearchBudget(jobs=jobs))


def test_minmax_sweep_honours_max_nodes():
    for jobs in (1, 2):
        with pytest.raises(BudgetExceeded):
            minmax_sweep(6, SearchBudget(max_nodes=1, jobs=jobs))
        value, minimizers = minmax_sweep(
            6, SearchBudget(max_nodes=10**6, jobs=jobs))
        assert (value, [str(c) for c in minimizers]) == (10, ["BBBRRRBBBRRR"])


def test_sweep_node_budget_boundary():
    # each survivor spends the nodes the reference kernel spends wanting
    # every count above the bound (229,386 at n = 14 when the search
    # climbed from -1); the sweep completes on the most of them and runs
    # out one node below, whatever the worker count
    for n, nodes in ((7, 64), (8, 245), (14, 111_361)):
        bound = balanced_fourblock_bound(n).value
        every = (1 << comb(n, 2) + 1) - 1
        above = every >> (bound + 1) << (bound + 1)
        spent = []
        for colors in search._screen_survivors(n, bound):
            tables = oracle.reference_tables(Coloring(colors))
            used = oracle.reference_dfs(tables, above, None, lambda c, m: 0)
            assert _sweep_job((colors, bound, used)) == "tight"
            assert _sweep_job((colors, bound, used - 1)) == "budget"
            spent.append(used)
        assert max(spent) == nodes, n
    for n, nodes in ((7, 64), (8, 245)):
        for jobs in (1, 2):
            minmax_sweep(n, SearchBudget(max_nodes=nodes, jobs=jobs))
            with pytest.raises(BudgetExceeded):
                minmax_sweep(n, SearchBudget(max_nodes=nodes - 1, jobs=jobs))


def test_sweep_jobs_clamped_to_cpu_count(monkeypatch):
    import multiprocessing

    workers = []

    class FakePool:
        def __init__(self, processes):
            workers.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, iterable, chunksize=None):
            return list(map(func, iterable))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    # n = 4 leaves three orbits to search and n = 6 one, and the pool
    # never has more workers than orbits
    for n, pools_at_3 in ((4, [3]), (6, [])):
        expected = sweep(n)
        for cpus, pools in ((None, []), (1, []), (3, pools_at_3)):
            workers.clear()
            monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
            assert sweep(n, SearchBudget(jobs=64)) == expected
            assert workers == pools


def test_size_limits():
    with pytest.raises(SizeLimitExceeded):
        spectrum(Coloring("RB" * 11))
    with pytest.raises(SizeLimitExceeded, match="search limit 10"):
        minmax_sweep(11)
    # explicit budget lifts the gate; the node cap then fires instead,
    # which proves the size check ran first and was satisfied
    with pytest.raises(BudgetExceeded):
        spectrum(Coloring("RB" * 11), SearchBudget(max_nodes=10, max_n=12))


def test_size_limit_env_override(monkeypatch):
    monkeypatch.setenv("CONVEXMATCH_MAX_N", "12")
    with pytest.raises(BudgetExceeded):
        spectrum(Coloring("RB" * 11), SearchBudget(max_nodes=10))
    monkeypatch.setenv("CONVEXMATCH_MAX_N", "5")
    with pytest.raises(SizeLimitExceeded):
        spectrum(Coloring("RB" * 6))


def test_tables_masks_match_edges_cross():
    rng = random.Random(41)
    for n in range(1, 9):
        for _ in range(6):
            colors = ["R"] * n + ["B"] * n
            rng.shuffle(colors)
            col = Coloring("".join(colors))
            tables = _Tables(col)
            edges = [(r, b) for r in tables.reds for b in tables.blues]
            for x, e in enumerate(edges):
                for y, f in enumerate(edges):
                    crossing = not set(e) & set(f) and edges_cross(
                        e, f, col.size)
                    assert bool(tables.masks[x] >> y & 1) == crossing


def test_tables_match_reference():
    def same(colors):
        col = Coloring(colors)
        tables, reference = _Tables(col), oracle.reference_tables(col)
        for name in ("n", "reds", "blues", "masks", "reds_in", "blues_in"):
            assert getattr(tables, name) == getattr(reference, name), \
                (colors, name)

    for n in range(1, 7):
        for colors in oracle.colorings(n):
            same(colors)
    rng = random.Random(17)
    for n in range(7, 11):
        for _ in range(50):
            chars = ["R"] * n + ["B"] * n
            rng.shuffle(chars)
            same("".join(chars))


def test_search_budget_rejects_bad_fields():
    for fields in ({"max_nodes": -1}, {"jobs": 0}, {"jobs": -3},
                   {"max_n": 0}):
        with pytest.raises(OutOfRange):
            SearchBudget(**fields)
    # only a plain int is a count: no float, text or bool
    for name in ("max_nodes", "jobs", "max_n"):
        for value in (2.5, "5", True):
            with pytest.raises(OutOfRange, match=name):
                SearchBudget(**{name: value})
    with pytest.raises(OutOfRange):
        SearchBudget(jobs=None)
    assert SearchBudget(max_nodes=0).max_nodes == 0


def test_size_limit_env_rejects_bad_values(monkeypatch):
    # the sweep reads the search gate's variable
    for run in (lambda: spectrum(Coloring("RB")), lambda: minmax_sweep(2)):
        for text in ("abc", "0", "-2", "1.5"):
            monkeypatch.setenv("CONVEXMATCH_MAX_N", text)
            with pytest.raises(OutOfRange, match="CONVEXMATCH_MAX_N"):
                run()
        monkeypatch.delenv("CONVEXMATCH_MAX_N")


def first_by_count(rep):
    """First matching of each crossing count in permutation order."""
    first = {}
    for pairs in oracle.all_matchings(rep):
        first.setdefault(oracle.count_crossings(pairs), tuple(sorted(pairs)))
    return first


def test_witnesses_are_first_in_lexicographic_order():
    for n in range(1, 7):
        for rep in oracle.canonical_reps(n):
            col = Coloring(rep)
            first = first_by_count(rep)
            spec = spectrum(col)
            assert {k: m.sorted_edges for k, m in spec.witnesses.items()} \
                == first, rep
            for k in range(n * (n - 1) // 2 + 1):
                found = find_with_k(col, k)
                assert (found and found.sorted_edges) == first.get(k), (rep, k)
            value, matching = max_crossing(col)
            assert value == max(first)
            assert matching.sorted_edges == first[value], rep


def test_witnesses_are_first_in_lexicographic_order_n7():
    rng = random.Random(97)
    for _ in range(20):
        colors = ["R"] * 7 + ["B"] * 7
        rng.shuffle(colors)
        rep = "".join(colors)
        col = Coloring(rep)
        first = first_by_count(rep)
        spec = spectrum(col)
        assert {k: m.sorted_edges for k, m in spec.witnesses.items()} \
            == first, rep
        for k in range(-1, 7 * 6 // 2 + 2):
            found = find_with_k(col, k)
            assert (found and found.sorted_edges) == first.get(k), (rep, k)
        value, matching = max_crossing(col)
        assert value == max(first)
        assert matching.sorted_edges == first[value], rep


def test_max_nodes_boundary():
    # nodes spent by spectrum, max_crossing and find_with_k(k=2), pinned
    # so that a change to pruning shows; RBRBRBRB has no matching with 2
    # crossings, BBBRRRRB reaches C(4,2) = 6, where spectrum stops as
    # nothing more is wanted, and max_crossing stops at its first leaf
    # with the closed-form maximum
    spent = {
        "RRBRBB": (11, 4, 4),
        "RBRBRBRB": (40, 8, 25),
        "BBBRRRRB": (33, 8, 6),
    }
    runs = (
        lambda col, budget: spectrum(col, budget),
        lambda col, budget: max_crossing(col, budget),
        lambda col, budget: find_with_k(col, 2, budget),
    )
    for colors, expected in spent.items():
        col = Coloring(colors)
        for run, nodes in zip(runs, expected):
            run(col, SearchBudget(max_nodes=nodes))
            with pytest.raises(BudgetExceeded):
                run(col, SearchBudget(max_nodes=nodes - 1))


def test_max_crossing_nodes_on_fourblock_minimizers():
    # the per-edge completion interval settles these in a few thousand
    # nodes; an interval that lets every remaining edge cross every
    # chosen edge needs 2,253,798 at n = 10, and a climb through ever
    # larger counts 3,956 and 28,160, not the first hit at the maximum
    for colors, value, nodes in (
        ("BBBBBRRRRRBBBBBRRRRR", 32, 1749),
        ("BBBBBBRRRRRRBBBBBBRRRRRR", 48, 10990),
    ):
        col = Coloring(colors)
        got, _ = max_crossing(col, SearchBudget(max_nodes=nodes, max_n=12))
        assert got == value == balanced_fourblock_bound(col.n).value
        with pytest.raises(BudgetExceeded):
            max_crossing(col, SearchBudget(max_nodes=nodes - 1, max_n=12))


def wanted_rules(n, k):
    """The four ways a search wants counts, as (wanted, rule) pairs:
    ``rule(wanted, count)`` is the mask ``hit`` returns after a hit.
    Every count (spectrum), counts above the incumbent (the maximum),
    the single count k (find) and every count above the floor k, up to
    the first hit (the sweep)."""
    every = (1 << comb(n, 2) + 1) - 1
    return (
        (every, lambda wanted, count: wanted & ~(1 << count)),
        (every, lambda wanted, count: every >> (count + 1) << (count + 1)),
        (1 << k, lambda wanted, count: 0),
        (every >> (k + 1) << (k + 1), lambda wanted, count: 0),
    )


def recorder(wanted, rule):
    """A hit callback that follows ``rule`` and logs its calls."""
    calls = []

    def hit(count, chosen):
        nonlocal wanted
        calls.append((count, chosen))
        wanted = rule(wanted, count)
        return wanted

    return calls, hit


def run_kernel(kernel, tables, wanted, rule, max_nodes):
    """The hit calls of one run, and whether it ran out of nodes."""
    calls, hit = recorder(wanted, rule)
    try:
        kernel(tables, wanted, max_nodes, hit)
    except BudgetExceeded:
        return calls, True
    return calls, False


def test_dfs_matches_reference_kernel():
    # same hits, and the same budget boundary: the kernel completes on
    # the reference's node count and runs out one node below it
    rng = random.Random(113)
    cases = [c for n in range(1, 7) for c in oracle.colorings(n)]
    for _ in range(30):
        n = rng.randint(7, 9)
        colors = ["R"] * n + ["B"] * n
        rng.shuffle(colors)
        cases.append("".join(colors))
    for index, colors in enumerate(cases):
        tables = _Tables(Coloring(colors))
        k = index % (comb(tables.n, 2) + 2)
        for wanted, rule in wanted_rules(tables.n, k):
            expected, hit = recorder(wanted, rule)
            nodes = oracle.reference_dfs(tables, wanted, None, hit)
            assert run_kernel(_dfs, tables, wanted, rule, nodes) == (
                expected, False), colors
            calls, out = run_kernel(_dfs, tables, wanted, rule, nodes - 1)
            assert out and calls == expected[:len(calls)], colors


def test_dfs_budgets_at_the_root_level_match_reference():
    # n <= 2: the root itself settles the last red, so every budget runs
    # out inside or right after the in-place level
    for colors in (*oracle.colorings(1), *oracle.colorings(2)):
        tables = _Tables(Coloring(colors))
        for k in range(3):
            for wanted, rule in wanted_rules(tables.n, k):
                for max_nodes in range(7):
                    assert run_kernel(_dfs, tables, wanted, rule,
                                      max_nodes) == run_kernel(
                        oracle.reference_dfs, tables, wanted, rule,
                        max_nodes), (colors, k, max_nodes)


def test_spectrum_nodes_on_alternating_ten():
    # 73,645 of these nodes only prove that 1 and 2 crossings are missing
    col = Coloring("RB" * 10)
    spec = spectrum(col, SearchBudget(max_nodes=75_137))
    assert spec.missing == (1, 2, 41, 42, 43, 44, 45)
    with pytest.raises(BudgetExceeded):
        spectrum(col, SearchBudget(max_nodes=75_136))


def test_searches_leave_no_reference_cycles(tmp_path, capsys):
    # each recursive closure lets go of itself once its search returns,
    # so a search leaves nothing for the cyclic collector
    col = Coloring("RRBRBBRBRBBRRB")
    wide = Coloring("RB" * 10 + "RRBB" * 5)
    out = str(tmp_path / "atlas.csv")
    calls = {
        "spectrum": lambda: spectrum(col),
        "max_crossing": lambda: max_crossing(col),
        "find_with_k": lambda: find_with_k(col, 5),
        "minmax_sweep": lambda: minmax_sweep(6),
        "enumerate_colorings": lambda: enumerate_colorings(6),
        "compose": lambda: compose(wide, 20),
        "cli spectrum": lambda: main(["spectrum", "--coloring", str(col)]),
        "cli compose": lambda: main(["compose", "--coloring", str(wide),
                                     "--k", "20"]),
        "cli construct witness": lambda: main([
            "construct", "witness", "--coloring", str(wide)]),
        "cli sweep": lambda: main(["sweep", "--n", "6", "--jobs", "1"]),
        "cli atlas": lambda: main(["atlas", "--n", "6", "--out", out]),
    }
    for name, call in calls.items():
        call()  # warm-up: lazy imports and caches
        capsys.readouterr()
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0, name
        finally:
            gc.enable()
