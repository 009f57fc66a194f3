"""Steadiness of one workload: the evidence behind BENCHMARK.json's bounds.

    python3 bench/steady.py --workload compose --sets 2

Runs ``bench/run.py --trace 0`` ten times per set, once per seed (set
j, run i uses seed ``first_seed + 10 * j + i``) and prints, for each
end-to-end metric, each set's median, its quartile spread (Q3 - Q1 of
``statistics.quantiles(values, n=4)``, as a share of the median) and
the bound.  With two sets it also prints how much worse the second
median is than the first.  The runs are also written to
``bench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # runs per set, one seed each


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    sets = []
    for j in range(args.sets):
        runs = []
        for i in range(RUNS):
            seed = args.first_seed + j * RUNS + i
            result = one_run(args.workload, seed, seconds)
            runs.append({"seed": seed, **result})
            print(f"set {j + 1} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        sets.append(runs)

    print(f"\n{args.workload}: {RUNS} runs x {args.sets} sets of {seconds} s")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        line = f"  {name:12} {metric['unit']:4}"
        medians = []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            medians.append(statistics.median(values))
            line += (f"  median {medians[-1]:10.4f}"
                     f"  spread {spread(values):6.4f}")
        line += f"  bound {metric['bound']}"
        if len(medians) >= 2:
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / abs(medians[0])
            line += f"  second worse by {worse:7.4f}"
        print(line)
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    print(f"  failed share per run: {sorted(shares)}")
    correct = all(r["correct"] for runs in sets for r in runs)
    print(f"  all correct: {correct}")
    out = BENCH / "out" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(sets, indent=1) + "\n")
    return 0 if correct and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
