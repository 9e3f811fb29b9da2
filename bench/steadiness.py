"""Steadiness command: do two sets of runs of the same code agree?

    python3 bench/steadiness.py [--workloads W ...] [--runs 10] [--seed 1]

Runs ``bench/run.py`` ``--runs`` times per set and workload, each run
with its own seed, alternating between the two sets.  For every
workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median) and the
verdict against the metric's bound in ``BENCHMARK.json``: agree,
disagree, or unresolved when a set spreads wider than the bound.  The
spread of ``setup_s`` is reported but not judged.  A run that fails an
output check makes the command exit with status 1.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402

UNJUDGED_SPREAD = {"setup_s"}


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="two sets of benchmark runs, compared")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    metrics = spec["end_to_end"]
    values = {}     # (workload, set, metric) -> list of values
    ok = True
    seed = args.seed
    for workload in args.workloads:
        for _ in range(args.runs):
            for which in ("A", "B"):
                line = _run(workload, seed, args.seconds)
                ok &= bool(line["correct"]) and line["failed"] == 0
                print(f"{workload} set {which} seed {seed}: " + ", ".join(
                    f"{m['name']}={line['metrics'][m['name']]['value']:.5g}" for m in metrics),
                    file=sys.stderr, flush=True)
                for m in metrics:
                    values.setdefault((workload, which, m["name"]), []).append(
                        line["metrics"][m["name"]]["value"])
                seed += 1

    rows = []
    header = (f"{'workload':16} {'metric':15} {'set A median [q1, q3]':34} {'spread':>7} "
              f"{'set B median [q1, q3]':34} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    for workload in args.workloads:
        for m in metrics:
            a = values[(workload, "A", m["name"])]
            b = values[(workload, "B", m["name"])]
            verdict = stats.verdict(a, b, m["bound"],
                                    judge_spread=m["name"] not in UNJUDGED_SPREAD)
            cells = []
            for vals in (a, b):
                q1, med, q3 = stats.quartiles(vals)
                cells.append((f"{med:.5g} [{q1:.5g}, {q3:.5g}]", stats.spread(vals)))
            print(f"{workload:16} {m['name']:15} {cells[0][0]:34} {cells[0][1]:7.4f} "
                  f"{cells[1][0]:34} {cells[1][1]:7.4f} {m['bound']:6.3f}  {verdict}")
            rows.append({"workload": workload, "metric": m["name"], "bound": m["bound"],
                         "set_a": a, "set_b": b, "verdict": verdict,
                         "median_a": statistics.median(a), "median_b": statistics.median(b),
                         "spread_a": cells[0][1], "spread_b": cells[1][1]})
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = results / f"steadiness-{stamp}.json"
    path.write_text(json.dumps({"runs_per_set": args.runs, "seconds": args.seconds,
                                "first_seed": args.seed, "all_correct": ok,
                                "rows": rows}, indent=1))
    print(f"# results: {path.relative_to(ROOT)}; every output check passed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
