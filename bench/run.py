"""phytoperiod benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``BENCHMARK.json`` and ``bench/README.md``) from
the root of a source checkout.  With ``--trace 0`` it measures the
end-to-end metrics with tracing off; with ``--trace 1`` it measures an
untraced and a traced half and reports the per-layer metrics.  Times
of the end-to-end metrics are in reference seconds: CPU seconds scaled
by the host speed measured around each operation (``calibrate.py``); the
wall-second figures are printed beside them.  Every operation's output
is checked.  Human-readable lines go first, the last
line of standard output is the JSON result, and the raw measurements go
to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import stats  # noqa: E402

# Fresh processes that only set up, timed in addition to the workload
# process itself; setup_s is the median of all of them.
SETUP_PROBES = 11
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _parse_args(argv, spec):
    p = argparse.ArgumentParser(description="phytoperiod benchmark runner")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def _worker(args, work: Path, extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--work", str(work), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    timeout = SETUP_TIMEOUT_S if "--setup-only" in extra else WORKER_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with status {proc.returncode}")
    return proc


def _reference_start() -> float:
    try:
        return calibrate.reference_start(SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"reference start exceeded {SETUP_TIMEOUT_S} s") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"reference start exited with status {exc.returncode}") from exc


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "phytoperiod").glob("*.py")))


def _end_to_end(raw: dict, setup: list, setup_wall: list) -> tuple:
    """Metrics in reference seconds (see ``calibrate.py``), and notes that
    include the same figures in wall seconds."""
    timed = [op for op in raw["ops"] if op["phase"] == "timed"]
    ref = [op["latency_ref_s"] for op in timed]
    wall = [op["latency_s"] for op in timed]
    tail, tail_wall = stats.tail_latency(ref), stats.tail_latency(wall)
    if tail is None:
        raise BenchError(f"{len(timed)} timed operations are too few for latency_tail_s")
    attempted = len(raw["ops"])
    failed = sum(op["error"] is not None for op in raw["ops"])
    metrics = {
        "ops_per_s": len(ref) / sum(ref),
        "latency_p50_s": statistics.median(ref),
        "latency_tail_s": tail[1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {"latency_tail_percentile": tail[0], "timed_operations": len(timed),
             "error_rate": failed / attempted,
             "wall_ops_per_s": len(wall) / sum(wall),
             "wall_latency_p50_s": statistics.median(wall),
             "wall_latency_tail_s": tail_wall[1],
             "wall_setup_s": statistics.median(setup_wall),
             "host_speed": statistics.median(w / r for w, r in zip(wall, ref)),
             "on_cpu_share": sum(op["cpu_s"] for op in timed) / sum(wall)}
    return metrics, notes


def run(args, spec) -> dict:
    if not (ROOT / "src" / "phytoperiod" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'phytoperiod'}")
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_wall, setup_ref = [], []
        for i in range(SETUP_PROBES):
            setup_ref.append(_reference_start())
            t0 = time.monotonic()
            proc = _worker(args, work / f"probe-{i}", ["--setup-only"])
            setup_wall.append(float(proc.stdout.split()[-1]) - t0)
        result_path = work / "raw.json"
        setup_ref.append(_reference_start())
        t0 = time.monotonic()
        _worker(args, work / "run", ["--result", str(result_path)])
        with open(result_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        setup_wall.append(raw["ready"] - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # each process's set-up scaled by the reference start timed right before it
    setup = [w * calibrate.START_REF_S / c for w, c in zip(setup_wall, setup_ref)]

    attempted = len(raw["ops"])
    failures = [op for op in raw["ops"] if op["error"] is not None]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        missing = set(names) - raw["layers"].keys()
        if missing:
            raise BenchError(f"traced run lacks per-layer metrics {sorted(missing)}")
        metrics = {name: raw["layers"][name] for name in names}
        notes = {"error_rate": len(failures) / attempted}
    else:
        values, notes = _end_to_end(raw, setup, setup_wall)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_commit": _git_commit(), "python": raw["python"], "numpy": raw["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "src_phytoperiod_lines": _source_lines(),
        "metrics": metrics, "notes": notes, "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall, "setup_reference_starts_s": setup_ref,
        "failures": [{"index": op["index"], "slot": op["slot"], "reason": op["error"]}
                     for op in failures],
        "ops": raw["ops"],
    }
    if args.trace:
        record["spans"] = raw["spans"]
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for op in failures:
        print(f"operation {op['index']} (input {op['slot']}) failed: {op['error']}",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['git_commit'][:12]} results={path.relative_to(ROOT)}")
    for name, entry in metrics.items():
        shown = "not observed" if entry.get("observed") is False else f"{entry['value']:.6g}"
        print(f"{name} = {shown} {entry['unit']}")
    for name, value in notes.items():
        print(f"{name} = {value:.6g}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    try:
        spec = _load_spec()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    args = _parse_args(argv, spec)
    try:
        line = run(args, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
