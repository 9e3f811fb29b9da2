"""The workload process: one interpreter, one caller thread, closed loop.

Started by ``run.py``; not meant to be run by hand.  It imports the
program from ``<root>/src``, generates the workload's inputs from the
seed, writes them as config files and reports the moment timing can
begin.  Unless ``--setup-only`` is given it then runs one warm-up
operation on every input and the timed operations back to back through
``phytoperiod.cli.main``, each into a fresh output directory and with
the calibration kernel timed between them, checks every operation's output after the clock has
stopped and writes the raw measurements as JSON to ``--result``.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

# Operation time between two runs of the calibration kernel.
CALIBRATE_EVERY_S = 0.02


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", type=Path)
    return p.parse_args(argv)


def _import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy
    import phytoperiod
    if not Path(phytoperiod.__file__).resolve().is_relative_to(src):
        raise ImportError(f"phytoperiod imported from {phytoperiod.__file__}, not {src}")
    return numpy


class Loop:
    """Runs operations of one workload and keeps what they did."""

    def __init__(self, workload, docs, paths, ops_dir, cli, workloads):
        self.workload = workload
        self.docs = docs
        self.paths = paths
        self.ops_dir = ops_dir
        self.cli = cli
        self.w = workloads
        self.pool = max(1, len(docs))
        self.ops = []

    def run_one(self, phase: str, slot: int, recorder=None) -> dict:
        index = len(self.ops)
        out = self.ops_dir / f"{index:06d}"
        doc = self.docs[slot] if self.docs else None
        argv = self.w.op_argv(self.workload, self.paths[slot] if self.docs else None, out)
        if recorder is not None:
            recorder.op = index
            recorder.period = self.w.op_period(self.workload, doc)
            root = recorder.begin("bench.op")
        error = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            status = self.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # an operation that raises is a failure, the loop goes on
            status = None
            error = "raised " + "".join(traceback.format_exception_only(exc)).strip()
        latency = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        if recorder is not None:
            recorder.end(root)
        op = {"index": index, "phase": phase, "slot": slot, "status": status,
              "latency_s": latency, "cpu_s": cpu, "error": error}
        self.ops.append(op)
        return op

    def run_phase(self, phase: str, seconds: float, min_ops: int, recorder=None) -> int:
        """Closed loop for at least ``seconds`` and ``min_ops`` operations,
        ending on a whole pass over the input pool so that every input
        weighs the same; returns the number of operations.

        The calibration kernel runs before the first operation and after
        every batch of operations that took ``CALIBRATE_EVERY_S``; each
        operation's ``latency_ref_s`` is its thread CPU time scaled by the
        two calibrations around its batch.
        """
        done = 0
        batch = []
        before = calibrate.measure()
        t0 = time.perf_counter()
        while True:
            batch.append(self.run_one(phase, done % self.pool, recorder))
            done += 1
            stop = (time.perf_counter() - t0 >= seconds and done >= min_ops
                    and done % self.pool == 0)
            if stop or sum(op["latency_s"] for op in batch) >= CALIBRATE_EVERY_S:
                after = calibrate.measure()
                factor = calibrate.scale(before, after)
                for op in batch:
                    op["latency_ref_s"] = op["cpu_s"] * factor
                batch = []
                before = after
            if stop:
                return done

    def check_all(self) -> None:
        """Check every operation's output; identical bytes share a verdict.

        Every operation must also write byte for byte what the first
        operation on the same input wrote (its warm-up).
        """
        verdicts = {}
        first = {}
        for op in self.ops:
            out = self.ops_dir / f"{op['index']:06d}"
            files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
            op["bytes_written"] = sum(p.stat().st_size for p in files)
            if op["error"] is not None:
                continue
            digest = hashlib.sha256()
            for p in files:
                digest.update(str(p.relative_to(out)).encode() + b"\0")
                digest.update(hashlib.sha256(p.read_bytes()).digest())
            key = (op["slot"], op["status"], digest.hexdigest())
            if key not in verdicts:
                doc = self.docs[op["slot"]] if self.docs else None
                try:
                    verdicts[key] = self.w.check_output(self.workload, doc, out, op["status"])
                except Exception as exc:  # unreadable or malformed output
                    verdicts[key] = "output check raised " + "".join(
                        traceback.format_exception_only(exc)).strip()
            reference = first.setdefault(op["slot"], key)
            op["error"] = verdicts[key]
            if op["error"] is None and key != reference:
                op["error"] = "outputs differ from the first operation on the same input"


def main(argv=None) -> int:
    args = _parse_args(argv)
    numpy = _import_program(args.root)
    import workloads
    docs = workloads.generate_configs(args.workload, args.seed)
    paths = workloads.write_configs(docs, args.work / "configs")
    ready = time.monotonic()
    if args.setup_only:
        print(ready)
        return 0

    from phytoperiod import cli
    loop = Loop(args.workload, docs, paths, args.work / "ops", cli, workloads)
    # the first operation on each input is slower (page faults, cold
    # caches, lazy imports), so every input gets one before timing starts
    for slot in range(loop.pool):
        loop.run_one("warmup", slot)
    result = {"ready": ready, "python": platform.python_version(), "numpy": numpy.__version__}
    if not args.trace:
        loop.run_phase("timed", args.seconds, workloads.MIN_TIMED_OPS[args.workload])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        loop.check_all()
    else:
        import tracing
        modules = {layer: sys.modules[f"phytoperiod.{layer}"] for layer in tracing.LAYERS}
        half = args.seconds / 2.0
        loop.run_phase("untraced", half, 1)
        recorder = tracing.Recorder()
        restore = tracing.install(recorder, modules)
        try:
            traced_ops = loop.run_phase("traced", half, 1, recorder)
        finally:
            restore()
        loop.check_all()
        layers = tracing.layer_metrics(recorder.spans, traced_ops)
        plain = [op for op in loop.ops if op["phase"] == "untraced"]
        traced = [op for op in loop.ops if op["phase"] == "traced"]
        layers["cli.bytes_written"] = sum(op["bytes_written"] for op in traced) / traced_ops
        layers["trace.overhead_ratio"] = (sum(op["latency_ref_s"] for op in plain) / len(plain)
                                          / (sum(op["latency_ref_s"] for op in traced)
                                             / traced_ops))
        result["layers"] = tracing.guard(layers, workloads.MUST_OBSERVE[args.workload])
        result["spans"] = [s.to_dict(i) for i, s in enumerate(recorder.spans)]
    result["ops"] = loop.ops
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
