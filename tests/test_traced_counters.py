"""The benchmark's tracer sees the work of every integrating workload.

The tracer counts field evaluations by wrapping the public names of the
package in the modules that call them.  Work moved off those names
reads 0, which a traced benchmark run reports as "not observed" instead
of as a saving.  Here one in-process operation per workload runs under
the tracer, as a traced run makes it, so that such a change fails this
suite too.
"""

import math
import sys
from pathlib import Path

import pytest

from phytoperiod import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# the benchmark seed of the forced-orbits inputs; its first config is run
SEED = 11


@pytest.mark.parametrize("workload",
                         ["example1", "remark-constant", "forced-orbits"])
def test_a_traced_operation_observes_every_required_counter(tmp_path,
                                                            workload):
    docs = workloads.generate_configs(workload, SEED)[:1]
    paths = workloads.write_configs(docs, tmp_path / "configs")
    argv = workloads.op_argv(workload, paths[0] if paths else None,
                             tmp_path / "out")
    recorder = tracing.Recorder()
    recorder.op = 0
    recorder.period = workloads.op_period(workload, docs[0] if docs else None)
    restore = tracing.install(recorder, {layer: sys.modules[f"phytoperiod.{layer}"]
                                         for layer in tracing.LAYERS})
    try:
        root = recorder.begin("bench.op")
        status = cli.main(argv)
        recorder.end(root)
    finally:
        restore()
    assert status == cli.EXIT_OK
    metrics = tracing.layer_metrics(recorder.spans, 1)
    # the worker measures these two outside the spans; no counter needs them
    metrics["cli.bytes_written"] = metrics["trace.overhead_ratio"] = math.nan
    entries = tracing.guard(metrics, workloads.MUST_OBSERVE[workload])
    assert [name for name, entry in entries.items()
            if entry.get("observed") is False] == []
