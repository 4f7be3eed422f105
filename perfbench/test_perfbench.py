"""Self-tests of the benchmark. Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

They take about a minute: the equivalence tests replay benchmark-scale
traces, and the paper test runs two traced Table II iterations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_lists_what_the_code_reports():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == (
        run.per_layer_names()
    )
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for workload in doc["workloads"]:
        seed = workloads.DEFAULT_SEEDS[workload["name"]]
        assert f"default seed {seed}" in workload["why"]


@pytest.mark.parametrize("workload", ["word", "wechat"])
def test_replay_loop_matches_run_trace(workload):
    """The benchmark's own timed loop models exactly what run_trace does."""
    from expected import reference_metrics

    reference = reference_metrics(workload)
    it = workloads.ITERATIONS[workload](workloads.DEFAULT_SEEDS[workload])
    assert it.failures == []
    assert it.modelled == reference
    with open(os.path.join(HERE, "expected.json")) as f:
        assert json.load(f)[workload] == reference


def test_paper_traces_are_the_fast_bench_traces():
    from repro.harness.experiments import bench_traces

    committed = bench_traces(fast=True)
    for name, (make, scale) in workloads.paper_traces(1).items():
        trace = make()
        assert scale == committed[name][1]
        assert trace.ops == committed[name][0].ops
        assert trace.preload == committed[name][0].preload


def test_paper_iterations_both_do_the_work():
    """Back-to-back paper iterations must not be served by a run cache."""
    from repro.harness import experiments

    seen = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            it = workloads.paper_iteration(1, tracer=tracer)
        assert it.failures == []
        seen.append((tracer.calls["delta"], tracer.counts["chunking.cdc.bytes"]))
    assert seen[0] == seen[1]
    assert seen[0][0] > 0 and seen[0][1] > 0
    assert experiments._run_cache == {}


def test_apply_write_is_hooked_where_each_module_looks_it_up():
    import repro.common.bytesutil as bytesutil
    import repro.server.cloud as cloud
    import repro.vfs.filesystem as filesystem

    original = bytesutil.apply_write
    tracer = Tracer()
    with tracer:
        for module in (bytesutil, cloud, filesystem):
            assert module.apply_write is not original
            assert module.apply_write.__wrapped__ is original
        tracer.recording = True
        fs = filesystem.MemoryFileSystem()
        fs.create("/f")
        fs.write("/f", 0, b"abc")
        tracer.recording = False
    for module in (bytesutil, cloud, filesystem):
        assert module.apply_write is original
    assert tracer.calls["common.bytesutil"] == 1
    assert tracer.calls["vfs"] == 2
    assert tracer.counts["common.bytesutil.bytes"] == 3


def test_nfs_server_apply_is_timed():
    """NFS imports apply_write inside ``write``; that call is timed too."""
    from repro.harness.runner import build_system

    system = build_system("nfs")
    tracer = Tracer()
    with tracer:
        tracer.recording = True
        system.fs.create("/f")
        system.fs.write("/f", 0, b"abc")
        tracer.recording = False
    layer_of = {i: name for name, i in tracer._layer_ids.items()}
    parents = [
        layer_of[tracer.span_layer[tracer.span_parent[span]]]
        for span in range(len(tracer.span_parent))
        if layer_of[tracer.span_layer[span]] == "common.bytesutil"
    ]
    # Once in the client's local file system, once in the server apply.
    assert sorted(parents) == ["baselines.nfs", "vfs"]


def test_missing_binding_fails_loudly(monkeypatch):
    entry = ("repro.common.bytesutil", "apply_write", "common.bytesutil",
             ("repro.core.relation_table",))
    monkeypatch.setattr(layers, "_FUNCTIONS", (entry,))
    import repro.common.bytesutil as bytesutil

    original = bytesutil.apply_write
    with pytest.raises(RuntimeError, match="not bound"):
        Tracer().install()
    assert bytesutil.apply_write is original


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    tracer.recording = True
    outer()
    tracer.recording = False
    assert tracer.calls == {"inner": 2, "outer": 1}
    total = tracer.span_end[0] - tracer.span_start[0]
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(total)
    assert list(tracer.span_root) == [0, 0, 0]
    assert list(tracer.span_parent) == [-1, 0, 0]


def test_fails_without_the_program(tmp_path):
    """With only the benchmark's files present, the command fails fast."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
