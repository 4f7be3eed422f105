"""Repository benchmark: wall clock and memory end to end, self time per layer.

Run from the repository root::

    python3 perfbench/run.py --workload word --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

``--trace 0`` runs closed-loop iterations of the workload for about
``--seconds`` seconds (at least two) and reports the end-to-end metrics.
``--trace 1`` runs a traced iteration between two plain ones and reports
the per-layer metrics. ``--workload all`` runs every workload, each in a
fresh process so that peak RSS is per workload. Metric lines go to
standard output as ``name value unit``; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Outputs are checked on every run: every application op must succeed,
every synced file must match the cloud after flush, and the modelled
numbers (bytes on the wire, CPU ticks) must be identical across the
iterations of a run. At a workload's default seed they must also equal
the committed baselines (``benchmarks/baselines/table2.json`` for
``paper``, the bursty point of ``benchmarks/baselines/fleet.json`` for
``fleet``, ``perfbench/expected.json`` for ``word`` and ``wechat``); at
other seeds they must equal the numbers an earlier run in the same
checkout recorded under ``.perfbench/``. A failed check makes the command
exit with status 1 after printing its result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is measured at least MIN_SETUPS times per run, and more while the
# extra set-ups fit in SETUP_BUDGET_S, and reported as the median, so that
# work moved into set-up shows against a steady figure. The extra set-ups
# are spread between the iterations: the machine's speed drifts within a
# run, and set-ups made back to back would all sample one moment of it.
MIN_SETUPS = 5
# Each run makes ``--seconds`` / NOMINAL_ITERATION_S iterations, rounded
# up and at least MIN_ITERATIONS, so that no figure rests on one iteration.
# The nominal times (set-up plus measured window of one iteration, on a
# 2-vCPU VM) are constants so that the count depends on --seconds only: a
# faster commit runs the same work as its parent, not more iterations.
MIN_ITERATIONS = 2
NOMINAL_ITERATION_S = {"word": 5.0, "wechat": 8.0, "fleet": 8.0, "paper": 16.0}
MAX_SETUPS = 50
SETUP_BUDGET_S = 3.0
OUT_DIR = ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_mean_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("up_bytes", "bytes"),
    ("cpu_ticks", "ticks"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    from layers import LAYERS

    names = [("workloads.gen_s", "s")]
    extra = {
        "common.bytesutil": [("copy_amplification", "ratio")],
        "core.relation_table": [("delta_keep_ratio", "ratio")],
        "core.sync_queue": [("coalesce_ratio", "ratio")],
        "delta": [("in_mb_per_s", "MB/s"), ("literal_ratio", "ratio")],
        "chunking.fast": [("bytes", "bytes")],
        "chunking.cdc": [("bytes", "bytes")],
        "net": [("up_bytes", "bytes")],
    }
    for layer in LAYERS:
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_s", "s"))
        names.extend((f"{layer}.{name}", unit) for name, unit in extra.get(layer, []))
    names += [
        ("harness.fleet.provision_s", "s"),
        ("harness.fleet.loop_self_s", "s"),
        ("harness.fleet.virt_sync_p99_s", "s"),
        ("unattributed_s", "s"),
        ("trace_overhead", "ratio"),
    ]
    return names


# Per workload: layers that must have been entered, and layers that must
# not have been (the bypass case). A miss fails the traced run.
EXPECT = {
    "word": {
        "heavy": ("vfs", "common.bytesutil", "core.client", "core.client.pump",
                  "core.relation_table", "core.sync_queue", "delta",
                  "chunking.fast", "net", "server"),
        "bypass": ("chunking.cdc", "server.shard", "baselines.seafile",
                   "baselines.dropbox", "baselines.nfs", "baselines.fullsync"),
    },
    "wechat": {
        "heavy": ("vfs", "common.bytesutil", "core.client", "core.client.pump",
                  "core.sync_queue", "net", "server"),
        "bypass": ("delta", "chunking.fast", "chunking.cdc", "server.shard",
                   "baselines.seafile", "baselines.dropbox", "baselines.nfs",
                   "baselines.fullsync"),
    },
    "fleet": {
        "heavy": ("vfs", "common.bytesutil", "core.client", "core.client.pump",
                  "core.sync_queue", "net", "server", "server.shard"),
        "bypass": ("delta", "chunking.cdc", "baselines.seafile",
                   "baselines.dropbox", "baselines.nfs", "baselines.fullsync"),
    },
    "paper": {
        "heavy": ("vfs", "common.bytesutil", "core.client", "core.client.pump",
                  "core.relation_table", "core.sync_queue", "delta",
                  "chunking.fast", "chunking.cdc", "net", "server",
                  "baselines.seafile", "baselines.dropbox", "baselines.nfs",
                  "baselines.fullsync"),
        "bypass": ("server.shard",),
    },
}


def _quantile(sorted_values: List[float], q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _baseline(workload: str, seed: int, default_seed: int):
    """The committed modelled numbers, or ``None`` off the default seed."""
    if seed != default_seed:
        return None
    if workload == "paper":
        with open(os.path.join("benchmarks", "baselines", "table2.json")) as f:
            return json.load(f)["metrics"]
    if workload == "fleet":
        with open(os.path.join("benchmarks", "baselines", "fleet.json")) as f:
            metrics = json.load(f)["metrics"]
        return {k: v for k, v in metrics.items()
                if k.startswith("fleet-10000x8-bursty/")}
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)[workload]


def check_modelled(workload: str, seed: int, iterations) -> Tuple[int, List[str]]:
    """Compare modelled numbers across iterations and against a reference.

    Returns ``(attempted, failures)``: one attempt per modelled key.
    """
    from workloads import DEFAULT_SEEDS

    first = iterations[0].modelled
    failures = []
    for i, it in enumerate(iterations[1:], start=1):
        if it.modelled != first:
            failures.append(f"iteration {i} modelled numbers differ from iteration 0")
    reference = _baseline(workload, seed, DEFAULT_SEEDS[workload])
    if reference is None:
        # Off the default seed: the first run in this checkout records the
        # numbers, later runs must reproduce them exactly.
        path = os.path.join(OUT_DIR, f"modelled-{workload}-{seed}.json")
        if os.path.exists(path):
            with open(path) as f:
                reference = json.load(f)
        else:
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(path, "w") as f:
                json.dump(first, f, indent=1, sort_keys=True)
            reference = first
    for key in sorted(set(reference) | set(first)):
        if reference.get(key) != first.get(key):
            failures.append(
                f"modelled {key}: got {first.get(key)!r}, expected {reference.get(key)!r}"
            )
    return len(reference), failures


def end_to_end(workload: str, seed: int, seconds: float):
    """Closed-loop iterations for about ``seconds``; end-to-end metrics.

    ``ops_per_s`` is the rate over all measured windows together.
    ``op_mean_us`` and ``op_p99_us`` are taken over the op latencies of all
    iterations together, so that the p99 of even the shortest run has more
    than ten samples beyond it. The mean stands in for the median, which
    moved by a fifth or more between runs of the same code on ``wechat``
    and ``fleet``. On ``wechat`` it sits on a boundary between op classes:
    exactly half the ops are journal creates, closes and writes, so the
    median is the slowest of those or the fastest truncate. On ``fleet``
    the lower half of the latency distribution moves most between runs.
    The medians of single iterations are printed as notes.
    """
    from workloads import ITERATIONS, SETUPS

    count = max(MIN_ITERATIONS, math.ceil(seconds / NOMINAL_ITERATION_S[workload]))
    iterations, setups = [], []
    for _ in range(count):
        # Free the previous iteration's systems, which hold reference
        # cycles, so that every iteration starts from the same heap.
        gc.collect()
        iterations.append(ITERATIONS[workload](seed))
        setups.append(iterations[-1].setup_s)
        round_s = 0.0
        while (
            round_s + statistics.median(setups) <= SETUP_BUDGET_S / count
            and len(setups) < MAX_SETUPS
        ):
            gc.collect()
            setups.append(SETUPS[workload](seed))
            round_s += setups[-1]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(SETUPS[workload](seed))
    p50, p99 = [], []
    for it in iterations:
        latencies = sorted(it.latencies)
        p50.append(_quantile(latencies, 0.50))
        p99.append(_quantile(latencies, 0.99))
    pooled = sorted(t for it in iterations for t in it.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(it.ops for it in iterations)
        / sum(it.window_s for it in iterations),
        "op_mean_us": statistics.fmean(pooled) * 1e6,
        "op_p99_us": _quantile(pooled, 0.99) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "up_bytes": iterations[0].up_bytes,
        "cpu_ticks": iterations[0].cpu_ticks,
    }
    attempted, failures = check_modelled(workload, seed, iterations)
    attempted += sum(it.attempted for it in iterations)
    failures += [f for it in iterations for f in it.failures]
    notes = [
        f"iterations {len(iterations)} setups {len(setups)} "
        f"op_samples {len(pooled)}"
    ]
    notes += [
        f"iteration {i} setup_s {it.setup_s:.4f} window_s {it.window_s:.4f} "
        f"ops_per_s {it.ops / it.window_s:.2f} "
        f"p50_us {p50[i] * 1e6:.2f} p99_us {p99[i] * 1e6:.2f}"
        for i, it in enumerate(iterations)
    ]
    return metrics, {m: u for m, u in END_TO_END}, attempted, failures, notes


def per_layer(workload: str, seed: int):
    """A traced iteration between two plain ones; per-layer metrics.

    The plain iterations on both sides give the untraced wall time, so
    that ``trace_overhead`` does not credit the traced iteration with the
    warm-up the first iteration of a process pays.
    """
    from layers import LAYERS, Tracer
    from workloads import ITERATIONS

    gc.collect()
    before = ITERATIONS[workload](seed)
    gc.collect()
    tracer = Tracer()
    with tracer:
        traced = ITERATIONS[workload](seed, tracer=tracer)
    gc.collect()
    after = ITERATIONS[workload](seed)
    plain_s = (before.window_s + after.window_s) / 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}"))

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    metrics: Dict[str, float] = {"workloads.gen_s": traced.gen_s}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    delta_s = self_s.get("delta", 0.0)
    enqueued = counts.get("core.sync_queue.writes_enqueued", 0)
    delta_in = counts.get("delta.in_bytes", 0)
    unattributed = traced.window_s - sum(self_s.values())
    metrics.update({
        "common.bytesutil.copy_amplification":
            counts.get("common.bytesutil.bytes", 0) / traced.app_write_bytes,
        "core.relation_table.delta_keep_ratio":
            traced.deltas_kept / traced.deltas_triggered
            if traced.deltas_triggered else 0.0,
        "core.sync_queue.coalesce_ratio":
            counts.get("core.sync_queue.write_nodes_shipped", 0) / enqueued
            if enqueued else 0.0,
        "delta.in_mb_per_s": delta_in / 1e6 / delta_s if delta_s else 0.0,
        "delta.literal_ratio":
            counts.get("delta.literal_bytes", 0) / delta_in if delta_in else 0.0,
        "chunking.fast.bytes": counts.get("chunking.fast.bytes", 0),
        "chunking.cdc.bytes": counts.get("chunking.cdc.bytes", 0),
        "net.up_bytes": counts.get("net.up_bytes", 0),
        "harness.fleet.provision_s": traced.provision_s,
        # In the fleet's window every wrapped call is issued by the event
        # loop, so the time outside all layers is the loop's own.
        "harness.fleet.loop_self_s": unattributed if workload == "fleet" else 0.0,
        "harness.fleet.virt_sync_p99_s": traced.virt_sync_p99_s,
        "unattributed_s": unattributed,
        "trace_overhead": traced.window_s / plain_s,
    })

    iterations = [before, traced, after]
    attempted, failures = check_modelled(workload, seed, iterations)
    attempted += sum(it.attempted for it in iterations)
    failures += [f for it in iterations for f in it.failures]
    for layer in EXPECT[workload]["heavy"]:
        attempted += 1
        if not calls.get(layer):
            failures.append(f"traced: layer {layer} was never entered on {workload}")
    for layer in EXPECT[workload]["bypass"]:
        attempted += 1
        if calls.get(layer):
            failures.append(
                f"traced: layer {layer} entered {calls[layer]} times on {workload}, "
                "which should bypass it"
            )
    if workload == "word":
        from workloads import WORD_SAVES

        attempted += 1
        if calls.get("delta") != WORD_SAVES:
            failures.append(
                f"traced: delta.calls is {calls.get('delta')}, expected one "
                f"encode per save ({WORD_SAVES})"
            )
    units = dict(per_layer_names())
    if set(metrics) != set(units):
        raise RuntimeError(f"per-layer metrics out of step: {set(metrics) ^ set(units)}")
    ordered = {name: metrics[name] for name in units}
    notes = [f"spans {len(tracer.span_parent)}"]
    return ordered, units, attempted, failures, notes


def run_one(args) -> int:
    from workloads import DEFAULT_SEEDS

    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if args.trace:
        metrics, units, attempted, failures, notes = per_layer(args.workload, seed)
    else:
        metrics, units, attempted, failures, notes = end_to_end(
            args.workload, seed, args.seconds
        )
    print(f"# workload {args.workload} seed {seed} trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in a fresh process: ``ru_maxrss`` is a lifetime peak."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{workload}.{line}" if not line.startswith("#") else line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED: {workload} printed no result", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("word", "wechat", "fleet", "paper", "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the committed one)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="seconds of iterations per run (at least two iterations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
