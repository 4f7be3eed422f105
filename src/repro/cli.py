"""Command-line interface: run experiments, generate and replay traces.

Usage (installed, or ``python -m repro``):

    python -m repro info
    python -m repro experiment table2 --fast
    python -m repro experiment all
    python -m repro trace word --out word.trace --scale 16 --ops 10
    python -m repro replay word.trace --solution deltacfs
    python -m repro replay word.trace --metrics --trace-out trace.jsonl
    python -m repro inspect trace.jsonl --attribution
    python -m repro experiment fig8 --fast --bench-json benchmarks/
    python -m repro check
    python -m repro check --traces trace.jsonl crash-trace.jsonl
    python -m repro fleet --clients 10000 --shards 8 --arrival bursty
    python -m repro fleet --curve --bench-json bench_out/
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.metrics.report import format_bytes, format_table, format_tue


def _cmd_info(_args) -> int:
    import repro

    print(f"DeltaCFS reproduction v{repro.__version__}")
    print(__doc__.strip().splitlines()[0])
    print("\nsubsystems:")
    for name, role in [
        ("repro.core", "the DeltaCFS client engine (the paper's contribution)"),
        ("repro.server", "the cloud: versioned store, conflicts, fan-out"),
        ("repro.vfs", "virtual file system + operation interception (FUSE role)"),
        ("repro.delta", "rsync / bitwise rsync / patch"),
        ("repro.chunking", "rolling, strong, fixed, content-defined chunking"),
        ("repro.kvstore", "WAL-backed KV store (LevelDB role)"),
        ("repro.net", "wire protocol + accounted simulated WAN"),
        ("repro.cost", "calibrated CPU-tick model"),
        ("repro.baselines", "Dropbox / Seafile / NFS / Dropsync re-implementations"),
        ("repro.workloads", "paper traces + filebench op streams"),
        ("repro.faults", "corruption & crash-inconsistency injection"),
        ("repro.harness", "per-table/figure experiment drivers"),
    ]:
        print(f"  {name:18s} {role}")
    return 0


def _print_run_results(title: str, results) -> None:
    rows = [
        [
            r.extra.get("setting", "pc"),
            r.trace,
            r.solution,
            f"{r.client_ticks:.1f}",
            f"{r.server_ticks:.1f}",
            format_bytes(r.up_bytes),
            format_bytes(r.down_bytes),
        ]
        for r in results
    ]
    print(f"\n=== {title} ===")
    print(
        format_table(
            ["setting", "trace", "solution", "cli CPU", "srv CPU", "up", "down"],
            rows,
        )
    )


def _write_bench_doc(directory: str, name: str, doc) -> None:
    """Emit a prebuilt ``BENCH_<name>.json`` document into ``directory``."""
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _write_bench_snapshot(directory: str, name: str, results) -> None:
    """Emit ``BENCH_<name>.json`` into ``directory`` (see bench_snapshot)."""
    from repro.harness.runner import bench_snapshot

    _write_bench_doc(directory, name, bench_snapshot(name, results))


def _cmd_experiment(args) -> int:
    from repro.harness import experiments

    fast = args.fast
    wanted = args.name
    bench_dir = args.bench_json
    ran_any = False
    benched_any = False

    if wanted in ("table2", "all"):
        results = experiments.table2_cpu(fast)
        _print_run_results("Table II / CPU", results)
        if bench_dir:
            _write_bench_snapshot(bench_dir, "table2", results)
            benched_any = True
        ran_any = True
    if wanted in ("fig8", "all"):
        results = experiments.fig8_network_pc(fast)
        _print_run_results("Figure 8 / network on PC", results)
        if bench_dir:
            _write_bench_snapshot(bench_dir, "fig8", results)
            benched_any = True
        ran_any = True
    if wanted in ("fig9", "all"):
        results = experiments.fig9_network_mobile(fast)
        _print_run_results("Figure 9 / network on mobile", results)
        if bench_dir:
            _write_bench_snapshot(bench_dir, "fig9", results)
            benched_any = True
        ran_any = True
    if wanted in ("policy", "all"):
        results = experiments.policy_sweep(fast)
        _print_run_results("Policy sweep / mechanism selection", results)
        if bench_dir:
            _write_bench_snapshot(bench_dir, "policy", results)
            benched_any = True
        ran_any = True
    if wanted in ("fig1", "all"):
        results = experiments.fig1_motivation(fast)
        if bench_dir:
            _write_bench_snapshot(bench_dir, "fig1", results)
            benched_any = True
        print("\n=== Figure 1 / motivation ===")
        print(
            format_table(
                ["workload", "solution", "cpu", "upload", "disk reads"],
                [
                    [
                        r.trace,
                        r.solution,
                        f"{r.client_ticks:.1f}",
                        format_bytes(r.up_bytes),
                        format_bytes(r.extra["read_bytes"]),
                    ]
                    for r in results
                ],
            )
        )
        ran_any = True
    if wanted in ("fig2", "all"):
        result = experiments.fig2_dropsync_mobile(fast)
        print("\n=== Figure 2 / Dropsync on mobile ===")
        print(f"traffic {format_bytes(result.total_traffic)}  "
              f"update {format_bytes(result.update_bytes)}  "
              f"TUE {result.tue:.1f}  CPU {result.cpu_ticks:.1f}")
        ran_any = True
    if wanted in ("table3", "all"):
        from repro.harness.microbench import (
            STACKS,
            microbench_snapshot,
            run_microbench,
        )
        from repro.workloads.filebench import (
            fileserver_ops,
            varmail_ops,
            webserver_ops,
        )

        print("\n=== Table III / microbenchmarks (MB/s) ===")
        rows = []
        table3_results = []
        for name, ops in [
            ("fileserver", fileserver_ops()),
            ("varmail", varmail_ops()),
            ("webserver", webserver_ops()),
        ]:
            per_stack = [run_microbench(name, ops, s) for s in STACKS]
            table3_results.extend(per_stack)
            # block size and input MiB are identical across stacks for one
            # workload (0 = stack has no sync engine, so show the max).
            rows.append(
                [
                    name,
                    str(max(r.block_size for r in per_stack)),
                    f"{per_stack[0].input_mb:.1f}",
                ]
                + [f"{r.mb_per_s:.1f}" for r in per_stack]
            )
        print(
            format_table(
                ["workload", "blk B", "in MiB"] + list(STACKS), rows
            )
        )
        if bench_dir:
            _write_bench_doc(
                bench_dir, "table3", microbench_snapshot(table3_results)
            )
            benched_any = True
        ran_any = True
    if wanted in ("table4", "all"):
        results = experiments.table4_reliability()
        print("\n=== Table IV / reliability ===")
        print(
            format_table(
                ["service", "corrupted", "inconsistent", "causal"],
                [[o.service, o.corrupted, o.inconsistent, o.causal_order] for o in results],
            )
        )
        ran_any = True

    if args.wall:
        from repro.harness.wallclock import wallclock_snapshot

        snap = wallclock_snapshot()
        context = snap["context"]
        print(
            f"\n=== wall-clock lane (measured, median of "
            f"{context['repeats']}; {context['input_mb']} MB inputs, "
            f"{context['block_size']} B blocks) ==="
        )
        print(
            format_table(
                ["lane", "fast MB/s", "ref MB/s", "speedup"],
                [
                    [
                        lane,
                        f"{info['fast_mb_per_s']:.1f}",
                        f"{info['ref_mb_per_s']:.2f}",
                        f"{snap['metrics'][lane + '/speedup']:.1f}x",
                    ]
                    for lane, info in sorted(context["lanes"].items())
                ],
            )
        )
        if bench_dir:
            _write_bench_doc(bench_dir, "wallclock", snap)
            benched_any = True

    if not ran_any:
        print(f"unknown experiment {wanted!r}", file=sys.stderr)
        return 2
    if bench_dir and not benched_any:
        print(
            f"--bench-json covers RunResult-snapshot experiments "
            f"(table2/fig8/fig9/fig1), table3, and the --wall lane, "
            f"not {wanted!r}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_fleet(args) -> int:
    """Fleet-scale virtual-time simulation against the sharded cloud."""
    from repro.harness.fleet import (
        FLEET_CURVE,
        FleetSpec,
        bench_doc,
        fleet_curve,
        run_fleet,
    )
    from repro.obs import NULL_OBS, Observability

    trace_sink = None
    if args.trace_out:
        from repro.obs import Tracer

        if args.clients > 2000 and not args.curve:
            print(
                "--trace-out records every pipeline event; cap --clients "
                "at 2000 for a recordable run",
                file=sys.stderr,
            )
            return 2
        try:
            trace_sink = open(args.trace_out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"cannot write trace to {args.trace_out!r}: {exc}",
                  file=sys.stderr)
            return 1
        obs = Observability(tracer=Tracer(sink=trace_sink))
    elif args.metrics:
        obs = Observability()
    else:
        obs = NULL_OBS

    def show(results) -> None:
        print(format_table(
            [
                "clients", "shards", "arrival", "writes",
                "p50 s", "p99 s", "max s",
                "shard ticks max", "peak q", "up",
            ],
            [[
                r.spec.n_clients,
                r.spec.n_shards,
                r.spec.arrival,
                r.writes,
                f"{r.p50_latency:.3f}",
                f"{r.p99_latency:.3f}",
                f"{r.max_latency:.3f}",
                f"{max(r.shard_ticks):.3f}",
                max(r.shard_queue_peak),
                format_bytes(r.total_up_bytes),
            ] for r in results],
        ))

    try:
        if args.curve or args.bench_json:
            results = fleet_curve(FLEET_CURVE, obs=obs)
            show(results)
            if args.bench_json:
                _write_bench_doc(args.bench_json, "fleet", bench_doc(results))
        else:
            spec = FleetSpec(
                n_clients=args.clients,
                n_shards=args.shards,
                writes_per_client=args.writes_per_client,
                arrival=args.arrival,
                mean_gap=args.mean_gap,
                burst_every=args.burst_every,
                tick_seconds=args.tick_seconds,
                seed=args.seed,
                window_seconds=args.window_seconds,
                slo_seconds=args.slo,
                stall_horizon=args.stall_horizon,
            )
            try:
                spec.validate()
            except ValueError as exc:
                print(f"bad fleet spec: {exc}", file=sys.stderr)
                return 2
            results = [run_fleet(spec, obs=obs)]
            show(results)
        if args.health or args.health_out:
            reports = [r.health() for r in results]
            for report in reports:
                _print_health(report)
            if args.health_out:
                rc = _write_health_doc(args.health_out, reports[-1])
                if rc:
                    return rc
        if trace_sink is not None:
            _finish_trace_out(args.trace_out, trace_sink, obs)
    finally:
        if trace_sink is not None:
            trace_sink.close()
    if args.metrics:
        print()
        print(obs.report())
    return 0


def _print_health(report) -> None:
    """Render one health report (fleet or trace) as a table."""
    verdict = "HEALTHY" if report.healthy else "UNHEALTHY"
    print(f"\nhealth ({report.kind}): {verdict} — "
          f"attainment {report.attainment:.4f} of slo {report.slo_seconds:g}s "
          f"(target {report.attainment_target:.2f}), "
          f"{report.total_stalls} stalls, "
          f"{report.total_regressions} regressed windows")
    print(format_table(
        ["shard", "writes", "p50 s", "p90 s", "p99 s", "max s",
         "slo", "stalls", "windows", "regressed"],
        [[s.shard, s.writes, f"{s.p50:.3f}", f"{s.p90:.3f}",
          f"{s.p99:.3f}", f"{s.max_latency:.3f}", f"{s.slo_attainment:.4f}",
          s.stalls, s.windows,
          ",".join(str(w) for w in s.regressed_windows) or "-"]
         for s in report.shards],
    ))


def _write_health_doc(path: str, report) -> int:
    """Self-check and write a health report as JSON; nonzero on problems."""
    import json as _json

    from repro.obs.health import validate_health_doc

    doc = report.to_dict()
    problems = validate_health_doc(doc)
    if problems:
        print("health doc failed self-check: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write health report to {path!r}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {path}: health report (self-check passed)")
    return 0


def _cmd_trace(args) -> int:
    from repro.workloads import (
        append_write_trace,
        gedit_trace,
        random_write_trace,
        wechat_trace,
        word_trace,
    )
    from repro.workloads.traceio import save_trace_file

    factories = {
        "append": lambda: append_write_trace(scale=args.scale, appends=args.ops),
        "random": lambda: random_write_trace(scale=args.scale, writes=args.ops),
        "word": lambda: word_trace(scale=args.scale, saves=args.ops),
        "wechat": lambda: wechat_trace(scale=args.scale, modifications=args.ops),
        "gedit": lambda: gedit_trace(saves=args.ops),
    }
    factory = factories.get(args.workload)
    if factory is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = factory()
    save_trace_file(trace, args.out)
    print(
        f"wrote {args.out}: {len(trace.ops)} ops, "
        f"{format_bytes(trace.stats.bytes_written)} written, "
        f"{format_bytes(trace.stats.update_bytes)} logical update"
    )
    return 0


def _finish_trace_out(path: str, sink, obs) -> None:
    """Append the metrics snapshot record to a streamed trace and report."""
    from repro.obs.export import write_snapshot_record

    write_snapshot_record(sink, obs.metrics, obs.clock.now())
    print(f"\nwrote {path}: {obs.tracer.records_recorded} trace records "
          f"+ metrics snapshot")


def _replay_with_crash(args, trace, journal_kv, obs, faults, config=None) -> int:
    """Replay with a simulated crash after op ``--crash-at N``.

    Runs the first N ops, kills the client (volatile state gone, journal
    kept), runs ``recover()``, then finishes the trace. Prints the
    recovery report next to the usual traffic summary so a user can see
    what the journal bought them.
    """
    from repro.faults.crash import simulate_crash
    from repro.harness.runner import build_system
    from repro.workloads.traces import apply_op

    n = args.crash_at
    if not 0 <= n <= len(trace.ops):
        print(f"--crash-at {n} out of range (trace has {len(trace.ops)} ops)",
              file=sys.stderr)
        return 2
    system = build_system(
        "deltacfs", config=config, obs=obs, faults=faults,
        fault_seed=args.fault_seed, journal_kv=journal_kv,
    )
    system.preload(trace)
    clock = system.clock

    def run_ops(ops) -> None:
        for op in ops:
            while op.timestamp > clock.now():
                step = min(1.0, op.timestamp - clock.now())
                clock.advance(step)
                system.pump(clock.now())
            apply_op(system.fs, op)
        system.pump(clock.now())

    run_ops(trace.ops[:n])
    dirty = simulate_crash(system.client)
    report = system.client.recover()
    run_ops(trace.ops[n:])
    for _ in range(10):
        clock.advance(1.0)
        system.pump(clock.now())
    system.flush()

    print(f"crashed after op {n}/{len(trace.ops)}; "
          f"{len(dirty)} dirty file(s) at the cut")
    print(f"recovery: {report.nodes_replayed} node(s) replayed, "
          f"{report.nodes_already_applied} already applied, "
          f"{report.nodes_rebased} rebased, "
          f"{report.blocks_repaired} block(s) repaired "
          f"({format_bytes(report.bytes_downloaded)} down), "
          f"{report.full_file_fallbacks} full-file fallback(s)")
    print(f"total traffic: up {format_bytes(system.channel.stats.up_bytes)}  "
          f"down {format_bytes(system.channel.stats.down_bytes)}")
    if args.metrics:
        print()
        print(obs.report())
    return 0


def _cmd_replay(args) -> int:
    from repro.faults.network import NO_FAULTS, NetworkFaults
    from repro.harness.runner import SOLUTIONS, run_trace
    from repro.obs import NULL_OBS, Observability
    from repro.workloads.traceio import load_trace_file

    if args.solution not in SOLUTIONS:
        print(f"unknown solution {args.solution!r}; pick one of {SOLUTIONS}",
              file=sys.stderr)
        return 2
    if args.journal is not None and args.solution != "deltacfs":
        print("--journal requires --solution deltacfs (the journaled client)",
              file=sys.stderr)
        return 2
    if args.crash_at is not None and args.journal is None:
        print("--crash-at requires --journal (recovery replays the journal)",
              file=sys.stderr)
        return 2
    config = None
    if args.delta_backend is not None or args.sync_policy is not None:
        if args.solution != "deltacfs":
            print("--delta-backend/--sync-policy require --solution deltacfs "
                  "(the policy-driven client)", file=sys.stderr)
            return 2
        from repro.common.config import DeltaCFSConfig
        from repro.delta.backends import get_backend

        config = DeltaCFSConfig()
        if args.delta_backend is not None:
            config.delta_backend = args.delta_backend
        if args.sync_policy is not None:
            config.sync_policy = args.sync_policy
        try:
            config.validate()
            get_backend(config.delta_backend)
        except ValueError as exc:
            print(f"bad sync config: {exc}", file=sys.stderr)
            return 2
    faults = NO_FAULTS
    if args.loss_rate or args.dup_rate or args.reorder_rate:
        if args.solution != "deltacfs":
            print("fault injection (--loss-rate/--dup-rate/--reorder-rate) "
                  "requires --solution deltacfs (the reliable transport)",
                  file=sys.stderr)
            return 2
        try:
            faults = NetworkFaults(
                drop_prob=args.loss_rate,
                dup_prob=args.dup_rate,
                reorder_prob=args.reorder_rate,
            )
            faults.validate()
        except ValueError as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
    trace = load_trace_file(args.trace)
    # Observability is opt-in: without either flag the run uses NULL_OBS
    # and is byte-identical to an uninstrumented run. --trace-out streams
    # each record to the file as it happens (no buffering), then appends a
    # metrics snapshot record so `repro inspect` can reconcile and export
    # OpenMetrics from the one file.
    trace_sink = None
    if args.trace_out:
        from repro.obs import Tracer

        try:
            trace_sink = open(args.trace_out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"cannot write trace to {args.trace_out!r}: {exc}",
                  file=sys.stderr)
            return 1
        obs = Observability(tracer=Tracer(sink=trace_sink))
    elif args.metrics:
        obs = Observability()
    else:
        obs = NULL_OBS
    journal_kv = None
    if args.journal is not None:
        from repro.kvstore.kv import LogStructuredKV

        # sync=True: the journal only helps if the records survive the
        # crash, so every append is fsynced.
        journal_kv = LogStructuredKV(args.journal, sync=True)
    try:
        if args.crash_at is not None:
            rc = _replay_with_crash(args, trace, journal_kv, obs, faults, config)
            if rc == 0 and trace_sink is not None:
                _finish_trace_out(args.trace_out, trace_sink, obs)
            return rc
        result = run_trace(
            args.solution, trace, config=config, obs=obs, faults=faults,
            fault_seed=args.fault_seed, journal_kv=journal_kv,
        )
        if trace_sink is not None:
            _finish_trace_out(args.trace_out, trace_sink, obs)
    finally:
        if trace_sink is not None:
            trace_sink.close()
    print(
        format_table(
            ["trace", "solution", "cli CPU", "srv CPU", "up", "down", "TUE"],
            [[
                result.trace,
                result.solution,
                f"{result.client_ticks:.1f}",
                f"{result.server_ticks:.1f}",
                format_bytes(result.up_bytes),
                format_bytes(result.down_bytes),
                format_tue(result.tue),
            ]],
        )
    )
    if args.metrics:
        print()
        print(obs.report())
    return 0


def _cmd_inspect(args) -> int:
    """Offline analysis of a recorded JSONL trace (see repro.obs.analyze)."""
    from repro.obs.analyze import (
        AttributionError,
        TraceFormatError,
        attribute_uplink,
        critical_path,
        event_counts,
        load_trace,
        load_traces,
        span_rollup,
    )
    from repro.obs.export import (
        check_openmetrics,
        to_openmetrics,
        write_chrome_trace,
    )

    paths = args.trace
    label = paths[0] if len(paths) == 1 else "+".join(paths)
    try:
        if len(paths) == 1:
            doc = load_trace(paths[0])
        else:
            doc = load_traces(paths)
    except OSError as exc:
        print(f"cannot read {label!r}: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 2

    rc = 0
    targeted = (args.attribution or args.chrome_out or args.openmetrics_out
                or args.health or args.health_out)
    if args.summary or not targeted:
        rollup = span_rollup(doc)
        stitched = sum(1 for s in doc.spans.values() if s.stitched)
        print(f"{label}: {len(doc.spans)} spans, "
              f"{len(doc.point_events())} events"
              + (f", {len(doc.sources)} sources, {stitched} stitched"
                 if len(paths) > 1 else "")
              + (", metrics snapshot embedded" if doc.snapshot else ""))
        if rollup:
            print()
            print(format_table(
                ["span", "count", "total s", "self s", "open"],
                [[r.name, r.count, f"{r.total:.3f}", f"{r.self_time:.3f}",
                  r.truncated or ""] for r in rollup],
            ))
        path = critical_path(doc)
        if path:
            print("\ncritical path (longest span chain):")
            for depth, span in enumerate(path):
                print(f"  {'  ' * depth}{span.name}  {span.duration:.3f}s"
                      + ("  [unclosed]" if span.truncated else ""))
        counts = event_counts(doc)
        if counts:
            print()
            print(format_table(
                ["event", "count"], [[name, n] for name, n in counts]
            ))

    if args.attribution:
        attribution = attribute_uplink(doc)
        print("\nuplink cost attribution (measured window):")
        print(format_table(
            ["path", "mechanism", "bytes", "msgs"],
            [[r.path or "(protocol)", r.mechanism, format_bytes(r.bytes),
              r.messages] for r in attribution.rows],
        ))
        print()
        print(format_table(
            ["mechanism", "bytes"],
            [[m, format_bytes(b)]
             for m, b in sorted(attribution.by_mechanism().items(),
                                key=lambda kv: -kv[1])],
        ))
        print(f"\ntotal attributed: {attribution.total_bytes} B"
              + (f"  (+ {attribution.preload_bytes} B preload, excluded)"
                 if attribution.preload_bytes else ""))
        try:
            attribution.reconcile()
        except AttributionError as exc:
            print(f"attribution drift: {exc}", file=sys.stderr)
            rc = 1
        else:
            print("reconciled: attribution total matches the recorded "
                  "channel.up.bytes exactly")

    if args.chrome_out:
        n = write_chrome_trace(doc.records, args.chrome_out)
        print(f"\nwrote {args.chrome_out}: {n} Chrome trace events "
              f"(load in Perfetto / chrome://tracing)")

    if args.openmetrics_out:
        if doc.snapshot is None:
            print("trace has no metrics snapshot record; re-record with "
                  "--trace-out (the CLI appends one)", file=sys.stderr)
            return 2
        text = to_openmetrics(doc.snapshot.get("metrics", {}))
        problems = check_openmetrics(text)
        if problems:
            print("OpenMetrics self-check failed: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        with open(args.openmetrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"\nwrote {args.openmetrics_out}: OpenMetrics exposition "
              f"(self-check passed)")

    if args.health or args.health_out:
        from repro.obs.health import health_from_trace

        report = health_from_trace(
            doc,
            slo_seconds=args.slo,
            stall_horizon=args.stall_horizon,
        )
        _print_health(report)
        if args.health_out:
            health_rc = _write_health_doc(args.health_out, report)
            if health_rc:
                return health_rc

    return rc


def _cmd_check(args) -> int:
    """Static lint + trace invariant verification (see repro.check)."""
    import json as _json
    import os

    from repro.check import (
        CheckConfig,
        gate,
        human_report,
        lint_paths,
        report_results,
        results_to_findings,
        verify_trace,
    )
    from repro.check.findings import FindingSummary, severity_rank
    from repro.obs.analyze import TraceFormatError, load_trace

    try:
        severity_rank(args.fail_on)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    cache = None
    if args.cache:
        from repro.check import AnalysisCache

        cache = AnalysisCache.load(args.cache)

    lint_findings = []
    if not args.no_lint:
        paths = args.paths
        if not paths:
            import repro

            paths = [os.path.dirname(os.path.abspath(repro.__file__))]
        config = CheckConfig(only=tuple(args.only or ()))
        lint_findings = lint_paths(
            paths,
            config=config,
            semantic=not args.no_semantic,
            cache=cache,
        )
    if cache is not None:
        cache.save(args.cache)
    findings = list(lint_findings)

    trace_results = {}
    for trace_path in args.traces or ():
        try:
            doc = load_trace(trace_path)
        except OSError as exc:
            print(f"cannot read {trace_path!r}: {exc}", file=sys.stderr)
            return 2
        except TraceFormatError as exc:
            print(f"{trace_path}: {exc}", file=sys.stderr)
            return 2
        results = verify_trace(doc)
        trace_results[trace_path] = results
        findings.extend(results_to_findings(results, trace_path))

    if args.sarif:
        from repro.check import sarif_json

        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(sarif_json(findings) + "\n")

    failed = gate(findings, fail_on=args.fail_on)
    if args.json:
        from dataclasses import asdict

        payload = {
            "findings": [asdict(f) for f in findings],
            "invariants": {
                path: [asdict(r) for r in results]
                for path, results in trace_results.items()
            },
            "summary": asdict(FindingSummary.of(findings)),
            "failed": failed,
        }
        if cache is not None:
            payload["cache"] = asdict(cache.stats)
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        if not args.no_lint:
            print(human_report(lint_findings,
                               show_suppressed=args.show_suppressed))
        for trace_path, results in trace_results.items():
            print()
            print(report_results(results, trace_path))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DeltaCFS reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show the package inventory").set_defaults(
        func=_cmd_info
    )

    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument(
        "name",
        choices=[
            "table2", "table3", "table4",
            "fig1", "fig2", "fig8", "fig9", "policy", "all",
        ],
    )
    experiment.add_argument("--fast", action="store_true", help="reduced op counts")
    experiment.add_argument(
        "--wall", action="store_true",
        help="also run the measured wall-clock lane (fast vs reference "
             "engines, real MB/s; see docs/performance.md)",
    )
    experiment.add_argument(
        "--bench-json", metavar="DIR", default=None,
        help="also write BENCH_<name>.json snapshot(s) into DIR for "
             "tools/bench_gate.py (table2/table3/fig8/fig9/fig1/policy, "
             "and BENCH_wallclock.json with --wall)",
    )
    experiment.set_defaults(func=_cmd_experiment)

    fleet = sub.add_parser(
        "fleet",
        help="virtual-time fleet simulation against the sharded cloud "
             "(see docs/fleet.md)",
    )
    fleet.add_argument("--clients", type=int, default=10_000,
                       help="simulated clients (default 10000)")
    fleet.add_argument("--shards", type=int, default=8,
                       help="CloudServer shards behind the router")
    fleet.add_argument("--writes-per-client", type=int, default=3)
    fleet.add_argument("--arrival", choices=["poisson", "bursty"],
                       default="poisson",
                       help="independent exponential gaps, or synchronized "
                            "waves that stress shard queues")
    fleet.add_argument("--mean-gap", type=float, default=20.0,
                       help="poisson: mean seconds between one client's writes")
    fleet.add_argument("--burst-every", type=float, default=20.0,
                       help="bursty: seconds between waves")
    fleet.add_argument("--tick-seconds", type=float, default=8.0,
                       help="virtual seconds of shard-core time per modelled "
                            "CPU tick (wimpy-core scale factor)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--curve", action="store_true",
        help="run the committed scaling curve instead of a single spec",
    )
    fleet.add_argument(
        "--bench-json", metavar="DIR", default=None,
        help="run the committed curve and write BENCH_fleet.json into DIR "
             "for tools/bench_gate.py",
    )
    fleet.add_argument(
        "--metrics", action="store_true",
        help="print the observability metrics report after the run",
    )
    fleet.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the structured event trace as JSONL to PATH "
             "(small fleets only; feeds `repro check --traces`)",
    )
    fleet.add_argument(
        "--health", action="store_true",
        help="print the per-shard SLO health report (attainment, stalls, "
             "window-over-window p99 regressions)",
    )
    fleet.add_argument(
        "--slo", type=float, default=15.0, metavar="SECONDS",
        help="sync-latency objective: a write meets the SLO when its "
             "latency is at or under this (default 15.0)",
    )
    fleet.add_argument(
        "--window-seconds", type=float, default=20.0, metavar="SECONDS",
        help="telemetry rollup window width in virtual seconds (default 20)",
    )
    fleet.add_argument(
        "--stall-horizon", type=float, default=60.0, metavar="SECONDS",
        help="a write whose sync takes longer than this counts as a stall "
             "(default 60)",
    )
    fleet.add_argument(
        "--health-out", metavar="PATH", default=None,
        help="write the health report as schema-checked JSON to PATH "
             "(nonzero exit when the self-check fails)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    trace = sub.add_parser("trace", help="generate and save a workload trace")
    trace.add_argument("workload", choices=["append", "random", "word", "wechat", "gedit"])
    trace.add_argument("--out", required=True)
    trace.add_argument("--scale", type=int, default=32)
    trace.add_argument("--ops", type=int, default=10,
                       help="saves/modifications/appends, per workload")
    trace.set_defaults(func=_cmd_trace)

    replay = sub.add_parser("replay", help="replay a saved trace through a sync system")
    replay.add_argument("trace")
    replay.add_argument("--solution", default="deltacfs")
    replay.add_argument(
        "--metrics",
        action="store_true",
        help="print the observability metrics report after the run",
    )
    replay.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the structured event trace as JSONL to PATH",
    )
    replay.add_argument(
        "--delta-backend", default=None, metavar="NAME",
        help="delta encoder the client uses when a delta triggers "
             "(bitwise/rsync/cdc-shingle; deltacfs only, see "
             "docs/delta-backends.md)",
    )
    replay.add_argument(
        "--sync-policy", default=None,
        choices=["static", "cost-model", "always-rpc", "always-delta"],
        help="mechanism-selection policy: static (paper behaviour), "
             "cost-model (online RPC-vs-delta scoring), or the bounding "
             "policies (deltacfs only)",
    )
    replay.add_argument(
        "--loss-rate", type=float, default=0.0, metavar="P",
        help="drop each uplink/downlink message with probability P "
             "(deltacfs only; engages the reliable transport)",
    )
    replay.add_argument(
        "--dup-rate", type=float, default=0.0, metavar="P",
        help="duplicate each delivered message with probability P",
    )
    replay.add_argument(
        "--reorder-rate", type=float, default=0.0, metavar="P",
        help="delay each delivered message past later sends with probability P",
    )
    replay.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan and retransmit jitter (identical "
             "seeds reproduce identical schedules)",
    )
    replay.add_argument(
        "--journal", metavar="PATH", default=None,
        help="attach a crash-recovery journal (fsynced WAL at PATH; "
             "deltacfs only)",
    )
    replay.add_argument(
        "--crash-at", type=int, default=None, metavar="N",
        help="kill the client after trace op N, recover from the journal, "
             "then finish the trace (requires --journal)",
    )
    replay.set_defaults(func=_cmd_replay)

    inspect = sub.add_parser(
        "inspect", help="analyze a recorded JSONL trace offline"
    )
    inspect.add_argument(
        "trace", nargs="+",
        help="trace.jsonl from replay/fleet --trace-out; several files "
             "(e.g. one per client plus the cloud's) are stitched into "
             "one causal trace via their trace.link records",
    )
    inspect.add_argument(
        "--summary", action="store_true",
        help="span rollup + critical path + event counts (default when no "
             "other output is requested)",
    )
    inspect.add_argument(
        "--attribution", action="store_true",
        help="attribute every uplink byte to (path, mechanism) and "
             "reconcile against the recorded totals (nonzero exit on drift)",
    )
    inspect.add_argument(
        "--chrome-out", metavar="PATH", default=None,
        help="export spans/events as Chrome trace-event JSON to PATH",
    )
    inspect.add_argument(
        "--openmetrics-out", metavar="PATH", default=None,
        help="export the embedded metrics snapshot as OpenMetrics text to PATH",
    )
    inspect.add_argument(
        "--health", action="store_true",
        help="recover ship-to-accept sync latencies from the trace and "
             "print an SLO health report (stalls = ships never accepted "
             "within the horizon)",
    )
    inspect.add_argument(
        "--slo", type=float, default=15.0, metavar="SECONDS",
        help="sync-latency objective for --health (default 15.0)",
    )
    inspect.add_argument(
        "--stall-horizon", type=float, default=60.0, metavar="SECONDS",
        help="stall threshold for --health (default 60)",
    )
    inspect.add_argument(
        "--health-out", metavar="PATH", default=None,
        help="write the --health report as schema-checked JSON to PATH",
    )
    inspect.set_defaults(func=_cmd_inspect)

    check = sub.add_parser(
        "check",
        help="lint the source tree and verify protocol invariants over "
             "recorded traces (see docs/static-analysis.md)",
    )
    check.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro "
             "package)",
    )
    check.add_argument(
        "--traces", nargs="+", metavar="JSONL", default=None,
        help="JSONL trace file(s) from replay --trace-out to verify "
             "against the invariant catalog",
    )
    check.add_argument(
        "--no-lint", action="store_true",
        help="skip the static lint layer (verify traces only)",
    )
    check.add_argument(
        "--only", nargs="+", metavar="RULE", default=None,
        help="run only the named lint rule ids (e.g. DET001 OBS001)",
    )
    check.add_argument(
        "--fail-on", default="warning",
        choices=["advice", "warning", "error"],
        help="minimum severity that makes the run exit nonzero "
             "(default: warning)",
    )
    check.add_argument(
        "--show-suppressed", action="store_true",
        help="include findings silenced by reprolint comments in the report",
    )
    check.add_argument(
        "--json", action="store_true",
        help="emit the findings + invariant results as one JSON document",
    )
    check.add_argument(
        "--no-semantic", action="store_true",
        help="skip the project-wide semantic rules (dataflow + "
             "wire-symmetry); per-file rules still run",
    )
    check.add_argument(
        "--cache", metavar="PATH", default=None,
        help="content-hash analysis cache file; unchanged files (and an "
             "unchanged project, for the semantic layer) reuse cached "
             "findings",
    )
    check.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="also write the findings as a SARIF 2.1.0 log to PATH",
    )
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
