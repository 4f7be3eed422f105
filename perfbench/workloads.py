"""The four benchmark workloads: one closed-loop iteration each.

Every workload is a single process and a single thread in which one
application issues each operation after the previous one returns.

- ``word``: DeltaCFS (Table II config) replays the benchmark-scale Word
  trace. Delta encoding runs synchronously inside ``rename``.
- ``wechat``: the same client replays the benchmark-scale WeChat trace.
  Every small write copies the whole 8.5 MB database; delta never fires.
- ``fleet``: the committed bursty 10^4-client point of ``FLEET_CURVE``
  through the sharded server.
- ``paper``: Table II / Fig. 8 / Fig. 9 at fast scale, all five systems.

Replays are driven here, through the public ``build_system`` and
``apply_op``, so each application call can be timed; the loop mirrors
``repro.harness.runner.run_trace`` step for step (the tests prove the
modelled results identical). Building systems directly also bypasses the
module-level run cache of ``repro.harness.experiments``, so every paper
iteration does the full work.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.common.config import DeltaCFSConfig
from repro.common.errors import NotFoundError
from repro.cost.profile import MOBILE_PROFILE, PC_PROFILE
from repro.harness import fleet as fleet_module
from repro.harness.experiments import (
    APPEND_SCALE,
    MOBILE_SOLUTIONS,
    PC_SOLUTIONS,
    RANDOM_SCALE,
    WECHAT_SCALE,
    WORD_SCALE,
    _scaled_kwargs,
)
from repro.harness.fleet import FleetSpec, bench_doc, run_fleet
from repro.harness.runner import SystemUnderTest, bench_metrics, build_system
from repro.metrics.collector import RunResult
from repro.net.transport import MOBILE_NETWORK, PC_NETWORK
from repro.vfs.filesystem import MemoryFileSystem
from repro.vfs.ops import WriteOp
from repro.workloads import (
    append_write_trace,
    random_write_trace,
    wechat_trace,
    word_trace,
)
from repro.workloads.traces import Trace, apply_op

WORKLOADS = ("word", "wechat", "fleet", "paper")

# The seed at which each workload reproduces a committed configuration:
# the generators' own defaults, and FleetSpec.seed for the fleet. For
# ``paper`` the seed s feeds append/random/word/wechat as s, s+1, s+2, s+3,
# which at s = 1 is exactly ``bench_traces(fast=True)``.
DEFAULT_SEEDS = {"word": 3, "wechat": 4, "fleet": 0, "paper": 1}

WORD_SAVES = 61
WECHAT_MODIFICATIONS = 373


@dataclass
class Iteration:
    """What one iteration measured and produced."""

    setup_s: float = 0.0
    window_s: float = 0.0
    ops: int = 0
    latencies: List[float] = field(default_factory=list)
    modelled: Dict[str, float] = field(default_factory=dict)
    up_bytes: int = 0
    cpu_ticks: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    app_write_bytes: int = 0
    gen_s: float = 0.0
    deltas_triggered: int = 0
    deltas_kept: int = 0
    provision_s: float = 0.0
    virt_sync_p99_s: float = 0.0


# -- replays -------------------------------------------------------------------


def _build(solution: str, scale: int, setting: str) -> SystemUnderTest:
    profile, network = (
        (MOBILE_PROFILE, MOBILE_NETWORK) if setting == "mobile"
        else (PC_PROFILE, PC_NETWORK)
    )
    return build_system(
        solution,
        profile=profile,
        network=network,
        config=(
            DeltaCFSConfig(enable_checksums=False)
            if solution == "deltacfs" else None
        ),
        **_scaled_kwargs(scale),
    )


def _preload(system: SystemUnderTest, trace: Trace) -> None:
    """Install and sync the trace's preloaded files, then zero the meters.

    The same steps, in the same order, as the runner's preload.
    """
    if not trace.preload:
        return
    for path, content in sorted(trace.preload.items()):
        system.fs.create(path)
        if content:
            system.fs.write(path, 0, content)
        system.fs.close(path)
    for _ in range(12):
        system.clock.advance(1.0)
        system.pump(system.clock.now())
    system.flush()
    system.reset_counters()


def setup_replay(solution: str, trace: Trace, scale: int, setting: str):
    """Build and preload one system; returns it with the seconds taken."""
    start = perf_counter()
    system = _build(solution, scale, setting)
    _preload(system, trace)
    return system, perf_counter() - start


def replay(
    solution: str,
    trace: Trace,
    scale: int,
    setting: str,
    it: Iteration,
    tracer=None,
) -> None:
    """Set up, replay, settle and flush one system; account into ``it``."""
    system, setup_s = setup_replay(solution, trace, scale, setting)
    fs, clock, pump = system.fs, system.clock, system.pump
    latencies = it.latencies
    failures = it.failures
    if tracer is not None:
        tracer.recording = True
    start = perf_counter()
    for op in trace.ops:
        while op.timestamp > clock.now():
            clock.advance(min(1.0, op.timestamp - clock.now()))
            pump(clock.now())
        op_start = perf_counter()
        try:
            apply_op(fs, op)
        except Exception as exc:  # an op that raised is a counted failure
            failures.append(f"{solution}/{trace.name}: {op!r:.80} raised {exc!r}")
        latencies.append(perf_counter() - op_start)
    pump(clock.now())
    for _ in range(10):
        clock.advance(1.0)
        pump(clock.now())
    system.flush()
    it.window_s += perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    it.setup_s += setup_s
    it.ops += len(trace.ops)
    it.attempted += len(trace.ops)
    it.app_write_bytes += sum(
        len(op.data) for op in trace.ops if isinstance(op, WriteOp)
    )

    result = RunResult(
        solution=solution,
        trace=trace.name,
        client_ticks=system.client_meter.total,
        server_ticks=system.server_meter.total,
        up_bytes=system.channel.stats.up_bytes,
        down_bytes=system.channel.stats.down_bytes,
        update_bytes=trace.stats.update_bytes,
        duration=clock.now(),
    )
    if setting == "mobile":
        result.extra["setting"] = "mobile"
    it.modelled.update(bench_metrics(result))
    it.up_bytes += result.up_bytes
    it.cpu_ticks += result.client_ticks + result.server_ticks
    if solution == "deltacfs":
        it.deltas_triggered += system.client.stats.deltas_triggered
        it.deltas_kept += system.client.stats.deltas_kept
    _check_converged(system, f"{setting}/{trace.name}/{solution}", it)


def _check_converged(system: SystemUnderTest, label: str, it: Iteration) -> None:
    """Every client file must have the same bytes on the cloud after flush."""
    local = system.fs
    while not isinstance(local, MemoryFileSystem):
        local = local.inner
    for path in local.walk_files():
        it.attempted += 1
        try:
            cloud = system.server.file_content(path)
        except NotFoundError:
            it.failures.append(f"{label}: {path} is not on the cloud")
            continue
        if cloud != local.read_file(path):
            it.failures.append(f"{label}: {path} differs between client and cloud")


def _timed_gen(make, it: Iteration) -> Trace:
    start = perf_counter()
    trace = make()
    it.gen_s += perf_counter() - start
    it.setup_s += perf_counter() - start
    return trace


def word_trace_for(seed: int) -> Trace:
    return word_trace(scale=WORD_SCALE, saves=WORD_SAVES, seed=seed)


def wechat_trace_for(seed: int) -> Trace:
    return wechat_trace(
        scale=WECHAT_SCALE, modifications=WECHAT_MODIFICATIONS, seed=seed
    )


def paper_traces(seed: int):
    """``bench_traces(fast=True)`` with its four seeds derived from ``seed``."""
    return {
        "append_write": (
            lambda: append_write_trace(scale=APPEND_SCALE, appends=10, seed=seed),
            APPEND_SCALE,
        ),
        "random_write": (
            lambda: random_write_trace(scale=RANDOM_SCALE, writes=10, seed=seed + 1),
            RANDOM_SCALE,
        ),
        "word": (
            lambda: word_trace(scale=WORD_SCALE, saves=12, seed=seed + 2),
            WORD_SCALE,
        ),
        "wechat": (
            lambda: wechat_trace(scale=WECHAT_SCALE, modifications=40, seed=seed + 3),
            WECHAT_SCALE,
        ),
    }


def _deltacfs_replay(make, scale: int, it: Iteration, tracer) -> None:
    trace = _timed_gen(make, it)
    replay("deltacfs", trace, scale, "pc", it, tracer)


def word_iteration(seed: int, tracer=None) -> Iteration:
    it = Iteration()
    _deltacfs_replay(lambda: word_trace_for(seed), WORD_SCALE, it, tracer)
    return it


def wechat_iteration(seed: int, tracer=None) -> Iteration:
    it = Iteration()
    _deltacfs_replay(lambda: wechat_trace_for(seed), WECHAT_SCALE, it, tracer)
    return it


def _paper_runs(seed: int, it: Iteration):
    """Table II's runs in its order: PC rows for every trace, then mobile."""
    traces = [
        (_timed_gen(make, it), scale) for make, scale in paper_traces(seed).values()
    ]
    for setting, solutions in (("pc", PC_SOLUTIONS), ("mobile", MOBILE_SOLUTIONS)):
        for trace, scale in traces:
            for solution in solutions:
                yield solution, trace, scale, setting


def paper_iteration(seed: int, tracer=None) -> Iteration:
    it = Iteration()
    for run in _paper_runs(seed, it):
        replay(*run, it, tracer)
    return it


def _deltacfs_setup(make, scale: int) -> float:
    it = Iteration()
    trace = _timed_gen(make, it)
    return it.setup_s + setup_replay("deltacfs", trace, scale, "pc")[1]


def word_setup(seed: int) -> float:
    return _deltacfs_setup(lambda: word_trace_for(seed), WORD_SCALE)


def wechat_setup(seed: int) -> float:
    return _deltacfs_setup(lambda: wechat_trace_for(seed), WECHAT_SCALE)


def paper_setup(seed: int) -> float:
    it = Iteration()
    replays_s = sum(setup_replay(*run)[1] for run in _paper_runs(seed, it))
    return it.setup_s + replays_s


# -- fleet ---------------------------------------------------------------------


def fleet_spec(seed: int) -> FleetSpec:
    """The committed bursty 10^4-client ``FLEET_CURVE`` point, reseeded."""
    return FleetSpec(n_clients=10_000, n_shards=8, arrival="bursty", seed=seed)


class _SetupDone(Exception):
    """Raised from the first arrival draw to stop a setup-only fleet run."""


class _FleetProbe:
    """Hooks ``run_fleet`` from outside at two module-level names.

    ``provision_clients`` is wrapped to time provisioning and keep the
    clients and router for the convergence check. The first ``_next_gap``
    call is the first statement after the seed settle, so it marks the end
    of set-up; it also starts the per-write timers, which move the cyclic
    collector between writes in the traced window as in the plain one.
    """

    def __init__(self, setup_only: bool, tracer=None):
        self.setup_only = setup_only
        self.tracer = tracer
        self.latencies: List[float] = []
        self.setup_end: Optional[float] = None
        self.provision_s = 0.0
        self.clients: list = []
        self.router = None
        self._restore: List = []

    def __enter__(self) -> "_FleetProbe":
        provision = fleet_module.provision_clients
        next_gap = fleet_module._next_gap
        probe = self

        def provision_clients(n_clients, *, server, **kwargs):
            start = perf_counter()
            clients, channels = provision(n_clients, server=server, **kwargs)
            probe.provision_s = perf_counter() - start
            probe.clients, probe.router = clients, server
            return clients, channels

        def first_gap(*args, **kwargs):
            probe.setup_end = perf_counter()
            fleet_module._next_gap = next_gap
            if probe.setup_only:
                raise _SetupDone()
            probe._time_client_ops()
            if probe.tracer is not None:
                probe.tracer.recording = True
            return next_gap(*args, **kwargs)

        fleet_module.provision_clients = provision_clients
        fleet_module._next_gap = first_gap
        self._restore.append(
            lambda: setattr(fleet_module, "provision_clients", provision)
        )
        self._restore.append(lambda: setattr(fleet_module, "_next_gap", next_gap))
        return self

    def _time_client_ops(self) -> None:
        """Time each fleet write: the client's ``write`` through its ``close``.

        The event loop issues the two back to back, so the pair is one
        application save. Timing them apart would put the median of a
        50/50 mix of cheap closes and dearer writes in the gap between
        the two.

        The cyclic collector runs between saves instead of inside them:
        automatic collection is off for the window, and after each save
        the young and middle generations are collected when the
        interpreter's own thresholds say they are due. The window pays
        for those collections, but no save does. About 1% of the saves
        would otherwise carry a ~100 us collection, exactly at the p99
        rank, so the p99 would flip between a save and a save plus a
        collection on a slight shift of the allocation count. Full
        collections, which the interpreter defers while the heap grows
        and which traverse every provisioned client, wait until the
        window ends; automatically they come two or three times a
        window, at random points, and take about a tenth of its time.
        """
        from repro.core.client import DeltaCFSClient

        write = DeltaCFSClient.__dict__["write"]
        close = DeltaCFSClient.__dict__["close"]
        latencies = self.latencies
        started = [0.0]
        young_threshold, middle_threshold, _ = gc.get_threshold()

        def timed_write(*args, **kwargs):
            started[0] = perf_counter()
            return write(*args, **kwargs)

        def timed_close(*args, **kwargs):
            try:
                return close(*args, **kwargs)
            finally:
                latencies.append(perf_counter() - started[0])
                young, middle, _ = gc.get_count()
                if young > young_threshold:
                    # As the automatic collector would: every
                    # middle_threshold young collections, one of the
                    # middle generation too.
                    gc.collect(1 if middle + 1 >= middle_threshold else 0)

        DeltaCFSClient.write = timed_write
        DeltaCFSClient.close = timed_close
        gc.disable()
        self._restore.append(lambda: setattr(DeltaCFSClient, "write", write))
        self._restore.append(lambda: setattr(DeltaCFSClient, "close", close))
        self._restore.append(gc.enable)

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.recording = False
        while self._restore:
            self._restore.pop()()


def fleet_iteration(seed: int, tracer=None) -> Iteration:
    it = Iteration()
    spec = fleet_spec(seed)
    with _FleetProbe(setup_only=False, tracer=tracer) as probe:
        start = perf_counter()
        result = run_fleet(spec)
        end = perf_counter()
    it.setup_s = probe.setup_end - start
    it.window_s = end - probe.setup_end
    it.provision_s = probe.provision_s
    it.latencies = probe.latencies
    it.ops = result.writes
    it.attempted = it.ops
    it.app_write_bytes = result.writes * spec.write_size
    it.modelled = dict(bench_doc([result])["metrics"])
    it.up_bytes = result.total_up_bytes
    it.cpu_ticks = sum(result.shard_ticks)
    it.virt_sync_p99_s = result.p99_latency
    for client in probe.clients:
        it.deltas_triggered += client.stats.deltas_triggered
        it.deltas_kept += client.stats.deltas_kept
    for cid, client in enumerate(probe.clients, start=1):
        path = f"/u{cid}/data.bin"
        it.attempted += 1
        if probe.router.file_content(path) != client.inner.read_file(path):
            it.failures.append(f"fleet: {path} differs between client and cloud")
    return it


def fleet_setup(seed: int) -> float:
    with _FleetProbe(setup_only=True) as probe:
        start = perf_counter()
        try:
            run_fleet(fleet_spec(seed))
        except _SetupDone:
            pass
        else:
            raise RuntimeError("fleet set-up probe never fired")
    return probe.setup_end - start


ITERATIONS = {
    "word": word_iteration,
    "wechat": wechat_iteration,
    "fleet": fleet_iteration,
    "paper": paper_iteration,
}

SETUPS = {
    "word": word_setup,
    "wechat": wechat_setup,
    "fleet": fleet_setup,
    "paper": paper_setup,
}
