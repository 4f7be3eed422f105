"""Uniform construction and trace execution for all five sync systems."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines.dropbox import DropboxClient
from repro.baselines.fullsync import FullUploadClient
from repro.baselines.nfs import NFSClient
from repro.baselines.seafile import SeafileClient
from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.cost.meter import CostMeter
from repro.cost.profile import CostProfile, PC_PROFILE
from repro.faults.network import NO_FAULTS, NetworkFaults
from repro.metrics.collector import RunResult
from repro.net.reliable import RetryPolicy
from repro.net.transport import Channel, NetworkModel, NetworkStats, PC_NETWORK
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import CloudServer
from repro.sim import Simulation, cloud_profile
from repro.vfs.filesystem import FileSystemAPI, MemoryFileSystem
from repro.workloads.traces import Trace, replay

SOLUTIONS = ("deltacfs", "dropbox", "seafile", "nfs", "fullsync")


@dataclass
class SystemUnderTest:
    """One sync system wired to a simulated cloud, ready to replay a trace."""

    name: str
    fs: FileSystemAPI  # the surface the workload writes to
    clock: VirtualClock
    channel: Channel
    client_meter: CostMeter
    server_meter: CostMeter
    server: CloudServer
    pump: Callable[[float], object]
    flush: Callable[[], object]
    client: object  # the underlying client, for system-specific inspection

    def reset_counters(self) -> None:
        """Zero meters and traffic counters (after preload)."""
        self.client_meter.reset()
        self.server_meter.reset()
        self.channel.stats = NetworkStats()

    def preload(self, trace: Trace) -> None:
        """Install the trace's preloaded files and let them sync, then zero
        the counters, so the seed content stays outside the measurement."""
        if not trace.preload:
            return
        for path, content in sorted(trace.preload.items()):
            self.fs.create(path)
            if content:
                self.fs.write(path, 0, content)
            self.fs.close(path)
        # give time-based engines room to upload the seed content
        for _ in range(12):
            self.clock.advance(1.0)
            self.pump(self.clock.now())
        self.flush()
        self.reset_counters()


# Baseline clients sync on a timer. Dropbox syncs eagerly on inotify
# events — it repeatedly re-scans files that are *still being written*
# ("triggered by file modification events which occurs much more frequently
# than our relation triggered delta encoding", Section IV-B). Seafile
# commits on a longer quiescence window.
_SYNC_INTERVAL = {"dropbox": 0.45, "seafile": 2.0, "fullsync": 1.0}


def build_system(
    name: str,
    *,
    profile: CostProfile = PC_PROFILE,
    network: NetworkModel = PC_NETWORK,
    config: Optional[DeltaCFSConfig] = None,
    dropbox_dedup_size: int = 4 * 1024 * 1024,
    seafile_chunk_size: int = 1024 * 1024,
    obs: Observability = NULL_OBS,
    faults: NetworkFaults = NO_FAULTS,
    retry: Optional[RetryPolicy] = None,
    fault_seed: int = 0,
    journal_kv=None,
) -> SystemUnderTest:
    """Construct a sync system by name.

    The clock, cloud, meters, channel (and the DeltaCFS client itself)
    come from :class:`repro.sim.Simulation`. ``journal_kv`` (DeltaCFS
    only) attaches a crash-recovery journal backed by the given KV store,
    enabling ``client.recover()`` after a crash.

    ``profile`` selects PC vs mobile CPU costs; ``network`` the link model
    (slow WAN for mobile). Only the fullsync (Dropsync) client waits for
    an idle link before syncing. ``obs`` (default: the no-op ``NULL_OBS``)
    is wired into the channel, the server, and — for DeltaCFS — the client
    engine; its trace clock is bound to the run's virtual clock.

    A non-lossless ``faults`` plan (or an explicit ``retry`` policy) builds
    the system in *reliable mode*: uploads travel over a
    :class:`LossyChannel` seeded with ``fault_seed``, wrapped in
    :class:`ReliableTransport` envelopes, with the flush wrapper settling
    the transport (retransmitting until every message is acked). Only the
    DeltaCFS client supports reliable mode.

    When a trace is generated at ``1/scale`` of the paper's file sizes, the
    *structural* baseline granularities (Dropbox's 4 MB dedup unit,
    Seafile's 1 MB chunk) should be scaled by the same factor so the
    file-to-chunk ratios stay faithful; granularities tied to absolute
    write sizes (the 4 KB rsync block and NFS page) are not scaled.
    """
    if name not in SOLUTIONS:
        raise ValueError(f"unknown solution {name!r}; pick one of {SOLUTIONS}")
    if (not faults.lossless or retry is not None) and name != "deltacfs":
        raise ValueError(
            f"reliable mode (fault injection) is only wired for 'deltacfs', "
            f"not {name!r}"
        )
    if journal_kv is not None and name != "deltacfs":
        raise ValueError(
            f"the crash-recovery journal is only wired for 'deltacfs', "
            f"not {name!r}"
        )
    sim = Simulation.around(obs=obs, profile=cloud_profile(name, profile))
    if name == "deltacfs":
        client = fs = sim.add_client(
            config=config,
            profile=profile,
            network=network,
            journal_kv=journal_kv,
            faults=faults,
            retry=retry,
            fault_seed=fault_seed,
        )
        client_meter = sim.meters[client.client_id]
        channel = sim.channels[client.client_id]
    elif name == "nfs":
        # NFS traffic is not TLS-wrapped.
        client_meter, channel = sim.connect(
            profile, dataclasses.replace(network, encrypted=False)
        )
        client = fs = NFSClient(
            MemoryFileSystem(), server=sim.server, channel=channel, meter=client_meter
        )
    else:
        client_meter, channel = sim.connect(profile, network)
        link = dict(
            server=sim.server,
            channel=channel,
            meter=client_meter,
            sync_interval=_SYNC_INTERVAL[name],
            wait_for_idle_link=name == "fullsync",
        )
        if name == "dropbox":
            client = DropboxClient(**link, dedup_size=dropbox_dedup_size)
        elif name == "seafile":
            client = SeafileClient(**link, chunk_size=seafile_chunk_size)
        else:  # fullsync
            # Dropsync rides Dropbox's transport, which compresses uploads.
            client = FullUploadClient(**link, compression_ratio=0.8)
        fs = client.fs
    return SystemUnderTest(
        name=name,
        fs=fs,
        clock=sim.clock,
        channel=channel,
        client_meter=client_meter,
        server_meter=sim.server_meter,
        server=sim.server,
        pump=client.pump,
        flush=(
            (lambda: sim.flush(client)) if name == "deltacfs"
            else (lambda: client.flush(sim.clock.now()))
        ),
        client=client,
    )


def _counted_pump(system: SystemUnderTest, obs: Observability):
    """Wrap the system pump with run-level counters (no-op when disabled)."""
    if not obs.enabled:
        return system.pump

    def pump(now: float):
        obs.inc("run.pump.calls")
        shipped = system.pump(now)
        if isinstance(shipped, int) and shipped > 0:
            obs.inc("run.pump.shipped", shipped)
        return shipped

    return pump


def run_trace(
    name: str,
    trace: Trace,
    *,
    profile: CostProfile = PC_PROFILE,
    network: NetworkModel = PC_NETWORK,
    config: Optional[DeltaCFSConfig] = None,
    dropbox_dedup_size: int = 4 * 1024 * 1024,
    seafile_chunk_size: int = 1024 * 1024,
    obs: Observability = NULL_OBS,
    faults: NetworkFaults = NO_FAULTS,
    retry: Optional[RetryPolicy] = None,
    fault_seed: int = 0,
    journal_kv=None,
) -> RunResult:
    """Build ``name``, preload, replay ``trace``, flush, and collect.

    When ``obs`` is a live :class:`~repro.obs.Observability`, the run is
    wrapped in the documented span hierarchy (``run`` > ``run.preload`` /
    ``run.replay`` / ``run.settle`` / ``run.flush``) and every scalar
    metric series lands in :attr:`RunResult.extra` under its registry name.
    """
    system = build_system(
        name,
        profile=profile,
        network=network,
        config=config,
        dropbox_dedup_size=dropbox_dedup_size,
        seafile_chunk_size=seafile_chunk_size,
        obs=obs,
        faults=faults,
        retry=retry,
        fault_seed=fault_seed,
        journal_kv=journal_kv,
    )
    with obs.span("run", solution=name, trace=trace.name):
        with obs.span("run.preload"):
            system.preload(trace)
        if obs.enabled:
            # Mirror reset_counters(): metrics cover the measured window
            # only, so channel.* totals agree with NetworkStats. The trace
            # is left intact — run.preload records stay visible.
            obs.metrics.reset()
        with obs.span("run.replay"):
            replay(
                trace,
                system.fs,
                system.clock,
                pump=_counted_pump(system, obs),
            )
        # settle: let upload delays elapse under normal pumping, then drain
        with obs.span("run.settle"):
            pump = _counted_pump(system, obs)
            for _ in range(10):
                system.clock.advance(1.0)
                pump(system.clock.now())
        with obs.span("run.flush"):
            system.flush()

    extra = {}
    if name == "deltacfs":
        stats = system.client.stats
        extra = {
            "deltas_triggered": stats.deltas_triggered,
            "deltas_kept": stats.deltas_kept,
            "inplace_deltas": stats.inplace_deltas,
            "nodes_uploaded": stats.nodes_uploaded,
            "conflicts": stats.conflicts,
        }
        if system.client.transport is not None:
            tstats = system.client.transport.stats
            extra.update(
                {
                    "transport_sent": tstats.sent,
                    "transport_retransmits": tstats.retransmits,
                    "transport_timeouts": tstats.timeouts,
                    "transport_acked": tstats.acked,
                    "server_dedup_drops": system.server.dedup_drops,
                }
            )
    elif hasattr(system.client, "sync_rounds"):
        extra = {"sync_rounds": system.client.sync_rounds}
    if obs.enabled:
        extra.update(obs.metrics.scalar_snapshot())
    return RunResult(
        solution=name,
        trace=trace.name,
        client_ticks=system.client_meter.total,
        server_ticks=system.server_meter.total,
        up_bytes=system.channel.stats.up_bytes,
        down_bytes=system.channel.stats.down_bytes,
        update_bytes=trace.stats.update_bytes,
        duration=system.clock.now(),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# benchmark snapshots (the BENCH_<name>.json trajectory)
# ---------------------------------------------------------------------------

BENCH_SCHEMA = 1


def bench_metrics(result: RunResult) -> Dict[str, float]:
    """Flatten one run into the gate-comparable metric map.

    Keys are ``{setting/}trace/solution/metric`` (setting appears only
    when the experiment recorded one, e.g. ``mobile``), values are plain
    floats so the snapshot JSON-serializes losslessly. ``tue`` is emitted
    only when defined — division-by-zero runs (no logical update) have
    nothing to gate.
    """
    prefix = f"{result.trace}/{result.solution}"
    setting = result.extra.get("setting")
    if setting:
        prefix = f"{setting}/{prefix}"
    out: Dict[str, float] = {
        f"{prefix}/up_bytes": float(result.up_bytes),
        f"{prefix}/down_bytes": float(result.down_bytes),
        f"{prefix}/client_ticks": float(result.client_ticks),
        f"{prefix}/server_ticks": float(result.server_ticks),
    }
    if math.isfinite(result.tue):
        out[f"{prefix}/tue"] = float(result.tue)
    return out


def bench_snapshot(name: str, results: List[RunResult]) -> Dict[str, object]:
    """The ``BENCH_<name>.json`` document for one experiment's runs.

    The same shape is checked in as a baseline under
    ``benchmarks/baselines/`` and compared by ``tools/bench_gate.py``;
    baselines may additionally carry a ``tolerances`` map.
    """
    metrics: Dict[str, float] = {}
    for result in results:
        for key, value in bench_metrics(result).items():
            if key in metrics:
                raise ValueError(f"duplicate bench metric key {key!r} in {name}")
            metrics[key] = value
    return {"bench": name, "schema": BENCH_SCHEMA, "metrics": metrics}
