"""Fleet-scale discrete-event simulation against the sharded cloud.

Where :mod:`repro.harness.capacity` replays a lock-step workload (every
client writes every round) against one ``CloudServer``, this driver runs
10^4 – 10^6 clients in **virtual time** against a :class:`ShardRouter`:
each client's writes arrive on its own stochastic schedule (Poisson or
bursty), uploads are debounced by the real Sync Queue, and each shard is
modelled as a single wimpy core draining its apply work FIFO. The
output is the scaling curve the paper's Section VI hand-waves: clients
vs p99 sync latency, with per-shard CPU-tick accounting.

Mechanics
---------

Every event is ``(time, seq, client, kind)`` on one heap; ``seq`` breaks
ties deterministically. A WRITE event performs the client's
``write``+``close`` through the full DeltaCFS pipeline and schedules a
PUMP at ``time + upload_delay`` (when the queue node becomes due). A
PUMP ships the client's due units into the router; the CPU ticks the
client's home shard charged during that pump, scaled by
``tick_seconds``, become the service demand appended to that shard's
busy horizon:

    start = max(now, shard_busy);  done = start + ticks * tick_seconds

Sync latency for each write is ``done - write_time`` — debounce wait,
queueing behind other tenants on the shard, and service, all included.

Telemetry is streaming and fixed-memory: instead of buffering every
latency sample, the driver feeds a :class:`~repro.obs.sketch.ShardWindows`
rollup (per-shard, per-virtual-time-window quantile sketches, queue-depth
peaks and busy time — O(shards × windows) memory regardless of client
count). Reported quantiles come from the merged sketches, within the
sketch's ``alpha`` relative-error bound; ``FleetResult.health()`` turns
the same rollup into an SLO health report (``repro fleet --health``).

Determinism: all randomness flows from one ``DeterministicRandom`` seed
via per-client forks, so a (seed, spec) pair reproduces the same curve
bit-for-bit on any machine — which is what lets ``BENCH_fleet.json``
be gated against a committed baseline.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import DeltaCFSConfig
from repro.common.rng import DeterministicRandom
from repro.core.client import DeltaCFSClient
from repro.net.transport import Channel, NetworkStats
from repro.obs import NULL_OBS, Observability
from repro.obs.health import HealthReport, health_from_windows
from repro.obs.sketch import ShardWindows
from repro.server.shard import ShardRouter
from repro.sim import Simulation

__all__ = [
    "FleetSpec",
    "FleetResult",
    "provision_clients",
    "run_fleet",
    "fleet_curve",
    "FLEET_CURVE",
]


def provision_clients(
    n_clients: int,
    *,
    server,
    rng: DeterministicRandom,
    file_size: int,
    obs: Observability = NULL_OBS,
) -> Tuple[List[DeltaCFSClient], List[Channel]]:
    """The one client-provisioning path shared by capacity and fleet runs.

    Adds ``n_clients`` clients to a :class:`~repro.sim.Simulation` around
    ``server`` (a ``CloudServer`` or ``ShardRouter``). Client ``i``
    (1-based) syncs only its private ``/u{i}`` folder (Section III-D
    selective sharing; on a sharded server this pins it to one shard),
    runs without checksums or client-side CPU metering, and holds a
    ``/u{i}/data.bin`` of ``file_size`` bytes from ``rng.fork(str(i))``.
    The clients share the simulation's clock.

    The seed uploads are *enqueued*, not yet shipped: the caller settles
    them (and resets meters) before its measurement window, so different
    harnesses can settle at whatever cadence they need without this
    function perturbing their clocks.
    """
    sim = Simulation.around(server, obs=obs)
    for client_id in range(1, n_clients + 1):
        client = sim.add_client(
            client_id=client_id,
            config=DeltaCFSConfig(enable_checksums=False),
            profile=None,
            shares=(f"/u{client_id}",),
        )
        path = f"/u{client_id}/data.bin"
        client.mkdir(f"/u{client_id}")
        client.create(path)
        client.write(path, 0, rng.fork(str(client_id)).random_bytes(file_size))
        client.close(path)
    return sim.clients, list(sim.channels.values())


@dataclass
class FleetSpec:
    """One fleet-simulation configuration.

    Args:
        n_clients: simulated clients (each in a private namespace).
        n_shards: CloudServer shards behind the router.
        writes_per_client: in-place writes per client after seeding.
        write_size: bytes per write.
        file_size: seeded file size per client (kept small — 10^5
            clients at the capacity harness's 256 KiB would be 25 GiB).
        arrival: ``"poisson"`` (independent exponential gaps) or
            ``"bursty"`` (synchronized waves with uniform jitter — the
            everyone-saves-at-once shape that stresses shard queues).
        mean_gap: poisson — mean seconds between one client's writes.
        burst_every: bursty — seconds between waves.
        burst_jitter: bursty — uniform jitter width inside a wave.
        window_seconds: width of the telemetry rollup windows (virtual
            seconds); per-shard latency sketches, queue peaks and busy
            time aggregate per window.
        sketch_alpha: relative-error bound of the latency quantile
            sketches (0.005 → reported quantiles within 0.5% of exact).
        slo_seconds: the sync-latency objective — a write meets the SLO
            when its sync latency is at or under this.
        stall_horizon: a write whose sync takes longer than this counts
            as a stall in the health report.
        tick_seconds: virtual seconds of shard-core time per modelled
            CPU tick; the wimpy-core scale factor relating the cost
            model's ticks to the simulation's clock. The default (8.0)
            is calibrated so the committed 10^4-client curve runs its
            shards at moderate utilization — low enough that the paper's
            wimpy-server claim holds, high enough that the bursty
            arrival mix visibly queues.
        seed: root of the deterministic randomness tree.
        vnodes: hash-ring virtual nodes per shard.
    """

    n_clients: int = 10_000
    n_shards: int = 8
    writes_per_client: int = 3
    write_size: int = 512
    file_size: int = 4096
    arrival: str = "poisson"
    mean_gap: float = 20.0
    burst_every: float = 20.0
    burst_jitter: float = 4.0
    tick_seconds: float = 8.0
    seed: int = 0
    vnodes: int = 32
    window_seconds: float = 20.0
    sketch_alpha: float = 0.005
    slo_seconds: float = 15.0
    stall_horizon: float = 60.0

    def validate(self) -> None:
        if self.n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.write_size >= self.file_size:
            raise ValueError("write_size must be smaller than file_size")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not 0.0 < self.sketch_alpha < 1.0:
            raise ValueError("sketch_alpha must be in (0, 1)")
        if self.slo_seconds <= 0 or self.stall_horizon <= 0:
            raise ValueError("slo_seconds and stall_horizon must be positive")


@dataclass
class FleetResult:
    """Measured outcome of one :func:`run_fleet`."""

    spec: FleetSpec
    writes: int
    p50_latency: float
    p90_latency: float
    p99_latency: float
    max_latency: float
    shard_ticks: List[float]
    shard_busy: List[float]
    shard_queue_peak: List[int]
    total_up_bytes: int
    duration: float
    migrations: int
    conflicts: int
    rollup: ShardWindows
    shard_stalls: List[int]
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ticks_per_client(self) -> float:
        return sum(self.shard_ticks) / self.spec.n_clients

    @property
    def stalls(self) -> int:
        return sum(self.shard_stalls)

    def health(
        self,
        *,
        slo_seconds: Optional[float] = None,
        attainment_target: Optional[float] = None,
    ) -> HealthReport:
        """SLO health report over this run's streaming rollups."""
        kwargs = {}
        if attainment_target is not None:
            kwargs["attainment_target"] = attainment_target
        return health_from_windows(
            self.rollup,
            slo_seconds=(
                self.spec.slo_seconds if slo_seconds is None else slo_seconds
            ),
            stall_horizon=self.spec.stall_horizon,
            stalls_by_shard={
                s: n for s, n in enumerate(self.shard_stalls) if n
            },
            **kwargs,
        )


_WRITE, _PUMP = 0, 1


def run_fleet(spec: FleetSpec, *, obs: Observability = NULL_OBS) -> FleetResult:
    """Run one fleet simulation in virtual time; fully deterministic."""
    spec.validate()
    rng = DeterministicRandom(spec.seed)
    router = ShardRouter(spec.n_shards, vnodes=spec.vnodes, obs=obs)
    clients, channels = provision_clients(
        spec.n_clients,
        server=router,
        rng=rng,
        file_size=spec.file_size,
        obs=obs,
    )
    clock = clients[0].clock
    home_shard = [
        router.shard_index_for_path(f"/u{cid}/data.bin")
        for cid in range(1, spec.n_clients + 1)
    ]
    obs.set_gauge("fleet.clients", spec.n_clients)

    # Settle the seed uploads outside the measurement window.
    upload_delay = clients[0].config.upload_delay
    clock.advance(upload_delay + 1.0)
    for client in clients:
        client.pump()
        client.flush()
    for meter in router.shard_meters:
        meter.reset()
    for channel in channels:
        channel.stats = NetworkStats()

    # Per-client write schedules and payload streams.
    arrival_rngs = [rng.fork(f"t{cid}") for cid in range(1, spec.n_clients + 1)]
    write_rngs = [rng.fork(f"w{cid}") for cid in range(1, spec.n_clients + 1)]

    t0 = clock.now()
    heap: List[Tuple[float, int, int, int]] = []
    seq = 0
    for i in range(spec.n_clients):
        t = t0 + _next_gap(spec, arrival_rngs[i], wave=0)
        heapq.heappush(heap, (t, seq, i, _WRITE))
        seq += 1

    writes_left = [spec.writes_per_client] * spec.n_clients
    waves = [0] * spec.n_clients
    pending: List[List[float]] = [[] for _ in range(spec.n_clients)]
    # Streaming telemetry: fixed-memory windowed rollups instead of an
    # O(writes) latency buffer. Tracked unconditionally so reported
    # quantiles are identical with observability on or off.
    rollup = ShardWindows(
        spec.n_shards,
        spec.window_seconds,
        t0=t0,
        alpha=spec.sketch_alpha,
    )
    shard_stalls = [0] * spec.n_shards
    shard_busy = [0.0] * spec.n_shards
    shard_busy_total = [0.0] * spec.n_shards
    shard_depth = [0] * spec.n_shards
    shard_queue_peak = [0] * spec.n_shards
    completions: List[Tuple[float, int]] = []  # (done_time, shard)
    up_marks = [0] * spec.n_clients
    writes_issued = 0

    def drain_completions(now: float) -> None:
        while completions and completions[0][0] <= now:
            _, shard = heapq.heappop(completions)
            shard_depth[shard] -= 1

    while heap:
        t, _, i, kind = heapq.heappop(heap)
        now = clock.now()
        if t > now:
            clock.advance(t - now)
        drain_completions(t)
        client = clients[i]
        cid = i + 1
        path = f"/u{cid}/data.bin"
        if kind == _WRITE:
            wrng = write_rngs[i]
            offset = wrng.randint(0, spec.file_size - spec.write_size - 1)
            client.write(path, offset, wrng.random_bytes(spec.write_size))
            client.close(path)
            pending[i].append(t)
            writes_issued += 1
            writes_left[i] -= 1
            obs.inc("fleet.writes.issued")
            heapq.heappush(heap, (t + upload_delay + 1e-9, seq, i, _PUMP))
            seq += 1
            if writes_left[i] > 0:
                waves[i] += 1
                gap = _next_gap(spec, arrival_rngs[i], wave=waves[i])
                base = t if spec.arrival == "poisson" else t0
                heapq.heappush(heap, (base + gap, seq, i, _WRITE))
                seq += 1
        else:  # _PUMP
            shard = home_shard[i]
            meter = router.shard_meters[shard]
            ticks_before = meter.total
            client.pump()
            shipped = channels[i].stats.up_bytes > up_marks[i]
            if not shipped:
                continue
            up_marks[i] = channels[i].stats.up_bytes
            service = (meter.total - ticks_before) * spec.tick_seconds
            start = max(t, shard_busy[shard])
            done = start + service
            shard_busy[shard] = done
            shard_busy_total[shard] += service
            heapq.heappush(completions, (done, shard))
            shard_depth[shard] += 1
            if shard_depth[shard] > shard_queue_peak[shard]:
                shard_queue_peak[shard] = shard_depth[shard]
            rollup.record_depth(shard, t, shard_depth[shard])
            rollup.record_busy(shard, start, service)
            if obs.enabled:
                obs.set_gauge(
                    "fleet.shard.queue_depth", shard_depth[shard], shard=shard
                )
                obs.inc("fleet.shard.busy_time", service, shard=shard)
            for write_t in pending[i]:
                latency = done - write_t
                rollup.record_latency(shard, done, latency)
                obs.observe("fleet.sync.latency", latency)
                if latency > spec.stall_horizon:
                    shard_stalls[shard] += 1
                    if obs.enabled:
                        obs.event(
                            "health.stall",
                            shard=shard,
                            client=cid,
                            path=path,
                            waited=latency,
                        )
            pending[i].clear()

    # Anything still queued (a write whose pump raced the heap drain)
    # ships at the end of the horizon.
    for i, client in enumerate(clients):
        if not pending[i]:
            continue
        shard = home_shard[i]
        meter = router.shard_meters[shard]
        ticks_before = meter.total
        client.flush()
        service = (meter.total - ticks_before) * spec.tick_seconds
        start = max(clock.now(), shard_busy[shard])
        done = start + service
        shard_busy[shard] = done
        shard_busy_total[shard] += service
        rollup.record_busy(shard, start, service)
        for write_t in pending[i]:
            latency = done - write_t
            rollup.record_latency(shard, done, latency)
            obs.observe("fleet.sync.latency", latency)
            if latency > spec.stall_horizon:
                shard_stalls[shard] += 1
                if obs.enabled:
                    obs.event(
                        "health.stall",
                        shard=shard,
                        client=i + 1,
                        path=f"/u{i + 1}/data.bin",
                        waited=latency,
                    )
        pending[i].clear()

    if obs.enabled:
        _emit_telemetry(obs, spec, rollup, shard_stalls)

    overall = rollup.overall_sketch()
    total_up = sum(c.stats.up_bytes for c in channels)
    conflicts = sum(
        1 for shard in router.shards for r in shard.apply_log if not r.ok
    )
    return FleetResult(
        spec=spec,
        writes=writes_issued,
        p50_latency=overall.quantile(0.50),
        p90_latency=overall.quantile(0.90),
        p99_latency=overall.quantile(0.99),
        max_latency=overall.max if overall.count else 0.0,
        shard_ticks=[m.total for m in router.shard_meters],
        shard_busy=shard_busy_total,
        shard_queue_peak=shard_queue_peak,
        total_up_bytes=total_up,
        duration=clock.now(),
        migrations=router.migrations,
        conflicts=conflicts,
        rollup=rollup,
        shard_stalls=shard_stalls,
    )


def _emit_telemetry(
    obs: Observability,
    spec: FleetSpec,
    rollup: ShardWindows,
    shard_stalls: List[int],
) -> None:
    """Flush the streaming rollups into the obs sink (obs-enabled only)."""
    obs.set_gauge("fleet.window.seconds", spec.window_seconds)
    for cell in rollup.windows():
        obs.inc("fleet.window.rollovers", shard=cell.shard)
        obs.event(
            "fleet.window.closed",
            shard=cell.shard,
            window=cell.window,
            start=cell.start,
            end=cell.end,
            writes=cell.writes,
            p50=cell.sketch.quantile(0.50),
            p99=cell.sketch.quantile(0.99),
            queue_peak=cell.queue_peak,
            busy=cell.busy,
        )
    report = health_from_windows(
        rollup,
        slo_seconds=spec.slo_seconds,
        stall_horizon=spec.stall_horizon,
        stalls_by_shard={s: n for s, n in enumerate(shard_stalls) if n},
    )
    for shard_health in report.shards:
        obs.set_gauge(
            "health.slo.attainment",
            shard_health.slo_attainment,
            shard=shard_health.shard,
        )
        if shard_health.stalls:
            obs.inc("health.stalls", shard_health.stalls, shard=shard_health.shard)
        if shard_health.regressed_windows:
            obs.inc(
                "health.regressions",
                len(shard_health.regressed_windows),
                shard=shard_health.shard,
            )


def _next_gap(spec: FleetSpec, rng: DeterministicRandom, *, wave: int) -> float:
    """Next arrival offset for one client.

    Poisson: an exponential gap from the previous write. Bursty: wave
    ``k`` fires at ``(k + 1) * burst_every`` plus uniform jitter — every
    client hits the same wall-clock wave, which is the worst case for a
    FIFO shard core.
    """
    if spec.arrival == "poisson":
        return -math.log(1.0 - rng.random()) * spec.mean_gap
    return (wave + 1) * spec.burst_every + rng.random() * spec.burst_jitter


def _quantile(sorted_values: List[float], q: float) -> float:
    """Exact linear-interpolation quantile of a pre-sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


# The committed scaling curve: fixed spec per point so the BENCH_fleet
# snapshot is comparable across commits. 8 shards throughout; client
# count sweeps through the 10^4 acceptance scale; the bursty point
# stresses queueing at the same size as the largest poisson point.
FLEET_CURVE: Tuple[FleetSpec, ...] = (
    FleetSpec(n_clients=1_000, n_shards=8),
    FleetSpec(n_clients=4_000, n_shards=8),
    FleetSpec(n_clients=10_000, n_shards=8),
    FleetSpec(n_clients=10_000, n_shards=8, arrival="bursty"),
)


def fleet_curve(
    specs: Tuple[FleetSpec, ...] = FLEET_CURVE,
    *,
    obs: Observability = NULL_OBS,
) -> List[FleetResult]:
    """Run the committed scaling curve (or a custom sweep)."""
    return [run_fleet(spec, obs=obs) for spec in specs]


def bench_doc(results: List[FleetResult]) -> Dict[str, object]:
    """``BENCH_fleet.json`` document for :mod:`tools.bench_gate`."""
    metrics: Dict[str, float] = {}
    for result in results:
        spec = result.spec
        key = f"fleet-{spec.n_clients}x{spec.n_shards}-{spec.arrival}"
        metrics[f"{key}/p50_latency_s"] = result.p50_latency
        metrics[f"{key}/p99_latency_s"] = result.p99_latency
        metrics[f"{key}/shard_ticks_max"] = max(result.shard_ticks)
        metrics[f"{key}/ticks_per_client"] = result.ticks_per_client
        metrics[f"{key}/up_bytes"] = float(result.total_up_bytes)
    return {"bench": "fleet", "schema": 1, "metrics": metrics}
