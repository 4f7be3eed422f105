"""High-level simulation facade and the one DeltaCFS topology builder.

Wires the pieces a study needs — one cloud, N DeltaCFS clients on shared
virtual time, accounted channels, per-principal meters — behind one
object, so examples and downstream experiments don't repeat the plumbing:

    from repro.sim import Simulation

    sim = Simulation(clients=2)
    laptop, phone = sim.clients
    laptop.create("/f")
    laptop.write("/f", 0, b"hello")
    laptop.close("/f")
    sim.settle()
    assert phone.read("/f", 0, None) == b"hello"
    print(sim.report())

Every harness builds its DeltaCFS topology here too (``build_system``,
``provision_clients``, the crash-recovery round trip), so three decisions
live only in this module: the profile the cloud is billed at
(:func:`cloud_profile`), which server meter a client's channel charges
(its share's shard behind a :class:`ShardRouter`), and how reliable mode
wraps a channel (:class:`LossyChannel` plus :class:`ReliableTransport`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.core.client import DeltaCFSClient
from repro.cost.meter import CostMeter, NULL_METER
from repro.cost.profile import CostProfile, PC_PROFILE
from repro.faults.network import NO_FAULTS, NetworkFaults
from repro.metrics.report import format_bytes, format_table
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.transport import Channel, LossyChannel, NetworkModel, PC_NETWORK
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import CloudServer
from repro.server.shard import ShardRouter
from repro.vfs.filesystem import FileSystemAPI, MemoryFileSystem


def cloud_profile(solution: str, client_profile: CostProfile) -> CostProfile:
    """The CPU profile the cloud is billed at when ``solution`` runs.

    The paper's cloud is an EC2 server in both settings, so it is billed
    at PC rates even when the client is a phone. Dropsync (``fullsync``)
    is the exception: its cloud work is billed at the client's profile,
    the rule Figure 2 and Table II's mobile rows were recorded under.
    """
    return client_profile if solution == "fullsync" else PC_PROFILE


class Simulation:
    """A cloud plus ``clients`` DeltaCFS devices on one virtual clock.

    Args:
        clients: number of devices sharing the sync namespace.
        config: DeltaCFS tunables applied to every client.
        network: link model for every client<->cloud channel.
        profile: CPU-cost profile for the clients (the cloud is billed at
            PC rates whatever the clients run on).
    """

    def __init__(
        self,
        clients: int = 1,
        *,
        config: Optional[DeltaCFSConfig] = None,
        network: NetworkModel = PC_NETWORK,
        profile: CostProfile = PC_PROFILE,
    ):
        if clients < 1:
            raise ValueError("need at least one client")
        self._open(None, NULL_OBS, PC_PROFILE)
        for _ in range(clients):
            self.add_client(config=config, network=network, profile=profile)

    @classmethod
    def around(
        cls,
        server=None,
        *,
        obs: Observability = NULL_OBS,
        profile: CostProfile = PC_PROFILE,
    ) -> "Simulation":
        """An empty topology, for harnesses that add their own clients.

        ``server`` is a :class:`CloudServer` or a :class:`ShardRouter`;
        ``None`` builds a ``CloudServer`` billed at ``profile``. ``obs``
        is bound to the clock and wired into everything added later.
        """
        sim = cls.__new__(cls)
        sim._open(server, obs, profile)
        return sim

    def _open(self, server, obs: Observability, profile: CostProfile) -> None:
        self.clock = VirtualClock()
        obs.bind_clock(self.clock)
        self.obs = obs
        if server is None:
            server = CloudServer(meter=CostMeter(profile), obs=obs)
        self.server = server
        self.server_meter: Optional[CostMeter] = (
            server.meter if isinstance(server, CloudServer) else None
        )
        self.clients: List[DeltaCFSClient] = []
        self.channels: Dict[int, Channel] = {}
        self.meters: Dict[int, CostMeter] = {}

    # -- building --------------------------------------------------------

    def _server_meter(self, shares: Optional[Tuple[str, ...]]) -> CostMeter:
        """The meter billed for server work on a client's traffic."""
        if isinstance(self.server, ShardRouter):
            root = shares[0] if shares else "/"
            return self.server.shard_meters[self.server.shard_index_for_path(root)]
        return self.server.meter

    def connect(
        self,
        profile: Optional[CostProfile] = PC_PROFILE,
        network: NetworkModel = PC_NETWORK,
        *,
        shares: Optional[Tuple[str, ...]] = None,
        faults: Optional[NetworkFaults] = None,
        fault_seed: int = 0,
    ) -> Tuple[CostMeter, Channel]:
        """A fresh client meter and a channel charging it and the server
        meter of the client's share; a :class:`LossyChannel` seeded with
        ``fault_seed`` when ``faults`` is given. ``profile=None`` leaves
        the client unmetered (``NULL_METER``), as fleet-scale runs do."""
        meter = CostMeter(profile) if profile is not None else NULL_METER
        server_meter = self._server_meter(shares)
        if faults is None:
            channel = Channel(
                network, client_meter=meter, server_meter=server_meter,
                obs=self.obs,
            )
        else:
            channel = LossyChannel(
                network, faults=faults, seed=fault_seed, client_meter=meter,
                server_meter=server_meter, obs=self.obs,
            )
        return meter, channel

    def add_client(
        self,
        fs: Optional[FileSystemAPI] = None,
        *,
        client_id: Optional[int] = None,
        config: Optional[DeltaCFSConfig] = None,
        profile: Optional[CostProfile] = PC_PROFILE,
        network: NetworkModel = PC_NETWORK,
        shares: Optional[Tuple[str, ...]] = None,
        journal_kv=None,
        checksum_kv=None,
        faults: NetworkFaults = NO_FAULTS,
        retry: Optional[RetryPolicy] = None,
        fault_seed: int = 0,
    ) -> DeltaCFSClient:
        """Attach one DeltaCFS device and return it.

        ``fs`` is a fresh ``MemoryFileSystem`` by default, or the one that
        survived a crash, with ``client_id`` naming the restarted device.
        A non-lossless ``faults`` plan or a ``retry`` policy builds the
        client in reliable mode, with ``client.transport`` set.
        """
        if client_id is None:
            client_id = len(self.clients) + 1
        reliable = retry is not None or not faults.lossless
        meter, channel = self.connect(
            profile, network, shares=shares,
            faults=faults if reliable else None, fault_seed=fault_seed,
        )
        transport = None
        if reliable:
            transport = ReliableTransport(
                channel, self.server, client_id=client_id, policy=retry,
                seed=fault_seed, obs=self.obs,
            )
        client = DeltaCFSClient(
            fs if fs is not None else MemoryFileSystem(),
            server=self.server,
            channel=channel,
            clock=self.clock,
            client_id=client_id,
            meter=meter,
            config=config,
            obs=self.obs,
            checksum_kv=checksum_kv,
            transport=transport,
            journal_kv=journal_kv,
            shares=shares,
        )
        if client_id in self.channels:  # a restarted device replaces its entry
            self.clients = [
                client if old.client_id == client_id else old for old in self.clients
            ]
        else:
            self.clients.append(client)
        self.channels[client_id] = channel
        self.meters[client_id] = meter
        return client

    # -- running ---------------------------------------------------------

    @property
    def client(self) -> DeltaCFSClient:
        """The first client (convenience for single-device studies)."""
        return self.clients[0]

    def flush(self, client: DeltaCFSClient) -> int:
        """Ship everything ``client`` has queued; returns units shipped.

        In reliable mode this also drives retransmission until every
        envelope is acked — flush alone cannot advance virtual time.
        """
        shipped = client.flush()
        if client.transport is not None:
            client.transport.settle(self.clock)
        return shipped

    def settle(self, seconds: float = 6.0, step: float = 1.0) -> None:
        """Advance virtual time, pumping every client, then flush all.

        ``seconds`` should exceed the upload delay (default 3 s) so every
        queued node becomes due.
        """
        elapsed = 0.0
        while elapsed < seconds:
            tick = min(step, seconds - elapsed)
            self.clock.advance(tick)
            elapsed += tick
            for client in self.clients:
                client.pump()
        for client in self.clients:
            self.flush(client)
        # one more round so flush-time fan-out reaches all peers
        for client in self.clients:
            client.pump()

    def converged(self) -> bool:
        """True when every client's synced tree matches the cloud."""
        cloud = {
            p: self.server.file_content(p)
            for p in self.server.store.paths()
            if "conflicted copy" not in p
        }
        for client in self.clients:
            tmp = client.config.tmp_dir
            local = {
                p: client.inner.read_file(p)
                for p in client.inner.walk_files()
                if not p.startswith(tmp)
            }
            if local != cloud:
                return False
        return True

    def report(self) -> str:
        """A per-principal traffic/CPU table."""
        rows = []
        for client in self.clients:
            stats = self.channels[client.client_id].stats
            rows.append(
                [
                    f"client {client.client_id}",
                    f"{self.meters[client.client_id].total:.1f}",
                    format_bytes(stats.up_bytes),
                    format_bytes(stats.down_bytes),
                    int(client.stats.deltas_kept),
                    int(client.stats.conflicts),
                ]
            )
        cloud_ticks = (
            "-" if self.server_meter is None else f"{self.server_meter.total:.1f}"
        )
        rows.append(["cloud", cloud_ticks, "-", "-", "-", "-"])
        return format_table(
            ["principal", "CPU ticks", "up", "down", "deltas", "conflicts"], rows
        )
