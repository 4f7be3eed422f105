"""Server-capacity experiment: many clients against one cloud.

Backs the paper's Section VI claim quantitatively: because the DeltaCFS
server "only needs to apply incremental data", its per-client CPU demand
is tiny and one (even wimpy) server core sustains a large fleet. This
driver attaches ``n_clients`` DeltaCFS clients — each syncing its own
private folder (selective sharing, Section III-D) — to one CloudServer,
replays a per-client workload, and reports how server work scales.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRandom
from repro.cost.meter import CostMeter
from repro.harness.fleet import provision_clients
from repro.net.transport import NetworkStats
from repro.server.cloud import CloudServer


@dataclass
class CapacityResult:
    """Scaling measurements for one fleet size."""

    n_clients: int
    server_ticks: float
    server_ticks_per_client: float
    total_up_bytes: int
    duration: float


def run_capacity(
    n_clients: int,
    *,
    writes_per_client: int = 20,
    write_size: int = 4096,
    file_size: int = 256 * 1024,
    seed: int = 0,
) -> CapacityResult:
    """Each client maintains a private file with periodic in-place writes.

    Clients come from the fleet driver's construction path
    (:func:`repro.harness.fleet.provision_clients`) so capacity and
    fleet numbers stay comparable — same selective-share registration
    (one subscription scoped to ``/u{i}``, not a transient whole-account
    one), same per-client seed stream, same config.
    """
    server_meter = CostMeter()
    rng = DeterministicRandom(seed)
    clients, channels = provision_clients(
        n_clients,
        server=CloudServer(meter=server_meter),
        rng=rng,
        file_size=file_size,
    )
    clock = clients[0].clock

    # seed uploads settle outside the measurement
    for _ in range(8):
        clock.advance(1.0)
        for client in clients:
            client.pump()
    for client in clients:
        client.flush()
    server_meter.reset()
    for channel in channels:
        # Full reset (not just up_bytes): seed-phase message counts and
        # down bytes must not leak into the measured window either.
        channel.stats = NetworkStats()

    for round_index in range(writes_per_client):
        for client_id, client in enumerate(clients, start=1):
            path = f"/u{client_id}/data.bin"
            offset = rng.randint(0, file_size - write_size - 1)
            client.write(path, offset, rng.random_bytes(write_size))
            client.close(path)
        clock.advance(5.0)
        for client in clients:
            client.pump()
    for client in clients:
        client.flush()

    total_up = sum(c.stats.up_bytes for c in channels)
    return CapacityResult(
        n_clients=n_clients,
        server_ticks=server_meter.total,
        server_ticks_per_client=server_meter.total / n_clients,
        total_up_bytes=total_up,
        duration=clock.now(),
    )
