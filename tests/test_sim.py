"""Tests for the Simulation facade."""

import pytest

from repro.common.config import DeltaCFSConfig
from repro.sim import Simulation


def test_single_client_round_trip():
    sim = Simulation()
    sim.client.create("/f")
    sim.client.write("/f", 0, b"payload")
    sim.client.close("/f")
    sim.settle()
    assert sim.server.file_content("/f") == b"payload"
    assert sim.converged()


def test_two_clients_share():
    sim = Simulation(clients=2)
    a, b = sim.clients
    a.create("/shared")
    a.write("/shared", 0, b"from a")
    a.close("/shared")
    sim.settle()
    assert b.read("/shared", 0, None) == b"from a"
    assert sim.converged()


def test_report_contains_principals():
    sim = Simulation(clients=2)
    sim.client.create("/f")
    sim.settle()
    report = sim.report()
    assert "client 1" in report and "client 2" in report and "cloud" in report


def test_custom_config_applied():
    sim = Simulation(config=DeltaCFSConfig(upload_delay=0.5))
    assert sim.client.config.upload_delay == 0.5


def test_converged_detects_divergence():
    sim = Simulation()
    sim.client.create("/f")
    sim.client.write("/f", 0, b"x")
    # not settled: the write is still queued
    assert not sim.converged()
    sim.settle()
    assert sim.converged()


def test_zero_clients_rejected():
    with pytest.raises(ValueError):
        Simulation(clients=0)


def _replay_word(fs, clock, pump, flush, reset):
    """The run_trace steps: preload, reset, replay, settle, flush."""
    from repro.workloads.traces import replay
    from repro.workloads.word import word_trace

    trace = word_trace(scale=64, saves=4, seed=3)
    for path, content in sorted(trace.preload.items()):
        fs.create(path)
        fs.write(path, 0, content)
        fs.close(path)
    for _ in range(12):
        clock.advance(1.0)
        pump(clock.now())
    flush()
    reset()
    replay(trace, fs, clock, pump=pump)
    for _ in range(10):
        clock.advance(1.0)
        pump(clock.now())
    flush()


@pytest.mark.parametrize("setting", ["pc", "mobile"])
def test_simulation_bills_like_build_system(setting):
    """One topology builder: a 1-client Simulation charges exactly what
    build_system("deltacfs") charges, including the cloud, which is billed
    at PC rates even when the client is a phone."""
    from repro.cost.profile import MOBILE_PROFILE, PC_PROFILE
    from repro.harness.runner import build_system
    from repro.net.transport import MOBILE_NETWORK, PC_NETWORK, NetworkStats

    profile, network = (
        (MOBILE_PROFILE, MOBILE_NETWORK) if setting == "mobile"
        else (PC_PROFILE, PC_NETWORK)
    )
    system = build_system("deltacfs", profile=profile, network=network)
    _replay_word(
        system.fs, system.clock, system.pump, system.flush, system.reset_counters
    )

    sim = Simulation(profile=profile, network=network)
    client = sim.client
    channel, meter = sim.channels[client.client_id], sim.meters[client.client_id]

    def reset():
        meter.reset()
        sim.server_meter.reset()
        channel.stats = NetworkStats()

    _replay_word(client, sim.clock, client.pump, client.flush, reset)

    assert system.channel.stats.up_bytes > 0
    assert channel.stats.up_bytes == system.channel.stats.up_bytes
    assert meter.total == system.client_meter.total
    assert sim.server_meter.total == system.server_meter.total
