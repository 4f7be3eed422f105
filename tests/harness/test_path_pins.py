"""Bit-for-bit pins of harness paths that no committed baseline covers.

Figure 1, Figure 2, the crash-recovery round trip, the lossy-link
convergence test, and the ``Simulation`` facade each assemble their
systems through the topology builder. The numbers below were recorded
before those paths were rewired onto it; any drift in what the builder
charges, ships, or settles shows up here as an exact mismatch.
"""

from repro.harness.experiments import fig1_motivation, fig2_dropsync_mobile
from repro.harness.reliability import crash_recovery_roundtrip, loss_convergence_test
from repro.sim import Simulation

_WORD_GAPS = [0.0] * 3

FIG1 = {
    ("dropbox", "word"): dict(
        up_bytes=6467209,
        down_bytes=568,
        client_ticks=359.17567310333254,
        server_ticks=23.12196216583252,
        read_bytes=39714816,
        cpu_timeline=[0, 0]
        + [37.70523777008057] + _WORD_GAPS
        + [39.02818241119385] + _WORD_GAPS
        + [43.492057037353504] + _WORD_GAPS
        + [43.48806285858154] + _WORD_GAPS
        + [45.759681320190424] + _WORD_GAPS
        + [47.97570533752443] + _WORD_GAPS
        + [51.18318881988523] + _WORD_GAPS
        + [50.54355754852298, 0.0],
    ),
    ("seafile", "word"): dict(
        up_bytes=8014599,
        down_bytes=568,
        client_ticks=153.4536725997925,
        server_ticks=17.576334095001222,
        read_bytes=29622272,
        cpu_timeline=[0, 0]
        + [16.6177360534668] + _WORD_GAPS
        + [17.82010269165039] + _WORD_GAPS
        + [18.27750873565673] + _WORD_GAPS
        + [18.47327365875244] + _WORD_GAPS
        + [19.44810314178467] + _WORD_GAPS
        + [20.2077070236206] + _WORD_GAPS
        + [21.317146492004397] + _WORD_GAPS
        + [21.292094802856468, 0.0],
    ),
    ("dropbox", "wechat"): dict(
        up_bytes=132425,
        down_bytes=23,
        client_ticks=153.34845581054688,
        server_ticks=4.325018310546875,
        read_bytes=8593408,
        cpu_timeline=[153.34845581054688, 0.0, 0.0],
    ),
    ("seafile", "wechat"): dict(
        up_bytes=4114819,
        down_bytes=23,
        client_ticks=46.44016380310058,
        server_ticks=9.023733711242675,
        read_bytes=8593408,
        cpu_timeline=[46.44016380310058, 0.0, 0.0],
    ),
}


def test_fig1_motivation_pinned():
    results = fig1_motivation(fast=True)
    assert [(r.solution, r.trace) for r in results] == list(FIG1)
    for result in results:
        pin = FIG1[(result.solution, result.trace)]
        assert result.up_bytes == pin["up_bytes"]
        assert result.down_bytes == pin["down_bytes"]
        assert result.client_ticks == pin["client_ticks"]
        assert result.server_ticks == pin["server_ticks"]
        assert result.extra["read_bytes"] == pin["read_bytes"]
        assert result.extra["cpu_timeline"] == pin["cpu_timeline"]


def test_fig2_dropsync_mobile_pinned():
    result = fig2_dropsync_mobile(fast=True)
    assert result.total_traffic == 41576709
    assert result.update_bytes == 369360
    assert result.tue == 112.56418940870695
    assert result.cpu_ticks == 2938.0788139343263
    assert result.traffic_timeline == [(60.0, 13788901), (120.0, 27649892)]


def test_crash_recovery_roundtrip_pinned():
    outcome = crash_recovery_roundtrip()
    assert outcome.converged and outcome.mismatched == []
    assert outcome.dirty_bytes == 8192
    assert outcome.damaged_span == 4096
    assert outcome.recovery_up_bytes == 8339
    assert outcome.recovery_down_bytes == 8292
    assert outcome.nodes_replayed == 1
    assert outcome.nodes_already_applied == 0
    assert outcome.nodes_rebased == 0
    assert outcome.blocks_repaired == 2
    assert outcome.full_file_fallbacks == 0


def test_loss_convergence_pinned():
    outcome = loss_convergence_test(0.1)
    assert outcome.converged and outcome.mismatched == []
    assert outcome.conflict_copies == 0
    assert outcome.conflicts == 0
    assert outcome.retries == 9
    assert outcome.timeouts == 9
    assert outcome.dedup_drops == 5
    assert outcome.up_bytes == 286165
    assert outcome.down_bytes == 1107
    assert outcome.retransmit_log == [
        (5.0, 2, 2),
        (8.0, 2, 3),
        (12.5, 2, 4),
        (25.16, 3, 2),
        (25.16, 6, 2),
        (45.16, 9, 2),
        (85.16, 15, 2),
        (88.16, 15, 3),
        (165.21000000000004, 34, 2),
    ]


def test_simulation_two_clients_pinned():
    sim = Simulation(clients=2)
    laptop, phone = sim.clients
    laptop.create("/doc")
    laptop.write("/doc", 0, bytes(range(256)) * 64)
    laptop.close("/doc")
    sim.settle()
    phone.write("/doc", 100, b"phone edit")
    phone.close("/doc")
    sim.settle()
    assert sim.report() == "\n".join(
        [
            "principal  CPU ticks  up      down    deltas  conflicts",
            "---------  ---------  ------  ------  ------  ---------",
            "client 1   0.2        16.1KB  89B     0       0        ",
            "client 2   0.1        54B     16.1KB  0       0        ",
            "cloud      0.1        -       -       -       -        ",
        ]
    )
    assert [sim.meters[c.client_id].total for c in sim.clients] == [
        0.15558372497558595,
        0.10748504638671875,
    ]
    assert sim.server_meter.total == 0.06463031768798828
    assert [sim.channels[c.client_id].stats.up_bytes for c in sim.clients] == [
        16453,
        54,
    ]
    assert [sim.channels[c.client_id].stats.down_bytes for c in sim.clients] == [
        89,
        16500,
    ]
