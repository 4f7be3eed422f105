"""Ablation — relation-triggered vs event-triggered delta encoding.

The paper attributes much of Dropbox's Word-trace CPU to its trigger:
"its delta encoding is triggered by file modification events (i.e.,
inotify) which occurs much more frequently than our relation triggered
delta encoding." This bench counts encoding runs and CPU for both trigger
policies on the same Word trace.
"""

from conftest import register_report

from repro.harness.experiments import WORD_SCALE, run_pc
from repro.metrics.report import format_table
from repro.workloads import word_trace

SAVES = 30


def _collect():
    trace = word_trace(scale=WORD_SCALE, saves=SAVES, seed=70)
    deltacfs = run_pc("deltacfs", trace, WORD_SCALE)
    dropbox = run_pc("dropbox", trace, WORD_SCALE)
    return deltacfs, dropbox


def test_ablation_trigger(benchmark):
    deltacfs, dropbox = benchmark.pedantic(_collect, rounds=1, iterations=1)

    rows = [
        [
            "relation-triggered (DeltaCFS)",
            str(int(deltacfs.extra["deltas_triggered"])),
            f"{deltacfs.client_ticks:.1f}",
        ],
        [
            "event-triggered (Dropbox-style)",
            str(int(dropbox.extra["sync_rounds"])),
            f"{dropbox.client_ticks:.1f}",
        ],
    ]
    register_report(
        f"Ablation: delta-encoding trigger policy ({SAVES} Word saves)",
        format_table(["policy", "encoding runs", "client ticks"], rows),
    )

    # relation trigger fires exactly once per save; events fire far more
    assert deltacfs.extra["deltas_triggered"] == SAVES
    assert dropbox.extra["sync_rounds"] > 1.5 * SAVES
    assert deltacfs.client_ticks < dropbox.client_ticks
