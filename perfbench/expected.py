"""Write ``perfbench/expected.json``: the committed numbers for word and wechat.

The values come from ``repro.harness.runner.run_trace`` — not from the
benchmark's own replay loop — so matching them proves the benchmark drives
the program the way the experiment harness does. Run from the repository
root::

    python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_metrics(workload: str) -> dict:
    """``run_trace``'s modelled numbers for a replay workload's default seed."""
    from repro.common.config import DeltaCFSConfig
    from repro.cost.profile import PC_PROFILE
    from repro.harness.runner import bench_metrics, run_trace
    from repro.net.transport import PC_NETWORK

    from workloads import (
        DEFAULT_SEEDS,
        WECHAT_SCALE,
        WORD_SCALE,
        _scaled_kwargs,
        wechat_trace_for,
        word_trace_for,
    )

    make, scale = {
        "word": (word_trace_for, WORD_SCALE),
        "wechat": (wechat_trace_for, WECHAT_SCALE),
    }[workload]
    result = run_trace(
        "deltacfs",
        make(DEFAULT_SEEDS[workload]),
        profile=PC_PROFILE,
        network=PC_NETWORK,
        config=DeltaCFSConfig(enable_checksums=False),
        **_scaled_kwargs(scale),
    )
    return bench_metrics(result)


def main() -> int:
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    expected = {w: reference_metrics(w) for w in ("word", "wechat")}
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
