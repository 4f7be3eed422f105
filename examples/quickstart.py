#!/usr/bin/env python3
"""Quickstart: a DeltaCFS client syncing to a simulated cloud.

Walks through the three update patterns from the paper's Figure 3 —
in-place (WeChat/SQLite), transactional rename (Word), and transactional
link (gedit) — and shows how little crosses the network for each.

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.metrics.report import format_bytes
from repro.sim import Simulation


def main():
    sim = Simulation()
    fs, server = sim.client, sim.server
    channel = sim.channels[fs.client_id]
    client_meter, server_meter = sim.meters[fs.client_id], sim.server_meter

    # ------------------------------------------------------------------
    # 1. Initial upload: a 256 KB document
    # ------------------------------------------------------------------
    document = bytes(i % 251 for i in range(256 * 1024))
    fs.create("/report.doc")
    fs.write("/report.doc", 0, document)
    fs.close("/report.doc")
    sim.settle()
    assert server.file_content("/report.doc") == document
    print(f"initial upload:        {format_bytes(channel.stats.up_bytes):>10}")

    # ------------------------------------------------------------------
    # 2. In-place update (the SQLite pattern): NFS-like file RPC
    #    Only the written bytes travel.
    # ------------------------------------------------------------------
    mark = channel.stats.up_bytes
    fs.write("/report.doc", 1000, b"a tiny in-place edit")
    fs.close("/report.doc")
    sim.settle()
    print(f"20B in-place edit:     {format_bytes(channel.stats.up_bytes - mark):>10}"
          "   (NFS-like RPC: just the write + versions)")

    # ------------------------------------------------------------------
    # 3. Transactional update (the Word pattern): triggered delta encoding
    #    The editor rewrites the WHOLE file under a temp name, but the
    #    relation table recognizes the rename dance and ships a delta.
    # ------------------------------------------------------------------
    new_version = document[:100_000] + b"<<REVISED>>" + document[100_000:]
    mark = channel.stats.up_bytes
    fs.rename("/report.doc", "/report.doc~tmp0")   # 1 preserve old version
    fs.create("/report.doc.new")                   # 2 write new version...
    fs.write("/report.doc.new", 0, new_version)    #   ...in full
    fs.close("/report.doc.new")
    fs.rename("/report.doc.new", "/report.doc")    # 4 atomic replace
    fs.unlink("/report.doc~tmp0")                  # 5 drop old version
    sim.settle()
    assert server.file_content("/report.doc") == new_version
    print(f"256KB rewrite, 11B new:{format_bytes(channel.stats.up_bytes - mark):>10}"
          f"   (delta encoding triggered {fs.stats.deltas_kept}x)")

    # ------------------------------------------------------------------
    # 4. Where did the CPU go?
    # ------------------------------------------------------------------
    print("\nclient CPU by category (ticks):")
    for category, ticks in sorted(
        client_meter.by_category.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {category:20s} {ticks:8.2f}")
    print(f"server total: {server_meter.total:.2f} ticks "
          "(the cloud only applies incremental data)")


if __name__ == "__main__":
    main()
