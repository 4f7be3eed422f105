#!/usr/bin/env python3
"""Scenario: fine-grained version control — browsing and restoring history.

Section III-C: versions are stamped per Sync Queue node ("a neat tradeoff"
between open-to-close and per-write granularity) and the cloud keeps recent
snapshots, so any of them can be restored — even across the Word-style
rename dance, which would break naive per-path histories.

Run:  python examples/time_travel.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sim import Simulation


def main():
    sim = Simulation()
    fs, server = sim.client, sim.server

    # three editing sessions, the last one via the transactional dance
    drafts = [
        b"Draft 1: an idea.\n",
        b"Draft 2: the idea, refined over several paragraphs.\n",
        b"Draft 3: FINAL (typo'd the conclusion, oops).\n",
    ]
    fs.create("/paper.txt")
    fs.write("/paper.txt", 0, drafts[0])
    fs.close("/paper.txt")
    sim.settle()

    fs.truncate("/paper.txt", 0)
    fs.write("/paper.txt", 0, drafts[1])
    fs.close("/paper.txt")
    sim.settle()

    # save #3 through the editor's rename dance (history must survive it)
    fs.rename("/paper.txt", "/.paper.bak")
    fs.create("/.paper.new")
    fs.write("/.paper.new", 0, drafts[2])
    fs.close("/.paper.new")
    fs.rename("/.paper.new", "/paper.txt")
    fs.unlink("/.paper.bak")
    sim.settle()

    print("current content:", fs.read("/paper.txt", 0, None).decode().strip())
    history = fs.version_history("/paper.txt")
    print(f"\nrestorable versions ({len(history)}):")
    for stamp in history:
        snapshot = server.store.snapshot(stamp)
        preview = (snapshot or b"")[:40].decode(errors="replace").strip()
        print(f"  {stamp}  {len(snapshot or b''):4d}B  {preview!r}")

    # the conclusion was better in draft 2 — roll back
    target = next(s for s in history if server.store.snapshot(s) == drafts[1])
    fs.restore_version("/paper.txt", target)
    sim.settle()
    print("\nafter restore:", fs.read("/paper.txt", 0, None).decode().strip())
    assert server.file_content("/paper.txt") == drafts[1]
    print("local and cloud agree; the restore synced like any other update")


if __name__ == "__main__":
    main()
