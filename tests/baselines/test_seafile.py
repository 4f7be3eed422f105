"""Tests for the Seafile-like (CDC) baseline."""

import numpy as np

import repro.baselines.seafile as seafile_module
from repro.baselines.seafile import SeafileClient
from repro.chunking.cdc import _gear_hashes, _mask_for_average
from repro.common.rng import DeterministicRandom
from repro.cost.meter import CostMeter
from repro.net.transport import Channel
from repro.server.cloud import CloudServer

CHUNK = 32 * 1024


def build():
    server = CloudServer()
    meter = CostMeter()
    channel = Channel(client_meter=meter)
    client = SeafileClient(
        server=server,
        channel=channel,
        meter=meter,
        sync_interval=0.0,
        chunk_size=CHUNK,
    )
    return client, server, channel, meter


def test_first_sync_ships_all_chunks():
    client, server, channel, _ = build()
    data = DeterministicRandom(1).random_bytes(200_000)
    client.fs.write_file("/f", data)
    client.pump(now=1.0)
    assert server.store.get("/f").content == data
    assert channel.stats.up_bytes > len(data)


def test_one_byte_edit_ships_whole_chunk():
    # the paper's criticism: large chunks make small edits expensive
    client, server, channel, _ = build()
    data = DeterministicRandom(2).random_bytes(300_000)
    client.fs.write_file("/f", data)
    client.pump(now=1.0)
    before = channel.stats.up_bytes
    client.fs.write("/f", 150_000, b"\x01")
    client.pump(now=2.0)
    uploaded = channel.stats.up_bytes - before
    assert uploaded > CHUNK // 4  # at least a chunk-scale body
    assert uploaded < len(data) // 2  # but not the whole file


def test_unchanged_chunks_skip_hash():
    # "only needs to compute the checksums of changed blocks"
    client, server, channel, meter = build()
    data = DeterministicRandom(3).random_bytes(300_000)
    client.fs.write_file("/f", data)
    client.pump(now=1.0)
    first_hash = meter.bytes_by_category["dedup_hash"]
    client.fs.write("/f", 10, b"z")
    client.pump(now=2.0)
    second_hash = meter.bytes_by_category["dedup_hash"] - first_hash
    assert second_hash < len(data) // 2
    assert meter.bytes_by_category["bitwise_compare"] > 0


def test_identical_content_different_file_dedups():
    client, server, channel, _ = build()
    data = DeterministicRandom(4).random_bytes(100_000)
    client.fs.write_file("/a", data)
    client.pump(now=1.0)
    before = channel.stats.up_bytes
    client.fs.write_file("/b", data)
    client.pump(now=2.0)
    # same chunks: only fingerprints travel
    assert channel.stats.up_bytes - before < 5000


def test_delete_and_rename():
    client, server, channel, _ = build()
    client.fs.write_file("/a", b"data")
    client.pump(now=1.0)
    client.fs.rename("/a", "/b")
    client.pump(now=2.0)
    client.fs.write_file("/c", b"x")
    client.fs.unlink("/c")
    client.pump(now=3.0)
    assert server.store.exists("/b")
    assert not server.store.exists("/a")
    assert not server.store.exists("/c")


def test_server_does_no_checksum_work():
    client, server, channel, _ = build()
    client.fs.write_file("/f", DeterministicRandom(5).random_bytes(100_000))
    client.pump(now=1.0)
    categories = server.meter.by_category
    assert categories.get("strong_checksum", 0) == 0
    assert categories.get("dedup_hash", 0) == 0
    assert categories.get("cdc_chunking", 0) == 0


def _save(client, step: int, rng: DeterministicRandom) -> None:
    """One save of an edit sequence: point edits, inserts, growth, cuts."""
    size = client.fs.size("/f")
    kind = step % 5
    if kind == 0:
        for _ in range(3):
            client.fs.write("/f", rng.randint(0, size - 1), rng.random_bytes(1))
    elif kind == 1:
        # an insert shifts every later byte: rewrite the tail
        at = rng.randint(0, size - 1)
        tail = client.fs.read("/f", at)
        client.fs.write("/f", at, rng.random_bytes(rng.randint(1, 300)) + tail)
    elif kind == 2:
        client.fs.write("/f", size, rng.random_bytes(rng.randint(1, 50_000)))
    elif kind == 3:
        client.fs.truncate("/f", size - rng.randint(1, 20_000))
    else:
        at = rng.randint(0, size - 4096)
        client.fs.write("/f", at, rng.random_bytes(4096))


def _replay(client, saves: int = 20, clear_repo: bool = False):
    """Drive one save sequence; returns per-save (manifest, up_bytes, ticks)."""
    rng = DeterministicRandom(42)
    bits = _mask_for_average(CHUNK).bit_length()
    client.fs.write_file("/f", rng.random_bytes(3 * 1024 * 1024))
    history = []
    for step in range(saves + 1):
        if step:
            _save(client, step, rng)
        if clear_repo:
            client._repo.clear()
        client.pump(now=float(step + 1))
        content, candidates, manifest = client._repo["/f"]
        assert np.array_equal(
            candidates, np.flatnonzero(_gear_hashes(content, bits=bits) == 0)
        ), step
        history.append(
            (sorted(manifest.items()), client.channel.stats.up_bytes, client.meter.total)
        )
    return history


def test_kept_repo_matches_full_rechunking(monkeypatch):
    # incremental candidates must not change a single modelled number
    kept = _replay(build()[0])
    cleared = _replay(build()[0], clear_repo=True)
    monkeypatch.setattr(
        seafile_module,
        "gear_hashes_incremental",
        lambda prev, new, candidates, bits: np.flatnonzero(
            _gear_hashes(new, bits=bits) == 0
        ),
    )
    rescanned = _replay(build()[0])
    assert [h[:2] for h in kept] == [h[:2] for h in cleared]
    assert kept == rescanned
    # a cleared repo loses fingerprint reuse, so it can only cost more
    assert all(k[2] <= c[2] for k, c in zip(kept, cleared))
