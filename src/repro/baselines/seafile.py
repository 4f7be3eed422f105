"""The Seafile-like baseline: content-defined chunking with 1 MB chunks.

Seafile's data model (paper Sections II-A, IV-B):

- on each change, the file is re-chunked with CDC (LBFS-style) at a 1 MB
  average chunk size — chosen large "for low overhead of maintaining chunk
  checksums";
- Seafile keeps a local repository of the last-committed version, so after
  re-chunking it "only needs to compute the checksums of changed blocks":
  a chunk whose bytes match the committed copy reuses its stored
  fingerprint (a cheap comparison), and only genuinely new chunks are
  SHA-hashed — this is why its client CPU sits well below Dropbox's;
- the client tells the server which fingerprints are new and uploads those
  chunk bodies; the large chunk size is why "it uploads a large amount of
  data": a 1-byte edit re-ships ~1 MB;
- server CPU is low because fingerprints arrive precomputed and the server
  just stores chunks.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.baselines.base import WatcherSyncClient
from repro.chunking.cdc import (
    _mask_for_average,
    cdc_boundaries,
    gear_hashes_incremental,
    _gear_hashes,
)
from repro.chunking.strong import dedup_hash
from repro.net.messages import Ack, ChunkData, ChunkHave, MetaOp
from repro.server.cloud import CloudServer


class SeafileClient(WatcherSyncClient):
    """CDC chunk-dedup client with a local committed-version repository."""

    name = "seafile"

    def __init__(
        self,
        *args,
        server: CloudServer | None = None,
        chunk_size: int = 1024 * 1024,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.server = server
        self.chunk_size = chunk_size
        # Chunk fingerprints the cloud is known to hold.
        self._server_chunks: Set[bytes] = set()
        # Local repository: last committed content, its boundary-candidate
        # positions, and its chunk manifest keyed by (offset, length).
        self._repo: Dict[str, Tuple[bytes, np.ndarray, Dict[Tuple[int, int], bytes]]] = {}

    def _sync_file(self, path: str, now: float) -> None:
        content = self.fs.read_file(path)
        self.meter.charge_bytes("scan_read", len(content))
        # Re-chunk the whole file (the modeled client scans everything; the
        # simulator rehashes only around the bytes that changed).
        self.meter.charge_bytes("cdc_chunking", len(content))
        bits = _mask_for_average(self.chunk_size).bit_length()
        prev = self._repo.get(path)
        if prev is not None:
            candidates = gear_hashes_incremental(prev[0], content, prev[1], bits)
        else:
            candidates = np.flatnonzero(_gear_hashes(content, bits=bits) == 0)
        boundaries = cdc_boundaries(content, self.chunk_size, candidates=candidates)

        prev_manifest = prev[2] if prev is not None else {}
        # Chunks are compared through uint8 views and hashed through
        # memoryview slices, so only uploaded bodies are copied out.
        body_view = memoryview(content)
        cur = np.frombuffer(content, dtype=np.uint8)
        old = np.frombuffer(prev[0], dtype=np.uint8) if prev is not None else cur[:0]
        manifest: Dict[Tuple[int, int], bytes] = {}
        fingerprints: List[bytes] = []
        start = 0
        for end in boundaries:
            key = (start, end - start)
            cached = prev_manifest.get(key)
            if cached is not None and np.array_equal(old[start:end], cur[start:end]):
                # unchanged chunk: fingerprint reused, only a comparison paid
                self.meter.charge_bytes("bitwise_compare", end - start)
                fingerprint = cached
            else:
                fingerprint = dedup_hash(body_view[start:end], self.meter)
            manifest[key] = fingerprint
            fingerprints.append(fingerprint)
            start = end

        new_fingerprints = {f for f in fingerprints if f not in self._server_chunks}
        self.channel.upload(
            ChunkHave(path=path, fingerprints=tuple(fingerprints)), now
        )
        if new_fingerprints:
            bodies = []
            start = 0
            for end, fingerprint in zip(boundaries, fingerprints):
                if fingerprint in new_fingerprints:
                    bodies.append(content[start:end])
                start = end
            self.channel.upload(ChunkData(path=path, chunks=tuple(bodies)), now)
            self._server_chunks.update(new_fingerprints)
            if self.server is not None:
                # The server stores the new chunk bodies and updates the
                # manifest — no checksum computation of its own.
                self.server.meter.charge_bytes(
                    "apply_delta", sum(len(b) for b in bodies)
                )
        self._repo[path] = (content, candidates, manifest)
        if self.server is not None:
            self.server.store.put(path, content, None)
        self.channel.download(Ack(path=path), now)

    def _sync_delete(self, path: str, now: float) -> None:
        self._repo.pop(path, None)
        self.channel.upload(MetaOp(kind="unlink", path=path), now)
        if self.server is not None and self.server.store.exists(path):
            self.server.store.delete(path)

    def _sync_rename(self, src: str, dst: str, now: float) -> None:
        repo = self._repo.pop(src, None)
        if repo is not None:
            self._repo[dst] = repo
        self.channel.upload(MetaOp(kind="rename", path=src, dest=dst), now)
        if self.server is not None and self.server.store.exists(src):
            self.server.store.rename(src, dst)
