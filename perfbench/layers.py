"""Per-layer wall-time attribution, wrapped around the program from outside.

The tracer replaces the public entry points of each ``src/repro`` package
with timing wrappers for the duration of one traced iteration, then puts
the originals back. Nothing in the program changes: a function imported by
name into another module is re-bound in every module namespace that holds
it, because patching only the defining module would time nothing (for
example, ``repro.vfs.filesystem`` and ``repro.server.cloud`` both bind
``apply_write`` at import time).

Spans follow the call stack. The outermost wrapped call (an application
file-system call or a pump) is a root span; every span under it carries
the root's id. A layer's self time is its spans' wall time minus the time
covered by child spans of any layer. ``calls`` counts entries into a layer
from a different layer (or from outside), so an encode that recurses
through several delta functions counts once. Spans stay in memory and are
written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Layers in report order. Each gets ``<layer>.calls`` and ``<layer>.self_s``.
LAYERS = (
    "vfs",
    "common.bytesutil",
    "core.client",
    "core.client.pump",
    "core.relation_table",
    "core.sync_queue",
    "delta",
    "chunking.fast",
    "chunking.cdc",
    "net",
    "server",
    "server.shard",
    "baselines.seafile",
    "baselines.dropbox",
    "baselines.nfs",
    "baselines.fullsync",
)

_FS_CALLS = (
    "create", "write", "read", "truncate", "rename", "link", "unlink",
    "close", "mkdir", "rmdir",
)
_FS_QUERIES = ("exists", "stat", "listdir", "linked_paths", "size",
               "write_file", "read_file")

# Class methods: (module, class, methods, layer).
_METHODS: Tuple[Tuple[str, str, Sequence[str], str], ...] = (
    ("repro.vfs.filesystem", "MemoryFileSystem",
     _FS_CALLS + _FS_QUERIES + ("walk_files",), "vfs"),
    ("repro.vfs.watcher", "WatchedFileSystem", _FS_CALLS + _FS_QUERIES, "vfs"),
    ("repro.core.client", "DeltaCFSClient", _FS_CALLS, "core.client"),
    ("repro.core.client", "DeltaCFSClient", ("pump", "flush"), "core.client.pump"),
    ("repro.core.relation_table", "RelationTable",
     ("entries", "record_rename", "record_unlink", "restore", "match_created",
      "invalidate_dst", "expire"), "core.relation_table"),
    ("repro.core.sync_queue", "SyncQueue",
     ("enqueue", "restore", "note_coalesced", "active_write_node", "pack",
      "pending_nodes", "nodes", "replace_with_delta", "cancel_nodes",
      "note_mutation", "spans", "next_unit", "drain_due", "drain_all",
      "queued_bytes"), "core.sync_queue"),
    ("repro.core.sync_queue", "WriteNode",
     ("add_write", "pack", "merged_writes"), "core.sync_queue"),
    ("repro.delta.backends", "BitwiseBackend", ("encode",), "delta"),
    ("repro.delta.backends", "RsyncBackend", ("signature", "encode"), "delta"),
    ("repro.delta.backends", "CDCShingleBackend", ("signature", "encode"), "delta"),
    ("repro.net.transport", "Channel", ("upload", "download"), "net"),
    ("repro.server.cloud", "CloudServer", ("handle", "handle_envelope"), "server"),
    ("repro.server.shard", "ShardRouter",
     ("handle", "handle_envelope", "register_client", "unregister_client",
      "shard_index_for_path", "shard_for_path", "home_shard_index",
      "file_content", "file_version", "file_range", "resync_versions"),
     "server.shard"),
    ("repro.baselines.seafile", "SeafileClient", ("pump", "flush"),
     "baselines.seafile"),
    ("repro.baselines.dropbox", "DropboxClient", ("pump", "flush"),
     "baselines.dropbox"),
    ("repro.baselines.fullsync", "FullUploadClient", ("pump", "flush"),
     "baselines.fullsync"),
    ("repro.baselines.nfs", "NFSClient", _FS_CALLS + ("pump", "flush"),
     "baselines.nfs"),
)

# Module functions: (defining module, name, layer, modules that must bind
# the name). The second list is what a name-level patch has to reach; a
# binding that is missing fails the traced run instead of timing nothing.
# A module that imports a name inside a function (``repro.baselines.nfs``
# imports ``apply_write`` in ``NFSClient.write``) reads the defining
# module's binding at each call, so patching that binding covers it.
_FUNCTIONS: Tuple[Tuple[str, str, str, Sequence[str]], ...] = (
    ("repro.common.bytesutil", "apply_write", "common.bytesutil",
     ("repro.vfs.filesystem", "repro.server.cloud")),
    ("repro.common.bytesutil", "truncate", "common.bytesutil",
     ("repro.vfs.filesystem", "repro.server.cloud")),
    ("repro.delta.rsync", "compute_signature", "delta",
     ("repro.delta.backends", "repro.delta.bitwise", "repro.baselines.dropbox")),
    ("repro.delta.rsync", "compute_delta", "delta",
     ("repro.delta.backends", "repro.delta.bitwise", "repro.baselines.dropbox")),
    ("repro.delta.rsync", "rsync_delta", "delta", ()),
    ("repro.delta.bitwise", "bitwise_delta", "delta", ()),
    ("repro.chunking._fast", "weak_checksum_np", "chunking.fast", ()),
    ("repro.chunking._fast", "block_weak_checksums_array", "chunking.fast", ()),
    ("repro.chunking._fast", "block_weak_checksums", "chunking.fast", ()),
    ("repro.chunking._fast", "all_offset_weak_checksums", "chunking.fast",
     ("repro.delta.rsync",)),
    ("repro.chunking.cdc", "cdc_chunks", "chunking.cdc", ()),
    ("repro.chunking.cdc", "cdc_boundaries", "chunking.cdc",
     ("repro.baselines.seafile",)),
    ("repro.chunking.cdc", "gear_hashes_incremental", "chunking.cdc",
     ("repro.baselines.seafile",)),
    ("repro.chunking.cdc", "_gear_hashes", "chunking.cdc",
     ("repro.baselines.seafile",)),
)


class _Frame:
    __slots__ = ("layer", "span", "child")

    def __init__(self, layer: int, span: int):
        self.layer = layer
        self.span = span
        self.child = 0.0


class Tracer:
    """Span recorder plus per-layer counters for one traced iteration."""

    def __init__(self) -> None:
        self.recording = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[_Frame] = []
        self._layer_ids: Dict[str, int] = {}
        # Span columns, one row per span (a span's id is its row): parent
        # id (-1 for a root), root id, layer index, and start and end in
        # perf_counter seconds.
        self.span_parent = array("q")
        self.span_root = array("q")
        self.span_layer = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _layer_index(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self._layer_ids)
        return self._layer_ids[layer]

    def wrap(self, fn: Callable, layer: str, on_entry_exit=None) -> Callable:
        """A wrapper that records ``fn``'s calls as spans of ``layer``.

        ``on_entry_exit(tracer, args, result)`` runs after a call that
        entered the layer from outside it; it counts the layer's work.
        """
        layer_id = self._layer_index(layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = len(tracer.span_parent)
            frame = _Frame(layer_id, span)
            stack.append(frame)
            tracer.span_parent.append(parent.span if parent else -1)
            tracer.span_root.append(stack[0].span)
            tracer.span_layer.append(layer_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_start[span] = start
                tracer.span_end[span] = end
                duration = end - start
                tracer.self_s[layer] += duration - frame.child
                if parent is not None:
                    parent.child += duration
            if parent is None or parent.layer != layer_id:
                tracer.calls[layer] += 1
                if on_entry_exit is not None:
                    on_entry_exit(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point listed in ``_METHODS`` and ``_FUNCTIONS``.

        Raises ``RuntimeError`` when a target or a required name binding
        is missing, so a renamed entry point cannot silently drop a layer.
        """
        import importlib

        for module_name, cls_name, methods, layer in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for method in methods:
                self._patch_method(cls, method, layer)
        for module_name, _, _, required in _FUNCTIONS:
            importlib.import_module(module_name)
            for other in required:
                importlib.import_module(other)
        for module_name, name, layer, required in _FUNCTIONS:
            original = getattr(sys.modules[module_name], name)
            wrapper = self.wrap(original, layer, _COUNTERS.get(name))
            bound_in = []
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._patch_attr(module, attr, wrapper, original)
                        bound_in.append(mod_name)
            missing = [m for m in (module_name, *required) if m not in bound_in]
            if missing:
                self.uninstall()
                raise RuntimeError(
                    f"traced run: {module_name}.{name} is not bound in "
                    f"{missing}; the layer timer would miss those calls"
                )

    def _patch_method(self, cls, method: str, layer: str) -> None:
        if not callable(getattr(cls, method, None)):
            self.uninstall()
            raise RuntimeError(f"traced run: {cls.__name__}.{method} not found")
        original = getattr(cls, method)
        had_own = method in vars(cls)
        setattr(cls, method, self.wrap(original, layer, _COUNTERS.get(
            f"{cls.__name__}.{method}")))

        def restore() -> None:
            if had_own:
                setattr(cls, method, original)
            else:
                delattr(cls, method)

        self._patches.append(restore)

    def _patch_attr(self, owner, attr: str, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse patch order."""
        while self._patches:
            self._patches.pop()()
        self.recording = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path_prefix: str) -> None:
        """Write the spans as raw column arrays plus a JSON index."""
        columns = ("span_parent", "span_root", "span_layer", "span_start",
                   "span_end")
        with open(path_prefix + ".spans", "wb") as out:
            for column in columns:
                getattr(self, column).tofile(out)
        index = {
            "spans": len(self.span_parent),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "layers": sorted(self._layer_ids, key=self._layer_ids.get),
        }
        with open(path_prefix + ".json", "w") as out:
            json.dump(index, out, indent=1)


# -- counters at the layer boundaries -----------------------------------------


def _count_apply_write(tracer: Tracer, args, result) -> None:
    tracer.counts["common.bytesutil.bytes"] += len(result)


def _count_encode(target_index: int):
    def count(tracer: Tracer, args, result) -> None:
        tracer.counts["delta.in_bytes"] += len(args[target_index])
        tracer.counts["delta.literal_bytes"] += result.literal_bytes

    return count


def _count_bytes(key: str):
    def count(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += len(args[0])

    return count


def _count_upload(tracer: Tracer, args, result) -> None:
    tracer.counts["net.up_bytes"] += args[1].wire_size()


def _count_add_write(tracer: Tracer, args, result) -> None:
    tracer.counts["core.sync_queue.writes_enqueued"] += 1


def _count_drained(tracer: Tracer, args, result) -> None:
    from repro.core.sync_queue import WriteNode

    units = result if isinstance(result, list) else [result] if result else []
    tracer.counts["core.sync_queue.write_nodes_shipped"] += sum(
        isinstance(node, WriteNode) for unit in units for node in unit.nodes
    )


_COUNTERS: Dict[str, Optional[Callable]] = {
    "apply_write": _count_apply_write,
    "BitwiseBackend.encode": _count_encode(2),
    "RsyncBackend.encode": _count_encode(2),
    "CDCShingleBackend.encode": _count_encode(2),
    "compute_delta": _count_encode(1),
    "rsync_delta": _count_encode(1),
    "bitwise_delta": _count_encode(1),
    "weak_checksum_np": _count_bytes("chunking.fast.bytes"),
    "block_weak_checksums_array": _count_bytes("chunking.fast.bytes"),
    "block_weak_checksums": _count_bytes("chunking.fast.bytes"),
    "all_offset_weak_checksums": _count_bytes("chunking.fast.bytes"),
    "cdc_chunks": _count_bytes("chunking.cdc.bytes"),
    "cdc_boundaries": _count_bytes("chunking.cdc.bytes"),
    "Channel.upload": _count_upload,
    "WriteNode.add_write": _count_add_write,
    "SyncQueue.next_unit": _count_drained,
    "SyncQueue.drain_due": _count_drained,
    "SyncQueue.drain_all": _count_drained,
}
