"""Tests for cloud-side message application and conflict handling."""

import pytest

from repro.common.version import VersionStamp
from repro.delta.bitwise import bitwise_delta
from repro.net.messages import (
    MetaOp,
    TxnGroup,
    UploadDelta,
    UploadFull,
    UploadTruncate,
    UploadWrite,
    UploadWriteBatch,
)
from repro.server.cloud import CloudServer

V = VersionStamp


def _seeded(content=b"base content here", version=V(1, 1)):
    server = CloudServer()
    server.handle(MetaOp(kind="create", path="/f", new_version=V(1, 0)))
    server.handle(
        UploadWrite(path="/f", offset=0, data=content, base_version=V(1, 0), new_version=version)
    )
    return server


class TestBasicApply:
    def test_create_then_write(self):
        server = _seeded()
        assert server.file_content("/f") == b"base content here"
        assert server.file_version("/f") == V(1, 1)

    def test_write_extends(self):
        server = _seeded()
        result = server.handle(
            UploadWrite(path="/f", offset=17, data=b"!more", base_version=V(1, 1), new_version=V(1, 2))
        )
        assert result.ok
        assert server.file_content("/f").endswith(b"!more")

    def test_write_batch(self):
        server = _seeded(b"0" * 20)
        server.handle(
            UploadWriteBatch(
                path="/f",
                runs=((0, b"AA"), (10, b"BB")),
                base_version=V(1, 1),
                new_version=V(1, 2),
            )
        )
        content = server.file_content("/f")
        assert content[0:2] == b"AA" and content[10:12] == b"BB"

    def test_truncate(self):
        server = _seeded(b"0123456789")
        server.handle(
            UploadTruncate(path="/f", length=4, base_version=V(1, 1), new_version=V(1, 2))
        )
        assert server.file_content("/f") == b"0123"

    def test_full_upload(self):
        server = _seeded()
        server.handle(
            UploadFull(path="/f", data=b"rewritten", base_version=V(1, 1), new_version=V(1, 2))
        )
        assert server.file_content("/f") == b"rewritten"

    def test_meta_rename_link_unlink(self):
        server = _seeded()
        server.handle(MetaOp(kind="link", path="/f", dest="/g"))
        server.handle(MetaOp(kind="rename", path="/f", dest="/h"))
        server.handle(MetaOp(kind="unlink", path="/g"))
        assert server.store.exists("/h")
        assert not server.store.exists("/f")
        assert not server.store.exists("/g")

    def test_mkdir_rmdir_tracked(self):
        server = CloudServer()
        server.handle(MetaOp(kind="mkdir", path="/d"))
        assert "/d" in server.dirs
        server.handle(MetaOp(kind="rmdir", path="/d"))
        assert "/d" not in server.dirs

    def test_unknown_meta_kind_rejected(self):
        server = CloudServer()
        with pytest.raises(ValueError):
            server.handle(MetaOp(kind="chmod", path="/f"))

    def test_rename_of_missing_path_is_skipped(self):
        server = CloudServer()
        result = server.handle(MetaOp(kind="rename", path="/ghost", dest="/x"))
        assert result.ok  # tolerated: the create may have been cancelled


class TestDeltaApply:
    def test_delta_against_current(self):
        old = bytes(range(256)) * 64
        new = old[:5000] + b"CHANGED" + old[5007:]
        server = _seeded(old)
        delta = bitwise_delta(old, new, 1024)
        result = server.handle(
            UploadDelta(
                path="/f",
                delta=delta,
                base_version=V(1, 1),
                new_version=V(1, 2),
                content_base=V(1, 1),
            )
        )
        assert result.ok
        assert server.file_content("/f") == new

    def test_delta_against_renamed_away_base(self):
        # the Word flow: base content now lives under another name, but the
        # snapshot window still resolves it
        old = bytes(range(256)) * 16
        new = old + b"tail"
        server = _seeded(old)
        server.handle(MetaOp(kind="rename", path="/f", dest="/t0"))
        server.handle(MetaOp(kind="create", path="/t1", new_version=V(1, 2)))
        delta = bitwise_delta(old, new, 1024)
        group = TxnGroup(
            members=(
                MetaOp(kind="rename", path="/t1", dest="/f"),
                UploadDelta(
                    path="/f",
                    delta=delta,
                    base_version=V(1, 2),
                    new_version=V(1, 3),
                    content_base=V(1, 1),
                ),
            )
        )
        result = server.handle(group)
        assert result.ok
        assert server.file_content("/f") == new

    def test_delta_with_aged_out_base_conflicts(self):
        from repro.server.storage import VersionedStore

        server = CloudServer(store=VersionedStore(snapshot_window=1))
        server.handle(MetaOp(kind="create", path="/f", new_version=V(1, 0)))
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"v1", base_version=V(1, 0), new_version=V(1, 1))
        )
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"v2", base_version=V(1, 1), new_version=V(1, 2))
        )
        # snapshot of V(1,1) evicted by the tiny window
        delta = bitwise_delta(b"v1", b"v1x", 4)
        result = server.handle(
            UploadDelta(
                path="/f", delta=delta, base_version=V(1, 1),
                new_version=V(1, 3), content_base=V(1, 1),
            )
        )
        assert result.status == "conflict"


class TestFirstWriteWins:
    def test_concurrent_writes_conflict(self):
        server = _seeded(b"0" * 100, version=V(1, 5))
        # client 2 wins the race
        first = server.handle(
            UploadWrite(path="/f", offset=0, data=b"A", base_version=V(1, 5), new_version=V(2, 1)),
            origin_client=2,
        )
        assert first.ok
        # client 3's update was based on the old version: conflict
        second = server.handle(
            UploadWrite(path="/f", offset=0, data=b"B", base_version=V(1, 5), new_version=V(3, 1)),
            origin_client=3,
        )
        assert second.status == "conflict"
        # winner's content is the latest
        assert server.file_content("/f")[0:1] == b"A"

    def test_loser_materialized_from_increment(self):
        # "the incremental data can still be applied to the proper file to
        # generate the conflict version" — no re-transmission needed
        server = _seeded(b"0" * 100, version=V(1, 5))
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"A", base_version=V(1, 5), new_version=V(2, 1)),
            origin_client=2,
        )
        result = server.handle(
            UploadWrite(path="/f", offset=50, data=b"B", base_version=V(1, 5), new_version=V(3, 1)),
            origin_client=3,
        )
        assert len(result.conflict_paths) == 1
        copy = result.conflict_paths[0]
        content = server.file_content(copy)
        assert content[50:51] == b"B"
        assert content[0:1] == b"0"  # built on the base, not the winner

    def test_conflict_notice_reply(self):
        from repro.net.messages import ConflictNotice

        server = _seeded(b"0" * 10, version=V(1, 5))
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"A", base_version=V(1, 5), new_version=V(2, 1))
        )
        result = server.handle(
            UploadWrite(path="/f", offset=0, data=b"B", base_version=V(1, 5), new_version=V(3, 1))
        )
        notices = [r for r in result.replies if isinstance(r, ConflictNotice)]
        assert len(notices) == 1
        assert notices[0].winning_version == V(2, 1)

    def test_stale_truncate_conflicts(self):
        server = _seeded(b"0" * 100, version=V(1, 5))
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"X", base_version=V(1, 5), new_version=V(2, 1))
        )
        result = server.handle(
            UploadTruncate(path="/f", length=10, base_version=V(1, 5), new_version=V(3, 1))
        )
        assert result.status == "conflict"
        assert len(server.file_content("/f")) == 100  # not truncated


class TestVersionsStayImmutable:
    """Each applied version is new ``bytes``; kept versions never change."""

    def test_applies_never_touch_kept_versions(self):
        server = _seeded(b"0123456789", version=V(1, 5))
        kept = server.store.snapshot(V(1, 5))
        for message in (
            UploadWriteBatch(path="/f", runs=((1, b"A"), (4, b"BC"), (12, b"D")),
                             base_version=V(1, 5), new_version=V(1, 6)),
            UploadWrite(path="/f", offset=0, data=b"E", base_version=V(1, 6),
                        new_version=V(1, 7)),
            UploadTruncate(path="/f", length=3, base_version=V(1, 7),
                           new_version=V(1, 8)),
        ):
            assert server.handle(message).ok
        assert kept == b"0123456789"
        assert server.store.snapshot(V(1, 6)) == b"0A23BC6789\x00\x00D"
        assert server.file_content("/f") == b"EA2"
        for version in (V(1, 5), V(1, 6), V(1, 7), V(1, 8)):
            assert type(server.store.snapshot(version)) is bytes

    def test_losing_batch_materialized_from_its_base(self):
        server = _seeded(b"0" * 10, version=V(1, 5))
        server.handle(
            UploadWrite(path="/f", offset=0, data=b"W", base_version=V(1, 5), new_version=V(2, 1))
        )
        result = server.handle(
            UploadWriteBatch(path="/f", runs=((2, b"xx"), (1, b"Y")),
                             base_version=V(1, 5), new_version=V(3, 1))
        )
        assert result.status == "conflict"
        copy = server.file_content(result.conflict_paths[0])
        assert type(copy) is bytes
        assert copy == b"0Yxx" + b"0" * 6


class TestEnvelopeDedup:
    # At-least-once delivery, exactly-once effect: a retransmitted
    # envelope must be answered from the dedup cache, never re-applied
    # (a re-apply would trip the base-version check as a bogus conflict).

    def _envelope(self, msg_id, inner, attempt=1):
        from repro.net.messages import Envelope

        return Envelope(msg_id=msg_id, attempt=attempt, inner=inner)

    def test_duplicate_returns_cached_replies(self):
        server = CloudServer()
        create = MetaOp(kind="create", path="/f", new_version=V(1, 0))
        replies1, dup1 = server.handle_envelope(self._envelope(1, create), 1)
        replies2, dup2 = server.handle_envelope(
            self._envelope(1, create, attempt=2), 1
        )
        assert not dup1 and dup2
        assert replies1 == replies2
        assert server.dedup_drops == 1
        assert len(server.apply_log) == 1  # applied exactly once

    def test_duplicate_write_is_not_a_conflict(self):
        server = CloudServer()
        server.handle_envelope(
            self._envelope(1, MetaOp(kind="create", path="/f", new_version=V(1, 0))), 1
        )
        write = UploadWrite(
            path="/f", offset=0, data=b"abc",
            base_version=V(1, 0), new_version=V(1, 1),
        )
        server.handle_envelope(self._envelope(2, write), 1)
        replies, dup = server.handle_envelope(self._envelope(2, write, attempt=2), 1)
        assert dup
        assert server.file_content("/f") == b"abc"
        # the retransmit must not be applied against the *new* version and
        # misfire first-write-wins
        assert all(r.status == "applied" for r in server.apply_log)
        assert not any("conflicted copy" in p for p in server.store.paths())

    def test_dedup_is_per_origin_client(self):
        server = CloudServer()
        a = MetaOp(kind="create", path="/a", new_version=V(1, 0))
        b = MetaOp(kind="create", path="/b", new_version=V(2, 0))
        _, dup_a = server.handle_envelope(self._envelope(1, a), 1)
        _, dup_b = server.handle_envelope(self._envelope(1, b), 2)
        assert not dup_a and not dup_b  # same msg_id, different clients
        assert server.store.exists("/a") and server.store.exists("/b")

    def test_dedup_window_bounded(self):
        server = CloudServer()
        server.dedup_window = 4
        for i in range(10):
            op = MetaOp(kind="create", path=f"/f{i}", new_version=V(1, i))
            server.handle_envelope(self._envelope(i + 1, op), 1)
        assert len(server._dedup[1]) == 4
