"""``MemoryFileSystem`` against a pure-``bytes`` model.

Inodes write their content in place, so these tests pin the aliasing
contract: every read returns immutable ``bytes``, and nothing a caller
was handed earlier ever changes, whatever happens to the file afterwards
(writes, truncates, hard links, renames, unlinks, bit flips).
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.errors import NoSpaceError
from repro.vfs.filesystem import MemoryFileSystem

PATHS = ("/a", "/b", "/c")
paths = st.sampled_from(PATHS)
offsets = st.integers(min_value=0, max_value=96)


def model_write(content, offset, data):
    padded = content + bytes(max(0, offset - len(content)))
    return padded[:offset] + data + padded[offset + len(data) :]


def model_truncate(content, length):
    return content[:length] + bytes(max(0, length - len(content)))


class FileSystemModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fs = MemoryFileSystem()
        self.names = {}  # path -> model inode id
        self.content = {}  # model inode id -> bytes
        self.next_id = 0
        self.handed_out = []  # (object a read returned, its bytes then)

    def _check_read(self, got, expected):
        assert type(got) is bytes
        assert got == expected
        self.handed_out.append((got, bytes(got)))

    @rule(path=paths)
    def create(self, path):
        self.fs.create(path)
        if path not in self.names:
            self.names[path] = self.next_id
            self.content[self.next_id] = b""
            self.next_id += 1

    @rule(path=paths, offset=offsets, data=st.binary(max_size=40))
    def write(self, path, offset, data):
        if path not in self.names:
            return
        self.fs.write(path, offset, data)
        inode = self.names[path]
        self.content[inode] = model_write(self.content[inode], offset, data)

    @rule(path=paths, length=st.integers(min_value=0, max_value=128))
    def truncate(self, path, length):
        if path not in self.names:
            return
        self.fs.truncate(path, length)
        inode = self.names[path]
        self.content[inode] = model_truncate(self.content[inode], length)

    @rule(path=paths)
    def read_whole(self, path):
        if path in self.names:
            self._check_read(self.fs.read_file(path), self.content[self.names[path]])

    @rule(path=paths, offset=offsets, length=st.none() | st.integers(0, 64))
    def read_range(self, path, offset, length):
        if path not in self.names:
            return
        expected = self.content[self.names[path]][offset:]
        if length is not None:
            expected = expected[:length]
        self._check_read(self.fs.read(path, offset, length), expected)

    @rule(src=paths, dst=paths)
    def link(self, src, dst):
        if src not in self.names or dst in self.names:
            return
        self.fs.link(src, dst)
        self.names[dst] = self.names[src]

    @rule(src=paths, dst=paths)
    def rename(self, src, dst):
        if src not in self.names:
            return
        self.fs.rename(src, dst)
        if src != dst:
            self.names[dst] = self.names.pop(src)

    @rule(path=paths)
    def unlink(self, path):
        if path not in self.names:
            return
        self.fs.unlink(path)
        del self.names[path]

    @rule(path=paths, where=st.integers(min_value=0), mask=st.integers(1, 255))
    def corrupt(self, path, where, mask):
        if path not in self.names or not self.content[self.names[path]]:
            return
        inode = self.names[path]
        old = self.content[inode]
        where %= len(old)
        self.fs.corrupt(path, where, mask)
        flipped = bytes([old[where] ^ mask])
        self.content[inode] = model_write(old, where, flipped)

    @invariant()
    def matches_model(self):
        live = set(self.names.values())
        assert self.fs.used_bytes == sum(len(self.content[i]) for i in live)
        for path, inode in self.names.items():
            assert self.fs.stat(path).size == len(self.content[inode])
            assert self.fs.read_file(path) == self.content[inode]

    @invariant()
    def reads_never_change(self):
        for got, then in self.handed_out:
            assert got == then


TestFileSystemModel = FileSystemModel.TestCase
TestFileSystemModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TestRefusedChangesLeaveFileAlone:
    @pytest.fixture
    def fs(self):
        fs = MemoryFileSystem(capacity=10)
        fs.write_file("/a", b"abcdefgh")
        fs.write("/a", 0, b"A")  # content is now a private buffer
        return fs

    @pytest.mark.parametrize(
        "refused",
        [
            lambda fs: fs.write("/a", 8, b"xyz"),
            lambda fs: fs.write("/a", 20, b"x"),
            lambda fs: fs.truncate("/a", 11),
        ],
        ids=["append", "sparse-write", "grow"],
    )
    def test_enospc_changes_nothing(self, fs, refused):
        with pytest.raises(NoSpaceError):
            refused(fs)
        assert fs.read_file("/a") == b"Abcdefgh"
        assert fs.used_bytes == 8

    @pytest.mark.parametrize(
        "refused",
        [
            lambda fs: fs.write("/a", -2, b"xyz"),
            lambda fs: fs.truncate("/a", -1),
        ],
        ids=["negative-offset", "negative-length"],
    )
    def test_invalid_arguments_change_nothing(self, fs, refused):
        with pytest.raises(ValueError):
            refused(fs)
        assert fs.read_file("/a") == b"Abcdefgh"
        assert fs.used_bytes == 8

