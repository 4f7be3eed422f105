"""Tests for the in-memory POSIX-like file system."""

import pytest

from repro.common.errors import NoSpaceError, NotFoundError
from repro.vfs.filesystem import MemoryFileSystem


@pytest.fixture
def fs():
    return MemoryFileSystem()


class TestBasics:
    def test_create_and_read_empty(self, fs):
        fs.create("/a")
        assert fs.read_file("/a") == b""
        assert fs.exists("/a")

    def test_create_existing_keeps_data(self, fs):
        # POSIX open(O_CREAT) on an existing file must not truncate
        fs.create("/a")
        fs.write("/a", 0, b"data")
        fs.create("/a")
        assert fs.read_file("/a") == b"data"

    def test_write_and_read(self, fs):
        fs.create("/a")
        fs.write("/a", 0, b"hello")
        assert fs.read("/a", 0, 5) == b"hello"
        assert fs.read("/a", 1, 3) == b"ell"

    def test_sparse_write(self, fs):
        fs.create("/a")
        fs.write("/a", 10, b"x")
        assert fs.size("/a") == 11
        assert fs.read("/a", 0, 10) == b"\x00" * 10

    def test_write_to_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.write("/nope", 0, b"x")

    def test_read_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.read("/nope")

    def test_truncate_shrink_and_grow(self, fs):
        fs.create("/a")
        fs.write("/a", 0, b"abcdef")
        fs.truncate("/a", 3)
        assert fs.read_file("/a") == b"abc"
        fs.truncate("/a", 5)
        assert fs.read_file("/a") == b"abc\x00\x00"

    def test_write_file_helper(self, fs):
        fs.write_file("/a", b"payload")
        assert fs.read_file("/a") == b"payload"
        fs.write_file("/a", b"x")  # replaces, does not append
        assert fs.read_file("/a") == b"x"

    def test_path_normalization(self, fs):
        fs.create("a")
        assert fs.exists("/a")
        fs.create("/b/../c") if fs.exists("/b") else fs.create("/c")
        assert fs.exists("/c")


class TestRename:
    def test_basic(self, fs):
        fs.write_file("/a", b"data")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_file("/b") == b"data"

    def test_replaces_destination(self, fs):
        fs.write_file("/a", b"new")
        fs.write_file("/b", b"old")
        fs.rename("/a", "/b")
        assert fs.read_file("/b") == b"new"

    def test_missing_source_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.rename("/nope", "/b")

    def test_rename_to_self_is_noop(self, fs):
        fs.write_file("/a", b"data")
        fs.rename("/a", "/a")
        assert fs.read_file("/a") == b"data"


class TestLinks:
    def test_link_shares_inode(self, fs):
        fs.write_file("/a", b"shared")
        fs.link("/a", "/b")
        assert fs.read_file("/b") == b"shared"
        fs.write("/a", 0, b"SHARED")
        assert fs.read_file("/b") == b"SHARED"

    def test_nlink_counts(self, fs):
        fs.write_file("/a", b"x")
        fs.link("/a", "/b")
        assert fs.stat("/a").nlink == 2
        assert fs.stat("/a").inode == fs.stat("/b").inode

    def test_unlink_one_name_keeps_data(self, fs):
        fs.write_file("/a", b"keep")
        fs.link("/a", "/b")
        fs.unlink("/a")
        assert fs.read_file("/b") == b"keep"

    def test_link_over_existing_raises(self, fs):
        fs.write_file("/a", b"1")
        fs.write_file("/b", b"2")
        with pytest.raises(FileExistsError):
            fs.link("/a", "/b")

    def test_gedit_pattern(self, fs):
        # 1-2 create-write tmp, 3 link f f~, 4 rename tmp f
        fs.write_file("/f", b"old content")
        fs.write_file("/tmp1", b"new content")
        fs.link("/f", "/f~")
        fs.rename("/tmp1", "/f")
        assert fs.read_file("/f") == b"new content"
        assert fs.read_file("/f~") == b"old content"


class TestUnlink:
    def test_basic(self, fs):
        fs.write_file("/a", b"x")
        fs.unlink("/a")
        assert not fs.exists("/a")

    def test_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.unlink("/nope")

    def test_data_freed(self, fs):
        fs.write_file("/a", b"x" * 1000)
        used = fs.used_bytes
        fs.unlink("/a")
        assert fs.used_bytes == used - 1000


class TestDirectories:
    def test_mkdir_listdir(self, fs):
        fs.mkdir("/dir")
        fs.write_file("/dir/a", b"1")
        fs.write_file("/dir/b", b"2")
        assert fs.listdir("/dir") == ["a", "b"]

    def test_create_in_missing_dir_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.create("/nodir/a")

    def test_rmdir_empty(self, fs):
        fs.mkdir("/dir")
        fs.rmdir("/dir")
        assert not fs.exists("/dir")

    def test_rmdir_nonempty_raises(self, fs):
        fs.mkdir("/dir")
        fs.write_file("/dir/a", b"x")
        with pytest.raises(OSError):
            fs.rmdir("/dir")

    def test_rmdir_root_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.rmdir("/")

    def test_mkdir_existing_raises(self, fs):
        fs.mkdir("/dir")
        with pytest.raises(FileExistsError):
            fs.mkdir("/dir")

    def test_stat_dir(self, fs):
        fs.mkdir("/dir")
        assert fs.stat("/dir").is_dir


class TestCapacity:
    def test_enospc_on_write(self):
        fs = MemoryFileSystem(capacity=100)
        fs.create("/a")
        fs.write("/a", 0, b"x" * 100)
        with pytest.raises(NoSpaceError):
            fs.write("/a", 100, b"y")

    def test_delete_frees_space(self):
        fs = MemoryFileSystem(capacity=100)
        fs.write_file("/a", b"x" * 100)
        fs.unlink("/a")
        fs.write_file("/b", b"y" * 100)  # fits again
        assert fs.read_file("/b") == b"y" * 100

    def test_overwrite_not_double_charged(self):
        fs = MemoryFileSystem(capacity=100)
        fs.create("/a")
        fs.write("/a", 0, b"x" * 100)
        fs.write("/a", 0, b"y" * 100)  # same size, no growth
        assert fs.read_file("/a") == b"y" * 100


class TestCorruptionHook:
    def test_corrupt_flips_bit(self):
        fs = MemoryFileSystem()
        fs.write_file("/a", b"\x00" * 10)
        fs.corrupt("/a", 5, flip_mask=0x01)
        assert fs.read_file("/a")[5] == 0x01

    def test_corrupt_outside_raises(self):
        fs = MemoryFileSystem()
        fs.write_file("/a", b"ab")
        with pytest.raises(ValueError):
            fs.corrupt("/a", 10)

    def test_walk_files_sorted(self):
        fs = MemoryFileSystem()
        for name in ("/c", "/a", "/b"):
            fs.write_file(name, b"")
        assert list(fs.walk_files()) == ["/a", "/b", "/c"]


@pytest.fixture(params=["memory", "localdir"])
def any_fs(request, tmp_path):
    from repro.vfs.disk import LocalDirFileSystem

    if request.param == "memory":
        return MemoryFileSystem()
    return LocalDirFileSystem(str(tmp_path / "root"))


class TestReadArguments:
    """Negative offsets and lengths are refused alike by every backend.

    Regression: ``MemoryFileSystem`` used to slice with them (returning the
    file's tail, or nothing) while ``LocalDirFileSystem`` read past them or
    failed with ``OSError``.
    """

    @pytest.mark.parametrize(
        "offset,length", [(-2, None), (-2, 1), (1, -1), (0, -5)]
    )
    def test_negative_arguments_rejected(self, any_fs, offset, length):
        any_fs.write_file("/a", b"hello")
        with pytest.raises(ValueError):
            any_fs.read("/a", offset, length)

    def test_valid_ranges_agree(self, any_fs):
        any_fs.write_file("/a", b"hello")
        assert any_fs.read("/a", 1, 3) == b"ell"
        assert any_fs.read("/a", 3) == b"lo"
        assert any_fs.read("/a", 4, 10) == b"o"
        assert any_fs.read("/a", 9) == b""
        assert any_fs.read("/a", 0, 0) == b""
