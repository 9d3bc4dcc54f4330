"""The page file: I/O, named roots, allocation and the free list."""

import os

import pytest

from repro.engine.buffer import BufferPool
from repro.engine.pages import FORMAT_VERSION, PAGE_SIZE, PageFile
from repro.errors import PageError


@pytest.fixture
def page_file(tmp_path):
    pf = PageFile(str(tmp_path / "test.db"))
    yield pf
    if pf.is_open:
        pf.close()


class TestLifecycle:
    def test_fresh_file_has_only_header(self, page_file):
        assert page_file.page_count == 1

    def test_reopen_restores_state(self, tmp_path):
        path = str(tmp_path / "x.db")
        pf = PageFile(path)
        pid = pf.allocate()
        pf.write_page(pid, b"\xab" * PAGE_SIZE)
        pf.set_root("hello", 42)
        pf.close()

        reopened = PageFile(path)
        assert reopened.page_count == 2
        assert reopened.get_root("hello") == 42
        assert reopened.read_page(pid) == bytearray(b"\xab" * PAGE_SIZE)
        reopened.close()

    def test_opening_a_non_database_fails(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"x" * PAGE_SIZE)
        with pytest.raises(PageError):
            PageFile(str(path))

    @staticmethod
    def _file_of_format(tmp_path, version):
        path = tmp_path / f"format{version}.db"
        PageFile(str(path)).close()
        image = bytearray(path.read_bytes())
        image[4:8] = version.to_bytes(4, "little")  # after the magic
        path.write_bytes(bytes(image))
        return str(path)

    def test_a_format_1_file_is_refused(self, tmp_path):
        # Format 1 spelled out field names in every record; nothing
        # reads it any more, and opening one says so.
        path = self._file_of_format(tmp_path, 1)
        with pytest.raises(PageError, match="format version 1, expected 3"):
            PageFile(path)
        assert FORMAT_VERSION == 3

    def test_a_format_2_file_is_refused(self, tmp_path):
        # Format 2 records carried no OID, and a B+tree held each class
        # extent; format 3 walks the heap for it instead.
        path = self._file_of_format(tmp_path, 2)
        with pytest.raises(PageError, match="format version 2, expected 3"):
            PageFile(path)


class TestPageIO:
    def test_roundtrip(self, page_file):
        pid = page_file.allocate()
        data = bytes(range(256)) * 16
        page_file.write_page(pid, data)
        assert bytes(page_file.read_page(pid)) == data

    def test_wrong_size_write_rejected(self, page_file):
        pid = page_file.allocate()
        with pytest.raises(PageError):
            page_file.write_page(pid, b"short")

    def test_header_page_not_addressable(self, page_file):
        with pytest.raises(PageError):
            page_file.read_page(0)
        with pytest.raises(PageError):
            page_file.write_page(0, b"\x00" * PAGE_SIZE)

    def test_unallocated_page_rejected(self, page_file):
        with pytest.raises(PageError):
            page_file.read_page(7)

    def test_write_page_extending_grows_file(self, page_file):
        page_file.write_page_extending(5, b"\x01" * PAGE_SIZE)
        assert page_file.page_count == 6
        assert page_file.read_page(5)[0] == 1


class TestFreeList:
    def test_freed_pages_are_recycled(self, page_file):
        pool = BufferPool(page_file, capacity=4)
        first = pool.new_page()
        second = pool.new_page()
        pool.free_page(first)
        assert pool.new_page() == first  # recycled before growing
        assert pool.new_page() == second + 1

    def test_free_list_survives_reopen(self, tmp_path):
        path = str(tmp_path / "f.db")
        pf = PageFile(path)
        pool = BufferPool(pf, capacity=4)
        pids = [pool.new_page() for _ in range(3)]
        pool.free_page(pids[1])
        pool.flush_all()
        pf.close()
        reopened = PageFile(path)
        assert BufferPool(reopened, capacity=4).new_page() == pids[1]
        reopened.close()


class TestRoots:
    def test_default_for_missing_root(self, page_file):
        assert page_file.get_root("absent", 99) == 99

    def test_roots_snapshot_and_restore(self, page_file):
        page_file.set_root("a", 1)
        page_file.set_root("b", 2)
        snap = page_file.roots_snapshot()
        page_file.set_root("a", 100)
        page_file.restore_roots(snap, 3)
        assert page_file.get_root("a") == 1
        assert page_file.get_root("b") == 2
        assert page_file.free_head == 3

    def test_long_root_name_rejected(self, page_file):
        with pytest.raises(PageError):
            page_file.set_root("x" * 17, 1)

    def test_many_roots_capped(self, page_file):
        for i in range(32):
            page_file.set_root(f"r{i}", i)
        with pytest.raises(PageError):
            page_file.set_root("one-too-many", 1)
