"""Unit tests for the memory spaces."""

import numpy as np
import pytest

from repro.simt.memory import GlobalMemory, KernelParams, MemoryError_, SharedMemory


class TestWordSpace:
    def test_load_store_roundtrip(self):
        mem = GlobalMemory(64)
        addr = np.array([0, 4, 8], dtype=np.int64)
        mem.store(addr, np.array([1.5, 2.5, 3.5]))
        assert mem.load(addr, as_float=True).tolist() == [1.5, 2.5, 3.5]

    def test_integer_loads_are_int64(self):
        mem = GlobalMemory(64)
        mem.store(np.array([0]), np.array([42.0]))
        out = mem.load(np.array([0]), as_float=False)
        assert out.dtype == np.int64 and out[0] == 42

    def test_out_of_range(self):
        mem = GlobalMemory(4)
        with pytest.raises(MemoryError_, match="out of range"):
            mem.load(np.array([1 << 20]), as_float=True)
        with pytest.raises(MemoryError_):
            mem.load(np.array([-4]), as_float=True)

    def test_misaligned(self):
        mem = GlobalMemory(16)
        with pytest.raises(MemoryError_, match="misaligned"):
            mem.load(np.array([2]), as_float=True)

    def test_address_screen_overshoot_is_not_an_error(self):
        """The OR of in-range lanes can pass the limit (32 | 64 = 96 bytes)
        without any lane doing so; only a lane that does may raise."""
        mem = SharedMemory(24)
        mem.store(np.array([32, 64]), np.array([1.0, 2.0]))
        assert mem.load(np.array([32, 64]), as_float=True).tolist() == [1.0, 2.0]
        with pytest.raises(MemoryError_, match="out of range"):
            mem.load(np.array([0, 96]), as_float=True)

    def test_scatter_last_lane_wins(self):
        mem = GlobalMemory(16)
        mem.store(np.array([0, 0]), np.array([1.0, 2.0]))
        assert mem.load(np.array([0]), as_float=True)[0] == 2.0


class TestAllocator:
    def test_alloc_returns_byte_addresses(self):
        mem = GlobalMemory(1024)
        a = mem.alloc(8)
        b = mem.alloc(8)
        assert a % 4 == 0 and b % 4 == 0
        assert b > a

    def test_alloc_line_aligned(self):
        mem = GlobalMemory(1024)
        mem.alloc(3)
        b = mem.alloc(4)
        assert b % 128 == 0  # 32-word (128-byte) alignment

    def test_alloc_array_initialises(self):
        mem = GlobalMemory(1024)
        base = mem.alloc_array(np.arange(5))
        assert mem.read_array(base, 5, dtype=np.int64).tolist() == [0, 1, 2, 3, 4]

    def test_named_allocation(self):
        mem = GlobalMemory(1024)
        base = mem.alloc(4, name="x")
        assert mem.base_of("x") == base

    def test_exhaustion(self):
        mem = GlobalMemory(32)
        with pytest.raises(MemoryError_, match="exhausted"):
            mem.alloc(64)

    def test_host_write_bounds(self):
        mem = GlobalMemory(8)
        with pytest.raises(MemoryError_):
            mem.write_array(0, np.zeros(16))


class TestKernelParams:
    def test_lookup(self):
        p = KernelParams({"n": 4, "alpha": 0.5})
        assert p["n"] == 4
        assert "alpha" in p

    def test_missing(self):
        p = KernelParams({})
        with pytest.raises(KeyError, match="not provided"):
            p["nope"]

    def test_validate_against(self):
        p = KernelParams({"a": 1})
        p.validate_against(("a",))
        with pytest.raises(KeyError, match="missing kernel parameter"):
            p.validate_against(("a", "b"))


class TestSharedMemory:
    def test_default_size_is_96kb(self):
        assert SharedMemory().size_bytes == 96 * 1024
