"""Unit tests for PgxdConfig and the request-buffer machinery."""

import numpy as np
import pytest

from repro.pgxd import (
    READ_BUFFER_BYTES,
    PgxdConfig,
    RequestBuffer,
    num_flushes,
    split_for_buffers,
)


class TestPgxdConfig:
    def test_paper_defaults(self):
        cfg = PgxdConfig()
        assert cfg.read_buffer_bytes == 256 * 1024
        assert cfg.threads_per_machine == 32
        assert cfg.async_messaging

    def test_sample_bytes_is_buffer_over_p(self):
        cfg = PgxdConfig()
        # Section IV-B: each processor sends 256/p KB to Master.
        assert cfg.sample_bytes_per_processor(8) == READ_BUFFER_BYTES // 8
        assert cfg.sample_bytes_per_processor(52) == READ_BUFFER_BYTES // 52

    def test_master_receives_at_most_one_buffer(self):
        cfg = PgxdConfig()
        for p in (2, 8, 10, 32, 52):
            assert cfg.sample_bytes_per_processor(p) * p <= READ_BUFFER_BYTES

    def test_sample_bytes_never_zero(self):
        cfg = PgxdConfig(read_buffer_bytes=16)
        assert cfg.sample_bytes_per_processor(1000) == 1

    def test_overrides_are_copies(self):
        cfg = PgxdConfig()
        alt = cfg.with_overrides(async_messaging=False)
        assert not alt.async_messaging
        assert cfg.async_messaging

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_buffer_bytes": 0},
            {"threads_per_machine": 0},
            {"ghost_node_budget": -1},
            {"data_scale": 0.0},
            {"data_scale": -2.0},
            {"read_buffer_bytes": -4096},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PgxdConfig(**kwargs)

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            PgxdConfig().sample_bytes_per_processor(0)


class TestNumFlushes:
    @pytest.mark.parametrize(
        "nbytes,buf,expected",
        [(0, 100, 0), (1, 100, 1), (100, 100, 1), (101, 100, 2), (1000, 100, 10)],
    )
    def test_ceiling_division(self, nbytes, buf, expected):
        assert num_flushes(nbytes, buf) == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            num_flushes(-1, 100)
        with pytest.raises(ValueError):
            num_flushes(100, 0)


class TestSplitForBuffers:
    def test_chunks_respect_buffer_size(self):
        arr = np.arange(1000, dtype=np.int64)  # 8000 bytes
        chunks = split_for_buffers(arr, 1024)
        assert all(c.nbytes <= 1024 for c in chunks)
        np.testing.assert_array_equal(np.concatenate(chunks), arr)

    def test_chunks_are_views(self):
        arr = np.arange(100, dtype=np.int64)
        chunks = split_for_buffers(arr, 80)
        assert all(c.base is arr for c in chunks)

    def test_empty_array(self):
        assert split_for_buffers(np.empty(0), 1024) == []

    def test_chunk_count_matches_num_flushes(self):
        arr = np.arange(777, dtype=np.int64)
        chunks = split_for_buffers(arr, 1000)
        # Items per chunk = floor(1000/8) = 125 -> ceil(777/125) = 7 chunks.
        assert len(chunks) == 7

    def test_item_larger_than_buffer_still_progresses(self):
        arr = np.arange(4, dtype=np.int64)
        chunks = split_for_buffers(arr, 2)  # buffer smaller than one item
        assert len(chunks) == 4


class TestRequestBuffer:
    def test_flushes_at_capacity(self):
        buf = RequestBuffer(capacity_bytes=100)
        assert buf.append("a", 40) is None
        assert buf.append("b", 40) is None
        batch = buf.append("c", 40)
        assert batch == ["a", "b", "c"]
        assert buf.pending_items == 0
        assert buf.flush_count == 1

    def test_watermark_triggers_early_flush(self):
        buf = RequestBuffer(capacity_bytes=100, watermark=0.5)
        assert buf.append("a", 50) == ["a"]

    def test_manual_flush(self):
        buf = RequestBuffer(capacity_bytes=1000)
        buf.append("x", 1)
        assert buf.flush() == ["x"]
        assert buf.flush() is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RequestBuffer(capacity_bytes=0)
        with pytest.raises(ValueError):
            RequestBuffer(capacity_bytes=10, watermark=2.0)
        with pytest.raises(ValueError):
            RequestBuffer(capacity_bytes=10).append("x", -1)
