"""Simulated PGX.D runtime: the framework substrate the paper builds on.

Reimplements, on top of :mod:`repro.simnet`, the PGX.D behaviours the paper
relies on: the task manager's worker-thread pool, the data manager's 256 KB
request buffers and CSR graph storage, the communication manager's
asynchronous buffered transfers, ghost-node selection, and edge chunking.
"""

from .buffers import RequestBuffer, num_flushes, split_for_buffers
from .chunking import EdgeChunk, chunk_edges, chunk_imbalance, vertex_chunk_imbalance
from .comm_manager import exchange_arrays, expected_chunks, recv_array, send_array
from .config import READ_BUFFER_BYTES, PgxdConfig
from .csr import CsrGraph
from .data_manager import DataManager
from .ghost import GhostSelection, count_crossing_edges, select_ghosts
from .algorithms import (
    BfsResult,
    PageRankResult,
    WccResult,
    distributed_bfs,
    distributed_pagerank,
    distributed_wcc,
)
from .partition import BlockPartition
from .runtime import Machine, MachineProgram, PgxdRuntime, RunResult
from .task_manager import TaskManager

__all__ = [
    "READ_BUFFER_BYTES",
    "BfsResult",
    "BlockPartition",
    "CsrGraph",
    "DataManager",
    "EdgeChunk",
    "GhostSelection",
    "Machine",
    "MachineProgram",
    "PgxdConfig",
    "PgxdRuntime",
    "RequestBuffer",
    "RunResult",
    "TaskManager",
    "WccResult",
    "chunk_edges",
    "chunk_imbalance",
    "PageRankResult",
    "count_crossing_edges",
    "distributed_bfs",
    "distributed_pagerank",
    "distributed_wcc",
    "exchange_arrays",
    "expected_chunks",
    "num_flushes",
    "recv_array",
    "select_ghosts",
    "send_array",
    "split_for_buffers",
    "vertex_chunk_imbalance",
]
