"""Graph analytics on sorted data: the paper's motivating PGX.D use case.

"By adding this distributed sorting method in PGX.D, user can also easily
sort data of their multiple graphs with different types and implement more
analysis on them, such as retrieving top values from their graph data or
implementing binary search on the sorted data."

This example builds a Twitter-shaped R-MAT graph, loads it into the
simulated PGX.D runtime (block partition, ghost-node selection, CSR build,
edge chunking), sorts two graph-derived datasets in one call, one job
each, and runs top-k / binary-search analytics on the results.

Run:  python examples/twitter_graph_topk.py
"""

import numpy as np

from repro import DistributedSorter
from repro.pgxd import PgxdRuntime, chunk_edges, chunk_imbalance, vertex_chunk_imbalance
from repro.workloads import synthetic_twitter

P = 8
ds = synthetic_twitter(scale=13, edge_factor=8, seed=1)
print(f"graph: {ds.num_vertices:,} vertices, {ds.num_edges:,} edges")

# --- Load the graph into the PGX.D runtime ---------------------------------
runtime = PgxdRuntime(P)
local_graphs, ghosts, load_run = runtime.load_graph(ds.src, ds.dst, ds.num_vertices)
print(
    f"loaded in {load_run.makespan * 1e3:.2f} ms virtual; ghost nodes cut "
    f"{ghosts.reduction:.1%} of {ghosts.crossing_edges_before:,} crossing edges"
)
g0 = local_graphs[0]
chunks = chunk_edges(g0, 1024)
print(
    f"machine 0: {g0.num_vertices:,} vertices / {g0.num_edges:,} edges in "
    f"{len(chunks)} chunks (edge-chunk imbalance {chunk_imbalance(chunks):.2f} "
    f"vs vertex-block {vertex_chunk_imbalance(g0, len(chunks)):.2f})"
)

# --- Sort two graph datasets, one job each ----------------------------------
degrees = ds.degree_keys()  # per-edge source degree: power-law duplicates
properties = ds.edge_keys()  # per-edge property: uniform over [0, 95]
sorter = DistributedSorter(num_processors=P)
deg_result, prop_result = sorter.sort_many([degrees, properties])
print(f"\nsorted {len(degrees):,}-key degree data and property data, one job each")
print(
    f"virtual time: degrees {deg_result.elapsed_seconds * 1e3:.2f} ms, "
    f"properties {prop_result.elapsed_seconds * 1e3:.2f} ms"
)

# --- Analytics on the sorted data -------------------------------------------
top = deg_result.top_k(5)
print(f"5 largest source degrees: {top.astype(int).tolist()}")
hubs_cut = int(np.searchsorted(deg_result.to_array(), 100))
share = 1 - hubs_cut / len(degrees)
print(f"edges from vertices with degree >= 100: {share:.1%}")

proc, local = prop_result.searchsorted(47.5)
rank = prop_result.global_index(proc, local)
print(f"first property >= 47.5 sits on processor {proc} (global rank {rank:,})")
print(f"property ranges per processor:")
for i, rng in enumerate(prop_result.ranges()):
    if rng:
        print(f"  proc{i}: {rng[0]:6.2f} .. {rng[1]:6.2f}")
