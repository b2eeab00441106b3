"""Sharded multi-process ECL-CC execution (``backend="sharded"``).

Partition a CSR graph into K contiguous shards
(:mod:`~repro.shard.partition`), solve each shard's induced subgraph
with the ``numpy`` backend — inline, or in real ``multiprocessing``
workers (:mod:`~repro.shard.worker`) — then merge cross-shard boundary
arcs with a vectorized union-find pass (:mod:`~repro.shard.runner`).
Labels are canonical min-member, bit-identical to the serial oracle.

What depends only on the graph and the plan — each shard's local CSR
and edge pairs, and the boundary arcs — is built on the first call and
kept on the graph (:mod:`~repro.shard.export`), so later calls only
hook.  That costs about ``8 * (n + local arcs * 2 + K)`` bytes
(``+ 8n`` for the label region in process mode, where it lives in one
``/dev/shm`` segment) plus 16 bytes per boundary edge in the parent,
per graph and plan.  It is freed when the graph is dropped, by
:func:`release_exports`, by :func:`shutdown_pool`, or on leaving a
:class:`ShardedExecutor` block.

Process-mode runs borrow one warm process-wide pool (``forkserver``
by default, so scripts need an ``if __name__ == "__main__":`` guard and
the first call pays the server start-up), stopped by :func:`shutdown_pool`.

Quick use::

    from repro import connected_components
    result = connected_components(graph, backend="sharded", workers=4)

or, freeing the export when the block ends::

    from repro.shard import ShardedExecutor
    with ShardedExecutor(graph, workers=4, force_processes=True) as ex:
        result = ex.run()
"""

from .export import export_segments, leaked_shared_segments, release_exports
from .partition import PARTITIONERS, ShardPlan, make_plan, partition_degree, partition_range
from .runner import ShardedExecutor, ShardedRunStats, merge_boundary, sharded_cc, shutdown_pool

__all__ = [
    "PARTITIONERS",
    "ShardPlan",
    "ShardedExecutor",
    "ShardedRunStats",
    "export_segments",
    "leaked_shared_segments",
    "make_plan",
    "merge_boundary",
    "partition_degree",
    "partition_range",
    "release_exports",
    "sharded_cc",
    "shutdown_pool",
]
