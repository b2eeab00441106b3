"""Sharded multi-process ECL-CC execution (``backend="sharded"``).

Partition a CSR graph into K contiguous shards
(:mod:`~repro.shard.partition`), solve each shard's induced subgraph
with a registered backend — inline, or in real ``multiprocessing``
workers reading the graph zero-copy from shared memory
(:mod:`~repro.shard.worker`) — then merge cross-shard boundary arcs
with a vectorized union-find pass (:mod:`~repro.shard.runner`).
Labels are canonical min-member, bit-identical to the serial oracle.

Process-mode runs borrow one warm process-wide pool (``forkserver``
by default, so scripts need an ``if __name__ == "__main__":`` guard and
the first call pays the server start-up), stopped by :func:`shutdown_pool`.

Quick use::

    from repro import connected_components
    result = connected_components(graph, backend="sharded", workers=4)

or, keeping the shared-memory export across repeated solves::

    from repro.shard import ShardedExecutor
    with ShardedExecutor(graph, workers=4, force_processes=True) as ex:
        result = ex.run()
"""

from .partition import PARTITIONERS, ShardPlan, make_plan, partition_degree, partition_range
from .runner import ShardedExecutor, ShardedRunStats, merge_boundary, sharded_cc, shutdown_pool
from .worker import SHARD_BACKENDS, solve_shard_local

__all__ = [
    "PARTITIONERS",
    "SHARD_BACKENDS",
    "ShardPlan",
    "ShardedExecutor",
    "ShardedRunStats",
    "make_plan",
    "merge_boundary",
    "partition_degree",
    "partition_range",
    "sharded_cc",
    "shutdown_pool",
    "solve_shard_local",
]
