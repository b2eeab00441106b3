"""Seeded inputs and the reference judge, owned by the benchmark.

Everything here is plain numpy/scipy so that edits to the program's own
generators or verifiers cannot change what the benchmark measures or how
it judges answers.  Each generator returns an undirected edge list as
two ``int64`` arrays (duplicates and self-loops allowed;
``repro.graph.from_arc_arrays`` removes them) plus the vertex count.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as scipy_cc


def _grid(rng, rows, cols, drop):
    """2-D 4-neighbour grid with a random ``drop`` share of edges removed."""
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    src = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    dst = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    keep = rng.random(src.size) >= drop
    return src[keep], dst[keep], rows * cols


def _road(rng, rows, cols, keep_prob):
    """Road-like mesh: every row a path, rows joined by a sparse random
    subset of vertical edges (at least one per row pair), so the diameter
    is a few times ``sqrt(n)``."""
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    v_src, v_dst = idx[:-1, :], idx[1:, :]
    keep = rng.random(v_src.shape) < keep_prob
    keep[np.arange(rows - 1), rng.integers(0, cols, size=rows - 1)] = True
    src = np.concatenate([idx[:, :-1].ravel(), v_src[keep]])
    dst = np.concatenate([idx[:, 1:].ravel(), v_dst[keep]])
    return src, dst, rows * cols


def _delaunay(rng, points):
    from scipy.spatial import Delaunay

    tri = Delaunay(rng.random((points, 2))).simplices.astype(np.int64)
    src = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]])
    dst = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    return src, dst, points


def _rmat(rng, scale, edge_factor, a, b, c):
    n = 1 << scale
    arcs = int(n * edge_factor)
    src = np.zeros(arcs, dtype=np.int64)
    dst = np.zeros(arcs, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(arcs)
        right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        down = r >= a + b
        src |= down.astype(np.int64) << bit
        dst |= right.astype(np.int64) << bit
    perm = rng.permutation(n)  # hide the quadrant structure in the ids
    return perm[src], perm[dst], n


def _community(rng, n, avg_degree, islands, locality):
    """Zipf-distributed degrees inside ``islands`` disjoint vertex groups;
    a ``locality`` share of each vertex's edges stays near it (within 32
    ids), the rest go anywhere in its island.  The seed permutes which
    vertices get the high degrees but not the degree sequence, so the
    graph's size barely moves between seeds."""
    island = np.sort(rng.integers(0, islands, size=n))
    starts = np.searchsorted(island, np.arange(islands + 1))
    arcs = int(n * avg_degree / 2)
    weights = (np.arange(n) + 1.0) ** -0.8
    weights = weights[rng.permutation(n)]
    src = rng.choice(n, size=arcs, p=weights / weights.sum())
    lo, hi = starts[island[src]], starts[island[src] + 1]
    span = hi - lo  # >= 1: src belongs to its island
    local = rng.random(arcs) < locality
    offset = np.where(
        local,
        (src - lo + rng.integers(-32, 33, size=arcs)) % span,
        (rng.random(arcs) * span).astype(np.int64),
    )
    dst = lo + offset
    return src.astype(np.int64), dst.astype(np.int64), n


def _dense_pa(rng, n, m):
    """Dense preferential-attachment stand-in: vertex ``i`` links to ``m``
    earlier vertices drawn with density skewed towards low ids, giving the
    heavy-tailed, single-component character of a citation graph."""
    i = np.repeat(np.arange(1, n, dtype=np.int64), m)
    j = (i * rng.random(i.size) ** 2).astype(np.int64)
    return i, j, n


#: Graph families per workload, each a ``(name, build(rng))`` pair.
#: Sizes are the medium-suite band (about 0.2-2M undirected edges).
FAMILIES = {
    "mesh": (
        ("grid", lambda rng: _grid(rng, 700, 700, 0.02)),
        ("road-sparse", lambda rng: _road(rng, 600, 600, 0.05)),
        ("road", lambda rng: _road(rng, 600, 600, 0.35)),
        ("delaunay", lambda rng: _delaunay(rng, 200_000)),
    ),
    "skewed": (
        ("rmat", lambda rng: _rmat(rng, 17, 8.0, 0.45, 0.22, 0.22)),
        ("kron", lambda rng: _rmat(rng, 16, 16.0, 0.57, 0.19, 0.19)),
        ("community", lambda rng: _community(rng, 150_000, 12.0, 750, 0.5)),
        ("dense-pa", lambda rng: _dense_pa(rng, 20_000, 28)),
    ),
}


def make_graph_inputs(workload: str, seed: int) -> list[tuple[str, np.ndarray, np.ndarray, int]]:
    """``[(name, src, dst, n), ...]`` for the workload, from ``seed``."""
    out = []
    for k, (name, build) in enumerate(FAMILIES[workload]):
        rng = np.random.default_rng([seed, k])
        src, dst, n = build(rng)
        out.append((name, src, dst, n))
    return out


def reference_labels(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Minimum-member component labels computed by scipy."""
    data = np.ones(src.size, dtype=np.int32)
    adj = coo_matrix((data, (src, dst)), shape=(n, n)).tocsr()
    _, comp = scipy_cc(adj, directed=True, connection="weak")
    first = np.full(comp.max() + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(first, comp, np.arange(n, dtype=np.int64))
    return first[comp]


def unique_edges(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct undirected edges ``(lo, hi)``, ``lo < hi``, no self-loops."""
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    key = np.unique(lo[keep] * np.int64(n) + hi[keep])
    return key // n, key % n


# Op kinds of the service stream.
SAME, COMPONENT, INSERT, DELETE = 0, 1, 2, 3


class ServicePlan:
    """A seeded closed-loop op stream for one ``ConnectivityService``.

    Every ``write_every``-th op is a write, every ``delete_every``-th
    write a delete and every ``wait_every``-th write waits for its
    ticket; the other ops are reads.  Inserts reopen held-out edges and
    deletes close edges of the seed graph; no edge is touched twice, so
    the service's freedom to reorder mutations inside a batch cannot
    change the committed state.

    The read mix is that of the repository's service load generator
    (``repro.experiments.loadgen.build_ops``: "Reads split evenly between
    ``same_component`` and ``component_of``").  Its vertices are uniform;
    here they follow a bounded Zipf law with YCSB's default zipfian
    constant, 0.99 (Cooper et al., *Benchmarking Cloud Serving Systems
    with YCSB*, SoCC 2010), over a random vertex order, because hot
    vertices are what the per-snapshot root cache serves.

    ``expected[k]`` is the reference labelling after op
    ``checkpoints[k]``.  ``accept[op]`` holds the answers read ``op`` may
    give (see :meth:`_judge`): ``same_component`` answers as 0/1,
    ``component_of`` answers as the minimum-member label.
    """

    ZIPF_THETA = 0.99
    SAME_SHARE = 0.5

    def __init__(self, src, dst, n, seed, *, ops, write_every, delete_every,
                 wait_every, checkpoints):
        rng = np.random.default_rng([seed, 99])
        lo, hi = unique_edges(src, dst, n)
        order = rng.permutation(lo.size)
        lo, hi = lo[order], hi[order]
        kinds = np.where(rng.random(ops) < self.SAME_SHARE, SAME, COMPONENT).astype(np.int8)
        # Fixed strides, so every seed has the same mix and the same
        # spacing of deletes and waited writes; the seed picks the edges
        # and the vertices read.
        writes = np.arange(write_every - 1, ops, write_every)
        deletes = np.arange(writes.size) % delete_every == delete_every // 2
        kinds[writes] = np.where(deletes, DELETE, INSERT)
        n_ins, n_del = int((~deletes).sum()), int(deletes.sum())
        if n_ins + n_del > lo.size:
            raise ValueError("op stream needs more edges than the graph has")
        # Held-out edges come first in the shuffled order, closable ones last.
        ins_lo, ins_hi = lo[:n_ins], hi[:n_ins]
        self.base_src, self.base_dst = lo[n_ins:], hi[n_ins:]
        del_lo, del_hi = self.base_src[::-1][:n_del], self.base_dst[::-1][:n_del]

        weights = (np.arange(n) + 1.0) ** -self.ZIPF_THETA
        rank = rng.choice(n, size=(ops, 2), p=weights / weights.sum())
        vperm = rng.permutation(n)
        self.a = vperm[rank[:, 0]]
        self.b = vperm[rank[:, 1]]
        ins_at = writes[~deletes]
        del_at = writes[deletes]
        self.a[ins_at], self.b[ins_at] = ins_lo, ins_hi
        self.a[del_at], self.b[del_at] = del_lo, del_hi
        self.kinds = kinds
        self.wait = np.zeros(ops, dtype=bool)
        self.wait[writes[::wait_every]] = True
        self.n = n
        self.ops = ops

        # Checkpoints after evenly spaced ops; the last is the final op.
        self.checkpoints = [
            int(round(ops * (k + 1) / checkpoints)) - 1 for k in range(checkpoints)
        ]
        self.accept, self.expected = self._judge(
            writes, deletes, ins_lo, ins_hi, known=np.concatenate([writes[::wait_every], self.checkpoints]))

    def _judge(self, writes, deletes, ins_lo, ins_hi, known):
        """Reference answers of every read, and labels at the checkpoints.

        The service commits writes in submission order, a batch at a
        time, so every read sees the state after some prefix of the
        writes: at least those committed when the last waited write
        returned or the last checkpoint flushed (``known`` ops), at most
        those submitted before the read.  ``accept[op]`` lists the read's
        answer in each of those states (-1 pads).
        """
        n, ops, kinds, a, b = self.n, self.ops, self.kinds, self.a, self.b
        reads = np.flatnonzero((kinds == SAME) | (kinds == COMPONENT))
        known = np.concatenate([[-1], np.sort(known)])
        hi = np.searchsorted(writes, reads)  # writes submitted before the read
        lo = np.searchsorted(writes, known[np.searchsorted(known, reads) - 1], side="right")
        accept = np.full((ops, int((hi - lo).max()) + 1), -1, dtype=np.int64)
        same = kinds[reads] == SAME
        at_checkpoint = np.searchsorted(writes, self.checkpoints, side="right")
        expected = [None] * len(self.checkpoints)
        n_ins = n_del = 0
        labels = None
        for j in range(writes.size + 1):  # state after the first j writes
            if j == 0 or deletes[j - 1]:
                n_del += j > 0
                keep = self.base_src.size - n_del
                labels = reference_labels(np.concatenate([self.base_src[:keep], ins_lo[:n_ins]]),
                                          np.concatenate([self.base_dst[:keep], ins_hi[:n_ins]]), n)
            else:
                u, v = int(ins_lo[n_ins]), int(ins_hi[n_ins])
                n_ins += 1
                lu, lv = labels[u], labels[v]
                if lu != lv:  # merge minimum-member labels; earlier states keep theirs
                    labels = labels.copy()
                    labels[labels == max(lu, lv)] = min(lu, lv)
            for k in np.flatnonzero(at_checkpoint == j):
                expected[k] = labels
            first, last = np.searchsorted(hi, j), np.searchsorted(lo, j, side="right")
            r = reads[first:last]
            accept[r, j - lo[first:last]] = np.where(
                same[first:last], labels[a[r]] == labels[b[r]], labels[a[r]])
        return accept, expected
