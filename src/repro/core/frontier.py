"""Frontier-shrinking primitives shared by the vectorized native backends.

The bulk-synchronous backend (``ecl_cc_numpy``) originally re-evaluated
**all m edges** every hook round and pointer-doubled **all n vertices**
every flatten pass — exactly the work-inefficiency that
frontier/worklist formulations (ECL-CC's double-sided worklist;
*Adaptive Work-Efficient Connected Components on the GPU*) eliminate.
This module is the shared work-proportional engine:

* :func:`unique_pairs` — dedupe a hook frontier to unique representative
  pairs via one composite-key sort plus an adjacent-difference mask
  (with an overflow-safe lexsort path for graphs too large for an
  ``hi * n + lo`` key).  The CSR builder
  (:func:`repro.graph.build.from_arc_arrays`) dedupes the symmetrized
  arc list with it too.  ``np.unique`` is deliberately avoided: recent
  NumPy routes it through a hash-table kernel that is an order of
  magnitude slower than a plain sort at frontier sizes.
* :func:`segment_min_hook` — replace the unbuffered ``np.minimum.at``
  scatter with a segment minimum over the lexicographically sorted pair
  list: each target's winning contender is the first ``lo`` of its
  segment, one boundary mask plus three gathers.
  Resolving every conflicting hook on one representative to the smallest
  candidate is a valid serialization of ECL-CC's CAS races: each write
  replaces a representative's parent with a strictly smaller member of
  the same component, which is precisely the invariant the paper's
  benign-race argument rests on.
* :func:`flatten_subset` / :func:`flatten_active` — pointer doubling
  restricted to a vertex subset / to the active vertex set (vertices
  whose parent is not a root), with a size-based convergence test
  instead of a full-array ``np.array_equal`` comparison.
* :func:`hook_until_fixpoint` — the hook loop built from the above, the
  single copy under the ``numpy`` backend, the sharded and out-of-core
  boundary merges and :class:`~repro.extensions.incremental.
  IncrementalConnectivity`; each round picks a dense (scatter +
  whole-array flatten) or sparse (dedup + segment minimum + subset
  flatten) regime from its measured live-pair count.

All helpers preserve the library-wide min-label invariant: parent values
only ever decrease, stay inside the owning component, and the minimum
member of each component is never re-parented.

When the optional compiled tier (:mod:`repro.core.kernels`) is active,
the pointer-chasing flattens and the segment boundary mask dispatch to
``@njit`` kernels; the resulting parent arrays resolve to the same
roots, so labels are bit-identical either way (only ``doubling_passes``
accounting differs — the compiled chase is a single pass).
"""

from __future__ import annotations

import numpy as np

from . import kernels

__all__ = [
    "unique_pairs",
    "segment_min_hook",
    "flatten_subset",
    "flatten_active",
    "hook_until_fixpoint",
]

_INT64_MAX = np.iinfo(np.int64).max


def unique_pairs(hi: np.ndarray, lo: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate ``(hi, lo)`` pairs; returns them sorted by ``(hi, lo)``.

    ``n`` is the vertex-id bound; for ``n`` up to ``2**31`` the pairs
    collapse into one shifted composite key — ids packed into disjoint
    bit ranges, so encode/decode are shifts and masks rather than int64
    division — deduplicated by one sort plus an adjacent-difference
    mask.  Larger graphs take a lexsort-based path.  Both paths return
    the pairs in lexicographic ``(hi, lo)`` order, the exact contract
    :func:`segment_min_hook` consumes.
    """
    if hi.size == 0:
        return hi, lo
    shift = max(int(n), 1).bit_length()
    if shift <= 31:  # (hi << shift) | lo fits comfortably in int64
        key = (hi << np.int64(shift)) | lo
        key.sort()
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        return key >> np.int64(shift), key & np.int64((1 << shift) - 1)
    order = np.lexsort((lo, hi))
    hi_s, lo_s = hi[order], lo[order]
    keep = np.empty(hi_s.size, dtype=bool)
    keep[0] = True
    np.logical_or(hi_s[1:] != hi_s[:-1], lo_s[1:] != lo_s[:-1], out=keep[1:])
    return hi_s[keep], lo_s[keep]


def segment_min_hook(parent: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Hook each target ``h`` under its smallest contender: a buffered
    ``parent[h] = min(parent[h], min(lo over pairs with that h))``.

    The pairs must be in lexicographic ``(hi, lo)`` order — exactly what
    :func:`unique_pairs` returns — so each target's smallest contender
    is simply the *first* ``lo`` of its segment; no ``reduceat`` (whose
    per-segment dispatch overhead dwarfs the short segments frontiers
    produce) and no scatter over the full pair list.  Returns the
    targets whose parent actually changed (the newly-dirtied vertices).
    """
    if hi.size == 0:
        return hi
    starts = kernels.segment_min_starts(hi)
    targets = hi[starts]
    candidate = lo[starts]
    old = parent[targets]
    np.minimum(old, candidate, out=candidate)
    changed = candidate < old
    parent[targets] = candidate
    return targets[changed]


def flatten_subset(parent: np.ndarray, idx: np.ndarray, stats=None) -> None:
    """Pointer-double ``parent`` until every vertex in ``idx`` is a root
    or points directly at one.

    Work per pass is proportional to the still-moving subset, and true
    doubling holds whenever the chains' interior vertices are themselves
    in ``idx`` (the case for hook-round frontiers, whose chains consist
    entirely of frontier representatives).  When ``stats`` has a
    ``doubling_passes`` attribute, only passes that changed ``parent``
    are counted.
    """
    if kernels.numba_active():
        if kernels.flatten_indices(parent, idx) and stats is not None:
            stats.doubling_passes += 1
        return
    while idx.size:
        p = parent[idx]
        gp = parent[p]
        moved = gp != p
        if not moved.any():
            return
        if stats is not None:
            stats.doubling_passes += 1
        idx = idx[moved]
        parent[idx] = gp[moved]


def flatten_active(parent: np.ndarray, stats=None) -> np.ndarray:
    """Flatten every parent chain, with work proportional to the vertices
    still moving.

    Hybrid strategy: while a large fraction of vertices is still moving,
    a contiguous whole-array doubling pass (``parent[parent]``) is both
    cache-friendly and allocation-cheap, so it beats fancy indexing; once
    the moving set drops below 1/8 of n, passes switch to the gathered
    active set so late passes cost O(active) instead of O(n).  In both
    regimes convergence is a change *count* — no ``np.array_equal``
    fixed-point comparison — and only passes that change ``parent`` are
    counted in ``stats.doubling_passes``.
    """
    n = parent.size
    if n == 0:
        return parent
    if kernels.numba_active():
        if kernels.flatten_forest(parent) and stats is not None:
            stats.doubling_passes += 1
        return parent
    while True:
        grandparent = parent[parent]
        moving = grandparent != parent
        n_moving = np.count_nonzero(moving)
        if n_moving == 0:
            return parent
        if stats is not None:
            stats.doubling_passes += 1
        np.copyto(parent, grandparent)
        if n_moving * 8 < n:
            break
    # Sparse regime: only vertices that moved last pass can still move.
    active = np.flatnonzero(moving)
    while active.size:
        target = parent[parent[active]]
        moved = target != parent[active]
        if not moved.any():
            return parent
        if stats is not None:
            stats.doubling_passes += 1
        active = active[moved]
        parent[active] = target[moved]
    return parent


#: Live pairs per vertex at or above which a hook round runs in the
#: dense regime.  Set from the ``perfbench`` graph families (first-round
#: live pairs as a multiple of n, before dedup):
#:
#: * static ``numpy`` solves, from the flattened Init3 forest (the
#:   sample step's strided estimate in brackets): grid 0.10n (0.09n),
#:   road 0.02n (0.02n) and road-sparse 0.01n (0.01n) stay under the
#:   cutoff and hook sparse throughout; dense-PA has no live pair left
#:   (0.00n).  Delaunay 1.38n (1.31n), community 2.8n (2.78n), RMAT 7.2n
#:   (7.23n) and Kronecker 10.8n (11.1n) reach it, so ``ecl_cc_numpy``
#:   first hooks a neighbour sample; the hook loop then runs one sparse
#:   round of 29-239 distinct pairs.
#: * seeding from the identity forest (``IncrementalConnectivity``, the
#:   service's start-up): every batch starts at m/n live pairs —
#:   road-sparse 1.05n, road 1.35n, grid 1.96n, Delaunay 3.0n, up to
#:   dense-PA 27.7n — so every first round runs dense.
#:
#: Higher cutoffs send identity-forest seeding down the sparse path,
#: 3-5x slower: its first hooks build chains as long as a mesh row, and
#: doubling them over the gathered pair endpoints costs several
#: contiguous whole-array passes.  Lower cutoffs send the small static
#: mesh frontiers through O(n) passes.  The cutoff must also stay >= 1:
#: the out-of-core merge charges 64 bytes per pair of a chunk, which then
#: covers the dense regime's n-sized temporaries.
DENSE_PAIRS_PER_VERTEX = 1


def hook_until_fixpoint(
    parent: np.ndarray, u: np.ndarray, v: np.ndarray, *, flat: bool = False, stats=None
) -> int:
    """Hook the edges ``(u, v)`` into the decreasing forest ``parent``
    until no edge spans two roots; returns the number of hooks made.

    ``parent`` is updated in place and may start non-flat (any forest
    with ``parent[x] <= x``); the batch may hold duplicates and
    self-loops.  The batch's endpoints are resolved to their roots (by
    doubling over the endpoints alone, or by one whole-array flatten
    once they number at least n; ``flat=True`` says every vertex
    already points at its root and skips this), then two steps repeat
    until every pair is inside one tree: hook each larger root under
    its smallest contender (a valid serialization of ECL-CC's CAS
    races, see :func:`segment_min_hook`), then re-resolve the pairs.
    On return no pair spans two trees, but ``parent`` is not flat, not
    even at the endpoints: a pair that died in an earlier round leaves
    its endpoints pointing at a root that a later round may re-parent.
    Callers that need labels finish with :func:`flatten_active`, or
    with :func:`flatten_subset` over the batch's endpoints when every
    other vertex already points at one of them or at a root.

    Each round picks its regime from the live-pair count it measures
    (never a caller option):

    * **dense** — at least ``DENSE_PAIRS_PER_VERTEX * n`` live pairs:
      one unbuffered ``np.minimum.at`` scatter, then a whole-array
      :func:`flatten_active`.  No sort; the O(n) passes are amortized
      over at least as many pairs.
    * **sparse** — fewer: :func:`unique_pairs` dedup,
      :func:`segment_min_hook`, then :func:`flatten_subset` over the
      round's pairs only, so work follows the shrinking frontier.

    Every hook replaces a root's parent with a smaller root, so the
    returned count equals the drop in the number of roots.  ``stats``
    (duck-typed, e.g. :class:`~repro.core.ecl_cc_numpy.NumpyRunStats`)
    receives ``hook_rounds``, ``frontier_sizes`` (pairs hooked per
    round, deduplicated in the sparse regime; non-increasing),
    ``edges_scanned`` (pair resolutions) and ``doubling_passes``.
    """
    n = parent.size
    if u.size == 0:
        return 0
    cutoff = DENSE_PAIRS_PER_VERTEX * n
    if not flat and 2 * u.size >= n:
        flatten_active(parent, stats)
    elif not flat:
        flatten_subset(parent, np.concatenate((u, v)), stats)
    ru = parent[u]
    rv = parent[v]
    if stats is not None:
        stats.edges_scanned += int(u.size)
    hooks = 0
    while True:
        # Index takes, not boolean masks: a first round's scattered
        # survivors compact faster this way.
        alive = np.flatnonzero(ru != rv)
        live = int(alive.size)
        if live == 0:
            return hooks
        if live < ru.size:
            ru = ru[alive]
            rv = rv[alive]
        hi = np.maximum(ru, rv)
        lo = np.minimum(ru, rv)
        if live >= cutoff:
            # Every target is a root and every contender smaller, so
            # each distinct target is hooked exactly once.
            touched = np.zeros(n, dtype=bool)
            touched[hi] = True
            hooks += int(np.count_nonzero(touched))
            np.minimum.at(parent, hi, lo)
            flatten_active(parent, stats)
        else:
            hi, lo = unique_pairs(hi, lo, n)
            live = int(hi.size)
            hooks += int(segment_min_hook(parent, hi, lo).size)
            # Chains formed by this round's hooks run entirely through
            # the round's representatives, so doubling restricted to
            # them resolves the frontier.
            flatten_subset(parent, np.concatenate((hi, lo)), stats)
        if stats is not None:
            stats.hook_rounds += 1
            stats.frontier_sizes.append(live)
            stats.edges_scanned += live
        ru = parent[hi]
        rv = parent[lo]
