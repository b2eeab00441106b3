"""Optional compiled tier for the hot inner loops (numba, if available).

The frontier and contraction backends spend nearly all their time in a
handful of memory-bound primitives: pointer-chasing flattens, the
boundary-mask segment-min reduce, and the contraction relabel scatter.
This module provides ``@njit``-compiled implementations of each behind a
capability probe, with pure-numpy fallbacks of identical semantics —
labels are bit-for-bit the same whichever tier runs, because every
kernel resolves the same decreasing forest to the same roots (only the
traversal order differs, and roots are order-independent).

Probe rules:

* ``numba`` importable  → compiled tier available (``NUMBA_AVAILABLE``).
* ``REPRO_NO_NUMBA`` set to anything but ``""``/``"0"`` → the probe
  reports unavailable even when numba is importable (escape hatch for
  debugging and for measuring the fallback path).
* :func:`force_numpy` → context manager that disables dispatch locally,
  used by the wall-clock gate's ``compiled_speedup`` measurement and by
  the compiled/fallback identity tests.

Nothing here is a hard dependency: when numba is absent every entry
point silently routes to numpy.  ``python -m repro.core.kernels
--selftest`` exercises both tiers (the compiled one only if available)
and verifies they agree.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "numba_active",
    "force_numpy",
    "flatten_decreasing",
    "flatten_forest",
    "flatten_indices",
    "segment_min_starts",
    "renumber_roots",
]


def _probe() -> bool:
    if os.environ.get("REPRO_NO_NUMBA", "") not in ("", "0"):
        return False
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


#: Whether the compiled tier is importable and not disabled by
#: ``REPRO_NO_NUMBA`` (evaluated once at import).
NUMBA_AVAILABLE = _probe()

_FORCE_NUMPY_DEPTH = 0


def numba_active() -> bool:
    """Whether dispatch currently routes to the compiled tier."""
    return NUMBA_AVAILABLE and _FORCE_NUMPY_DEPTH == 0


@contextmanager
def force_numpy():
    """Temporarily route every kernel to the pure-numpy fallback."""
    global _FORCE_NUMPY_DEPTH
    _FORCE_NUMPY_DEPTH += 1
    try:
        yield
    finally:
        _FORCE_NUMPY_DEPTH -= 1


# ----------------------------------------------------------------------
# Compiled implementations (defined lazily so import stays cheap and the
# module imports cleanly without numba).
# ----------------------------------------------------------------------
_COMPILED: dict | None = None


def _compiled():
    global _COMPILED
    if _COMPILED is None:
        from numba import njit

        @njit(cache=True)
        def flatten_decreasing_nb(par):
            # Decreasing forest (par[v] <= v): one ascending pass fully
            # resolves every chain, because a vertex's parent was
            # already rewritten to its root earlier in the same pass.
            for v in range(par.size):
                par[v] = par[par[v]]
            return par

        @njit(cache=True)
        def flatten_forest_nb(par):
            # Root-chase with full path compression, valid for any
            # acyclic forest (parents may point in either direction).
            changed = 0
            for v in range(par.size):
                r = par[v]
                if par[r] == r:
                    continue
                while par[r] != r:
                    r = par[r]
                w = v
                while par[w] != r:
                    nxt = par[w]
                    par[w] = r
                    w = nxt
                    changed += 1
            return changed

        @njit(cache=True)
        def flatten_indices_nb(par, idx):
            # Chase each listed vertex to its root with full path
            # compression; chains may go through unlisted vertices.
            changed = 0
            for i in range(idx.size):
                v = idx[i]
                r = par[v]
                if par[r] == r:
                    continue
                while par[r] != r:
                    r = par[r]
                w = v
                while par[w] != r:
                    nxt = par[w]
                    par[w] = r
                    w = nxt
                    changed += 1
            return changed

        @njit(cache=True)
        def segment_min_starts_nb(hi):
            # Boundary mask over lexicographically sorted pairs: True at
            # each target's first (and therefore smallest-lo) entry.
            starts = np.empty(hi.size, dtype=np.bool_)
            if hi.size:
                starts[0] = True
                for i in range(1, hi.size):
                    starts[i] = hi[i] != hi[i - 1]
            return starts

        @njit(cache=True)
        def renumber_roots_nb(par, comp):
            # Contraction relabel scatter: dense ids in ascending-root
            # order, one pass over the flattened decreasing forest.
            k = 0
            for v in range(par.size):
                if par[v] == v:
                    comp[v] = k
                    k += 1
                else:
                    comp[v] = comp[par[v]]
            return k

        _COMPILED = {
            "flatten_decreasing": flatten_decreasing_nb,
            "flatten_forest": flatten_forest_nb,
            "flatten_indices": flatten_indices_nb,
            "segment_min_starts": segment_min_starts_nb,
            "renumber_roots": renumber_roots_nb,
        }
    return _COMPILED


# ----------------------------------------------------------------------
# Dispatching entry points (numpy fallback inline)
# ----------------------------------------------------------------------
def flatten_decreasing(par: np.ndarray) -> np.ndarray:
    """Flatten a *decreasing* forest (``par[v] <= v``) in place.

    The numpy fallback is hybrid pointer doubling: contiguous blind
    passes while a large fraction still moves, then gathered active-set
    passes.  Both tiers leave ``par[v]`` = root of ``v``'s tree.
    """
    if numba_active():
        return _compiled()["flatten_decreasing"](par)
    n = par.size
    if n == 0:
        return par
    while True:
        nxt = par.take(par)
        moved = int(np.count_nonzero(nxt != par))
        np.copyto(par, nxt)
        if moved == 0:
            return par
        if moved * 8 < n:
            break
    active = np.flatnonzero(par.take(par) != par)
    while active.size:
        target = par.take(par.take(active))
        par[active] = target
        active = active.take(np.flatnonzero(par.take(target) != target))
    return par


def flatten_forest(par: np.ndarray) -> int:
    """Resolve every vertex of an acyclic forest to its root, in place.

    Unlike :func:`flatten_decreasing` this makes no monotonicity
    assumption, so it is safe for forests whose parents can point
    upward.  Returns the number of pointer rewrites
    (0 means the forest was already flat).
    """
    if numba_active():
        return int(_compiled()["flatten_forest"](par))
    changed = 0
    while True:
        nxt = par.take(par)
        moved = int(np.count_nonzero(nxt != par))
        if moved == 0:
            return changed
        changed += moved
        np.copyto(par, nxt)


def flatten_indices(par: np.ndarray, idx: np.ndarray) -> int:
    """Resolve every vertex in ``idx`` to its root, in place.

    Returns the number of pointer rewrites performed.
    """
    if idx.size == 0:
        return 0
    if numba_active():
        return int(_compiled()["flatten_indices"](par, idx))
    changed = 0
    while idx.size:
        p = par[idx]
        gp = par[p]
        moved = gp != p
        if not moved.any():
            return changed
        idx = idx[moved]
        par[idx] = gp[moved]
        changed += idx.size
    return changed


def segment_min_starts(hi: np.ndarray) -> np.ndarray:
    """Boolean mask marking each target's first entry in a sorted pair
    list (the segment-min winner under ``(hi, lo)`` lexicographic
    order)."""
    if numba_active():
        return _compiled()["segment_min_starts"](hi)
    starts = np.empty(hi.size, dtype=bool)
    if hi.size:
        starts[0] = True
        np.not_equal(hi[1:], hi[:-1], out=starts[1:])
    return starts


def renumber_roots(par: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense relabel of a *flattened* decreasing forest.

    Returns ``(comp, k)`` where ``comp[v]`` is the 0-based dense id of
    ``v``'s root in ascending-root order and ``k`` is the root count.
    Both tiers assign identical ids (ascending roots), so downstream
    labels are bit-identical either way.
    """
    n = par.size
    comp = np.empty(n, dtype=par.dtype)
    if n == 0:
        return comp, 0
    if numba_active():
        k = int(_compiled()["renumber_roots"](par, comp))
        return comp, k
    roots = np.flatnonzero(par == np.arange(n, dtype=par.dtype))
    k = roots.size
    dense = np.empty(n, dtype=par.dtype)
    dense[roots] = np.arange(k, dtype=par.dtype)
    np.take(dense, par, out=comp)
    return comp, k


# ----------------------------------------------------------------------
# Selftest
# ----------------------------------------------------------------------
def _selftest_one_tier() -> None:
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 257, 4096):
        # Random decreasing forest.
        par = np.arange(n, dtype=np.int64)
        for v in range(1, n):
            if rng.random() < 0.7:
                par[v] = rng.integers(0, v)
        ref = par.copy()
        while True:  # reference fixed point by repeated squaring
            nxt = ref[ref]
            if np.array_equal(nxt, ref):
                break
            ref = nxt
        flat = flatten_decreasing(par.copy())
        assert np.array_equal(flat, ref), "flatten_decreasing diverged"
        forest = par.copy()
        flatten_forest(forest)
        assert np.array_equal(forest, ref), "flatten_forest diverged"
        assert flatten_forest(forest) == 0, "flat forest reported changes"
        sub = par.copy()
        flatten_indices(sub, np.arange(n, dtype=np.int64))
        assert np.array_equal(sub, ref), "flatten_indices diverged"
        comp, k = renumber_roots(flat.copy())
        roots = np.flatnonzero(ref == np.arange(n))
        assert k == roots.size, "renumber_roots miscounted"
        if n:
            assert comp.max(initial=-1) == k - 1
            assert np.array_equal(np.sort(np.unique(comp[roots])), np.arange(k))
    hi = np.array([0, 0, 2, 5, 5, 5, 9], dtype=np.int64)
    starts = segment_min_starts(hi)
    assert starts.tolist() == [True, False, True, True, False, False, True]
    assert segment_min_starts(hi[:0]).size == 0


def selftest() -> int:
    """Exercise every kernel on both tiers; returns an exit status."""
    with force_numpy():
        _selftest_one_tier()
    print("kernels selftest: numpy fallback ok")
    if NUMBA_AVAILABLE:
        _selftest_one_tier()
        print("kernels selftest: numba tier ok")
    else:
        print("kernels selftest: numba unavailable (fallback only)")
    return 0


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    print(
        f"numba available: {NUMBA_AVAILABLE} "
        f"(REPRO_NO_NUMBA={os.environ.get('REPRO_NO_NUMBA', '')!r})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
