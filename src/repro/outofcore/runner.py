"""The out-of-core connected-components streamer (``backend="oocore"``).

:func:`oocore_cc` solves a graph whose CSR arrays never need to exist in
one address space.  The graph is spilled to (or opened from) an on-disk
shard directory (:mod:`repro.graph.spill`), then solved in three phases
under an explicit ``memory_budget``:

1. **spill** — partition the CSR into K contiguous vertex-range shards
   and write them as checksummed raw files plus a manifest (skipped when
   the caller hands over an already-open
   :class:`~repro.graph.SpilledGraph`).
2. **stream** — one shard at a time: verify its checksums, ``mmap`` its
   two files read-only, run the shard-local solver
   (:func:`repro.shard.worker.solve_csr_slice`), write the shard's label
   slice into the single resident parent array, and append its
   cross-shard boundary arcs to a per-shard disk file.  After each shard
   its label slice is written in place into the parent checkpoint and
   ``RESUME.json`` atomically replaced with the slice's checksum, so a
   crash mid-stream loses at most one shard of work.
3. **merge** — one pass over the boundary files, re-read from disk in
   bounded-size chunks; each chunk is hooked into the parent array by
   :func:`repro.core.frontier.hook_until_fixpoint`, the loop the
   in-memory shard runner uses.  A hook only ever re-parents a root
   under a smaller root of the same component, so trees merge and never
   split: a chunk hooked to its fixpoint stays inside single trees
   through every later chunk, and after the one pass the labels are
   exactly those :func:`repro.shard.runner.merge_boundary` would produce
   in memory — which are bit-identical to the serial oracle's.

Every resident allocation is charged against a
:class:`~repro.outofcore.budget.ResidentMeter`; the high-water mark is
reported as ``peak_resident_bytes`` (and the
``oocore.peak_resident_bytes`` gauge) and enforced against
``memory_budget`` *before* allocations are made.

**Crash recovery.**  A run killed mid-stream or in the merge leaves the
spill directory + ``RESUME.json`` + the parent checkpoint behind;
re-running with ``resume=True`` (or letting ``auto_resume`` retry
in-process) validates each completed shard's label slice and boundary
file against its checksum and continues from the last completed shard.
The merge writes no checkpoint: a crash there resumes from the end of
the stream and runs the one merge pass again, solving no shard twice.
Resuming is safe because re-solving a shard overwrites its label slice
with the identical values.  A damaged shard file is detected by
checksum before its bytes reach the solver; when the in-memory source
graph is still available the shard is deterministically re-spilled
(the rewritten bytes match the original manifest checksums), otherwise
the run fails loudly with
:class:`~repro.errors.SpillChecksumError` — never silently wrong labels.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.frontier import flatten_active, hook_until_fixpoint
from ..errors import (
    GraphValidationError,
    MergeCrashError,
    SpillChecksumError,
    SpillError,
    SpillFormatError,
    WorkerCrashError,
)
from ..graph.csr import CSRGraph
from ..graph.spill import MANIFEST_NAME, SpilledGraph, spill_shard
from ..observe import current_tracer
from ..resilience.supervisor import AttemptRecord, RecoveryInfo
from .budget import (
    MERGE_WORK_FACTOR,
    MIN_CHUNK_PAIRS,
    PAIR_BYTES,
    ResidentMeter,
    auto_shard_count,
    shard_charge_bytes,
)

__all__ = [
    "OocoreRunStats",
    "PARENT_CKPT_NAME",
    "RESUME_NAME",
    "active_spill_dirs",
    "oocore_cc",
]

RESUME_NAME = "RESUME.json"
PARENT_CKPT_NAME = "parent.ckpt.bin"
RESUME_SCHEMA = "repro.outofcore/resume/v3"

#: Merge chunk size (in pairs) when no memory budget constrains it.
_DEFAULT_CHUNK_PAIRS = 1 << 20

# ----------------------------------------------------------------------
# Spill-directory lifecycle
# ----------------------------------------------------------------------
#: Spill directories this process still owes a cleanup for, mapped to
#: whether the run created them (temp dirs may be ``rmtree``-d; a
#: caller-named directory only loses the files the run understands).
#: ``keep_spill`` hands a directory to the caller by unregistering it
#: without deleting; tests assert this registry drains after every run.
_SPILL_DIRS: dict[str, bool] = {}


def active_spill_dirs() -> list[str]:
    """Spill directories this process still owes a cleanup for."""
    return sorted(d for d in _SPILL_DIRS if os.path.isdir(d))


def _release_spill_dir(path: Path, *, delete: bool) -> None:
    created = _SPILL_DIRS.pop(str(path), False)
    if not delete or not path.is_dir():
        return
    if created:
        shutil.rmtree(path, ignore_errors=True)
        return
    # Caller-named directory: remove only files this run understands,
    # then the directory itself if that emptied it.
    for child in path.iterdir():
        name = child.name
        if (
            name in (MANIFEST_NAME, RESUME_NAME, PARENT_CKPT_NAME)
            or (name.startswith("shard_") and name.endswith(".bin"))
            or (name.startswith("boundary_") and name.endswith(".bin"))
        ):
            child.unlink(missing_ok=True)
    try:
        path.rmdir()
    except OSError:
        pass


@atexit.register
def _cleanup_spill_dirs() -> None:  # pragma: no cover - interpreter exit
    for d in list(_SPILL_DIRS):
        _release_spill_dir(Path(d), delete=True)


def _boundary_path(directory: Path, index: int) -> Path:
    return directory / f"boundary_{index:04d}.bin"


def _remove_run_files(directory: Path, num_shards: int) -> None:
    """Drop the run droppings (boundary files, checkpoint, resume state)
    while keeping the spill itself (shard files + manifest)."""
    (directory / RESUME_NAME).unlink(missing_ok=True)
    (directory / PARENT_CKPT_NAME).unlink(missing_ok=True)
    for i in range(num_shards):
        _boundary_path(directory, i).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Run statistics
# ----------------------------------------------------------------------
@dataclass
class OocoreRunStats:
    """Everything the out-of-core path measured about one run."""

    num_shards: int = 0
    budget_bytes: int | None = None
    peak_resident_bytes: int = 0
    csr_bytes: int = 0  # in-memory CSR footprint the run avoided
    spilled_bytes: int = 0  # shard payload on disk
    boundary_pairs: int = 0
    merge_passes: int = 0  # 1, or 0 when there are no boundary pairs
    merge_hooks: int = 0
    resumed: bool = False
    skipped_shards: int = 0  # completed before this (resumed) run
    respilled_shards: int = 0  # repaired from the source graph
    spill_dir: str = ""
    kept_spill: bool = False
    partitioner: str = "degree"
    shard_ms: list[float] = field(default_factory=list)

    @property
    def ceiling(self) -> float:
        """How many times the peak resident footprint the CSR would be."""
        if self.peak_resident_bytes <= 0:
            return 0.0
        return self.csr_bytes / self.peak_resident_bytes

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "budget_bytes": self.budget_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "csr_bytes": self.csr_bytes,
            "spilled_bytes": self.spilled_bytes,
            "boundary_pairs": self.boundary_pairs,
            "merge_passes": self.merge_passes,
            "merge_hooks": self.merge_hooks,
            "resumed": self.resumed,
            "skipped_shards": self.skipped_shards,
            "respilled_shards": self.respilled_shards,
            "spill_dir": self.spill_dir,
            "kept_spill": self.kept_spill,
            "partitioner": self.partitioner,
            "ceiling": self.ceiling,
        }


# ----------------------------------------------------------------------
# Resume-state file
# ----------------------------------------------------------------------
def _create_checkpoint(directory: Path, num_vertices: int) -> None:
    """Start a fresh stream: drop any earlier resume state and create the
    ``num_vertices`` × 8-byte parent checkpoint the shards' label slices
    are written into.  Its bytes mean nothing until ``RESUME.json``
    records a slice over them."""
    (directory / RESUME_NAME).unlink(missing_ok=True)
    with open(directory / PARENT_CKPT_NAME, "wb") as f:
        f.truncate(num_vertices * 8)


def _write_checkpoint(
    directory: Path,
    labels: np.ndarray,
    shard: tuple[int, int, int],
    *,
    tracer,
    spilled: SpilledGraph,
    slices: dict[int, dict],
    boundary: dict[int, dict],
) -> None:
    """Record shard ``i`` of ``shard=(i, s, e)`` as completed: write
    ``labels[s:e]`` in place at byte ``8·s`` of the checkpoint
    :func:`_create_checkpoint` made, record its checksum as
    ``slices[i]``, then atomically replace ``RESUME.json``."""
    i, s, e = shard
    payload = memoryview(labels[s:e]).cast("B")
    with tracer.span("oocore:checkpoint", category="oocore", shard=i) as sp:
        with open(directory / PARENT_CKPT_NAME, "r+b") as f:
            f.seek(8 * s)
            f.write(payload)
        slices[i] = {
            "start": s,
            "end": e,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        state = {
            "schema": RESUME_SCHEMA,
            "num_vertices": int(spilled.num_vertices),
            "num_arcs": int(spilled.num_arcs),
            "slices": {str(k): v for k, v in sorted(slices.items())},
            "boundary": {str(k): v for k, v in sorted(boundary.items())},
        }
        res_tmp = directory / (RESUME_NAME + ".tmp")
        res_tmp.write_text(
            json.dumps(state, separators=(",", ":")), encoding="utf-8"
        )
        os.replace(res_tmp, directory / RESUME_NAME)
        sp.update(bytes=payload.nbytes)
    tracer.count("oocore.checkpoint_bytes", payload.nbytes)


def _load_resume_state(
    directory: Path, spilled: SpilledGraph, labels: np.ndarray
) -> tuple[dict[int, dict], dict[int, dict]] | None:
    """Validate ``RESUME.json`` and copy the completed shards' label
    slices from the parent checkpoint into ``labels``.

    Returns ``(slices, boundary)`` keyed by completed shard, or ``None``
    when there is nothing to resume from (no state file).  Raises
    :class:`~repro.errors.SpillChecksumError` when a completed shard's
    slice or boundary file fails its checksum — resuming from damaged
    state would risk silently wrong labels.  The bytes of uncompleted
    shards are never read.
    """
    path = directory / RESUME_NAME
    if not path.is_file():
        return None
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpillFormatError(f"unreadable resume state {path}: {exc}")
    if state.get("schema") != RESUME_SCHEMA:
        raise SpillFormatError(
            f"resume state {path} has schema {state.get('schema')!r} "
            f"(expected {RESUME_SCHEMA})"
        )
    n = spilled.num_vertices
    if (
        int(state.get("num_vertices", -1)) != n
        or int(state.get("num_arcs", -1)) != spilled.num_arcs
    ):
        raise SpillFormatError(
            f"resume state {path} describes a different graph "
            f"({state.get('num_vertices')} vertices, "
            f"{state.get('num_arcs')} arcs)"
        )
    ckpt = directory / PARENT_CKPT_NAME
    if not ckpt.is_file():
        raise SpillFormatError(f"resume state {path} has no checkpoint {ckpt}")
    size = ckpt.stat().st_size
    if size != n * 8:
        raise SpillChecksumError(
            f"parent checkpoint {ckpt} holds {size} bytes for a "
            f"{n}-vertex graph"
        )
    ranges = spilled.plan().ranges()
    recorded = dict(state.get("boundary", {}))
    slices: dict[int, dict] = {}
    boundary: dict[int, dict] = {}
    with open(ckpt, "rb") as f:
        for key, entry in dict(state.get("slices", {})).items():
            i = int(key)
            bentry = recorded.get(key)
            if (
                bentry is None
                or not 0 <= i < len(ranges)
                or (int(entry["start"]), int(entry["end"])) != ranges[i]
            ):
                raise SpillFormatError(
                    f"resume state {path} records no slice and boundary of "
                    f"shard {i} matching the spill's range"
                )
            s, e = ranges[i]
            view = memoryview(labels[s:e]).cast("B")
            f.seek(8 * s)
            f.readinto(view)
            got = hashlib.sha256(view).hexdigest()
            if got != entry.get("sha256"):
                raise SpillChecksumError(
                    f"parent checkpoint {ckpt} slice [{s}:{e}] of shard "
                    f"{i} fails its checksum (recorded "
                    f"{str(entry.get('sha256'))[:12]}…, file {got[:12]}…) "
                    f"— refusing to resume from corrupt state"
                )
            bpath = _boundary_path(directory, i)
            data = bpath.read_bytes() if bpath.is_file() else b""
            if (
                len(data) != int(bentry["pairs"]) * PAIR_BYTES
                or hashlib.sha256(data).hexdigest() != bentry.get("sha256")
            ):
                raise SpillChecksumError(
                    f"boundary file {bpath} is missing, mis-sized or fails "
                    f"its checksum — refusing to resume from corrupt state"
                )
            slices[i], boundary[i] = entry, bentry
    return slices, boundary


def _write_boundary(
    directory: Path, index: int, bu: np.ndarray, bv: np.ndarray
) -> dict:
    """Write shard ``index``'s boundary arcs as interleaved int64 pairs;
    returns the resume-state entry ``{pairs, sha256}``."""
    path = _boundary_path(directory, index)
    pairs = int(bu.size)
    arr = np.empty(pairs * 2, dtype=np.int64)
    arr[0::2] = bu
    arr[1::2] = bv
    payload = memoryview(arr).cast("B")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(payload)
    os.replace(tmp, path)
    return {"pairs": pairs, "sha256": hashlib.sha256(payload).hexdigest()}


# ----------------------------------------------------------------------
# Fault injection (spill damage + crash points)
# ----------------------------------------------------------------------
def _apply_spill_damage(
    directory: Path, spilled: SpilledGraph, specs, attempt: int, events: list
) -> None:
    """Damage shard files per the armed ``spill_corrupt`` /
    ``spill_truncate`` specs — simulated disk faults, applied after the
    spill so detection exercises the read path."""
    from ..resilience.faults import FaultEvent

    for spec in specs:
        if spec.kind not in ("spill_corrupt", "spill_truncate"):
            continue
        if not 0 <= spec.at < spilled.num_shards:
            continue
        entry = spilled.shard_entry(spec.at)
        fname = (
            entry.rowptr_file
            if spec.where.startswith("rowptr")
            else entry.colidx_file
        )
        path = directory / fname
        size = path.stat().st_size if path.is_file() else 0
        if size == 0:
            continue  # nothing to damage in an empty shard file
        if spec.kind == "spill_truncate":
            with open(path, "r+b") as f:
                f.truncate(max(size - 8, 0))
            detail = f"truncated {fname} to {max(size - 8, 0)} bytes"
        else:
            with open(path, "r+b") as f:
                f.seek(size // 2)
                byte = f.read(1)
                f.seek(size // 2)
                f.write(bytes([byte[0] ^ 0xFF]))
            detail = f"flipped byte {size // 2} of {fname}"
        events.append(
            FaultEvent(
                kind=spec.kind,
                backend="oocore",
                attempt=attempt,
                where=fname,
                trigger=spec.at,
                detail=detail,
            )
        )


def _crash_armed(
    specs, kind: str, at: int, attempt: int, events: list, *, where, detail
) -> bool:
    """Whether a ``kind`` crash is armed at trigger ``at``; when it is,
    its event is recorded and the caller raises."""
    from ..resilience.faults import FaultEvent

    if not any(spec.kind == kind and spec.at == at for spec in specs):
        return False
    events.append(
        FaultEvent(
            kind=kind,
            backend="oocore",
            attempt=attempt,
            where=where,
            trigger=at,
            detail=detail,
        )
    )
    return True


# ----------------------------------------------------------------------
# The streamer
# ----------------------------------------------------------------------
def oocore_cc(
    source,
    *,
    memory_budget: int | None = None,
    spill_dir: str | Path | None = None,
    shards: int | None = None,
    keep_spill: bool = False,
    partitioner: str = "degree",
    fault_plan=None,
    resume: bool = False,
    auto_resume: int = 0,
) -> tuple[np.ndarray, OocoreRunStats, RecoveryInfo]:
    """Out-of-core connected components over a spilled CSR.

    ``source`` is a :class:`~repro.graph.CSRGraph` (spilled here first)
    or an already-open :class:`~repro.graph.SpilledGraph` (streamed in
    place; its directory is never deleted).  Returns
    ``(labels, stats, recovery)`` with ``labels`` the canonical
    min-member component IDs, bit-identical to the serial oracle.

    ``memory_budget``
        Resident-byte ceiling enforced by a
        :class:`~repro.outofcore.budget.ResidentMeter`;
        :class:`~repro.errors.MemoryBudgetError` fires *before* any
        charge would exceed it.  ``None`` tracks the peak without
        enforcing.
    ``spill_dir`` / ``keep_spill``
        Where the shards live (default: a fresh temp directory).  With
        ``keep_spill`` the directory survives the run (minus merge
        droppings) for inspection or reuse; otherwise it is cleaned up
        on completion — but deliberately left behind after an injected
        crash so a ``resume`` run can continue from it.
    ``shards`` / ``partitioner``
        Shard count and cut strategy for the spill; ``shards=None``
        derives the smallest feasible power-of-two count from the
        budget via :func:`~repro.outofcore.budget.auto_shard_count`.
    ``resume`` / ``auto_resume``
        ``resume=True`` continues from a surviving spill directory's
        ``RESUME.json`` + parent checkpoint (both checksum-validated).
        ``auto_resume=N`` retries a crashed run in-process up to N
        times, resuming from the on-disk state each time.
    ``fault_plan``
        A :class:`~repro.resilience.faults.FaultPlan`; specs with
        ``backend="oocore"`` arm ``spill_corrupt``/``spill_truncate``
        (damage shard ``at`` after spilling), ``worker_crash`` (crash
        before solving shard ``at``), and ``merge_crash`` (``at=0``:
        crash entering the merge, after every shard is checkpointed).
    """
    graph: CSRGraph | None = None
    if isinstance(source, CSRGraph):
        graph = source
    elif not isinstance(source, SpilledGraph):
        raise GraphValidationError(
            f"oocore source must be a CSRGraph or SpilledGraph, "
            f"got {type(source).__name__}"
        )

    # Resolve the spill directory once, outside the retry loop, so
    # auto_resume attempts find the state their predecessor left.
    created_tmp = False
    if graph is None:
        directory = Path(source.directory)
    elif spill_dir is not None:
        directory = Path(spill_dir)
        directory.mkdir(parents=True, exist_ok=True)
        _SPILL_DIRS[str(directory)] = False
    else:
        directory = Path(tempfile.mkdtemp(prefix="repro-oocore-"))
        created_tmp = True
        _SPILL_DIRS[str(directory)] = True

    recovery = RecoveryInfo(backend="oocore")
    attempt = 0
    while True:
        t0 = time.perf_counter()
        record = AttemptRecord(
            backend="oocore",
            attempt=attempt,
            status="ok",
            resumed=resume or attempt > 0,
        )
        try:
            labels, stats = _oocore_run(
                graph,
                source,
                directory,
                memory_budget=memory_budget,
                shards=shards,
                partitioner=partitioner,
                fault_plan=fault_plan,
                resume=resume or attempt > 0,
                attempt=attempt,
                fault_events=record.faults,
            )
        except (WorkerCrashError, MergeCrashError) as exc:
            record.status = "fault"
            record.error = str(exc)
            record.error_kind = getattr(exc, "kind", type(exc).__name__)
            record.duration_ms = (time.perf_counter() - t0) * 1e3
            recovery.attempts.append(record)
            if attempt >= auto_resume:
                # Exhausted: a temp directory can never be resumed (the
                # caller has no handle on it), so drop it; a
                # caller-named directory keeps its state for a manual
                # resume=True rerun.
                if graph is not None:
                    _release_spill_dir(directory, delete=created_tmp)
                raise
            recovery.retries += 1
            attempt += 1
            continue
        except BaseException:
            if graph is not None:
                _release_spill_dir(directory, delete=not keep_spill)
            raise
        record.duration_ms = (time.perf_counter() - t0) * 1e3
        recovery.attempts.append(record)
        recovery.backend = "oocore"
        break

    # Success cleanup: keep_spill (or a SpilledGraph source) keeps the
    # shards + manifest but sheds the run droppings; otherwise the
    # directory goes away entirely.
    stats.resumed = stats.resumed or attempt > 0
    stats.kept_spill = keep_spill or graph is None
    if graph is None or keep_spill:
        _remove_run_files(directory, stats.num_shards)
        _release_spill_dir(directory, delete=False)
    else:
        _release_spill_dir(directory, delete=True)
        stats.spill_dir = ""
    return labels, stats, recovery


def _oocore_run(
    graph: CSRGraph | None,
    source,
    directory: Path,
    *,
    memory_budget,
    shards,
    partitioner,
    fault_plan,
    resume,
    attempt,
    fault_events,
) -> tuple[np.ndarray, OocoreRunStats]:
    from ..shard.partition import make_plan
    from ..shard.worker import solve_csr_slice

    tracer = current_tracer()
    specs = fault_plan.for_backend("oocore", attempt) if fault_plan else []
    stats = OocoreRunStats(
        budget_bytes=memory_budget,
        partitioner=partitioner,
        spill_dir=str(directory),
    )

    if (graph.num_vertices if graph is not None else source.num_vertices) == 0:
        return np.empty(0, dtype=np.int64), stats

    # ================== phase 1: spill ==================
    spilled: SpilledGraph | None = None
    if graph is None:
        spilled = source
    else:
        if resume:
            try:
                candidate = SpilledGraph.open(directory)
                if (
                    candidate.num_vertices == graph.num_vertices
                    and candidate.num_arcs == graph.num_arcs
                ):
                    spilled = candidate
            except SpillError:
                spilled = None  # no (or unusable) prior spill: respill
        if spilled is None:
            with tracer.span("oocore:spill", category="oocore") as sp:
                k = (
                    shards
                    if shards is not None
                    else auto_shard_count(graph, memory_budget)
                )
                plan = make_plan(graph, k, partitioner)
                spilled = graph.spill(directory, plan)
                sp.update(
                    shards=spilled.num_shards,
                    bytes=sum(e.nbytes for e in spilled.manifest.shards),
                )
            _apply_spill_damage(directory, spilled, specs, attempt, fault_events)

    n = spilled.num_vertices
    stats.num_shards = spilled.num_shards
    stats.csr_bytes = spilled.csr_nbytes
    stats.spilled_bytes = sum(e.nbytes for e in spilled.manifest.shards)

    # ================== phase 2: stream ==================
    meter = ResidentMeter(memory_budget)
    meter.charge("labels", n * 8)

    labels = np.arange(n, dtype=np.int64)
    slices: dict[int, dict] = {}
    boundary: dict[int, dict] = {}
    state = _load_resume_state(directory, spilled, labels) if resume else None
    if state is None:
        _create_checkpoint(directory, n)
    else:
        slices, boundary = state
        stats.resumed = True
        stats.skipped_shards = len(slices)

    for i, (s, e) in enumerate(spilled.plan().ranges()):
        if i in slices:
            continue
        if _crash_armed(
            specs, "worker_crash", i, attempt, fault_events,
            where=f"shard:{i}", detail=f"injected crash before solving shard {i}",
        ):
            raise WorkerCrashError(
                f"injected worker crash in oocore shard {i}", shard=i
            )
        t0 = time.perf_counter()
        with tracer.span(
            "oocore:shard", category="oocore", shard=i, start=int(s), end=int(e)
        ) as sp:
            try:
                spilled.verify_shard(i)
            except (SpillChecksumError, SpillFormatError) as exc:
                if graph is None:
                    raise  # no source to repair from: fail loudly
                # Deterministic repair: re-spilling from the source
                # graph rewrites the exact bytes the manifest recorded.
                spill_shard(graph, directory, i, int(s), int(e))
                spilled.verify_shard(i)
                stats.respilled_shards += 1
                tracer.count("oocore.respilled_shards")
                sp.update(respilled=True, damage=type(exc).__name__)
            entry = spilled.shard_entry(i)
            charge = shard_charge_bytes(entry.rowptr_len, entry.colidx_len)
            with meter.charged(f"shard:{i}", charge):
                rp, cols = spilled.shard_views(i, verify=False)
                lab, bu, bv = solve_csr_slice(
                    rp, cols, int(s), int(e),
                    name=f"{spilled.name}[{s}:{e}]",
                )
                labels[s:e] = lab
                del rp, cols, lab
            boundary[i] = _write_boundary(directory, i, bu, bv)
            sp.update(boundary=int(bu.size), charged=charge)
        stats.shard_ms.append((time.perf_counter() - t0) * 1e3)
        _write_checkpoint(
            directory, labels, (i, int(s), int(e)),
            tracer=tracer, spilled=spilled, slices=slices, boundary=boundary,
        )
    tracer.count("oocore.shards", stats.num_shards - stats.skipped_shards)

    # ================== phase 3: merge ==================
    if _crash_armed(
        specs, "merge_crash", 0, attempt, fault_events,
        where="merge", detail="injected crash entering the merge",
    ):
        raise MergeCrashError("injected crash entering the oocore merge")
    headroom = meter.headroom()
    if headroom is None:
        chunk_pairs = _DEFAULT_CHUNK_PAIRS
    else:
        chunk_pairs = max(
            MIN_CHUNK_PAIRS, headroom // (PAIR_BYTES * MERGE_WORK_FACTOR)
        )
    bfiles = [
        (_boundary_path(directory, i), b["pairs"])
        for i, b in sorted(boundary.items())
        if b["pairs"] > 0
    ]
    stats.boundary_pairs = sum(p for _, p in bfiles)

    # One pass suffices.  A hook only re-parents a root under a smaller
    # root, so trees merge and never split: once a chunk is hooked to its
    # fixpoint its pairs share a tree through every later chunk, and
    # after the pass no boundary pair spans two trees.
    if bfiles:
        with tracer.span(
            "oocore:merge-pass", category="oocore", chunk_pairs=int(chunk_pairs)
        ) as sp:
            for path, pairs in bfiles:
                mm = np.memmap(
                    path, dtype=np.int64, mode="r", shape=(pairs * 2,)
                )
                for off in range(0, pairs, chunk_pairs):
                    count = min(chunk_pairs, pairs - off)
                    with meter.charged(
                        "merge-chunk", count * PAIR_BYTES * MERGE_WORK_FACTOR
                    ):
                        block = np.asarray(mm[off * 2 : (off + count) * 2])
                        stats.merge_hooks += hook_until_fixpoint(
                            labels, block[0::2], block[1::2]
                        )
                del mm
            sp.update(hooks=stats.merge_hooks)
        stats.merge_passes = 1
    tracer.count("oocore.merge_passes", stats.merge_passes)

    flatten_active(labels)
    stats.peak_resident_bytes = meter.peak
    tracer.gauge("oocore.peak_resident_bytes", meter.peak)
    meter.release("labels")
    return labels, stats
