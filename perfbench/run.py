"""Repository benchmark: one command, seeded inputs, every answer checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 30 --trace 0

``--workload`` picks the graph class (``mesh`` or ``skewed``, see
``perfbench/README.md``); each run goes through the service, static and
scale-out phases on that class.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` repeats the phases under ``repro.observe.Tracer``
and prints the per-layer metrics.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the run's own choices (auto-recompute winner,
dist retransmits, failure reasons).  The exit code is non-zero when any
operation failed or the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import atexit
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR_NAME = ".perfbench_work"

#: Work per run at ``--seconds 30``: ``ROUNDS`` interleaved rounds, each
#: one service checkpoint interval of ``SERVICE_OPS_PER_ROUND`` ops,
#: ``STATIC_PER_ROUND`` static rounds and one scale-out round.  The round
#: count scales linearly with ``--seconds``, so both commits of a
#: comparison do exactly the same work.
BASE_SECONDS = 30
ROUNDS = {"mesh": 10, "skewed": 6}
STATIC_PER_ROUND = 6
SERVICE_OPS_PER_ROUND = 2_000
SETUP_REPEATS = 3

#: Service op mix.  One op in ten is a write: ``read_fraction=0.90`` of
#: the repository's service load generator (``repro.experiments.loadgen``).
#: Deletes are spaced so that about a fifth of the batches take the
#: recompute path, the share the benchmark's design asks for
#: (every batch holding a delete recomputes).  One write in seven waits
#: for its ticket; no source fixes that share, and it is set by sample
#: count: about 290 waited writes per ``mesh`` run, enough for a p90 of
#: their latency with ten samples beyond it.
WRITE_EVERY = 10
DELETE_EVERY = 35
WAIT_EVERY = 7

#: Names (from ``inputs.FAMILIES``) of the service graph and of the
#: scale-out graph of each workload.
SERVICE_GRAPH = {"mesh": "road", "skewed": "community"}
SCALEOUT_GRAPH = {"mesh": "road", "skewed": "rmat"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("mesh", "skewed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def make_inputs(workload: str, seed: int, rounds: int):
    """Everything generated from the seed, before the program runs."""
    from perfbench.inputs import ServicePlan, make_graph_inputs, reference_labels
    from perfbench.workloads import Inputs

    raw = make_graph_inputs(workload, seed)
    names = [r[0] for r in raw]
    src, dst, n = raw[names.index(SERVICE_GRAPH[workload])][1:]
    plan = ServicePlan(
        src, dst, n, seed,
        ops=rounds * SERVICE_OPS_PER_ROUND,
        write_every=WRITE_EVERY,
        delete_every=DELETE_EVERY,
        wait_every=WAIT_EVERY,
        checkpoints=rounds,
    )
    return Inputs(
        workload=workload,
        seed=seed,
        names=names,
        arrays=[r[1:] for r in raw],
        references=[reference_labels(*r[1:]) for r in raw],
        service_index=names.index(SERVICE_GRAPH[workload]),
        service_plan=plan,
        scaleout_index=names.index(SCALEOUT_GRAPH[workload]),
    )


def _stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker (started by the
    shared-memory segments of the sharded backend) and wait for it to end.

    Left alone, it outlives this process by the moment it takes to read
    end-of-file on its pipe.  Registered before the program under test is
    imported, so it runs after that program's own exit handlers, which may
    still unlink segments through the tracker.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    atexit.register(_stop_resource_tracker)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    workdir = ROOT / WORKDIR_NAME
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        counts = {
            "rounds": max(1, round(ROUNDS[args.workload] * args.seconds / BASE_SECONDS)),
            "static_per_round": STATIC_PER_ROUND,
            "setup_repeats": SETUP_REPEATS,
        }
        inputs = make_inputs(args.workload, args.seed, counts["rounds"])
        if args.trace:
            from perfbench.layers import run_traced as run
        else:
            from perfbench.endtoend import run_untraced as run
        result, detail = run(inputs, counts, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, counts=counts)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"run took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
