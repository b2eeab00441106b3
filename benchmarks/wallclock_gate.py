#!/usr/bin/env python
"""Wall-clock gate: the checks on real elapsed time that perfbench cannot make.

Runs the selected legs of ``repro.experiments.wallclock.LEGS`` over the
generator suite, verifies every leg's labels bit-for-bit against the
serial reference, and writes ``BENCH_core_wallclock.json`` (schema in
``docs/benchmarks.md``).  Exits 2 on a label mismatch, always, and 1 on
a missed threshold unless ``--quick``.

Typical uses::

    # the full recorded run (the JSON committed at the repo root)
    python benchmarks/wallclock_gate.py --scale medium --repeats 3

    # CI smoke: reduced suite, labels verified, thresholds only noted
    python benchmarks/wallclock_gate.py --quick --out bench_smoke.json

    # one leg only: the sharded sweep at K=1,2 (e.g. a 2-core CI box)
    python benchmarks/wallclock_gate.py --quick --backends sharded --workers 1,2

    # out-of-core leg under a hard 2 GiB address-space cap, spills kept
    python benchmarks/wallclock_gate.py --quick --backends oocore \\
        --rlimit-as 2G --oocore-spill-dir oocore-spill
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import VerificationError  # noqa: E402
from repro.experiments.wallclock import (  # noqa: E402
    LEGS,
    check_gate,
    run_wallclock_gate,
    summarize,
    write_gate_json,
)

#: The --quick subset: one high-diameter mesh, one road network, one
#: low-diameter scale-free graph — enough to catch a broken hot path
#: without paying for all 18 inputs.
QUICK_NAMES = ["2d-2e20.sym", "USA-road-d.NY", "rmat16.sym"]
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_core_wallclock.json"


def _csv(text: str) -> list[str]:
    return [item for item in text.split(",") if item]


def _ints(text: str) -> list[int]:
    return [int(item) for item in _csv(text)]


def parse_size(text: str) -> int:
    """``512M`` / ``2G`` / ``1048576`` -> bytes; raises ValueError."""
    m = re.fullmatch(r"(\d+)\s*([kKmMgG]?)", text.strip())
    if not m:
        raise ValueError(f"{text!r} is not a size (expected e.g. 512M or 2G)")
    return int(m.group(1)) * {
        "": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30
    }[m.group(2).lower()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="medium", help="suite scale")
    parser.add_argument(
        "--names", type=_csv, default=[], help="comma-separated subset of suite graphs"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--backends",
        type=_csv,
        default=None,
        help=f"comma-separated subset of the gate legs ({', '.join(LEGS)}); "
        "default all.  The live numpy backend is always timed and verified; "
        "skipped legs' columns are absent and exempt from the checks",
    )
    parser.add_argument(
        "--workers",
        type=_ints,
        default=None,
        help="comma-separated worker counts for the sharded strong-scaling "
        "leg (default 1,2,4); positive integers",
    )
    parser.add_argument(
        "--rlimit-as",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="cap the process address space via resource.RLIMIT_AS before "
        "running (e.g. 512M, 2G) — the kernel, not just the resident "
        "meter, then enforces the out-of-core leg's bounded-memory claim; "
        "POSIX only",
    )
    parser.add_argument(
        "--oocore-spill-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="spill the out-of-core leg into per-graph subdirectories of "
        "DIR instead of temp dirs; the size-ceiling demo's spill (manifest "
        "included) is then kept on disk for artifact upload",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced suite at small scale with thresholds only noted "
        "(label verification still runs and still fails the gate)",
    )
    args = parser.parse_args(argv)

    scale = "small" if args.quick and args.scale == "medium" else args.scale
    names = args.names or (QUICK_NAMES if args.quick else None)
    if args.rlimit_as is not None:
        import resource  # POSIX only

        resource.setrlimit(resource.RLIMIT_AS, (args.rlimit_as, args.rlimit_as))

    try:
        payload = run_wallclock_gate(
            scale=scale,
            names=names,
            repeats=args.repeats,
            backends=args.backends or None,
            workers=args.workers or None,
            oocore_spill_dir=args.oocore_spill_dir,
        )
    except VerificationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 2
    path = write_gate_json(payload, args.out)
    for line in summarize(payload):
        print(line)
    print(f"wrote {path}")

    problems = check_gate(payload)
    for p in problems:
        print(("note: " if args.quick else "FAIL: ") + p, file=sys.stderr)
    return 1 if problems and not args.quick else 0


if __name__ == "__main__":
    raise SystemExit(main())
