"""Top-level command-line interface: ``python -m repro <command>``.

Commands
--------
``cc``        label a graph file's connected components
``stats``     print Table 2-style statistics for graph files
``convert``   convert between graph file formats
``generate``  write one of the 18 suite stand-ins to a file
``experiments`` is separate: ``python -m repro.experiments ...``
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_cc(args) -> int:
    from .core.api import connected_components
    from .core.labels import component_sizes, num_components
    from .graph.io import read_auto
    from .verify import verify_labels

    g = read_auto(args.graph)
    labels = connected_components(g, backend=args.backend, full_result=False)
    print(f"{g.name}: n={g.num_vertices} m={g.num_edges} "
          f"components={num_components(labels)}")
    if args.verify:
        ok = verify_labels(g, labels)
        print(f"verification: {'OK' if ok else 'FAILED'}")
        if not ok:
            return 1
    if args.sizes:
        for lab, size in sorted(
            component_sizes(labels).items(), key=lambda kv: -kv[1]
        )[: args.sizes]:
            print(f"  component {lab}: {size} vertices")
    if args.output:
        np.save(args.output, labels)
        print(f"labels written to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from .graph.io import read_auto
    from .graph.stats import stats_table

    graphs = [read_auto(p) for p in args.graphs]
    print(stats_table(graphs))
    return 0


def _cmd_convert(args) -> int:
    from pathlib import Path

    from .graph.io import (
        read_auto,
        save_csr_npz,
        write_dimacs,
        write_edge_list,
        write_matrix_market,
    )

    g = read_auto(args.input)
    suffix = Path(args.output).suffix.lower()
    writers = {
        ".gr": write_dimacs,
        ".mtx": write_matrix_market,
        ".npz": save_csr_npz,
    }
    writers.get(suffix, write_edge_list)(g, args.output)
    print(f"{args.input} -> {args.output} ({g.num_vertices} vertices, "
          f"{g.num_edges} edges)")
    return 0


def _cmd_profile(args) -> int:
    from .core.ecl_cc_gpu import ecl_cc_gpu
    from .verify import verify_labels_structural
    from .gpusim.device import K40, TITAN_X, scaled_device
    from .gpusim.trace import render_profile
    from .graph.io import read_auto

    g = read_auto(args.graph)
    base = K40 if args.device == "k40" else TITAN_X
    dev = scaled_device(base, g.num_arcs) if args.scale_cache else base
    res = ecl_cc_gpu(g, device=dev, jump=args.jump, collect_paths=True)
    assert verify_labels_structural(g, res.labels)
    print(f"{g.name}: n={g.num_vertices} m={g.num_edges} on {dev.name}")
    print(render_profile(res.kernels))
    ps = res.path_stats
    print(f"paths: avg={ps.average_length:.2f} max={ps.max_length}  "
          f"worklist: front={res.worklist_front} back={res.worklist_back}")
    return 0


def _cmd_msf(args) -> int:
    import numpy as np

    from .extensions import boruvka_msf_gpu, kruskal_msf
    from .graph.io import read_auto

    g = read_auto(args.graph)
    u, v = g.edge_array()
    rng = np.random.default_rng(args.seed)
    w = rng.random(u.size)  # unit-interval weights (graph files are unweighted)
    k = kruskal_msf(u, v, w, g.num_vertices)
    print(f"{g.name}: MSF has {k.num_edges} edges in {k.num_trees} tree(s), "
          f"weight {k.total_weight:.4f} (Kruskal)")
    if args.gpu:
        b, gpu = boruvka_msf_gpu(u, v, w, g.num_vertices)
        same = np.array_equal(k.edge_indices, b.edge_indices)
        print(f"GPU Borůvka: weight {b.total_weight:.4f} over "
              f"{len(gpu.launches)} launches — forests identical: {same}")
        if not same:
            return 1
    return 0


def _cmd_generate(args) -> int:
    from pathlib import Path

    from .generators.suite import load
    from .graph.io import save_csr_npz, write_dimacs, write_edge_list, write_matrix_market

    g = load(args.name, args.scale)
    suffix = Path(args.output).suffix.lower()
    writers = {
        ".gr": write_dimacs,
        ".mtx": write_matrix_market,
        ".npz": save_csr_npz,
    }
    writers.get(suffix, write_edge_list)(g, args.output)
    print(f"wrote {g.name} ({args.scale}): {g.num_vertices} vertices, "
          f"{g.num_edges} edges -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .core.api import BACKENDS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ECL-CC reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cc", help="label connected components of a graph file")
    p.add_argument("graph", help=".gr / .mtx / .npz / edge-list file")
    p.add_argument("--backend", default="numpy", choices=sorted(BACKENDS))
    p.add_argument("--verify", action="store_true",
                   help="check the labeling against the scipy oracle")
    p.add_argument("--sizes", type=int, default=0, metavar="K",
                   help="print the K largest components")
    p.add_argument("--output", help="write labels as .npy")
    p.set_defaults(func=_cmd_cc)

    p = sub.add_parser("stats", help="Table 2-style statistics for graph files")
    p.add_argument("graphs", nargs="+")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("convert", help="convert a graph between file formats")
    p.add_argument("input")
    p.add_argument("output", help="format chosen by extension (.gr/.mtx/.npz/else edge list)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("generate", help="write a suite stand-in graph to a file")
    p.add_argument("name", help="suite graph name, e.g. rmat16.sym")
    p.add_argument("output")
    p.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("profile", help="profile ECL-CC's kernels on a graph file")
    p.add_argument("graph")
    p.add_argument("--device", default="titanx", choices=["titanx", "k40"])
    p.add_argument("--jump", default="Jump4",
                   choices=["Jump1", "Jump2", "Jump3", "Jump4"])
    p.add_argument("--scale-cache", action="store_true",
                   help="scale L2 to the graph's working set")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("msf", help="minimum spanning forest (random edge weights)")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0, help="weight RNG seed")
    p.add_argument("--gpu", action="store_true",
                   help="also run simulated-GPU Borůvka and cross-check")
    p.set_defaults(func=_cmd_msf)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
