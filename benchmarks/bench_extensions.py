"""Beyond-paper benchmark: Afforest against ECL-CC.

Afforest (2018) is the closest successor to ECL-CC; this bench positions
it on the same suite, on the same simulated device as ECL-CC (modeled
ms).
"""

from __future__ import annotations

import numpy as np

from repro.core.ecl_cc_gpu import ecl_cc_gpu
from repro.verify import reference_labels
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import device_for, suite_graphs
from repro.extensions import afforest_cc
from repro.gpusim.device import TITAN_X

from .conftest import REPORT_DIR


def test_afforest_vs_ecl(benchmark, bench_scale, bench_names, bench_repeats):
    def sweep() -> ExperimentReport:
        report = ExperimentReport(
            "ext-afforest",
            "Afforest vs ECL-CC on the simulated Titan X (modeled ms)",
            ["Graph name", "ECL-CC", "Afforest", "Afforest/ECL", "skipped %"],
        )
        for g in suite_graphs(bench_scale, bench_names):
            dev = device_for(g, TITAN_X)
            ref = reference_labels(g)
            ecl = ecl_cc_gpu(g, device=dev)
            aff = afforest_cc(g, device=dev)
            assert np.array_equal(aff.labels, ref), g.name
            report.add_row(
                g.name,
                round(ecl.total_time_ms, 4),
                round(aff.total_time_ms, 4),
                round(aff.total_time_ms / ecl.total_time_ms, 2),
                round(100 * aff.skipped_vertices / max(g.num_vertices, 1), 1),
            )
        return report

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"ext_afforest_{bench_scale}.txt").write_text(report.render() + "\n")
    print()
    print(report.render())

