"""Ablation bench: hierarchical-synthesis hyperparameters (w, m_th).

DESIGN.md calls out the partition granularity ``w`` and the synthesis
threshold ``m_th`` as the key design choices of the hierarchical pass
(Section 5.1.2); this bench sweeps both on a dense Toffoli-chain workload.
"""

from repro.compiler.passes.base import PassManager
from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass
from repro.compiler.passes.template_synthesis import TemplateSynthesisPass
from repro.experiments.common import format_rows
from repro.synthesis.approximate import ApproximateSynthesizer
from repro.workloads.reversible import toffoli_chain


def _sweep():
    base = PassManager([TemplateSynthesisPass()]).run(toffoli_chain(5))
    rows = []
    for block_size in (2, 3):
        for threshold in (4, 6):
            synthesizer = ApproximateSynthesizer(tolerance=1e-5, restarts=1, seed=1, max_iterations=200)
            hierarchical = HierarchicalSynthesisPass(
                block_size=block_size,
                threshold=threshold,
                tolerance=1e-5,
                synthesizer=synthesizer,
                enable_dag_compacting=False,
            )
            result = PassManager([hierarchical]).run(base)
            rows.append(
                {
                    "block_size_w": block_size,
                    "threshold_mth": threshold,
                    "num_2q": result.count_two_qubit_gates(),
                }
            )
    return rows


def test_hierarchical_hyperparameter_ablation(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(format_rows(rows, title="Ablation: hierarchical synthesis (w, m_th) sweep on tof_5"))
    best = min(row["num_2q"] for row in rows)
    # The paper's default (w=3, m_th=4) is on the Pareto front of this sweep.
    default = next(r for r in rows if r["block_size_w"] == 3 and r["threshold_mth"] == 4)
    assert default["num_2q"] <= best + 1
