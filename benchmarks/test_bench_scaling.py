"""Bench: technology-scaling study (extension).

Quantifies the paper's motivation: as SRAM leakage worsens per node, the
two-part STT-RAM L2's total-power advantage over the SRAM baseline must
grow monotonically from 45 nm through 32 nm.
"""

from repro.experiments.runner import run_experiment


def test_bench_scaling(run_once, show):
    result = run_once(run_experiment, "scaling", trace_length=10_000)
    show()
    show(result.render())
    extras = result.extras
    assert (
        extras["total_ratio_32nm"]
        < extras["total_ratio_40nm"]
        < extras["total_ratio_45nm"]
    ), "the STT advantage must grow as the node shrinks"
    assert extras["total_ratio_40nm"] < 1.0