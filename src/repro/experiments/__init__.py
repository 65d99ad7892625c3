"""Experiment harnesses — one module per table/figure of the paper.

Each module yields an
:class:`~repro.experiments.common.ExperimentResult` whose rows regenerate
the corresponding paper artifact (same rows/series; shape-comparable
numbers).  :func:`repro.experiments.runner.run_experiment` runs one by
name; :func:`repro.experiments.parallel.run_battery` runs several, sharing
their jobs.

==============  ========================================================
module          paper artifact
==============  ========================================================
``table1``      Table 1 — STT-RAM retention levels
``table2``      Table 2 — simulated configurations
``fig3``        Fig. 3 — inter/intra-set write COV per benchmark
``fig4``        Fig. 4 — HR write-threshold sweep
``fig5``        Fig. 5 — LR associativity sweep
``fig6``        Fig. 6 — LR rewrite-interval distribution
``fig8``        Fig. 8 — speedup / dynamic power / total power
==============  ========================================================
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
