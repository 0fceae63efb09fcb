"""Exact conditional inference for two-stage adaptive enrichment trials.

The package computes confidence intervals for treatment effects after a
data-driven interim decision (population enrichment, full continuation,
or futility stop). Conditioning on the realized decision turns the
pooled estimator's law into a selection-tilted normal; the intervals
invert exact conditional tests of that law.

Public surface:

* ``ConditionalNormal`` - the conditional law of the pooled estimate
* ``umau_ci`` / ``ctost_ci`` / ``naive_ci`` - interval constructions
* ``TrialDesign``, decision rules, ``confidence_intervals`` - trial layer
* ``Scenario``, ``run_scenario`` - seeded Monte Carlo engine
* ``enrichci`` console script - CLI front end
"""

from .condnorm import ConditionalNormal, NumericalError
from .designs import (
    ConfigurationError,
    DecisionRule,
    InterimDecision,
    Stage1Summary,
    Stage2Summary,
    TrialDesign,
    TruncationTarget,
    confidence_intervals,
    pooled_estimate,
)
from .intervals import (
    CriticalPair,
    IntervalEstimate,
    ctost_ci,
    naive_ci,
    solve_umpu,
    umau_ci,
)
from .sim import (
    MethodStats,
    Scenario,
    SimResult,
    draw_stage1,
    draw_stage2,
    mc_error_band,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionalNormal",
    "ConfigurationError",
    "CriticalPair",
    "DecisionRule",
    "InterimDecision",
    "IntervalEstimate",
    "MethodStats",
    "NumericalError",
    "Scenario",
    "SimResult",
    "Stage1Summary",
    "Stage2Summary",
    "TrialDesign",
    "TruncationTarget",
    "confidence_intervals",
    "ctost_ci",
    "draw_stage1",
    "draw_stage2",
    "mc_error_band",
    "naive_ci",
    "pooled_estimate",
    "run_scenario",
    "solve_umpu",
    "umau_ci",
]
