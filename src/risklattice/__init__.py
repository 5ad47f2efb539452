"""Law-invariant risk functionals on finite samples and their lattice structure.

The package evaluates Value-at-Risk, Expected Shortfall, adjusted ES,
distortion (Choquet) measures, expected losses, certainty equivalents,
shortfall risk, optimized certainty equivalents, and monotone mean-deviation
measures exactly on equal-weight empirical samples; measures submodularity
and subadditivity gaps with seeded randomized sweeps; verifies the
curvature-based characterization of submodular shortfall measures; builds
explicit violating pairs for adjusted ES, mean-deviation measures, kinked
shortfall losses, and non-convex certainty equivalents; and reproduces the
rolling-window pairwise violation methodology on price panels.

The core modules load with the package.  The names of ``counterexamples``
and ``curvature``, and those two submodules themselves, load at their first
use (PEP 562), so a command that never builds a counterexample or a
curvature profile does not import or compile them.
"""

from .errors import (
    CounterexampleSearchError,
    DataError,
    DimensionError,
    DomainError,
    NumericError,
    RiskLatticeError,
)
from .functions import (
    AdjustmentGrid,
    DeviationWeight,
    DistortionFunction,
    LossFunction,
    arctan_bend_loss,
    cvar_loss,
    es_distortion,
    exponential_loss,
    expectile_loss,
    identity_distortion,
    identity_weight,
    linear_loss,
    parse_distortion_spec,
    parse_loss_spec,
    parse_weight_spec,
    piecewise_linear_loss,
    poly2exp_loss,
    power_distortion,
    power_weight,
    quadlin_loss,
    square_weight,
    var_distortion,
)
from .lattice import (
    GapResult,
    SweepReport,
    random_pair_sweep,
    subadditivity_gap,
    submodularity_gap,
    violation_rate,
)
from .measures import (
    aes,
    certainty_equivalent,
    distortion_rho,
    es_historical,
    expected_loss,
    mmd_rho,
    oce,
    shortfall_rho,
    var_historical,
)
from .sample import as_sample, pointwise_meet_join
from .specs import RiskMeasureSpec, parse_measure_spec

__version__ = "0.1.0"

# name -> the submodule that defines it, imported at the name's first use
_LAZY = {
    **dict.fromkeys(("counterexamples", "aes_counterexample", "aes_matched_grid",
                     "ce_counterexample", "mmd_counterexample", "mmd_pair_from_triple",
                     "shortfall_jump_deficit"), "counterexamples"),
    **dict.fromkeys(("curvature", "CurvatureProfile", "DominanceVerdict", "curvature_profile",
                     "linear_dominance_check"), "curvature"),
}
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
