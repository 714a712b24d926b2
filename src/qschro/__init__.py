"""Quasi-derivative regularization toolkit for 1D Schrodinger expressions.

Numerical machinery for the expression -u'' + qu + i[(ru)' + ru'] with
distributional complex coefficients q = s + Q': piecewise-exact coefficient
algebra, first-order propagation in quasi-derivative coordinates, Lagrange
brackets and quadratic forms, constructive condition checkers, a shooting
eigensolver on finite intervals and a window-growth null-space probe.
"""

from .coeffs import (
    CoefficientField,
    PiecewisePoly,
    bump,
    bumps,
)
from .conditions import (
    IntervalScheme,
    WeightFunction,
    check_growth,
    check_intervals,
    check_m,
    verify_caccioppoli,
)
from .errors import (
    BadSchemeError,
    DiscontinuousQuasiDerivativeError,
    FamilyMemberError,
    NonRealError,
    OverflowUnrecoverableError,
    QschroError,
    StepBudgetError,
    StepUnderflowError,
    UnsupportedTestFunctionError,
    ZeroNormError,
)
from .lagrange_forms import (
    Sector,
    bracket,
    bracket_constancy_residual,
    form_vs_operator_check,
    lagrange_residual,
    range_verdict,
    sample_forms,
)
from .propagate import Trajectory, fundamental, integrate, pair_integral
from .quasi import QuasiState, apply_l_atoms, product_rule_check
from .reports import ConditionReport
from .spectral import (
    BoundaryCondition,
    CharValue,
    EigenResult,
    EigenRun,
    ProbeReport,
    characteristic,
    eigenvalues,
    null_probe,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coefficients
    "PiecewisePoly",
    "CoefficientField",
    "bump",
    "bumps",
    # quasi-derivatives
    "QuasiState",
    "apply_l_atoms",
    "product_rule_check",
    # propagation
    "Trajectory",
    "integrate",
    "fundamental",
    "pair_integral",
    # brackets and forms
    "Sector",
    "bracket",
    "bracket_constancy_residual",
    "lagrange_residual",
    "form_vs_operator_check",
    "sample_forms",
    "range_verdict",
    # condition checkers
    "WeightFunction",
    "IntervalScheme",
    "ConditionReport",
    "check_m",
    "check_growth",
    "check_intervals",
    "verify_caccioppoli",
    # spectra and the probe
    "BoundaryCondition",
    "CharValue",
    "EigenResult",
    "EigenRun",
    "ProbeReport",
    "characteristic",
    "eigenvalues",
    "null_probe",
    # errors
    "QschroError",
    "NonRealError",
    "DiscontinuousQuasiDerivativeError",
    "FamilyMemberError",
    "StepUnderflowError",
    "StepBudgetError",
    "ZeroNormError",
    "UnsupportedTestFunctionError",
    "BadSchemeError",
    "OverflowUnrecoverableError",
]
