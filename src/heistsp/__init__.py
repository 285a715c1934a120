"""Heisenberg-group TSP toolkit.

Koranyi-metric group arithmetic, horizontal-line beta numbers, net
hierarchies with discrete Carleson sums, and a multiscale construction of
short connected curves through finite point sets.
"""

from .core import (
    HeisPoint,
    ORIGIN,
    dilate,
    dist,
    group_inv,
    group_mul,
    heis_point,
    koranyi_norm,
    nh,
    proj_pi,
    proj_tilde,
    rotate_z,
    sigma,
)
from .lines import (
    HorizontalLine,
    LineFoot,
    foot,
    horizontal_line,
    line_dist,
    line_from_point_direction,
    line_point_at,
    sigma_l,
    trapezoid_area,
)
from .beta import (
    Ball,
    BetaBudget,
    BetaResult,
    ResourceBudgetError,
    beta_euclidean_2d,
    beta_heis,
    beta_heis_many,
    beta_heis_oracle,
)
from .curves import PolygonalCurve, curve_length, resample_curve
from .multiscale import (
    CarlesonReport,
    NetHierarchy,
    build_nets,
    carleson_sum,
    theorem_b_check,
)
from .builder import (
    BuilderConfig,
    ExcessReport,
    FutureBallReport,
    ScaleRangeError,
    build_curve,
    excess,
    excess_report,
    future_ball_search,
    theorem_a_check,
)
from .verify import LemmaCheck, run_suite

__version__ = "0.1.0"

__all__ = [
    "HeisPoint", "ORIGIN", "group_mul", "group_inv", "koranyi_norm", "dist",
    "dilate", "rotate_z", "proj_pi", "proj_tilde", "nh",
    "sigma", "heis_point",
    "HorizontalLine", "LineFoot", "horizontal_line", "line_from_point_direction",
    "line_point_at", "foot", "line_dist", "sigma_l", "trapezoid_area",
    "Ball", "BetaBudget", "BetaResult", "ResourceBudgetError",
    "beta_heis", "beta_heis_many", "beta_heis_oracle", "beta_euclidean_2d",
    "PolygonalCurve", "curve_length", "resample_curve",
    "NetHierarchy", "CarlesonReport", "build_nets", "carleson_sum",
    "theorem_b_check",
    "BuilderConfig", "ExcessReport", "FutureBallReport", "ScaleRangeError",
    "build_curve", "excess", "excess_report", "future_ball_search",
    "theorem_a_check",
    "LemmaCheck", "run_suite",
]
