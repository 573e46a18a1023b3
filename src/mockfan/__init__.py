"""Exact-arithmetic engine for polyhedral cones, min-plus subdivision fans,
and signed stratum-class bookkeeping, with a verified Gr(2,n) instance."""

from ._record import replace
from .cones import Cone, Face, cone_from_generators, cone_from_inequalities, dual_cone
from .fans import (Fan, euler_char_height1, fan_from_cones, is_bounded_cone,
                   is_special_cone, is_specifically_reduced, rescale,
                   specifically_reduced_scale)
from .grassmann import GrassmannSpec, verify, vol_expression
from .subdivision import (LiftedChart, LiftedExponent, MockPolytopeChart, SubdivisionResult,
                          build_D, glue_charts, lift_chart, subdivide_chart, val_min)
from .volume import ClassLabel, FormalSum, StratumAnnotation, vol_skeleton

__all__ = [
    "Cone", "Face", "cone_from_generators", "cone_from_inequalities", "dual_cone",
    "Fan", "fan_from_cones", "rescale", "euler_char_height1",
    "is_special_cone", "is_bounded_cone", "is_specifically_reduced",
    "specifically_reduced_scale",
    "LiftedExponent", "MockPolytopeChart", "SubdivisionResult", "LiftedChart",
    "build_D", "lift_chart", "subdivide_chart", "val_min", "glue_charts",
    "ClassLabel", "FormalSum", "StratumAnnotation", "vol_skeleton",
    "GrassmannSpec", "verify", "vol_expression", "replace",
]
