"""Normal-velocity laws driving the curve evolution.

Three laws are supported; all share the velocity form v = -kappa + F with
different forcing terms F:

* curve shortening      F = 0
* constant force        F = F0 (prescribed)
* area preserving       F = sum_i kappa_i*s_i / sum_i |N_i|^2*s_i with
                        s_i = d_i + d_{i+1} and N_i the discrete normal,
                        the value at which the polygon's shoelace area is
                        exactly stationary under the semi-discrete flow.

The paper's forcing is the average (1/L) * integral of kappa ds, discretely
sum_i kappa_i*s_i / sum_i s_i.  The law's F divides the same sum by
sum_i |N_i|^2*s_i instead.  The two agree to O(h^2) on smooth curves, but
under the paper's average the area drifts at O(h^2) whatever tau is, and
under the law's F only the O(tau) time error is left (the README
tabulates both).  The discrete normal of a regular M-gon has
|N_i| = cos(pi/M), and only the law's F cancels the curvature vector there
(F*N_i = -k_i), which makes the regular polygon a fixed point of the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import FloatArray, _real


class FlowLaw(Enum):
    CURVE_SHORTENING = "csf"
    CONSTANT_FORCE = "constant"
    AREA_PRESERVING = "area_preserving"


@dataclass(frozen=True)
class FlowModel:
    """A normal-velocity law; ``force`` is only meaningful for CONSTANT_FORCE.

    CURVE_SHORTENING is by construction the same computation as
    CONSTANT_FORCE with force 0, so the two produce bitwise-identical
    trajectories.  F acts along the discrete normal N_i, which points
    outward only when the nodes run counterclockwise: a clockwise curve
    under F runs as the counterclockwise one under -F.
    """

    law: FlowLaw
    force: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "force", _real(self.force, "force must be finite"))
        if self.law is not FlowLaw.CONSTANT_FORCE and self.force != 0.0:
            raise ValueError(f"{self.law.value} does not take a force value")

    @classmethod
    def curve_shortening(cls) -> "FlowModel":
        return cls(FlowLaw.CURVE_SHORTENING)

    @classmethod
    def constant_force(cls, force: float) -> "FlowModel":
        return cls(FlowLaw.CONSTANT_FORCE, force=force)

    @classmethod
    def area_preserving(cls) -> "FlowModel":
        return cls(FlowLaw.AREA_PRESERVING)


def forcing_value(
    model: FlowModel, kappa: FloatArray, span: FloatArray, normal: FloatArray
) -> float:
    """Forcing term of the given law, evaluated on current geometry.

    ``span`` holds s_i = d_i + d_{i+1} and ``normal`` the discrete normals
    N_i = (X_{i+1} - X_{i-1})^perp / s_i as (2, M) x and y rows.  For
    AREA_PRESERVING the result is sum_i kappa_i*s_i / sum_i |N_i|^2*s_i:
    with it the area rate sum_i (X_{i+1} - X_{i-1})^perp . V_i / 2 of the
    velocity V_i = k_i + F*N_i is zero, because the curvature vector
    satisfies k_i . N_i = -kappa_i.
    """
    if model.law is FlowLaw.AREA_PRESERVING:
        normal_sq = normal[0] * normal[0]
        normal_sq += normal[1] * normal[1]
        return float(np.dot(kappa, span) / np.dot(normal_sq, span))
    return model.force
