"""Discrete closed plane curves and their finite-volume geometry.

A curve is an ordered closed polygon of M nodes with periodic indexing
(X_0 := X_M, X_{M+1} := X_1).  This module computes the per-node quantities
the flow solver is built on: segment lengths d_i = |X_i - X_{i-1}|, spans
d_i + d_{i+1}, unit tangents, normals, the curvature vector and the
discrete curvature.  A validated ``CurveState`` carries its total length
and signed enclosed area.

Sign conventions (fixed once, used everywhere):

* perp operator: (x, y)^perp = (y, -x), so (X^perp_{i+1} - X^perp_{i-1}) /
  (d_i + d_{i+1}) is the discrete *outward* normal of a counterclockwise
  curve;
* curvature is minus the dot product of the discrete curvature vector with
  that normal, which makes a counterclockwise circle of radius R carry
  kappa_i = +cos(pi/M)/R -> +1/R.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateSegmentError

FloatArray = NDArray[np.float64]

#: Hard lower bound on segment lengths; the flow equations divide by d_i.
EPSILON_GEOM = 1e-12


def _shoelace(prev: FloatArray, edge: FloatArray) -> float:
    """Signed area sum_i (X_{i-1} - X_0) x (X_i - X_{i-1}) / 2 from the (M, 2)
    rows ``prev`` = X_{i-1} - X_0 and ``edge`` = X_i - X_{i-1}.  Taken about
    X_0, a tiny curve away from the origin keeps the sign of its area."""
    return 0.5 * float(np.dot(prev[:, 0], edge[:, 1]) - np.dot(prev[:, 1], edge[:, 0]))


@dataclass(frozen=True, eq=False, slots=True)
class CurveState:
    """Immutable closed polygon of M >= 4 planar nodes, cyclically indexed.

    Node k connects to nodes (k-1) % M and (k+1) % M.  Consecutive nodes
    must be distinct and the polygon must have nonzero signed area (so an
    orientation is defined).  Validation also yields the total ``length``
    and the signed shoelace ``area``, positive iff the nodes run
    counterclockwise.
    """

    nodes: FloatArray
    length: float = field(init=False, repr=False)
    area: float = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64, order="C")
        nodes.flags.writeable = False
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (M, 2)")
        if nodes.shape[0] < 4:
            raise ValueError("a closed curve needs at least 4 nodes")
        if not np.isfinite(nodes).all():
            raise ValueError("nodes contain non-finite values")
        prev = np.roll(nodes, 1, axis=0)
        edge = nodes - prev
        gaps = np.hypot(edge[:, 0], edge[:, 1])
        if not gaps.all():
            raise ValueError("consecutive nodes must be distinct")
        area = _shoelace(prev - nodes[0], edge)
        if area == 0.0:
            raise ValueError("curve has zero signed area; orientation undefined")
        fields = dict(nodes=nodes, length=float(gaps.sum()), area=area)
        for name, value in fields.items():  # frozen: past the dataclass __setattr__
            object.__setattr__(self, name, value)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


def build_radial_curve(folds: int, amplitude: float, node_count: int) -> CurveState:
    """Sample the polar graph r(u) = 1 + amplitude*cos(2*folds*pi*u).

    Nodes are placed at u = k/node_count, k = 0..node_count-1, at
    r(u)*(cos 2*pi*u, sin 2*pi*u).  amplitude = 0 yields the regular
    polygon inscribed in the unit circle.

    Raises ValueError for |amplitude| >= 1 (the radius could vanish), a
    folds that is not an integer >= 1 (the curve would not close) or
    node_count < 4.  Each message starts with the violated parameter.
    """
    if node_count < 4:
        raise ValueError("node_count >= 4")
    if isinstance(folds, bool) or not isinstance(folds, numbers.Integral) or folds < 1:
        raise ValueError("folds >= 1 and integral")
    if not abs(amplitude) < 1:
        raise ValueError("|amplitude| < 1")
    u = np.arange(node_count, dtype=np.float64) / node_count
    r = 1.0 + amplitude * np.cos(2.0 * folds * np.pi * u)
    angle = 2.0 * np.pi * u
    nodes = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
    return CurveState(nodes)


def build_circle(radius: float = 1.0, node_count: int = 200) -> CurveState:
    """Regular node_count-gon inscribed in the circle of given radius.

    Raises ValueError for a radius that is not finite and positive or
    node_count < 4.  Each message starts with the violated parameter.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius > 0")
    if node_count < 4:
        raise ValueError("node_count >= 4")
    angle = 2.0 * np.pi * np.arange(node_count, dtype=np.float64) / node_count
    nodes = radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return CurveState(nodes)


def read_polyline(path: str | Path) -> CurveState:
    """Read the plain-text polyline format: one "x y" pair per line.

    Lines starting with '#' and blank lines are ignored; closure is implied
    (the last point connects back to the first), so an explicit closing
    point equal to the first is a duplicate and rejected.
    """
    points = []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'x y', got {raw!r}")
        try:
            points.append((float(fields[0]), float(fields[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return CurveState(points)


def write_polyline(curve: CurveState, path: str | Path) -> None:
    """Write a curve in the polyline format with 17 significant digits."""
    lines = [f"{x:.17g} {y:.17g}" for x, y in curve.nodes]
    Path(path).write_text("\n".join(lines) + "\n")


class _NodeGeometry(NamedTuple):
    """Per-node finite-volume quantities; vectors are (2, M) rows of x and y."""

    d: FloatArray  # |X_i - X_{i-1}|
    d_next: FloatArray  # d_{i+1}
    span: FloatArray  # s_i = d_i + d_{i+1}
    tangent: FloatArray  # t_i = (X_i - X_{i-1}) / d_i
    curvature_vec: FloatArray  # k_i = 2 (t_{i+1} - t_i) / s_i
    normal: FloatArray  # N_i = (X_{i+1} - X_{i-1})^perp / s_i
    kappa: FloatArray  # -k_i . N_i


def _node_geometry(nodes: FloatArray, epsilon: float = 0.0) -> _NodeGeometry:
    """Every per-node quantity of the scheme, each computed once.

    The chord X_{i+1} - X_{i-1} is the sum of the edges entering and leaving
    node i.  Raises DegenerateSegmentError when a segment is shorter than
    ``epsilon``.
    """
    xy = nodes.T
    padded = np.concatenate((xy[:, -1:], xy, xy[:, :1]), axis=1)
    edge = padded[:, 1:] - padded[:, :-1]  # X_i - X_{i-1}, i = 0..M; index M repeats 0
    lengths = np.hypot(edge[0], edge[1])
    if lengths.min() < epsilon:
        raise DegenerateSegmentError(
            f"segment length {lengths.min():.3e} below threshold {epsilon:.3e}"
        )
    tangent = edge / lengths
    span = lengths[:-1] + lengths[1:]
    curvature_vec = 2.0 * (tangent[:, 1:] - tangent[:, :-1]) / span
    chord = edge[:, :-1] + edge[:, 1:]
    normal = np.array((chord[1], -chord[0])) / span
    kappa = -(curvature_vec[0] * normal[0] + curvature_vec[1] * normal[1])
    return _NodeGeometry(
        lengths[:-1], lengths[1:], span, tangent[:, :-1], curvature_vec, normal, kappa
    )


def segment_lengths(curve: CurveState, epsilon: float = EPSILON_GEOM) -> FloatArray:
    """Segment lengths d[k] = |X_k - X_{k-1}| with cyclic wraparound.

    Raises DegenerateSegmentError if any length falls below ``epsilon``.
    """
    return _node_geometry(curve.nodes, epsilon).d


def discrete_curvature(curve: CurveState) -> FloatArray:
    """Discrete curvature at every node.

    kappa[k] = - [ 2/(d_k+d_{k+1}) * ( (X_{k+1}-X_k)/d_{k+1} - (X_k-X_{k-1})/d_k ) ]
               . [ (X^perp_{k+1} - X^perp_{k-1}) / (d_k+d_{k+1}) ]

    i.e. minus the discrete curvature vector dotted with the discrete
    normal, with (x, y)^perp = (y, -x).  Counterclockwise convex curves get
    positive values; a CCW regular M-gon of radius R gets exactly
    cos(pi/M)/R at every node.  Defined for every valid curve, however short
    its segments; the stepper applies its own degeneracy threshold.
    """
    return _node_geometry(curve.nodes).kappa
