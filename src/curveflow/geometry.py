"""Discrete closed plane curves and their finite-volume geometry.

A curve is an ordered closed polygon of M nodes with periodic indexing
(X_0 := X_M, X_{M+1} := X_1).  This module computes the per-node quantities
the flow solver is built on: segment lengths d_i = |X_i - X_{i-1}|, dual
lengths (d_i + d_{i+1})/2, discrete curvature, total length, enclosed area,
and scalar shape diagnostics.

Sign conventions (fixed once, used everywhere):

* perp operator: (x, y)^perp = (y, -x), so (X^perp_{i+1} - X^perp_{i-1}) /
  (d_i + d_{i+1}) is the discrete *outward* normal of a counterclockwise
  curve;
* curvature is minus the dot product of the discrete curvature vector with
  that normal, which makes a counterclockwise circle of radius R carry
  kappa_i = +cos(pi/M)/R -> +1/R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DegenerateSegmentError

FloatArray = NDArray[np.float64]

#: Hard lower bound on segment lengths; the flow equations divide by d_i.
EPSILON_GEOM = 1e-12


class Orientation(Enum):
    COUNTERCLOCKWISE = "counterclockwise"
    CLOCKWISE = "clockwise"


def _frozen_array(values: ArrayLike) -> FloatArray:
    arr = np.array(values, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


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
    and the signed shoelace ``area`` (positive iff counterclockwise).
    """

    nodes: FloatArray
    orientation: Orientation = None  # type: ignore[assignment]  # derived
    length: float = field(init=False, repr=False)
    area: float = field(init=False, repr=False)

    def __post_init__(self):
        nodes = _frozen_array(self.nodes)
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
        orientation = Orientation.COUNTERCLOCKWISE if area > 0.0 else Orientation.CLOCKWISE
        fields = dict(nodes=nodes, length=float(gaps.sum()), area=area, orientation=orientation)
        for name, value in fields.items():  # frozen: past the dataclass __setattr__
            object.__setattr__(self, name, value)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True)
class GeometryCache:
    """All per-node geometric quantities of a curve, computed in one pass.

    ``d[k]`` is the length of the segment entering node k, ``dual[k]`` the
    dual length (d_k + d_{k+1})/2 of the finite volume around node k.
    """

    d: FloatArray
    dual: FloatArray
    kappa: FloatArray
    total_length: float
    area: float


@dataclass(frozen=True)
class ShapeDiagnostics:
    isoperimetric_ratio: float
    uniformity_ratio: float


def build_radial_curve(folds: int, amplitude: float, node_count: int) -> CurveState:
    """Sample the polar graph r(u) = 1 + amplitude*cos(2*folds*pi*u).

    Nodes are placed at u = k/node_count, k = 0..node_count-1, at
    r(u)*(cos 2*pi*u, sin 2*pi*u).  amplitude = 0 yields the regular
    polygon inscribed in the unit circle.

    Raises ValueError for |amplitude| >= 1 (the radius could vanish),
    folds < 1 or node_count < 4.
    """
    if node_count < 4:
        raise ValueError("node_count must be >= 4")
    if not folds >= 1:
        raise ValueError("folds must be a positive integer")
    if not abs(amplitude) < 1:
        raise ValueError("|amplitude| must be < 1")
    u = np.arange(node_count, dtype=np.float64) / node_count
    r = 1.0 + amplitude * np.cos(2.0 * folds * np.pi * u)
    angle = 2.0 * np.pi * u
    nodes = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
    return CurveState(nodes)


def build_circle(radius: float = 1.0, node_count: int = 200) -> CurveState:
    """Regular node_count-gon inscribed in the circle of given radius."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive")
    if node_count < 4:
        raise ValueError("node_count must be >= 4")
    angle = 2.0 * np.pi * np.arange(node_count, dtype=np.float64) / node_count
    nodes = radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return CurveState(nodes)


def load_polyline(points: ArrayLike) -> CurveState:
    """Build a curve from an ordered point sequence (closure implied).

    Rejects fewer than 4 points and duplicate consecutive points (including
    an explicit closing point equal to the first).  Orientation is detected
    from the signed area.
    """
    return CurveState(points)


def read_polyline(path: str | Path) -> CurveState:
    """Read the plain-text polyline format: one "x y" pair per line.

    Lines starting with '#' and blank lines are ignored; closure is implied
    (the last point connects back to the first).
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
    return load_polyline(points)


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


def _node_geometry(
    nodes: FloatArray, epsilon: float = 0.0, d: FloatArray | None = None
) -> _NodeGeometry:
    """Every per-node quantity of the scheme, each computed once.

    The chord X_{i+1} - X_{i-1} is the sum of the edges entering and leaving
    node i.  Raises DegenerateSegmentError when a segment is shorter than
    ``epsilon``; given segment lengths ``d`` are used as they are.
    """
    xy = nodes.T
    padded = np.concatenate((xy[:, -1:], xy, xy[:, :1]), axis=1)
    edge = padded[:, 1:] - padded[:, :-1]  # X_i - X_{i-1}, i = 0..M; index M repeats 0
    lengths = np.hypot(edge[0], edge[1]) if d is None else np.concatenate((d, d[:1]))
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


def dual_lengths(d: FloatArray) -> FloatArray:
    """Dual (finite-volume) lengths (d_k + d_{k+1})/2; they sum to the total length."""
    return 0.5 * (d + np.roll(d, -1))


def discrete_curvature(curve: CurveState, d: FloatArray | None = None) -> FloatArray:
    """Discrete curvature at every node.

    kappa[k] = - [ 2/(d_k+d_{k+1}) * ( (X_{k+1}-X_k)/d_{k+1} - (X_k-X_{k-1})/d_k ) ]
               . [ (X^perp_{k+1} - X^perp_{k-1}) / (d_k+d_{k+1}) ]

    i.e. minus the discrete curvature vector dotted with the discrete
    normal, with (x, y)^perp = (y, -x).  Counterclockwise convex curves get
    positive values; a CCW regular M-gon of radius R gets exactly
    cos(pi/M)/R at every node.  Without ``d`` the segment lengths are
    computed and checked against EPSILON_GEOM.
    """
    return _node_geometry(curve.nodes, EPSILON_GEOM if d is None else 0.0, d).kappa


def curve_length(d: FloatArray) -> float:
    """Total length: sum of the segment lengths."""
    return float(np.sum(d))


def enclosed_area(curve: CurveState) -> float:
    """Signed shoelace area of the node polygon; positive iff counterclockwise."""
    return curve.area


def shape_diagnostics(curve: CurveState, d: FloatArray | None = None) -> ShapeDiagnostics:
    """Scalar circularity and mesh-quality measures.

    isoperimetric_ratio = L^2/(4*pi*A) >= 1, equal to 1 only for the circle
    (up to discretization); uniformity_ratio = max d_i / min d_i >= 1.
    Requires positive enclosed area (counterclockwise input).
    """
    if curve.area <= 0.0:
        raise ValueError("shape diagnostics require positive enclosed area")
    d = segment_lengths(curve) if d is None else d
    length, area = curve_length(d), curve.area
    return ShapeDiagnostics(
        isoperimetric_ratio=length * length / (4.0 * np.pi * area),
        uniformity_ratio=float(d.max() / d.min()),
    )


def compute_geometry(curve: CurveState, epsilon: float = EPSILON_GEOM) -> GeometryCache:
    """Segment lengths, dual lengths, curvature, total length and area in one pass."""
    geo = _node_geometry(curve.nodes, epsilon)
    return GeometryCache(
        d=_frozen_array(geo.d),
        dual=_frozen_array(0.5 * geo.span),
        kappa=_frozen_array(geo.kappa),
        total_length=curve_length(geo.d),
        area=curve.area,
    )
