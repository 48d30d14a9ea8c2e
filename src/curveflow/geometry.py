"""Discrete closed plane curves and their finite-volume geometry.

A curve is an ordered closed polygon of M nodes with periodic indexing
(X_0 := X_M, X_{M+1} := X_1).  This module computes the per-node quantities
the flow solver is built on: segment lengths d_i = |X_i - X_{i-1}|, spans
d_i + d_{i+1}, unit tangents, normals, the curvature vector and the
discrete curvature, once per ``CurveState``, which also carries its total
length and signed enclosed area.

Sign conventions (fixed once, used everywhere):

* perp operator: (x, y)^perp = (y, -x), so (X^perp_{i+1} - X^perp_{i-1}) /
  (d_i + d_{i+1}) is the discrete *outward* normal of a counterclockwise
  curve;
* curvature is minus the dot product of the discrete curvature vector with
  that normal, which makes a counterclockwise circle of radius R carry
  kappa_i = +cos(pi/M)/R -> +1/R.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]


def _count(value, least: int, message: str) -> int:
    """``value`` as the int the arithmetic uses; ValueError(message) unless it is an
    integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(message)
    return int(value)


def _real(value, message: str, holds=math.isfinite) -> float:
    """``value`` as the float the arithmetic uses; ValueError(message) unless it is a
    real number, not a bool, finite as a float, for which ``holds`` is true."""
    try:  # float() of an int too large for a float overflows
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        number = math.nan
    if isinstance(value, bool) or not (math.isfinite(number) and holds(number)):
        raise ValueError(message)
    return number


@dataclass(frozen=True, eq=False, slots=True)
class CurveState:
    """Immutable closed polygon of M >= 4 planar nodes, cyclically indexed.

    Node k connects to nodes (k-1) % M and (k+1) % M.  Consecutive nodes
    must be distinct and the polygon must have a finite length and a finite,
    nonzero signed area (so an orientation is defined).  Validation also
    yields the total ``length``, the signed shoelace ``area``, positive iff
    the nodes run counterclockwise, and the per-node geometry, which a step
    takes.
    """

    nodes: FloatArray
    length: float = field(init=False, repr=False)
    area: float = field(init=False, repr=False)
    # per-node geometry of the validation pass, taken by the next step
    _pass: _NodeGeometry | None = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (M, 2)")
        if nodes.shape[0] < 4:
            raise ValueError("a closed curve needs at least 4 nodes")
        rows = np.array(nodes.T, order="C")  # x and y rows, a copy of the input
        rows.flags.writeable = False
        if not np.isfinite(rows).all():
            raise ValueError("nodes contain non-finite values")
        prev = np.roll(rows, 1, axis=1)
        edge = np.empty((2, rows.shape[1] + 1))  # X_i - X_{i-1}; index M repeats 0
        np.subtract(rows, prev, out=edge[:, :-1])
        edge[:, -1] = edge[:, 0]
        gaps = np.hypot(edge[0], edge[1])
        if not gaps.all():
            raise ValueError("consecutive nodes must be distinct")
        # shoelace sum_i (X_{i-1} - X_0) x (X_i - X_{i-1}) / 2; taken about X_0,
        # a tiny curve away from the origin keeps the sign of its area
        prev -= rows[:, :1]
        area = 0.5 * float(np.dot(prev[0], edge[1, :-1]) - np.dot(prev[1], edge[0, :-1]))
        if area == 0.0:
            raise ValueError("curve has zero signed area; orientation undefined")
        length = float(gaps[:-1].sum())
        if not np.isfinite([length, area]).all():
            raise ValueError("curve length and area must be finite")
        fields = dict(nodes=rows.T, length=length, area=area,
                      _pass=_node_geometry(edge, gaps))
        for name, value in fields.items():  # frozen: past the dataclass __setattr__
            object.__setattr__(self, name, value)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]


def build_radial_curve(folds: int, amplitude: float, node_count: int = 200) -> CurveState:
    """Sample the polar graph r(u) = 1 + amplitude*cos(2*folds*pi*u).

    Nodes are placed at u = k/node_count, k = 0..node_count-1, at
    r(u)*(cos 2*pi*u, sin 2*pi*u).  amplitude = 0 yields the regular
    polygon inscribed in the unit circle.

    Raises ValueError for |amplitude| >= 1 (the radius could vanish), a
    folds that is not an integer >= 1 (the curve would not close) or a
    node_count that is not an integer >= 4.  Each message starts with the
    violated parameter.
    """
    folds = _count(folds, 1, "folds >= 1 and integral")
    amplitude = _real(amplitude, "|amplitude| < 1", lambda a: abs(a) < 1)
    return _polar_curve(lambda u: 1.0 + amplitude * np.cos(2.0 * folds * np.pi * u), node_count)


def build_circle(radius: float = 1.0, node_count: int = 200) -> CurveState:
    """Regular node_count-gon of given radius: bitwise radius times the zero-amplitude star.

    Raises ValueError for a radius that is not finite and positive or a
    node_count that is not an integer >= 4.  Each message starts with the
    violated parameter.
    """
    radius = _real(radius, "radius > 0", lambda r: r > 0)
    return _polar_curve(lambda u: radius, node_count)


def _polar_curve(radius, node_count: int) -> CurveState:  # as build_radial_curve, r = radius(u)
    node_count = _count(node_count, 4, "node_count >= 4 and integral")
    u = np.arange(node_count, dtype=np.float64) / node_count
    r, angle = radius(u), 2.0 * np.pi * u
    return CurveState(np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1))


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
    """Write a curve in the polyline format with 17 significant digits, as
    plain text whatever the suffix (``np.savetxt`` would gzip a '.gz' path)."""
    with open(path, "w") as out:
        np.savetxt(out, curve.nodes, fmt="%.17g")


class _NodeGeometry(NamedTuple):
    """Per-node finite-volume quantities; vectors are (2, M) rows of x and y."""

    d: FloatArray  # |X_i - X_{i-1}|
    d_next: FloatArray  # d_{i+1}
    span: FloatArray  # s_i = d_i + d_{i+1}
    tangent: FloatArray  # t_i = (X_i - X_{i-1}) / d_i
    curvature_vec: FloatArray  # k_i = 2 (t_{i+1} - t_i) / s_i
    normal: FloatArray  # N_i = (X_{i+1} - X_{i-1})^perp / s_i
    kappa: FloatArray  # -k_i . N_i


def _node_geometry(edge: FloatArray, lengths: FloatArray) -> _NodeGeometry:
    """Every per-node quantity of the scheme, each computed once, from the
    (2, M+1) edges X_i - X_{i-1} and their (M+1) lengths, index M repeating 0.

    The chord X_{i+1} - X_{i-1} is the sum of the edges entering and leaving
    node i.
    """
    tangent = edge / lengths
    span = lengths[:-1] + lengths[1:]
    curvature_vec = tangent[:, 1:] - tangent[:, :-1]
    curvature_vec *= 2.0
    curvature_vec /= span
    normal = np.empty_like(curvature_vec)  # (chord_y, -chord_x) / span
    np.add(edge[1, :-1], edge[1, 1:], out=normal[0])
    np.add(edge[0, :-1], edge[0, 1:], out=normal[1])
    normal /= span
    normal[1] *= -1.0
    kappa = curvature_vec[0] * normal[0]
    kappa += curvature_vec[1] * normal[1]
    kappa *= -1.0
    return _NodeGeometry(
        lengths[:-1], lengths[1:], span, tangent[:, :-1], curvature_vec, normal, kappa
    )


def _state_geometry(curve: CurveState) -> _NodeGeometry:
    """The curve's per-node geometry; once a step took it, computed anew, bitwise equal."""
    return curve._pass or CurveState(curve.nodes)._pass


def segment_lengths(curve: CurveState) -> FloatArray:
    """Segment lengths d[k] = |X_k - X_{k-1}| with cyclic wraparound."""
    return _state_geometry(curve).d.copy()


def discrete_curvature(curve: CurveState) -> FloatArray:
    """Discrete curvature at every node.

    kappa[k] = - [ 2/(d_k+d_{k+1}) * ( (X_{k+1}-X_k)/d_{k+1} - (X_k-X_{k-1})/d_k ) ]
               . [ (X^perp_{k+1} - X^perp_{k-1}) / (d_k+d_{k+1}) ]

    i.e. minus the discrete curvature vector dotted with the discrete
    normal, with (x, y)^perp = (y, -x).  Counterclockwise convex curves get
    positive values; a CCW regular M-gon of radius R gets exactly
    cos(pi/M)/R at every node.
    """
    return _state_geometry(curve).kappa.copy()
