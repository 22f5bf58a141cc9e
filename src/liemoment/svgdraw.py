"""SVG rendering of rank-2 momentum polytopes.

This is the only inexact surface of the package: exact weight coordinates
are pushed through a fixed per-type linear drawing map and decimalized to
6 places at emission.  The drawing maps (scale s, y up; the SVG emitter
flips y):

    A2:     pi1 -> (-1/2, sqrt3/2)*s    pi2 -> (1/2, sqrt3/2)*s
    B2/C2:  pi1 -> (1, 0)*s             pi2 -> (1/2, 1/2)*s
    G2:     pi1 -> (1/2, sqrt3/2)*s     pi2 -> (0, sqrt3)*s
    A1xA1:  pi1 -> (1, 0)*s             pi2 -> (0, 1)*s

Each drawing coordinate is an exact rational pair (a, b) meaning a + b*sqrt3,
converted to float only inside the formatter.  A coordinate whose float
is not finite is refused with a DomainError.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .errors import DomainError, UnsupportedCaseError
from .exactq import Q, Vec, vscale
from .polyhedra import Polyhedron, hull as _hull
from .repweights import WeightSystem
from .rootsys import RootSystem, star_linear

_SQRT3 = math.sqrt(3.0)

# per-type map: for each fundamental weight, ((x_rat, x_sqrt3), (y_rat, y_sqrt3))
_MAPS = {
    "A2": (((Q(-1, 2), Q(0)), (Q(0), Q(1, 2))), ((Q(1, 2), Q(0)), (Q(0), Q(1, 2)))),
    "B2": (((Q(1), Q(0)), (Q(0), Q(0))), ((Q(1, 2), Q(0)), (Q(1, 2), Q(0)))),
    "C2": (((Q(1), Q(0)), (Q(0), Q(0))), ((Q(1, 2), Q(0)), (Q(1, 2), Q(0)))),
    "G2": (((Q(1, 2), Q(0)), (Q(0), Q(1, 2))), ((Q(0), Q(0)), (Q(0), Q(1)))),
    "A1xA1": (((Q(1), Q(0)), (Q(0), Q(0))), ((Q(0), Q(0)), (Q(1), Q(0)))),
}

STYLE_CHAMBER = "chamber"
STYLE_WEIGHT_HULL = "weight-hull"
STYLE_DARK = "momentum-dark"
STYLE_LIGHT = "momentum-light"

_FILL = {STYLE_DARK: "#8c8c8c", STYLE_LIGHT: "#d9d9d9"}


class SvgScene:
    """Polygons (style-tagged vertex loops) and point markers, in draw coords."""

    def __init__(self):
        self.polygons: List[Tuple[str, List[Tuple]]] = []
        self.markers: List[Tuple[Tuple, str, str]] = []  # (xy, glyph, label)
        self.segments: List[Tuple[Tuple, Tuple]] = []  # dashed wall segments


def _map_key(rs: RootSystem) -> str:
    if rs.torus_rank != 0 or rs.ss_rank != 2:
        raise UnsupportedCaseError(
            "rendering is implemented for semisimple rank-2 groups only "
            "(no drawing map for this group)")
    key = "x".join("%s%d" % f for f in rs.spec.factors)
    if key not in _MAPS:
        raise UnsupportedCaseError("no drawing map for group %s" % key)
    return key


def _draw_map(rs: RootSystem, scale: int):
    cols = _MAPS[_map_key(rs)]

    def to_draw(v: Vec):
        x = (Q(0), Q(0))
        y = (Q(0), Q(0))
        for coef, col in zip(v, cols):
            (xr, xs), (yr, ys) = col
            x = (x[0] + coef * xr, x[1] + coef * xs)
            y = (y[0] + coef * yr, y[1] + coef * ys)
        return ((x[0] * scale, x[1] * scale), (y[0] * scale, y[1] * scale))

    return to_draw


_TOO_LARGE = "drawing coordinate does not fit in a float"


def _fl(pair) -> float:
    try:
        return float(pair[0]) + float(pair[1]) * _SQRT3
    except OverflowError:
        raise DomainError(_TOO_LARGE)


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(_TOO_LARGE)
    s = "%.6f" % x
    return "0.000000" if s == "-0.000000" else s


def _loop(points):
    """Vertices ordered counterclockwise, starting from the lex-smallest."""
    if len(points) <= 2:
        return list(points)
    cx = sum(_fl(p[0]) for p in points) / len(points)
    cy = sum(_fl(p[1]) for p in points) / len(points)
    pts = sorted(points)
    start = pts[0]
    ordered = sorted(pts, key=lambda p: math.atan2(_fl(p[1]) - cy, _fl(p[0]) - cx))
    i = ordered.index(start)
    return ordered[i:] + ordered[:i]


def scene_for(rs: RootSystem, dark: Optional[Polyhedron],
              light: Optional[Polyhedron] = None,
              weights: Optional[WeightSystem] = None,
              scale: int = 100) -> SvgScene:
    """Walls, weight hull, light and dark regions, and weight markers."""
    to_draw = _draw_map(rs, scale)
    scene = SvgScene()

    extent = Q(2)
    for region in (dark, light):
        if region is not None and not region.empty:
            for p in region.points:
                for c in p:
                    extent = max(extent, abs(c))
    starred_weights = []
    if weights is not None:
        starred_weights = sorted({star_linear(rs, w) for w in weights.entries})
        for w in starred_weights:
            for c in w:
                extent = max(extent, abs(c))

    # dashed reflection walls through the origin, one per positive root
    for alpha in rs.positive_roots:
        check = rs._coroot_of[alpha]
        direction = (-check[1], check[0])
        end = to_draw(vscale(direction, 2 * extent))
        neg = to_draw(vscale(direction, -2 * extent))
        scene.segments.append((neg, end))

    if starred_weights:
        wh = _hull(starred_weights)
        scene.polygons.append(
            (STYLE_WEIGHT_HULL, _loop([to_draw(p) for p in wh.points])))

    for style, region in ((STYLE_LIGHT, light), (STYLE_DARK, dark)):
        if region is None or region.empty:
            continue
        scene.polygons.append((style, _loop([to_draw(p) for p in region.points])))

    if weights is not None:
        dots = sorted({star_linear(rs, w) for w, _ in weights.dominant_entries.items()})
        dotset = set(dots)
        for w in dots:
            scene.markers.append((to_draw(w), "dot", ""))
        for i, name in ((0, "pi1"), (1, "pi2")):
            pi = tuple(Q(1) if j == i else Q(0) for j in range(2))
            if pi not in dotset:
                scene.markers.append((to_draw(pi), "square", name))
    return scene


def emit_svg(scene: SvgScene) -> str:
    """Deterministic SVG 1.1 document; viewBox fits content with 5% margin."""
    xs: List[float] = []
    ys: List[float] = []

    def see(pt):
        xs.append(_fl(pt[0]))
        ys.append(-_fl(pt[1]))

    for a, b in scene.segments:
        see(a)
        see(b)
    for _, loop in scene.polygons:
        for p in loop:
            see(p)
    for p, _, _ in scene.markers:
        see(p)
    if not xs:
        xs = [0.0]
        ys = [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    mx = 0.05 * max(x1 - x0, 1.0)
    my = 0.05 * max(y1 - y0, 1.0)
    vb = (x0 - mx, y0 - my, (x1 - x0) + 2 * mx, (y1 - y0) + 2 * my)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">'
        % tuple(_fmt(v) for v in vb))
    for a, b in scene.segments:
        out.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#000000" '
            'stroke-width="1" stroke-dasharray="6,4"/>'
            % (_fmt(_fl(a[0])), _fmt(-_fl(a[1])), _fmt(_fl(b[0])), _fmt(-_fl(b[1]))))
    for style, loop in scene.polygons:
        pts = " ".join("%s,%s" % (_fmt(_fl(p[0])), _fmt(-_fl(p[1]))) for p in loop)
        if style == STYLE_WEIGHT_HULL:
            out.append('<polygon class="%s" points="%s" fill="none" stroke="#000000" stroke-width="1.5"/>' % (style, pts))
        elif len(loop) == 1:
            out.append('<circle class="%s" cx="%s" cy="%s" r="3" fill="%s"/>'
                       % (style, _fmt(_fl(loop[0][0])), _fmt(-_fl(loop[0][1])), _FILL[style]))
        elif len(loop) == 2:
            out.append('<line class="%s" x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="4"/>'
                       % (style, _fmt(_fl(loop[0][0])), _fmt(-_fl(loop[0][1])),
                          _fmt(_fl(loop[1][0])), _fmt(-_fl(loop[1][1])), _FILL[style]))
        else:
            out.append('<polygon class="%s" points="%s" fill="%s" stroke="#000000" stroke-width="1"/>'
                       % (style, pts, _FILL[style]))
    for p, glyph, label in scene.markers:
        x, y = _fl(p[0]), -_fl(p[1])
        if glyph == "dot":
            out.append('<circle cx="%s" cy="%s" r="4" fill="#000000"/>' % (_fmt(x), _fmt(y)))
        else:
            out.append('<rect x="%s" y="%s" width="8" height="8" fill="#000000"/>'
                       % (_fmt(x - 4.0), _fmt(y - 4.0)))
        if label:
            out.append('<text x="%s" y="%s" font-size="14">%s</text>'
                       % (_fmt(x + 6.0), _fmt(y - 6.0), label))
    out.append("</svg>")
    return "\n".join(out) + "\n"
