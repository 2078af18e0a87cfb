"""Parallel two-parameter sweeps producing phase-diagram data.

Cells are independent pure computations. Rows are statically partitioned
over workers and reassembled in row-major order, so the output is identical
for any worker count; a cell that fails records an ERR marker instead of
aborting the sweep.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import config, divisibility, measures, models
from .errors import KdivisError

__all__ = [
    "ParamRange",
    "GridSpec",
    "CellResult",
    "PhaseDiagramGrid",
    "run_sweep",
    "encode_csv",
    "parse_csv",
    "encode_svg",
    "default_jobs",
    "PALETTE",
]

#: per-family parameter names a sweep axis may bind
SWEEP_PARAMS = {
    "pauli": ("g1", "g2", "g3"),
    "ad": ("gamma0", "lambda"),
    "cnot": ("J", "gamma", "a"),
    "superradiance": ("gamma0", "x", "a"),
}

#: figure colors: gray for PD2, blue for PD1, red for PD0
PALETTE = {
    "PD2": "#a0a0a0",
    "PD1": "#2c7bb6",
    "PD0": "#d7191c",
    "ERR": "#ffffff",
}


@dataclass(frozen=True)
class ParamRange:
    name: str
    lo: float
    hi: float
    n: int

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class GridSpec:
    """Everything needed to reproduce one phase diagram."""

    family: str
    x: ParamRange
    y: ParamRange
    fixed: dict
    horizon: float
    n_steps: int = 500
    epsilon: float | None = None
    #: absolute per-step witness tolerance; None for the eps-scaled default
    tol: float | None = None
    #: measure detection threshold; None for the configured default
    detection: float | None = None
    cond_threshold: float | None = None
    n_pairs: int = 64
    tolerances: config.Tolerances = config.DEFAULT

    def __post_init__(self):
        if self.family not in SWEEP_PARAMS:
            raise ValueError(f"unknown model family {self.family!r}")
        names = SWEEP_PARAMS[self.family]
        for axis in (self.x, self.y):
            if axis.name not in names:
                raise ValueError(
                    f"{axis.name!r} is not a parameter of family {self.family!r}")
            if axis.n < 2:
                raise ValueError("axis needs at least 2 points")
            if not axis.lo < axis.hi:
                raise ValueError("axis range must have min < max")
        if self.x.name == self.y.name:
            raise ValueError("the two axes must bind different parameters")
        for key, val in self.fixed.items():
            # fixed values cross process boundaries and serialize to JSON
            if not isinstance(val, (str, int, float)):
                raise ValueError(
                    f"fixed parameter {key!r} must be a number or a rate "
                    f"vocabulary string, got {type(val).__name__}")

    def cell_model(self, xv: float, yv: float):
        params = dict(self.fixed)
        params[self.x.name] = xv
        params[self.y.name] = yv
        return models.model_from_params(self.family, params)

    def detection_threshold(self) -> float:
        return self.tolerances.detection if self.detection is None else self.detection


@dataclass(frozen=True)
class CellResult:
    x: float
    y: float
    pd_class: str
    near_boundary: bool
    blp: float | None
    rhp: float | None
    singular_count: int
    error: str | None = None


@dataclass(frozen=True)
class PhaseDiagramGrid:
    """Row-major cells (y outer, x inner) plus the spec that produced them.

    Grids can also be assembled from bare cells (e.g. reparsed CSV) by
    passing ``spec=None`` with an explicit layout.
    """

    spec: GridSpec | None
    cells: list[CellResult]
    nx: int | None = None
    ny: int | None = None

    def __post_init__(self):
        n_y, n_x = self.shape()
        if len(self.cells) != n_x * n_y:
            raise ValueError("cell count does not match the grid dimensions")

    def shape(self) -> tuple[int, int]:
        if self.spec is not None:
            return self.spec.y.n, self.spec.x.n
        if self.nx is None or self.ny is None:
            raise ValueError("grid needs either a spec or an explicit layout")
        return self.ny, self.nx

    def cell(self, ix: int, iy: int) -> CellResult:
        n_y, n_x = self.shape()
        return self.cells[iy * n_x + ix]

    def classes(self) -> np.ndarray:
        n_y, n_x = self.shape()
        return np.array([c.pd_class for c in self.cells], dtype=object).reshape(n_y, n_x)

    def field(self, attr: str) -> np.ndarray:
        """Numeric cell attribute as a (n_y, n_x) array with NaN for missing."""
        n_y, n_x = self.shape()
        vals = [getattr(c, attr) for c in self.cells]
        return np.array([np.nan if v is None else float(v) for v in vals]).reshape(n_y, n_x)


def default_jobs() -> int:
    env = os.environ.get("KDIVIS_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _evaluate_cell(spec: GridSpec, xv: float, yv: float,
                   compute_measures: bool) -> CellResult:
    try:
        model = spec.cell_model(xv, yv)
        grid = models.propagator_grid(model, spec.horizon, spec.n_steps,
                                      spec.epsilon, spec.tolerances)
        scan = divisibility.complement_scan(grid, spec.cond_threshold,
                                            tolerances=spec.tolerances)
        verdict = divisibility.verdict_from_scan(scan, spec.tol, spec.tolerances)
        blp = rhp = None
        if compute_measures:
            blp = measures.blp_from_grid(grid, spec.n_pairs).measure
            rhp = measures.rhp_from_scan(scan).measure
        return CellResult(
            x=float(xv), y=float(yv), pd_class=str(verdict.pd_class),
            near_boundary=divisibility.near_boundary(verdict),
            blp=blp, rhp=rhp,
            singular_count=len(verdict.singular_times),
        )
    except (KdivisError, ValueError, ArithmeticError) as exc:
        # a named physical or numerical failure paints the cell ERR; any
        # other exception is a programming error and stops the sweep
        return CellResult(x=float(xv), y=float(yv), pd_class="ERR",
                          near_boundary=False, blp=None, rhp=None,
                          singular_count=0, error=str(exc) or type(exc).__name__)


def _sweep_rows(args) -> list[CellResult]:
    spec, iy_list, compute_measures = args
    xs = spec.x.values()
    ys = spec.y.values()
    out = []
    for iy in iy_list:
        for xv in xs:
            out.append(_evaluate_cell(spec, xv, ys[iy], compute_measures))
    return out


def run_sweep(
    spec: GridSpec,
    compute_measures: bool = False,
    jobs: int | None = None,
) -> PhaseDiagramGrid:
    """Evaluate every grid cell; deterministic regardless of ``jobs``."""
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, min(int(jobs), spec.y.n))
    row_ids = list(range(spec.y.n))
    if jobs == 1:
        cells = _sweep_rows((spec, row_ids, compute_measures))
    else:
        chunk = math.ceil(len(row_ids) / jobs)
        batches = [row_ids[i:i + chunk] for i in range(0, len(row_ids), chunk)]
        args = [(spec, batch, compute_measures) for batch in batches]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_sweep_rows, args))
        cells = [c for part in parts for c in part]
    return PhaseDiagramGrid(spec=spec, cells=cells)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return "" if v is None else f"{float(v):.9g}"


def encode_csv(grid: PhaseDiagramGrid) -> str:
    """Render cells row-major; numbers carry 9 significant digits."""
    lines = ["x,y,class,near_boundary,blp,rhp,singular_count"]
    for c in grid.cells:
        lines.append(
            f"{_fmt(c.x)},{_fmt(c.y)},{c.pd_class},{int(c.near_boundary)},"
            f"{_fmt(c.blp)},{_fmt(c.rhp)},{c.singular_count}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[CellResult]:
    """Inverse of :func:`encode_csv` at cell granularity."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = "x,y,class,near_boundary,blp,rhp,singular_count"
    if not lines or lines[0] != header:
        raise ValueError("not a phase-diagram CSV (bad header)")
    cells = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise ValueError(f"malformed row: {ln!r}")
        x, y, cls, nb, blp, rhp, sc = parts
        cells.append(CellResult(
            x=float(x), y=float(y), pd_class=cls, near_boundary=bool(int(nb)),
            blp=None if blp == "" else float(blp),
            rhp=None if rhp == "" else float(rhp),
            singular_count=int(sc)))
    return cells


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_MARGIN = dict(left=74.0, right=26.0, top=42.0, bottom=58.0)
_PLOT_W = 560.0
_PLOT_H = 430.0


def _interp(a: float, b: float, va: float, vb: float, level: float) -> float:
    if vb == va:
        return 0.5 * (a + b)
    return a + (b - a) * (level - va) / (vb - va)


def _marching_squares(field: np.ndarray, level: float) -> list[tuple]:
    """Level-set segments of a cell-centered field, in fractional grid
    coordinates (ix, iy). Blocks touching NaN cells are skipped.
    """
    n_y, n_x = field.shape
    segments = []
    for j in range(n_y - 1):
        for i in range(n_x - 1):
            bl, br = field[j, i], field[j, i + 1]
            tl, tr = field[j + 1, i], field[j + 1, i + 1]
            vals = (bl, br, tr, tl)
            if any(np.isnan(v) for v in vals):
                continue
            case = sum(1 << k for k, v in enumerate(vals) if v > level)
            if case in (0, 15):
                continue
            bottom = (_interp(i, i + 1, bl, br, level), float(j))
            right = (float(i + 1), _interp(j, j + 1, br, tr, level))
            top = (_interp(i, i + 1, tl, tr, level), float(j + 1))
            left = (float(i), _interp(j, j + 1, bl, tl, level))
            table = {
                1: [(left, bottom)], 2: [(bottom, right)], 3: [(left, right)],
                4: [(right, top)], 6: [(bottom, top)], 7: [(left, top)],
                8: [(top, left)], 9: [(top, bottom)], 11: [(top, right)],
                12: [(right, left)], 13: [(right, bottom)], 14: [(bottom, left)],
                5: [(left, bottom), (right, top)],
                10: [(bottom, right), (top, left)],
            }
            segments.extend(table[case])
    return segments


def encode_svg(grid: PhaseDiagramGrid, palette: dict | None = None) -> str:
    """Standalone SVG heatmap: one rect per cell, gray/blue/red by class.

    When BLP values are present and the detection threshold splits the PD0
    region (some PD0 cells detected, some not), the threshold level set is
    overlaid as a dashed curve.
    """
    if palette is None:
        palette = PALETTE
    spec = grid.spec
    n_y, n_x = grid.shape()
    if spec is not None:
        x_name, y_name = spec.x.name, spec.y.name
        x_lo, x_hi = spec.x.lo, spec.x.hi
        y_lo, y_hi = spec.y.lo, spec.y.hi
        title = f"{spec.family}: {x_name} vs {y_name}"
        fixed = ", ".join(f"{k}={v}" for k, v in sorted(spec.fixed.items()))
        if fixed:
            title += f"  ({fixed})"
    else:
        x_name, y_name = "x", "y"
        xs = [c.x for c in grid.cells]
        ys = [c.y for c in grid.cells]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        title = "phase diagram"
    cw = _PLOT_W / n_x
    ch = _PLOT_H / n_y
    left, top = _MARGIN["left"], _MARGIN["top"]
    width = _PLOT_W + left + _MARGIN["right"]
    height = _PLOT_H + top + _MARGIN["bottom"]

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    out.append(f'<text x="{width / 2:.1f}" y="24" font-family="sans-serif" '
               f'font-size="15" text-anchor="middle">{title}</text>')

    for iy in range(n_y):
        for ix in range(n_x):
            c = grid.cell(ix, iy)
            px = left + ix * cw
            py = top + (n_y - 1 - iy) * ch
            color = palette.get(c.pd_class, palette["ERR"])
            out.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.1:.2f}" '
                       f'height="{ch + 0.1:.2f}" fill="{color}"/>')

    # frame and axis labels
    out.append(f'<rect x="{left:.1f}" y="{top:.1f}" width="{_PLOT_W:.1f}" '
               f'height="{_PLOT_H:.1f}" fill="none" stroke="black" stroke-width="1"/>')
    bottom_y = top + _PLOT_H
    out.append(f'<text x="{left + _PLOT_W / 2:.1f}" y="{bottom_y + 40:.1f}" '
               f'font-family="sans-serif" font-size="14" text-anchor="middle">{x_name}</text>')
    out.append(f'<text x="20" y="{top + _PLOT_H / 2:.1f}" font-family="sans-serif" '
               f'font-size="14" text-anchor="middle" '
               f'transform="rotate(-90 20 {top + _PLOT_H / 2:.1f})">{y_name}</text>')
    for val, px in ((x_lo, left + cw / 2), (x_hi, left + _PLOT_W - cw / 2)):
        out.append(f'<text x="{px:.1f}" y="{bottom_y + 18:.1f}" font-family="sans-serif" '
                   f'font-size="12" text-anchor="middle">{val:.6g}</text>')
    for val, py in ((y_lo, bottom_y - ch / 2), (y_hi, top + ch / 2)):
        out.append(f'<text x="{left - 8:.1f}" y="{py + 4:.1f}" font-family="sans-serif" '
                   f'font-size="12" text-anchor="end">{val:.6g}</text>')

    # legend
    lx = left + _PLOT_W - 150
    for k, name in enumerate(("PD2", "PD1", "PD0")):
        out.append(f'<rect x="{lx + 52 * k:.1f}" y="{top - 30:.1f}" width="12" height="12" '
                   f'fill="{palette[name]}" stroke="black" stroke-width="0.5"/>')
        out.append(f'<text x="{lx + 52 * k + 16:.1f}" y="{top - 20:.1f}" '
                   f'font-family="sans-serif" font-size="12">{name}</text>')

    segs = _blp_contour_segments(grid)
    if segs:
        parts = []
        for (x1, y1), (x2, y2) in segs:
            px1 = left + (x1 + 0.5) * cw
            px2 = left + (x2 + 0.5) * cw
            py1 = top + (n_y - 0.5 - y1) * ch
            py2 = top + (n_y - 0.5 - y2) * ch
            parts.append(f"M {px1:.2f} {py1:.2f} L {px2:.2f} {py2:.2f}")
        out.append(f'<path d="{" ".join(parts)}" fill="none" stroke="black" '
                   f'stroke-width="1.5" stroke-dasharray="6 4"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _blp_contour_segments(grid: PhaseDiagramGrid) -> list[tuple]:
    cells = grid.cells
    if all(c.blp is None for c in cells):
        return []
    thr = (grid.spec.detection_threshold() if grid.spec is not None
           else config.DEFAULT.detection)
    pd0 = [c for c in cells if c.pd_class == "PD0" and c.blp is not None]
    detected = [c for c in pd0 if c.blp > thr]
    undetected = [c for c in pd0 if c.blp <= thr]
    if not detected or not undetected:
        return []
    return _marching_squares(grid.field("blp"), thr)
