"""Parallel two-parameter sweeps producing phase-diagram data.

Cells are independent pure computations. Each grid row is one task of a
process pool, and the order-preserving ``pool.map`` returns the rows in
row-major order, so the output is identical for any worker count; a cell
that fails records an ERR marker instead of aborting the sweep.

The process keeps one pool. The first sweep with ``jobs > 1`` starts it,
and later sweeps with the same worker count reuse it; a different count,
or a worker that died, replaces it. Reuse pays off where one process runs
many small sweeps, as an interactive session does: a two-worker pool
takes about 10 ms to start, and a 6x6 composite sweep about 25 ms of
work. A ``kdivis sweep`` run starts one pool either way. A sweep holds
the pool until it ends, so sweeps from other threads wait. The workers
start with the pool; under the fork start method (the Linux default
before Python 3.14) they keep the package state of that moment. They
exit with the interpreter, or within a second of its death by a signal.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat

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
    """Everything needed to reproduce one phase diagram, under the verdict
    tolerance and detection level of ``config.DEFAULT``."""

    family: str
    x: ParamRange
    y: ParamRange
    fixed: dict
    horizon: float
    n_steps: int = 500
    epsilon: float | None = None
    n_pairs: int = 64

    def __post_init__(self):
        if self.family not in models.MODEL_FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        names = models.MODEL_FAMILIES[self.family].names
        for axis in (self.x, self.y):
            if axis.name not in names:
                raise ValueError(
                    f"{axis.name!r} is not a parameter of family {self.family!r}")
            models.check_count(f"axis {axis.name!r} n", axis.n, 2)
            if not (math.isfinite(axis.lo) and math.isfinite(axis.hi)):
                raise ValueError(f"axis {axis.name!r} bounds must be finite")
            if not axis.lo < axis.hi:
                raise ValueError("axis range must have min < max")
        if self.x.name == self.y.name:
            raise ValueError("the two axes must bind different parameters")
        axes, fixed = {self.x.name, self.y.name}, set(self.fixed)
        for problem, keys in (("unknown", fixed - names), ("axis-shadowing", axes & fixed),
                              ("missing", names - axes - fixed)):
            if keys:
                raise ValueError(f"sweep has {problem} fixed parameter(s) {sorted(keys)}")
        for key, val in self.fixed.items():
            # fixed values cross process boundaries and serialize to JSON
            if not isinstance(val, (str, int, float)):
                raise ValueError(
                    f"fixed parameter {key!r} must be a number or a rate "
                    f"vocabulary string, got {type(val).__name__}")
            try:
                if models.MODEL_PARAMS[key].rate:
                    models.RateFn.of(val)
                elif not math.isfinite(float(val)):
                    raise ValueError(f"must be finite, got {val}")
            except ValueError as exc:
                raise ValueError(f"fixed parameter {key!r}: {exc}") from None
        models.check_time_grid(self.horizon, self.n_steps, self.epsilon)
        models.check_count("n_pairs", self.n_pairs, 1)

    def cell_model(self, xv: float, yv: float):
        params = dict(self.fixed)
        params[self.x.name] = xv
        params[self.y.name] = yv
        return models.model_from_params(self.family, params)


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
    """Row-major cells (y outer, x inner) plus the spec that produced them."""

    spec: GridSpec
    cells: list[CellResult]

    def __post_init__(self):
        n_y, n_x = self.shape()
        if len(self.cells) != n_x * n_y:
            raise ValueError("cell count does not match the grid dimensions")

    def shape(self) -> tuple[int, int]:
        return self.spec.y.n, self.spec.x.n

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
    """Worker count: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # a taskset or cpuset pin counts
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluate_cell(spec: GridSpec, xv: float, yv: float,
                   compute_measures: bool) -> CellResult:
    try:
        model = spec.cell_model(xv, yv)
        grid = models.propagator_grid(model, spec.horizon, spec.n_steps, spec.epsilon)
        scan = divisibility.complement_scan(grid)
        verdict = divisibility.verdict_from_scan(scan)
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


def _sweep_row(spec: GridSpec, iy: int, compute_measures: bool) -> list[CellResult]:
    yv = spec.y.values()[iy]
    return [_evaluate_cell(spec, xv, yv, compute_measures) for xv in spec.x.values()]


#: the process's worker pool and its worker count, started by the first
#: sweep with jobs > 1; a sweep holds _pool_lock while it uses the pool, and
#: concurrent.futures joins the pool at interpreter exit
_pool: ProcessPoolExecutor | None = None
_pool_jobs = 0
_pool_lock = threading.Lock()


def _exit_with_parent() -> None:
    """Worker initializer: exit once the process that started the worker is
    gone. A signal that kills it skips the exit hook, and an idle worker
    would otherwise wait for tasks forever."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pooled_rows(spec: GridSpec, compute_measures: bool, jobs: int) -> list:
    """Every row of ``spec`` from the process's pool of ``jobs`` workers,
    which is started, or replaced when ``jobs`` changes.

    A worker of a reused pool may have died while the pool sat idle, so a
    reused pool that turns out broken is replaced and the rows run once
    more; a fresh pool that breaks is shut down and raises
    ``BrokenProcessPool``.
    """
    global _pool, _pool_jobs
    with _pool_lock:
        reused = _pool is not None and _pool_jobs == jobs
        while True:
            if not reused:
                if _pool is not None:
                    _pool.shutdown()
                    _pool = None
                _pool = ProcessPoolExecutor(max_workers=jobs, initializer=_exit_with_parent)
                _pool_jobs = jobs
            try:
                return list(_pool.map(_sweep_row, repeat(spec), range(spec.y.n),
                                      repeat(compute_measures)))
            except BrokenProcessPool:
                if not reused:
                    _pool.shutdown()
                    _pool = None
                    raise
                reused = False


def run_sweep(
    spec: GridSpec,
    compute_measures: bool = False,
    jobs: int | None = None,
) -> PhaseDiagramGrid:
    """Evaluate every grid cell; deterministic regardless of ``jobs``.

    ``jobs``, an integer of at least 1, is capped at the row count. One
    job runs in this process; more send one row per task to the process's
    reused worker pool (see the module docstring), which sweeps in other
    threads wait for. A worker that dies during the sweep raises
    ``BrokenProcessPool``, and the next sweep runs on a fresh pool.
    """
    if jobs is None:
        jobs = default_jobs()
    models.check_count("jobs", jobs, 1)
    jobs = min(jobs, spec.y.n)
    if jobs == 1:
        parts = [_sweep_row(spec, iy, compute_measures) for iy in range(spec.y.n)]
    else:
        parts = _pooled_rows(spec, compute_measures, jobs)
    return PhaseDiagramGrid(spec=spec, cells=[c for part in parts for c in part])


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


def encode_svg(grid: PhaseDiagramGrid) -> str:
    """Standalone SVG heatmap: one rect per cell, colored by class from
    :data:`PALETTE`.

    When BLP values are present and the detection threshold splits the PD0
    region (some PD0 cells detected, some not), the threshold level set is
    overlaid as a dashed curve.
    """
    spec = grid.spec
    n_y, n_x = grid.shape()
    title = f"{spec.family}: {spec.x.name} vs {spec.y.name}"
    fixed = ", ".join(f"{k}={v}" for k, v in sorted(spec.fixed.items()))
    if fixed:
        title += f"  ({fixed})"
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
            color = PALETTE.get(c.pd_class, PALETTE["ERR"])
            out.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.1:.2f}" '
                       f'height="{ch + 0.1:.2f}" fill="{color}"/>')

    # frame and axis labels
    out.append(f'<rect x="{left:.1f}" y="{top:.1f}" width="{_PLOT_W:.1f}" '
               f'height="{_PLOT_H:.1f}" fill="none" stroke="black" stroke-width="1"/>')
    bottom_y = top + _PLOT_H
    out.append(f'<text x="{left + _PLOT_W / 2:.1f}" y="{bottom_y + 40:.1f}" '
               f'font-family="sans-serif" font-size="14" text-anchor="middle">'
               f'{spec.x.name}</text>')
    out.append(f'<text x="20" y="{top + _PLOT_H / 2:.1f}" font-family="sans-serif" '
               f'font-size="14" text-anchor="middle" '
               f'transform="rotate(-90 20 {top + _PLOT_H / 2:.1f})">{spec.y.name}</text>')
    for val, px in ((spec.x.lo, left + cw / 2), (spec.x.hi, left + _PLOT_W - cw / 2)):
        out.append(f'<text x="{px:.1f}" y="{bottom_y + 18:.1f}" font-family="sans-serif" '
                   f'font-size="12" text-anchor="middle">{val:.6g}</text>')
    for val, py in ((spec.y.lo, bottom_y - ch / 2), (spec.y.hi, top + ch / 2)):
        out.append(f'<text x="{left - 8:.1f}" y="{py + 4:.1f}" font-family="sans-serif" '
                   f'font-size="12" text-anchor="end">{val:.6g}</text>')

    # legend
    lx = left + _PLOT_W - 150
    for k, name in enumerate(("PD2", "PD1", "PD0")):
        out.append(f'<rect x="{lx + 52 * k:.1f}" y="{top - 30:.1f}" width="12" height="12" '
                   f'fill="{PALETTE[name]}" stroke="black" stroke-width="0.5"/>')
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
    thr = config.DEFAULT.detection
    detected = {c.blp > thr for c in grid.cells if c.pd_class == "PD0" and c.blp is not None}
    # a level that some PD0 cells pass and some do not splits the region
    return _marching_squares(grid.field("blp"), thr) if len(detected) == 2 else []
