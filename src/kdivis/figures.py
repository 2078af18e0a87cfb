"""Preset phase diagrams.

* ``fig1`` -- two slices of the constant-rate Pauli-channel rate space
  (``g3 = +0.5`` and ``g3 = -0.5``), filled from the analytic region
  predicates and cross-checked against the numeric classifier on a
  deterministic sublattice away from the region boundaries.
* ``fig2`` -- C-NOT-controlled qubit in the gamma-a plane.
* ``fig3`` -- amplitude damping in the gamma0-lambda plane. The horizon is
  long (100) so that cells one grid spacing above the ``gamma0 = lambda/2``
  line still show the first zero of G inside the window.
* ``fig4`` -- superradiant pair in the x-a plane; the x axis is laid out so
  that pi, 2 pi and 3 pi are exact grid columns.

Each figure writes CSV and/or SVG files through an atomic temp-file rename.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
from pathlib import Path

from . import divisibility, models, sweep
from .errors import KdivisError

__all__ = ["FIGURES", "FORMATS", "generate_figure", "write_grid", "atomic_write_text"]

FIGURES = ("fig1", "fig2", "fig3", "fig4")
FORMATS = ("csv", "svg", "both")

#: rate-space extent and resolution of the fig1 slices
_FIG1_RANGE = (-1.0, 1.0)
_FIG1_N = 101
_FIG1_MARGIN = 0.05
_FIG1_CHECK_STRIDE = 10


def atomic_write_text(path, text: str) -> Path:
    """Write via a temp file in the target directory plus rename. A new file
    gets mode 0o666 less the umask; an overwritten one keeps its mode."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        mode = stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_grid(grid: sweep.PhaseDiagramGrid, stem, fmt: str = "both") -> list[Path]:
    """Write ``grid`` to ``<stem>.csv`` and/or ``<stem>.svg``; returns the paths.
    The suffix is appended, so a dot in the stem's name stays part of it."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return [atomic_write_text(f"{stem}.{ext}", encode(grid))
            for ext, encode in (("csv", sweep.encode_csv), ("svg", sweep.encode_svg))
            if fmt in (ext, "both")]


def figure_specs(name: str) -> list[sweep.GridSpec]:
    """Sweep specs behind a figure name (fig1 returns its two slices)."""
    if name == "fig1":
        lo, hi = _FIG1_RANGE
        return [
            sweep.GridSpec(
                family="pauli",
                x=sweep.ParamRange("g1", lo, hi, _FIG1_N),
                y=sweep.ParamRange("g2", lo, hi, _FIG1_N),
                fixed={"g3": f"const:{g3:g}"},
                horizon=2.0, n_steps=200,
            )
            for g3 in (0.5, -0.5)
        ]
    if name == "fig2":
        return [sweep.GridSpec(
            family="cnot",
            x=sweep.ParamRange("gamma", 0.01, 1.0, 41),
            y=sweep.ParamRange("a", 0.0, 1.0, 41),
            fixed={"J": 1.0},
            horizon=10.0, n_steps=500,
        )]
    if name == "fig3":
        return [sweep.GridSpec(
            family="ad",
            x=sweep.ParamRange("gamma0", 0.05, 2.0, 101),
            y=sweep.ParamRange("lambda", 0.1, 2.0, 101),
            fixed={},
            horizon=100.0, n_steps=500,
        )]
    if name == "fig4":
        return [sweep.GridSpec(
            family="superradiance",
            x=sweep.ParamRange("x", 0.05 * math.pi, 3.0 * math.pi, 60),
            y=sweep.ParamRange("a", 0.0, 1.0, 41),
            fixed={"gamma0": 1.0},
            horizon=10.0, n_steps=500,
        )]
    raise ValueError(f"unknown figure {name!r}; expected one of {FIGURES}")


def _fig1_grid(spec: sweep.GridSpec) -> sweep.PhaseDiagramGrid:
    """Analytic region fill for one constant-rate slice, cross-checked."""
    g3 = float(spec.fixed["g3"].split(":", 1)[1])
    cells = []
    for g2 in spec.y.values():
        for g1 in spec.x.values():
            pd = divisibility.constant_pauli_class(g1, g2, g3)
            margin = min(abs(g1), abs(g2), abs(g3),
                         abs(g1 + g2), abs(g2 + g3), abs(g3 + g1))
            cells.append(sweep.CellResult(
                x=float(g1), y=float(g2), pd_class=str(pd),
                near_boundary=bool(margin < _FIG1_MARGIN),
                blp=None, rhp=None, singular_count=0))
    grid = sweep.PhaseDiagramGrid(spec=spec, cells=cells)
    _fig1_cross_check(grid, g3)
    return grid


def _fig1_cross_check(grid: sweep.PhaseDiagramGrid, g3: float) -> None:
    """Numeric classification must agree with the analytic fill on a
    sublattice of cells with margin from every region boundary."""
    spec = grid.spec
    for iy in range(0, spec.y.n, _FIG1_CHECK_STRIDE):
        for ix in range(0, spec.x.n, _FIG1_CHECK_STRIDE):
            cell = grid.cell(ix, iy)
            if cell.near_boundary:
                continue
            model = models.PauliChannelModel.constant(cell.x, cell.y, g3)
            verdict = divisibility.classify(model, spec.horizon, spec.n_steps)
            if str(verdict.pd_class) != cell.pd_class:
                raise KdivisError(
                    f"numeric cross-check failed at (g1={cell.x:g}, g2={cell.y:g}, "
                    f"g3={g3:g}): analytic {cell.pd_class}, numeric {verdict.pd_class}")


def generate_figure(name: str, out_dir, fmt: str = "both", jobs: int | None = None) -> list[Path]:
    """Regenerate one figure; returns the written paths."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    specs = figure_specs(name)
    # an unwritable directory fails here, before the first cell is evaluated
    Path(out_dir).mkdir(parents=True, exist_ok=True)

    written = []
    for idx, spec in enumerate(specs):
        if name == "fig1":
            grid = _fig1_grid(spec)
            stem = f"fig1_g3_{'pos' if idx == 0 else 'neg'}"
        else:
            grid = sweep.run_sweep(spec, compute_measures=True, jobs=jobs)
            stem = name
        written += write_grid(grid, Path(out_dir, stem), fmt)
    return written
