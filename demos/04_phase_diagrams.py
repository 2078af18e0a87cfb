#!/usr/bin/env python3
"""Produce small phase diagrams for all four model families.

Writes CSV + SVG into demos/output/. These are coarse, fast versions of the
full figures; `kdivis figure fig1|fig2|fig3|fig4` regenerates the
full-resolution ones.
"""

import time
from pathlib import Path

import numpy as np

from kdivis import figures, sweep

OUT = Path(__file__).parent / "output"

SPECS = {
    "pauli_slice": sweep.GridSpec(
        family="pauli",
        x=sweep.ParamRange("g1", -1.0, 1.0, 41),
        y=sweep.ParamRange("g2", -1.0, 1.0, 41),
        fixed={"g3": "const:-0.5"},
        horizon=2.0, n_steps=200),
    "cnot": sweep.GridSpec(
        family="cnot",
        x=sweep.ParamRange("gamma", 0.01, 1.0, 21),
        y=sweep.ParamRange("a", 0.0, 1.0, 21),
        fixed={"J": 1.0},
        horizon=10.0, n_steps=400),
    "amplitude_damping": sweep.GridSpec(
        family="ad",
        x=sweep.ParamRange("gamma0", 0.05, 2.0, 41),
        y=sweep.ParamRange("lambda", 0.1, 2.0, 41),
        fixed={},
        horizon=100.0, n_steps=500),
    "superradiance": sweep.GridSpec(
        family="superradiance",
        x=sweep.ParamRange("x", 0.05 * np.pi, 3.0 * np.pi, 30),
        y=sweep.ParamRange("a", 0.0, 1.0, 11),
        fixed={"gamma0": 1.0},
        horizon=10.0, n_steps=400),
}


def main():
    OUT.mkdir(exist_ok=True)
    for name, spec in SPECS.items():
        start = time.perf_counter()
        grid = sweep.run_sweep(spec, compute_measures=True)
        elapsed = time.perf_counter() - start
        counts = {}
        for cell in grid.cells:
            counts[cell.pd_class] = counts.get(cell.pd_class, 0) + 1
        figures.write_grid(grid, OUT / name)
        print(f"{name:18s} {spec.x.n}x{spec.y.n} cells in {elapsed:5.1f}s   {counts}")
    print(f"\nwrote CSV + SVG pairs into {OUT}/")


if __name__ == "__main__":
    main()
