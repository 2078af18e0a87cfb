"""Correctness checks on the outputs the benchmark measures.

Every check names the cell or call it failed on; the runner counts each
failing cell or call once in ``failed``. Checks against the committed
reference only run for the default seed at full size; the invariants run
for every seed.

Tolerances against the reference: classes match exactly unless either side
flags the cell near-boundary; BLP and RHP agree within ``REL_TOL`` relative
plus ``ABS_TOL`` absolute; singular step counts within ``SINGULAR_TOL``.
"""

from __future__ import annotations

import math

import numpy as np

from kdivis import config

CSV_HEADER = "x,y,class,near_boundary,blp,rhp,singular_count"
CLASSES = ("PD0", "PD1", "PD2")
DETECTION = config.DEFAULT.detection

REL_TOL = 1e-6
ABS_TOL = 1e-9
SINGULAR_TOL = 2

#: cells whose first zero of G lies this many time steps or fewer from the
#: horizon are not held to the analytic amplitude-damping predicate: the
#: violation after the zero may not fit inside the window
AD_ZERO_MARGIN_STEPS = 2

#: constant-rate Pauli entries closer than this to a region boundary are not
#: held to the analytic region predicate (the margin fig1 uses)
PAULI_MARGIN = 0.05


def parse_csv(text: str) -> list[dict] | None:
    """Cells of a phase-diagram CSV, or None if the header is wrong.

    Deliberately not ``kdivis.sweep.parse_csv``: the check must not rely on
    the parser of the program it checks.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    cells = []
    for ln in lines[1:]:
        x, y, cls, nb, blp, rhp, sc = (ln.split(",") + [""] * 7)[:7]
        try:
            cells.append({"x": float(x), "y": float(y), "class": cls, "near": nb == "1",
                          "blp": float(blp) if blp else None,
                          "rhp": float(rhp) if rhp else None,
                          "singular": int(sc)})
        except ValueError:
            cells.append({"x": math.nan, "y": math.nan, "class": "ERR", "near": False,
                          "blp": None, "rhp": None, "singular": 0})
    return cells


def close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def ad_first_zero(gamma0: float, lam: float) -> float | None:
    """First zero of the survival amplitude G, None on the monotonic branch."""
    if gamma0 <= lam / 2.0:
        return None
    w = math.sqrt(2.0 * gamma0 * lam - lam * lam)
    return 2.0 * (math.pi - math.atan(w / lam)) / w


def ad_expected_class(gamma0: float, lam: float, horizon: float, dt: float) -> str | None:
    """PD0 iff G has a zero inside the window, PD2 otherwise; None when the
    zero sits too close to the horizon to decide."""
    t0 = ad_first_zero(gamma0, lam)
    if t0 is None or t0 > horizon + AD_ZERO_MARGIN_STEPS * dt:
        return "PD2"
    if t0 < horizon - AD_ZERO_MARGIN_STEPS * dt:
        return "PD0"
    return None


def pauli_constant_class(g: tuple[float, float, float]) -> str | None:
    """Analytic region of a constant-rate Pauli channel, None near a boundary."""
    sums = (g[0] + g[1], g[1] + g[2], g[2] + g[0])
    if min(abs(v) for v in (*g, *sums)) < PAULI_MARGIN:
        return None
    if min(g) >= 0.0:
        return "PD2"
    return "PD1" if min(sums) >= 0.0 else "PD0"


def _value_errors(cls: str | None, blp: float | None, rhp: float | None) -> list[str]:
    """Range checks plus the two measure invariants; None skips a value."""
    errs = []
    if cls is not None and cls not in CLASSES:
        errs.append(f"class {cls!r}")
    for name, v in (("blp", blp), ("rhp", rhp)):
        if v is not None and not (math.isfinite(v) and v >= 0.0):
            errs.append(f"{name} {v!r}")
    if blp is not None and cls is not None and blp > DETECTION and cls != "PD0":
        errs.append(f"BLP detects ({blp:.3g}) but class is {cls}")
    if rhp is not None and cls == "PD2" and rhp > DETECTION:
        errs.append(f"PD2 with RHP detection ({rhp:.3g})")
    return errs


def check_sweep(cfg: dict, csv_text: str, svg_text: str,
                reference_csv: str | None) -> tuple[int, list[str]]:
    """Check one ``kdivis sweep`` output; returns (cells, failure messages).

    A message starting with ``cell <i>`` fails that cell; any other fails
    every cell of the sweep.
    """
    sx, sy = cfg["sweep"]["x"], cfg["sweep"]["y"]
    family = cfg["model"]["family"]
    n_cells = sx["n"] * sy["n"]
    cells = parse_csv(csv_text)
    if cells is None or len(cells) != n_cells:
        return n_cells, ["CSV header or row count wrong"]
    if not (svg_text.startswith("<svg") and svg_text.rstrip().endswith("</svg>")
            and svg_text.count("<rect ") >= n_cells):
        return n_cells, ["SVG incomplete"]
    ref = parse_csv(reference_csv) if reference_csv is not None else None
    if reference_csv is not None and (ref is None or len(ref) != n_cells):
        return n_cells, ["reference snapshot does not match the sweep shape"]

    xs = np.linspace(sx["min"], sx["max"], sx["n"])
    ys = np.linspace(sy["min"], sy["max"], sy["n"])
    horizon, steps = cfg["run"]["horizon"], cfg["run"]["steps"]
    errors = []
    for i, c in enumerate(cells):
        errs = []
        ex, ey = xs[i % sx["n"]], ys[i // sx["n"]]
        if not (abs(c["x"] - ex) <= 1e-8 * max(1.0, abs(ex))
                and abs(c["y"] - ey) <= 1e-8 * max(1.0, abs(ey))):
            errs.append(f"at ({c['x']}, {c['y']}), expected ({ex}, {ey})")
        if c["blp"] is None or c["rhp"] is None:
            errs.append("measures missing")
        errs += _value_errors(c["class"], c["blp"], c["rhp"])
        if family == "ad" and not c["near"]:
            want = ad_expected_class(c["x"], c["y"], horizon, horizon / steps)
            if want is not None and c["class"] != want:
                errs.append(f"class {c['class']}, analytic {want}")
        if ref is not None:
            r = ref[i]
            if (c["x"], c["y"]) != (r["x"], r["y"]):
                errs.append("axis points differ from the reference")
            if c["class"] != r["class"] and not (c["near"] or r["near"]):
                errs.append(f"class {c['class']}, reference {r['class']}")
            if not (close(c["blp"], r["blp"]) and close(c["rhp"], r["rhp"])):
                errs.append(f"blp/rhp {c['blp']}/{c['rhp']}, "
                            f"reference {r['blp']}/{r['rhp']}")
            if abs(c["singular"] - r["singular"]) > SINGULAR_TOL:
                errs.append(f"singular {c['singular']}, reference {r['singular']}")
        errors += [f"cell {i} ({family}): {e}" for e in errs]
    return n_cells, errors


def failed_cells(n_cells: int, errors: list[str]) -> int:
    """Number of cells the messages of :func:`check_sweep` fail."""
    if any(not e.startswith("cell ") for e in errors):
        return n_cells
    return len({e.split(" ", 2)[1] for e in errors})


# ---------------------------------------------------------------------------
# One-off calls
# ---------------------------------------------------------------------------

_PRESETS = {
    ("const:1", "const:1", "tanh-neg"): "hall",
    ("const:1", "sin", "sin-neg"): "sine",
}


def check_call(entry: dict, kind: str, out: dict, ref: dict | None) -> list[str]:
    """Check one call's summarised output against its entry and reference."""
    cls = out.get("class")
    errs = _value_errors(cls, out.get("blp"), out.get("rhp"))
    params = entry["params"]
    if entry["family"] == "pauli":
        rates = (params["g1"], params["g2"], params["g3"])
        if rates in _PRESETS:
            # both eternal presets are PD1 yet invisible to BLP
            if kind == "classify" and cls != "PD1":
                errs.append(f"{_PRESETS[rates]} classified {cls}")
            if kind == "blp" and out["blp"] > DETECTION:
                errs.append(f"{_PRESETS[rates]} detected by BLP")
            if kind == "rhp" and out["rhp"] <= DETECTION:
                errs.append(f"{_PRESETS[rates]} missed by RHP")
        elif kind == "classify" and all(r.startswith("const:") for r in rates):
            want = pauli_constant_class(tuple(float(r[6:]) for r in rates))
            if want is not None and not out["near"] and cls != want:
                errs.append(f"class {cls}, analytic {want}")
    if entry["family"] == "ad" and kind == "classify" and not out["near"]:
        want = ad_expected_class(params["gamma0"], params["lambda"], entry["horizon"],
                                 entry["horizon"] / entry["steps"])
        if want is not None and cls != want:
            errs.append(f"class {cls}, analytic {want}")
    if ref is not None:
        for key, val in ref.items():
            got = out.get(key)
            if key == "class":
                ok = got == val or out["near"] or ref["near"]
            elif key == "singular":
                ok = abs(got - val) <= SINGULAR_TOL
            elif key == "near":
                ok = True
            else:
                ok = close(got, val)
            if not ok:
                errs.append(f"{key} {got}, reference {val}")
    return errs


def check_entry(entry: dict, outs: dict) -> list[str]:
    """The measure invariants across the calls made on one pool entry."""
    cls = outs.get("classify", {}).get("class")
    # BLP always steps on the grid, so only an on-grid verdict must agree
    blp = outs.get("blp", {}).get("blp") if entry["epsilon"] is None else None
    return _value_errors(cls, blp, outs.get("rhp", {}).get("rhp"))
