"""Command-line driver.

Subcommands: ``classify``, ``blp``, ``rhp``, ``sweep``, ``figure``. Runs are
described by a JSON config (schema-validated, unknown keys rejected), by a
named preset, or by flags; flags override file values. Exit codes: 0 on
success, 1 on config errors, 2 on model/run errors or an exceeded cell
budget. Output files are written atomically.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import config, divisibility, figures, measures, models, sweep
from .errors import KdivisError

__all__ = ["main", "PRESETS", "CONFIG_SCHEMA", "load_run_config", "RunConfigError"]


class RunConfigError(Exception):
    """Invalid or unparsable run configuration (exit code 1)."""


_AXIS = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "n": {"type": "integer", "minimum": 2},
    },
    "required": ["name", "min", "max", "n"],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": list(models.MODEL_FAMILIES)},
                **{name: {"type": ["string", "number"] if p.rate else "number"}
                   for name, p in models.MODEL_PARAMS.items()},
            },
            "required": ["family"],
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"x": _AXIS, "y": _AXIS},
            "required": ["x", "y"],
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 2},
                "epsilon": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
                "pairs": {"type": "integer", "minimum": 1},
                "detection": {"type": "number", "exclusiveMinimum": 0},
                "jobs": {"type": "integer", "minimum": 1},
                "measures": {"type": "boolean"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "dir": {"type": "string"},
                "format": {"enum": ["csv", "svg", "both"]},
            },
        },
    },
}

PRESETS = {
    "pauli": {
        "model": {"family": "pauli", "g1": "const:1", "g2": "const:1", "g3": "const:1"},
        "run": {"horizon": 10.0},
    },
    "hall": {
        "model": {"family": "pauli", "g1": "const:1", "g2": "const:1", "g3": "tanh-neg"},
        "run": {"horizon": 10.0},
    },
    "sine": {
        "model": {"family": "pauli", "g1": "const:1", "g2": "sin", "g3": "sin-neg"},
        "run": {"horizon": 4.0 * math.pi},
    },
    "ad": {
        "model": {"family": "ad", "gamma0": 1.0, "lambda": 1.0},
        "run": {"horizon": 30.0},
    },
    "cnot": {
        "model": {"family": "cnot", "J": 1.0, "gamma": 0.1, "a": 0.5},
        "run": {"horizon": 10.0},
    },
    "superradiance": {
        "model": {"family": "superradiance", "gamma0": 1.0, "x": math.pi / 2, "a": 0.5},
        "run": {"horizon": 10.0},
    },
}


def _merge(base: dict, update: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in update.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def validate_config(cfg: dict) -> None:
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise RunConfigError(f"config field {where}: {exc.message}") from exc
    if "model" in cfg:
        _check_params(cfg["model"], allow_missing=True)
    for key, val in cfg.get("run", {}).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise RunConfigError(f"config field run/{key}: {val} is not finite")


def _check_params(model_cfg: dict, allow_missing: bool = False) -> None:
    family = models.MODEL_FAMILIES[model_cfg["family"]]
    try:
        family.check(model_cfg.keys() - {"family"}, allow_missing)
    except ValueError as exc:
        raise RunConfigError(str(exc)) from exc


def load_run_config(
    preset: str | None = None,
    config_path=None,
    overrides: dict | None = None,
) -> dict:
    """Assemble a validated config from preset, file and flag layers."""
    cfg: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise RunConfigError(f"unknown preset {preset!r}")
        cfg = copy.deepcopy(PRESETS[preset])
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise RunConfigError(f"cannot read config {config_path}: {exc}") from exc

        def reject_constant(name: str):
            # json accepts NaN, Infinity and -Infinity; no config value may be one
            raise RunConfigError(f"config {config_path}: {name} is not a finite number")

        try:
            file_cfg = json.loads(text, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise RunConfigError(
                f"config {config_path}: line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
        if not isinstance(file_cfg, dict):
            raise RunConfigError(f"config {config_path}: top level must be an object")
        cfg = _merge(cfg, file_cfg)
    if overrides:
        cfg = _merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def _flag_overrides(args) -> dict:
    out: dict = {}
    model = {name: getattr(args, p.attr) for name, p in models.MODEL_PARAMS.items()
             if getattr(args, p.attr, None) is not None}
    if model:
        out["model"] = model
    run = {}
    for flag, key in (("horizon", "horizon"), ("steps", "steps"),
                      ("epsilon", "epsilon"), ("tol", "tolerance"),
                      ("pairs", "pairs"), ("detection", "detection"),
                      ("jobs", "jobs")):
        val = getattr(args, flag, None)
        if val is not None:
            run[key] = val
    if getattr(args, "measures", False):
        run["measures"] = True
    if run:
        out["run"] = run
    output = {}
    if getattr(args, "out", None) is not None:
        output["path"] = str(args.out)
    if getattr(args, "format", None) is not None:
        output["format"] = args.format
    if output:
        out["output"] = output
    return out


def _build_model(cfg: dict):
    model_cfg = cfg.get("model")
    if model_cfg is None:
        raise RunConfigError("a model block (or preset) is required")
    _check_params(model_cfg)
    params = {k: v for k, v in model_cfg.items() if k != "family"}
    return models.model_from_params(model_cfg["family"], params)


def _run_block(cfg: dict) -> dict:
    run = dict(cfg.get("run", {}))
    if "horizon" not in run:
        raise RunConfigError("run.horizon is required (or pass --horizon)")
    run.setdefault("steps", 500)
    run.setdefault("epsilon", None)
    run.setdefault("tolerance", None)
    run.setdefault("pairs", 64)
    run.setdefault("detection", None)
    run.setdefault("jobs", None)
    run.setdefault("measures", False)
    try:
        models.check_time_grid(run["horizon"], run["steps"], run["epsilon"])
    except ValueError as exc:
        raise RunConfigError(str(exc)) from exc
    return run


def _grid_spec(cfg: dict) -> sweep.GridSpec:
    model_cfg = cfg.get("model")
    sweep_cfg = cfg.get("sweep")
    if model_cfg is None or sweep_cfg is None:
        raise RunConfigError("sweep runs need both a model block and a sweep block")
    run = _run_block(cfg)
    x = sweep.ParamRange(sweep_cfg["x"]["name"], sweep_cfg["x"]["min"],
                         sweep_cfg["x"]["max"], sweep_cfg["x"]["n"])
    y = sweep.ParamRange(sweep_cfg["y"]["name"], sweep_cfg["y"]["min"],
                         sweep_cfg["y"]["max"], sweep_cfg["y"]["n"])
    fixed = {k: v for k, v in model_cfg.items()
             if k != "family" and k not in (x.name, y.name)}
    try:
        return sweep.GridSpec(
            family=model_cfg["family"], x=x, y=y, fixed=fixed,
            horizon=run["horizon"], n_steps=run["steps"], epsilon=run["epsilon"],
            tol=run["tolerance"], detection=run["detection"], n_pairs=run["pairs"])
    except ValueError as exc:
        raise RunConfigError(str(exc)) from exc


def _jobs(jobs: int | None) -> int:
    """Worker count: ``jobs`` if set, else ``KDIVIS_JOBS`` or the CPU count."""
    if jobs is not None:
        return jobs
    try:
        return sweep.default_jobs()
    except ValueError as exc:
        raise RunConfigError(str(exc)) from exc


def _series_csv(times, values) -> str:
    lines = ["t,value"]
    for t, v in zip(times, values):
        sval = "" if (v is None or (isinstance(v, float) and math.isnan(v))) else f"{v:.9g}"
        lines.append(f"{t:.9g},{sval}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    cfg = load_run_config(args.preset, args.config, _flag_overrides(args))
    model = _build_model(cfg)
    run = _run_block(cfg)
    verdict = divisibility.classify(
        model, run["horizon"], run["steps"], run["epsilon"], run["tolerance"])
    print(f"class: {verdict.pd_class}")
    print(f"worst CP violation: {verdict.worst_cp_violation:.6e}")
    print(f"worst P violation: {verdict.worst_p_violation:.6e}")
    if verdict.singular_times:
        shown = ", ".join(f"{t:.6g}" for t in verdict.singular_times[:8])
        more = len(verdict.singular_times) - 8
        print(f"singular times: {shown}" + (f" (+{more} more)" if more > 0 else ""))
    else:
        print("singular times: none")
    return 0


def _cmd_blp(args) -> int:
    cfg = load_run_config(args.preset, args.config, _flag_overrides(args))
    model = _build_model(cfg)
    run = _run_block(cfg)
    result = measures.blp_measure(model, run["horizon"], run["steps"], run["pairs"])
    threshold = run["detection"] if run["detection"] is not None else config.DEFAULT.detection
    print(f"BLP measure: {result.measure:.6e}")
    print(f"detected: {'yes' if result.measure > threshold else 'no'} "
          f"(threshold {threshold:g})")
    print(f"argmax pair direction: [{result.argmax_pair[0]:.6f}, "
          f"{result.argmax_pair[1]:.6f}, {result.argmax_pair[2]:.6f}]")
    if args.out:
        best = result.sigma_series[:, np.argmax(result.directions @ result.argmax_pair)]
        path = figures.atomic_write_text(args.out, _series_csv(result.times[:-1], best))
        print(f"wrote {path}")
    return 0


def _cmd_rhp(args) -> int:
    cfg = load_run_config(args.preset, args.config, _flag_overrides(args))
    model = _build_model(cfg)
    run = _run_block(cfg)
    result = measures.rhp_measure(model, run["horizon"], run["steps"], run["epsilon"])
    threshold = run["detection"] if run["detection"] is not None else config.DEFAULT.detection
    print(f"RHP measure: {result.measure:.6e}")
    print(f"detected: {'yes' if result.measure > threshold else 'no'} "
          f"(threshold {threshold:g})")
    if result.singular_times:
        print(f"singular steps skipped: {len(result.singular_times)}")
    if args.out:
        path = figures.atomic_write_text(
            args.out, _series_csv(result.times, result.g_series.tolist()))
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_run_config(args.preset, args.config, _flag_overrides(args))
    spec = _grid_spec(cfg)
    run = _run_block(cfg)
    grid = sweep.run_sweep(spec, compute_measures=run["measures"], jobs=_jobs(run["jobs"]))
    output = cfg.get("output", {})
    stem = Path(output.get("path", "sweep"))
    fmt = output.get("format", "both")
    written = []
    if fmt in ("csv", "both"):
        written.append(figures.atomic_write_text(
            stem.with_suffix(".csv"), sweep.encode_csv(grid)))
    if fmt in ("svg", "both"):
        written.append(figures.atomic_write_text(
            stem.with_suffix(".svg"), sweep.encode_svg(grid)))
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_figure(args) -> int:
    cfg = load_run_config(None, args.config, _flag_overrides(args))
    # the preset figure fixes model, sweep and run; only these keys apply
    unread = [block for block in ("model", "sweep") if block in cfg]
    unread += [f"run.{key}" for key in cfg.get("run", {}) if key != "jobs"]
    unread += ["output.path"] if "path" in cfg.get("output", {}) else []
    if unread:
        raise RunConfigError(f"figure does not read config key(s) {unread}")
    fmt = args.format or cfg.get("output", {}).get("format", "both")
    out_dir = args.out_dir or cfg.get("output", {}).get("dir", ".")
    written = figures.generate_figure(
        args.name, out_dir, fmt=fmt, jobs=_jobs(cfg.get("run", {}).get("jobs")),
        max_cells=args.max_cells)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: the run and output flags in help order, each with its argparse settings
#: and the subcommands that read it; a subcommand takes no other flag
_FLAGS = (
    ("--pairs", dict(type=int, metavar="N"), {"blp", "sweep"}),
    ("--detection", dict(type=float, metavar="F"), {"blp", "rhp", "sweep"}),
    ("--config", dict(metavar="PATH", help="JSON run config"),
     {"classify", "blp", "rhp", "sweep", "figure"}),
    ("--out", dict(metavar="PATH", help="output path"), {"blp", "rhp", "sweep"}),
    ("--format", dict(choices=("csv", "svg", "both")), {"sweep", "figure"}),
    ("--horizon", dict(type=float, metavar="F"), {"classify", "blp", "rhp", "sweep"}),
    ("--steps", dict(type=int, metavar="N"), {"classify", "blp", "rhp", "sweep"}),
    ("--epsilon", dict(type=float, metavar="F"), {"classify", "rhp", "sweep"}),
    ("--tol", dict(type=float, metavar="F", help="absolute per-step witness tolerance"),
     {"classify", "sweep"}),
    ("--jobs", dict(type=int, metavar="N",
                    help="worker processes (default: KDIVIS_JOBS or CPU count)"),
     {"sweep", "figure"}),
    ("--measures", dict(action="store_true", help="also compute BLP/RHP per cell"),
     {"sweep"}),
)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("preset", nargs="?", choices=sorted(PRESETS),
                        help="model preset to start from")
    for name, p in models.MODEL_PARAMS.items():
        if p.rate:
            parser.add_argument(f"--{name}", dest=p.attr, metavar="RATE",
                                help="rate preset: const:c, a number, tanh-neg, sin, sin-neg")
        else:
            parser.add_argument(f"--{name}", dest=p.attr, type=float)


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags of ``_FLAGS`` that ``command`` reads."""
    for flag, kwargs, readers in _FLAGS:
        if command in readers:
            parser.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdivis",
        description="Divisibility classification, non-Markovianity measures "
                    "and phase diagrams for qubit dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
            ("classify", _cmd_classify, "classify one model into PD0/PD1/PD2"),
            ("blp", _cmd_blp, "trace-distance (BLP) measure of one model"),
            ("rhp", _cmd_rhp, "divisibility (RHP) measure of one model"),
            ("sweep", _cmd_sweep, "run a 2-parameter phase-diagram sweep")):
        p = sub.add_parser(command, help=help_text)
        _add_model_args(p)
        _add_flags(p, command)
        p.set_defaults(func=func)

    # no prefix matching here: "--out" must not pass for "--out-dir"
    p = sub.add_parser("figure", help="regenerate a preset figure", allow_abbrev=False)
    p.add_argument("name", choices=figures.FIGURES)
    p.add_argument("--out-dir", metavar="DIR")
    p.add_argument("--max-cells", type=int, metavar="N", default=500000)
    _add_flags(p, "figure")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RunConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except figures.CellBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KdivisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
