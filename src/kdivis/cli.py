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
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np

from . import config, divisibility, figures, measures, models, sweep
from .errors import KdivisError

__all__ = ["main", "PRESETS", "CONFIG_SCHEMA", "load_run_config", "RunConfigError"]


class RunConfigError(Exception):
    """Invalid or unparsable run configuration (exit code 1)."""


class _Setting(NamedTuple):
    """One run or output setting: its flag (None if only a config file sets
    it), config block and key (None for a flag that sets no key: ``--config``,
    which names the file, and the series ``--out`` of blp and rhp), argparse
    settings, JSON schema, default, and the subcommands that read it. A
    subcommand takes no other flag; ``figure`` accepts no other key."""

    flag: str | None
    block: str | None
    key: str | None
    args: dict
    schema: dict | None
    default: object
    readers: set


#: flags in help order; the run and output schema, flag overrides and
#: defaults derive from this table
_SETTINGS = (
    _Setting("--pairs", "run", "pairs", dict(type=int, metavar="N"),
             {"type": "integer", "minimum": 1}, 64, {"blp", "sweep"}),
    _Setting("--detection", "run", "detection", dict(type=float, metavar="F"),
             {"type": "number", "exclusiveMinimum": 0}, config.DEFAULT.detection,
             {"blp", "rhp", "sweep"}),
    _Setting("--config", None, None, dict(metavar="PATH", help="JSON run config"),
             None, None, {"classify", "blp", "rhp", "sweep", "figure"}),
    # a series goes to --out alone: a config shared with sweep names the
    # sweep's files in output.path
    _Setting("--out", None, None, dict(metavar="PATH", help="series CSV path"),
             None, None, {"blp", "rhp"}),
    _Setting("--out", "output", "path", dict(metavar="PATH", help="output path"),
             {"type": "string"}, "sweep", {"sweep"}),
    _Setting("--format", "output", "format", dict(choices=figures.FORMATS),
             {"enum": list(figures.FORMATS)}, "both", {"sweep", "figure"}),
    # no default: a run without a horizon is a config error
    _Setting("--horizon", "run", "horizon", dict(type=float, metavar="F"),
             {"type": "number", "exclusiveMinimum": 0}, None,
             {"classify", "blp", "rhp", "sweep"}),
    _Setting("--steps", "run", "steps", dict(type=int, metavar="N"),
             {"type": "integer", "minimum": 2}, 500, {"classify", "blp", "rhp", "sweep"}),
    _Setting("--epsilon", "run", "epsilon", dict(type=float, metavar="F"),
             {"type": ["number", "null"], "exclusiveMinimum": 0}, None,
             {"classify", "rhp", "sweep"}),
    _Setting("--tol", "run", "tolerance",
             dict(type=float, metavar="F", help="absolute per-step witness tolerance"),
             {"type": "number", "exclusiveMinimum": 0}, None, {"classify", "sweep"}),
    _Setting("--jobs", "run", "jobs",
             dict(type=int, metavar="N",
                  help="worker processes (default: KDIVIS_JOBS or CPU count)"),
             {"type": "integer", "minimum": 1}, None, {"sweep", "figure"}),
    # default None: an absent flag leaves the config's value in force
    _Setting("--measures", "run", "measures",
             dict(action="store_true", default=None, help="also compute BLP/RHP per cell"),
             {"type": "boolean"}, False, {"sweep"}),
    _Setting(None, "output", "dir", {}, {"type": "string"}, ".", {"figure"}),
)

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
        **{block: {"type": "object", "additionalProperties": False,
                   "properties": {s.key: s.schema for s in _SETTINGS if s.block == block}}
           for block in ("run", "output")},
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


@functools.cache
def _config_validator():
    # built on first use, once per process: checking the constant schema
    # against its metaschema costs about 20 ms
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def validate_config(cfg: dict) -> None:
    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_config_validator().iter_errors(cfg))
    if exc is not None:
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
    for setting in _SETTINGS:
        val = (getattr(args, setting.flag[2:], None)
               if setting.flag and setting.key and args.command in setting.readers else None)
        if val is not None:
            out.setdefault(setting.block, {})[setting.key] = val
    return out


def _build_model(cfg: dict):
    model_cfg = cfg.get("model")
    if model_cfg is None:
        raise RunConfigError("a model block (or preset) is required")
    _check_params(model_cfg)
    params = {k: v for k, v in model_cfg.items() if k != "family"}
    return models.model_from_params(model_cfg["family"], params)


def _block(cfg: dict, block: str) -> dict:
    """The ``run`` or ``output`` block of ``cfg``, unset keys at their defaults."""
    return {**{s.key: s.default for s in _SETTINGS if s.block == block}, **cfg.get(block, {})}


def _run_block(cfg: dict) -> dict:
    run = _block(cfg, "run")
    if run["horizon"] is None:
        raise RunConfigError("run.horizon is required (or pass --horizon)")
    try:
        models.check_time_grid(run["horizon"], run["steps"], run["epsilon"])
    except ValueError as exc:
        raise RunConfigError(str(exc)) from exc
    return run


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
    print(f"BLP measure: {result.measure:.6e}")
    print(f"detected: {'yes' if result.measure > run['detection'] else 'no'} "
          f"(threshold {run['detection']:g})")
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
    print(f"RHP measure: {result.measure:.6e}")
    print(f"detected: {'yes' if result.measure > run['detection'] else 'no'} "
          f"(threshold {run['detection']:g})")
    if result.singular_times:
        print(f"singular steps skipped: {len(result.singular_times)}")
    if args.out:
        path = figures.atomic_write_text(
            args.out, _series_csv(result.times, result.g_series.tolist()))
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_run_config(args.preset, args.config, _flag_overrides(args))
    if "model" not in cfg or "sweep" not in cfg:
        raise RunConfigError("sweep runs need both a model block and a sweep block")
    run = _run_block(cfg)
    model_cfg, sweep_cfg = cfg["model"], cfg["sweep"]
    x, y = (sweep.ParamRange(axis["name"], axis["min"], axis["max"], axis["n"])
            for axis in (sweep_cfg["x"], sweep_cfg["y"]))
    fixed = {k: v for k, v in model_cfg.items() if k != "family" and k not in (x.name, y.name)}
    try:
        spec = sweep.GridSpec(
            family=model_cfg["family"], x=x, y=y, fixed=fixed,
            horizon=run["horizon"], n_steps=run["steps"], epsilon=run["epsilon"],
            tol=run["tolerance"], detection=run["detection"], n_pairs=run["pairs"])
    except ValueError as exc:
        raise RunConfigError(str(exc)) from exc
    grid = sweep.run_sweep(spec, compute_measures=run["measures"], jobs=_jobs(run["jobs"]))
    output = _block(cfg, "output")
    # write_grid appends the suffixes, so only a .csv or .svg one comes off
    stem = output["path"]
    if stem.endswith((".csv", ".svg")):
        stem = stem[:-4]
    for path in figures.write_grid(grid, stem, output["format"]):
        print(f"wrote {path}")
    return 0


def _cmd_figure(args) -> int:
    cfg = load_run_config(None, args.config, _flag_overrides(args))
    # the preset figure fixes model, sweep and run; only the keys it reads apply
    reads = {(s.block, s.key) for s in _SETTINGS if "figure" in s.readers}
    unread = [block for block in ("model", "sweep") if block in cfg]
    unread += [f"{block}.{key}" for block in ("run", "output")
               for key in cfg.get(block, {}) if (block, key) not in reads]
    if unread:
        raise RunConfigError(f"figure does not read config key(s) {unread}")
    run, output = _block(cfg, "run"), _block(cfg, "output")
    for path in figures.generate_figure(
            args.name, args.out_dir or output["dir"], fmt=output["format"],
            jobs=_jobs(run["jobs"]), max_cells=args.max_cells):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

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
    """The flags of ``_SETTINGS`` that ``command`` reads."""
    for setting in _SETTINGS:
        if setting.flag and command in setting.readers:
            parser.add_argument(setting.flag, **setting.args)


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
    except (KdivisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
