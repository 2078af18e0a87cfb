"""Command-line driver.

Subcommands: ``classify``, ``blp``, ``rhp``, ``sweep``, ``figure``. Runs are
described by a JSON config (checked against the flag and parameter tables,
unknown keys rejected), by a named preset, or by flags; flags override file
values. The verdict tolerance and the detection level are not settings:
they come from ``config.DEFAULT``. Exit codes: 0 on success, 1 on config
errors, 2 on model/run errors or an output that cannot be written. Output
files are written atomically.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import config, divisibility, figures, measures, models, sweep
from .errors import KdivisError

__all__ = ["main", "PRESETS", "load_run_config", "RunConfigError"]


class RunConfigError(Exception):
    """Invalid or unparsable run configuration (exit code 1)."""


class _Setting(NamedTuple):
    """One run or output setting: its flag (None if only a config file sets
    it), config block and key (None for a flag that sets no key: ``--config``,
    which names the file, and the series ``--out`` of blp and rhp), argparse
    settings, least value (inclusive for an int, exclusive for a float),
    default, and the subcommands that read it. The argparse settings give a
    config value's kind: ``type=int`` or ``float``, ``choices``, a bool for
    ``store_true``, else a string. A subcommand takes no other flag;
    ``figure`` accepts no other key."""

    flag: str | None
    block: str | None
    key: str | None
    args: dict
    low: float | None
    default: object
    readers: set


#: flags in help order; the run and output config checks, flag overrides and
#: defaults derive from this table
_SETTINGS = (
    _Setting("--pairs", "run", "pairs", dict(type=int, metavar="N"), 1, 64, {"blp", "sweep"}),
    _Setting("--config", None, None, dict(metavar="PATH", help="JSON run config"),
             None, None, {"classify", "blp", "rhp", "sweep", "figure"}),
    # a series goes to --out alone: a config shared with sweep names the
    # sweep's files in output.path
    _Setting("--out", None, None, dict(metavar="PATH", help="series CSV path"),
             None, None, {"blp", "rhp"}),
    _Setting("--out", "output", "path", dict(metavar="PATH", help="output path"),
             None, "sweep", {"sweep"}),
    _Setting("--format", "output", "format", dict(choices=figures.FORMATS),
             None, "both", {"sweep", "figure"}),
    # no default: a run without a horizon is a config error
    _Setting("--horizon", "run", "horizon", dict(type=float, metavar="F"), 0, None,
             {"classify", "blp", "rhp", "sweep"}),
    _Setting("--steps", "run", "steps", dict(type=int, metavar="N"), 2, 500,
             {"classify", "blp", "rhp", "sweep"}),
    _Setting("--epsilon", "run", "epsilon", dict(type=float, metavar="F"), 0, None,
             {"classify", "rhp", "sweep"}),
    _Setting("--jobs", "run", "jobs",
             dict(type=int, metavar="N",
                  help="worker processes (default: usable CPU count)"),
             1, None, {"sweep", "figure"}),
    # default None: an absent flag leaves the config's value in force
    _Setting("--measures", "run", "measures",
             dict(action="store_true", default=None, help="also compute BLP/RHP per cell"),
             None, False, {"sweep"}),
    _Setting(None, "output", "dir", {}, None, ".", {"figure"}),
)

#: the types of a number and of a rate (a rate string or a number); a bool is neither
_NUMBER, _RATE = (int, float), (int, float, str)


def _kind(setting: _Setting):
    """The kind of a setting's config value, read off its argparse settings."""
    if "choices" in setting.args:
        return list(setting.args["choices"])
    declared = setting.args.get("type", setting.args.get("action"))
    return {int: (int,), float: _NUMBER, "store_true": (bool,)}.get(declared, (str,))


#: (kind, bound) of every key of a sweep axis
_AXIS = {"name": ((str,), None), "min": (_NUMBER, None), "max": (_NUMBER, None), "n": ((int,), 2)}

#: (kind, bound) of every config block. A kind is a tuple of types, a list of choices or a
#: dict of an object's keys; a bound is a number's least value or an object's required keys.
_CONFIG = {
    "model": ({"family": (list(models.MODEL_FAMILIES), None),
               **{name: (_RATE if p.rate else _NUMBER, None)
                  for name, p in models.MODEL_PARAMS.items()}}, ["family"]),
    "sweep": ({"x": (_AXIS, [*_AXIS]), "y": (_AXIS, [*_AXIS])}, ["x", "y"]),
    **{block: ({s.key: (_kind(s), s.low) for s in _SETTINGS if s.block == block}, None)
       for block in ("run", "output")},
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


def _check(where: str, val, kind, bound=None) -> None:
    """Raise a config error unless ``val``, found at ``where``, is of
    ``kind`` and within ``bound``: a number finite and at least its least
    value (above it for a float), an object with every key it needs."""
    field = f"config field {where or '<root>'}"
    if isinstance(kind, dict):
        if not isinstance(val, dict):
            raise RunConfigError(f"{field}: {val!r} is not an object")
        missing = [key for key in bound or () if key not in val]
        if missing:
            raise RunConfigError(f"{field}: missing key(s) {missing}")
        for key, item in val.items():
            if key not in kind:
                raise RunConfigError(f"{field}: unknown key {key!r}")
            _check(f"{where}/{key}" if where else key, item, *kind[key])
    elif isinstance(kind, list):
        if val not in kind:
            raise RunConfigError(f"{field}: {val!r} is not one of {kind}")
    elif not (val is None and where == "run/epsilon"):  # null: the default epsilon
        if not isinstance(val, kind) or isinstance(val, bool) and bool not in kind:
            raise RunConfigError(f"{field}: {val!r} is not of type {[t.__name__ for t in kind]}")
        if bound is not None and not math.isfinite(val):
            raise RunConfigError(f"{field}: {val} is not finite")
        if bound is not None and (val < bound or (kind is _NUMBER and val == bound)):
            raise RunConfigError(
                f"{field}: {val} is {'not above' if kind is _NUMBER else 'below'} {bound}")


def validate_config(cfg: dict) -> None:
    """Raise :class:`RunConfigError` unless ``cfg`` has only known keys, each
    value of its kind, and a model family that takes the parameters given."""
    _check("", cfg, _CONFIG)
    if "model" in cfg:
        _check_params(cfg["model"], allow_missing=True)


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
    verdict = divisibility.classify(model, run["horizon"], run["steps"], run["epsilon"])
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
    level = config.DEFAULT.detection
    print(f"BLP measure: {result.measure:.6e}")
    print(f"detected: {'yes' if result.measure > level else 'no'} (threshold {level:g})")
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
    level = config.DEFAULT.detection
    print(f"RHP measure: {result.measure:.6e}")
    print(f"detected: {'yes' if result.measure > level else 'no'} (threshold {level:g})")
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
            n_pairs=run["pairs"])
    except ValueError as exc:
        raise RunConfigError(str(exc)) from exc
    output = _block(cfg, "output")
    # write_grid appends the suffixes, so only a .csv or .svg one comes off
    stem = output["path"]
    if stem.endswith((".csv", ".svg")):
        stem = stem[:-4]
    # an unwritable directory fails here, before the first cell is evaluated
    Path(stem).parent.mkdir(parents=True, exist_ok=True)
    grid = sweep.run_sweep(spec, compute_measures=run["measures"], jobs=run["jobs"])
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
            args.name, args.out_dir or output["dir"], fmt=output["format"], jobs=run["jobs"]):
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
    except (KdivisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
