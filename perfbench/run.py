#!/usr/bin/env python3
"""Benchmark of kdivis: phase-diagram throughput and one-off call latency.

Usage, from the repository root:

    python3 perfbench/run.py --workload ad-measures --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes one separate traced pass at ``jobs=1`` and reports the per-layer
metrics. ``--workload all`` (the default) runs every workload in a fresh
process. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any output fails a correctness check. See ``perfbench/README.md``.
"""

import os

# pin BLAS before numpy loads, so that the sweep workers alone use the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
REFERENCE = HERE / "reference"

#: fresh interpreters started to time set-up; the median is reported
SETUP_PROBES = 5

#: tail percentiles tried from the top; the first with ten samples beyond
#: wins, and the median stands in when no percentile has that many
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: baseline models of the per-family probe (the ROADMAP baseline table)
PROBE_MODELS = {
    "pauli": ({"g1": "const:1", "g2": "const:1", "g3": "tanh-neg"}, 10.0),
    "ad": ({"gamma0": 2.0, "lambda": 1.0}, 30.0),
    "cnot": ({"J": 1.0, "gamma": 0.1, "a": 0.5}, 10.0),
    "superradiance": ({"gamma0": 1.0, "x": math.pi / 2, "a": 0.5}, 10.0),
}
PROBE_REPEATS = 7
PROBE_FUNCTIONS = ("models.propagator_grid", "divisibility.complement_scan",
                   "measures.blp_from_grid")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny grids for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite the reference snapshot of the default seed")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, size: str, jobs: int, tag: str = "run"):
    """Sweep configs written as files, or the call pool with its models."""
    import workloads
    from kdivis import models

    OUT.mkdir(exist_ok=True)
    if workload == "single-calls":
        pool = workloads.call_pool(seed, size)
        built = [models.model_from_params(e["family"], e["params"]) for e in pool]
        return pool, built
    sweeps = []
    for i, cfg in enumerate(workloads.sweep_configs(workload, seed, size, jobs)):
        stem = OUT / f"{workload}-{tag}-{i}-{cfg['model']['family']}"
        cfg["output"] = {"path": str(stem), "format": "both"}
        path = stem.with_suffix(".json")
        path.write_text(json.dumps(cfg, indent=1))
        sweeps.append((cfg, path, stem))
    return sweeps


def reference(workload: str, seed: int, size: str):
    import workloads

    if seed != workloads.DEFAULT_SEED or size != "full":
        return None
    if workload == "single-calls":
        return json.loads((REFERENCE / "single-calls.json").read_text())
    return [(REFERENCE / workload / f"{i}.csv").read_text()
            for i in range(len(workloads.sweep_configs(workload, seed, size, 1)))]


def warm_up() -> None:
    """Finish lazy imports and first-call set-up before anything is timed."""
    from kdivis import cli, divisibility, measures, models

    for family, (params, horizon) in PROBE_MODELS.items():
        model = models.model_from_params(family, params)
        divisibility.classify(model, horizon, 20)
        measures.blp_measure(model, horizon, 20)
        measures.rhp_measure(model, horizon, 20)
    cfg = {"model": {"family": "ad"},
           "sweep": {"x": {"name": "gamma0", "min": 0.5, "max": 1.0, "n": 2},
                     "y": {"name": "lambda", "min": 0.5, "max": 1.0, "n": 2}},
           "run": {"horizon": 5.0, "steps": 20, "measures": True, "jobs": 1},
           "output": {"path": str(OUT / "warmup"), "format": "both"}}
    path = OUT / "warmup.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["sweep", "--config", str(path)])


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------

def sweep_once(cfg_path: Path, stem: Path) -> tuple[float, int, str, str]:
    """One ``kdivis sweep`` through the CLI; returns (seconds, rc, csv, svg)."""
    from kdivis import cli

    for suffix in (".csv", ".svg"):
        stem.with_suffix(suffix).unlink(missing_ok=True)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["sweep", "--config", str(cfg_path)])
    elapsed = time.perf_counter() - t0
    texts = [stem.with_suffix(s).read_text() if stem.with_suffix(s).exists() else ""
             for s in (".csv", ".svg")]
    return elapsed, rc, texts[0], texts[1]


class Tally:
    """Attempted and failed cells or calls, with the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages=()) -> None:
        self.attempted += attempted
        self.fail(min(failed, attempted), messages)

    def fail(self, count: int, messages=()) -> None:
        """Count already attempted items as failed."""
        self.failed = min(self.attempted, self.failed + count)
        self.messages += list(messages)[:max(0, 20 - len(self.messages))]


def check_sweep_output(tally: Tally, cfg, rc, csv, svg, ref_csv, first_csv=None) -> None:
    import checks

    n = cfg["sweep"]["x"]["n"] * cfg["sweep"]["y"]["n"]
    if rc != 0:
        tally.add(n, n, [f"kdivis sweep exited with {rc}"])
    elif first_csv is not None and csv == first_csv:
        tally.add(n, 0)   # byte-identical to an output already checked
    else:
        n, errors = checks.check_sweep(cfg, csv, svg, ref_csv)
        if first_csv is not None:
            errors.append("CSV differs from the first repetition")
        tally.add(n, checks.failed_cells(n, errors), errors)


def run_sweeps(workload, seed, size, seconds):
    """End-to-end: repeat the workload's sweeps at jobs=nproc for ``seconds``.

    One repetition, the workload's sweeps back to back, is one call; returns
    the tally, the cells of one repetition and the repetition times.
    """
    sweeps = make_inputs(workload, seed, size, nproc())
    refs = reference(workload, seed, size) or [None] * len(sweeps)
    tally = Tally()
    reps, first = [], {}
    while sum(reps) < seconds:
        rep_time = 0.0
        for i, (cfg, path, stem) in enumerate(sweeps):
            elapsed, rc, csv, svg = sweep_once(path, stem)
            check_sweep_output(tally, cfg, rc, csv, svg, refs[i], first.get(i))
            first.setdefault(i, csv)
            rep_time += elapsed
        reps.append(rep_time)
    cells = sum(cfg["sweep"]["x"]["n"] * cfg["sweep"]["y"]["n"] for cfg, _, _ in sweeps)
    return tally, cells, reps, reps


# ---------------------------------------------------------------------------
# One-off calls
# ---------------------------------------------------------------------------

def one_call(kind: str, model, entry: dict) -> dict:
    """One public API call, summarised to the values the checks compare."""
    from kdivis import divisibility, measures

    if kind == "classify":
        v = divisibility.classify(model, entry["horizon"], entry["steps"], entry["epsilon"])
        return {"class": str(v.pd_class), "near": divisibility.near_boundary(v),
                "singular": len(v.singular_times)}
    if kind == "blp":
        return {"blp": measures.blp_measure(model, entry["horizon"], entry["steps"]).measure}
    r = measures.rhp_measure(model, entry["horizon"], entry["steps"], entry["epsilon"])
    return {"rhp": r.measure, "singular": len(r.singular_times)}


class CallLoop:
    """Closed loop of one client issuing the seeded call stream."""

    def __init__(self, seed: int, size: str):
        self.pool, self.models = make_inputs("single-calls", seed, size, 1)
        self.seed = seed
        self.ref = reference("single-calls", seed, size)
        self.results: dict = {}

    def run(self, tally: Tally, seconds: float | None = None, blocks: int | None = None):
        """Issue whole blocks of calls until ``seconds`` of call time have
        passed or ``blocks`` blocks are done; returns the latencies and the
        time of each block."""
        import checks
        import workloads

        latencies, block_times = [], []
        for block in workloads.call_stream(self.pool, self.seed):
            block_time = 0.0
            for idx, kind in block:
                entry = self.pool[idx]
                t0 = time.perf_counter()
                try:
                    out = one_call(kind, self.models[idx], entry)
                except Exception as exc:   # a raised call is a failed call
                    out = exc
                elapsed = time.perf_counter() - t0
                block_time += elapsed
                latencies.append(elapsed)
                if isinstance(out, Exception):
                    errs = [f"raised {type(out).__name__}: {out}"]
                else:
                    ref = self.ref[str(idx)][kind] if self.ref else None
                    errs = checks.check_call(entry, kind, out, ref)
                    seen = self.results.setdefault(idx, {}).setdefault(kind, out)
                    if seen != out:
                        errs.append(f"differs from an earlier identical call: {seen}")
                tally.add(1, 1 if errs else 0, [f"call {idx} {kind}: {e}" for e in errs])
            block_times.append(block_time)
            if (seconds is not None and sum(block_times) >= seconds) or len(block_times) == blocks:
                return latencies, block_times

    def check_entries(self, tally: Tally) -> None:
        import checks

        for idx, outs in self.results.items():
            errs = checks.check_entry(self.pool[idx], outs)
            tally.fail(len(errs), [f"entry {idx}: {e}" for e in errs])


def run_calls(seed, size, seconds):
    """End-to-end: the call stream for ``seconds``; every call evaluates one
    model over one time grid, like a sweep cell."""
    import workloads

    loop = CallLoop(seed, size)
    tally = Tally()
    latencies, blocks = loop.run(tally, seconds=seconds)
    loop.check_entries(tally)
    return tally, workloads.BLOCK_CALLS, blocks, latencies


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it. Below 20 samples no percentile has a tail estimate,
    and the median is returned."""
    import numpy as np

    p = next((p for p in TAIL_LADDER if len(samples) * (1.0 - p / 100.0) >= 10), 50.0)
    return p, float(np.percentile(samples, p))


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters importing kdivis and making inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(args) -> tuple[Tally, dict, dict]:
    setup_s = measure_setup(args)
    warm_up()
    # Throughputs divide the work of one unit by a typical unit time. On a
    # shared host the speed of a core flips between two levels about 1.5x
    # apart every second or so. A repetition of the sweeps spans several
    # flips, so the median repetition time follows the share of time spent
    # at each level and keeps short stalls out. A block of calls takes a
    # fraction of a second, so block times are bimodal and their median
    # jumps from one level to the other from run to run; their mean does not.
    if args.workload == "single-calls":
        tally, cells, units, latencies = run_calls(args.seed, args.size, args.seconds)
        calls = cells
        unit = statistics.fmean(units)
    else:
        tally, cells, units, latencies = run_sweeps(args.workload, args.seed, args.size,
                                                    args.seconds)
        calls = 1
        unit = statistics.median(units)
    p, tail_s = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (cells / unit, "1/s"),
        "calls_per_s": (calls / unit, "1/s"),
        "call_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "call_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    return tally, metrics, {"tail_percentile": p, "call_samples": len(latencies),
                            "unit_s": units, "call_s": latencies}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def row_imbalance(tracer, sweeps, jobs: int) -> float:
    """Largest over mean worker chunk cost under run_sweep's static row split.

    Cells are told apart by their ``models.model_from_params`` span, which
    starts every cell; row costs sum the cells of a row. Returns 0.0 when the
    spans cannot be attributed to cells.
    """
    runs = tracer.by_name("sweep.run_sweep")
    if len(runs) != len(sweeps):
        return 0.0
    worst = mean = 0.0
    for run, (cfg, _, _) in zip(runs, sweeps):
        nx, ny = cfg["sweep"]["x"]["n"], cfg["sweep"]["y"]["n"]
        starts = sorted(s.start for s in tracer.spans
                        if s.parent == run.id and s.name == "models.model_from_params")
        if len(starts) != nx * ny:
            return 0.0
        ends = starts[1:] + [run.end]
        cell = [e - s for s, e in zip(starts, ends)]
        rows = [sum(cell[r * nx:(r + 1) * nx]) for r in range(ny)]
        k = max(1, min(jobs, ny))
        chunk = math.ceil(ny / k)
        costs = [sum(rows[i:i + chunk]) for i in range(0, ny, chunk)]
        worst += max(costs)
        mean += sum(costs) / len(costs)
    return worst / mean


def layer_metrics(tracer, wall: float) -> dict:
    from spans import FUNCTIONS

    m = {}
    for name in FUNCTIONS:
        spans = tracer.by_name(name)
        self_s = sum(s.self_ns for s in spans) / 1e9
        m[f"{name}.calls"] = (len(spans), "count")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.share"] = (self_s / wall, "ratio")
    grids = tracer.model_calls
    m["models.propagator_grid.bytes"] = (tracer.attr_sum("models.propagator_grid", "bytes"), "B")
    m["models.propagator_grid.calls_per_model"] = (
        sum(grids.values()) / len(grids) if grids else 0.0, "calls/model")
    for key in ("steps", "singular_steps", "cp_fail_steps"):
        m[f"divisibility.complement_scan.{key}"] = (
            tracer.attr_sum("divisibility.complement_scan", key), "count")
    m["measures.blp_from_grid.pair_evals"] = (
        tracer.attr_sum("measures.blp_from_grid", "pair_evals"), "count")
    for name in ("sweep.encode_csv", "sweep.encode_svg"):
        m[f"{name}.bytes"] = (tracer.attr_sum(name, "bytes"), "B")
    return m


def family_probe() -> tuple[dict, "Tracer"]:
    """Per-family medians of the layer calls on the baseline models."""
    from kdivis import divisibility, measures, models
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        for family, (params, horizon) in PROBE_MODELS.items():
            tracer.tag = family
            model = models.model_from_params(family, params)
            for _ in range(PROBE_REPEATS):
                grid = models.propagator_grid(model, horizon, 500)
                divisibility.complement_scan(grid)
                measures.blp_from_grid(grid, 64)
    m = {}
    for name in PROBE_FUNCTIONS:
        for family in PROBE_MODELS:
            durations = [s.duration_ns / 1e6 for s in tracer.by_name(name)
                         if s.attrs.get("tag") == family]
            m[f"{name}.ms_p50.{family}"] = (statistics.median(durations), "ms")
    return m, tracer


def traced_sweeps(args, tally: Tally):
    """Untraced and traced passes at jobs=1, then one untraced at jobs=nproc."""
    from spans import Tracer

    one = make_inputs(args.workload, args.seed, args.size, 1, tag="jobs1")
    many = make_inputs(args.workload, args.seed, args.size, nproc(), tag="jobsn")
    refs = reference(args.workload, args.seed, args.size) or [None] * len(one)

    untraced = [sweep_once(path, stem) for _, path, stem in one]
    tracer = Tracer()
    with tracer:
        traced = [sweep_once(path, stem) for _, path, stem in one]
    parallel = [sweep_once(path, stem) for _, path, stem in many]

    for i, (cfg, _, _) in enumerate(one):
        _, rc, csv, svg = traced[i]
        check_sweep_output(tally, cfg, rc, csv, svg, refs[i])
        n = cfg["sweep"]["x"]["n"] * cfg["sweep"]["y"]["n"]
        for label, run in (("untraced jobs=1", untraced[i]), ("jobs=nproc", parallel[i])):
            if run[1] != 0 or run[2] != csv:
                tally.fail(n, [f"sweep {i}: {label} CSV differs from the traced jobs=1 CSV"])

    wall1 = sum(r[0] for r in untraced)
    wall_traced = sum(r[0] for r in traced)
    jobs = min(nproc(), *(cfg["sweep"]["y"]["n"] for cfg, _, _ in many))
    extra = {
        "sweep.parallel_eff": (wall1 / (jobs * sum(r[0] for r in parallel)), "ratio"),
        "sweep.row_imbalance": (row_imbalance(tracer, one, nproc()), "ratio"),
        "trace.overhead_ratio": (wall_traced / wall1, "ratio"),
    }
    return tracer, wall_traced, extra


def traced_calls(args, tally: Tally):
    """The first calls of the stream, untraced and then traced."""
    import workloads
    from spans import Tracer

    n = workloads.SIZES[args.size]["trace_blocks"]
    wall1 = sum(CallLoop(args.seed, args.size).run(Tally(), blocks=n)[1])
    loop = CallLoop(args.seed, args.size)
    tracer = Tracer()
    with tracer:
        wall_traced = sum(loop.run(tally, blocks=n)[1])
    loop.check_entries(tally)
    extra = {
        # one client in one process: a single chunk, trivially balanced
        "sweep.parallel_eff": (1.0, "ratio"),
        "sweep.row_imbalance": (1.0, "ratio"),
        "trace.overhead_ratio": (wall_traced / wall1, "ratio"),
    }
    return tracer, wall_traced, extra


def traced_run(args) -> tuple[Tally, dict, dict]:
    warm_up()
    tally = Tally()
    if args.workload == "single-calls":
        tracer, wall, extra = traced_calls(args, tally)
    else:
        tracer, wall, extra = traced_sweeps(args, tally)
    metrics = layer_metrics(tracer, wall)
    metrics.update(extra)
    probe_metrics, probe_tracer = family_probe()
    metrics.update(probe_metrics)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    tracer.dump(spans_path, "workload")
    probe_tracer.dump(spans_path, "family-probe")
    return tally, metrics, {"spans": str(spans_path.relative_to(ROOT))}


# ---------------------------------------------------------------------------
# Run record and output
# ---------------------------------------------------------------------------

def run_record(args) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha, "nproc": nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "jobs": 1 if args.trace else nproc(), "seed": args.seed,
        "workload": args.workload, "trace": args.trace, "size": args.size,
        "seconds": args.seconds,
    }


def run_one(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        make_inputs(args.workload, args.seed, args.size, nproc(), tag="probe")
        return 0
    tally, metrics, notes = traced_run(args) if args.trace else end_to_end(args)
    record = run_record(args)
    record.update(notes)
    record["fail_ratio"] = tally.failed / max(1, tally.attempted)
    record["failures"] = tally.messages
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, **result}, indent=1))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={record['nproc']} sha={record['git_sha'][:12]}")
    for k, (v, u) in metrics.items():
        print(f"{k:52s} {v:14.6g} {u}")
    for k, v in notes.items():
        if not isinstance(v, list):
            print(f"{k:52s} {v}")
    print(f"{'fail_ratio':52s} {record['fail_ratio']:14.6g} ({tally.failed}/{tally.attempted})")
    for msg in tally.messages:
        print(f"FAIL {msg}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process, so set-up and memory are its own."""
    import workloads

    results, rc = {}, 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[w] = None
        if proc.returncode != 0 or results[w] is None:
            rc = 1
    print(json.dumps(results))
    return rc


def write_reference() -> int:
    """Snapshot the default seed's outputs at full size."""
    import workloads

    seed, size = workloads.DEFAULT_SEED, "full"
    for w in ("ad-measures", "composite-measures"):
        (REFERENCE / w).mkdir(parents=True, exist_ok=True)
        for i, (_, path, stem) in enumerate(make_inputs(w, seed, size, nproc(), tag="ref")):
            _, rc, csv, _ = sweep_once(path, stem)
            if rc != 0:
                return 1
            (REFERENCE / w / f"{i}.csv").write_text(csv)
    pool, built = make_inputs("single-calls", seed, size, 1)
    snap = {str(i): {kind: one_call(kind, built[i], e) for kind in workloads.KINDS}
            for i, e in enumerate(pool)}
    (REFERENCE / "single-calls.json").write_text(json.dumps(snap, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kdivis" / "__init__.py").is_file():
        print(f"error: kdivis sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
