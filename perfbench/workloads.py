"""Seeded inputs of the three benchmark workloads.

The seed shifts the sweep axis points by less than a tenth of a grid
spacing and draws the one-off call stream; the package only ever receives the generated
configs and models. Grid sizes are fixed per size so that the work per run
barely depends on the seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ad-measures", "composite-measures", "single-calls")

#: seed whose outputs are pinned by the committed reference snapshot
DEFAULT_SEED = 0

#: grid and stream sizes; "tiny" only exists for the benchmark's own tests
SIZES = {
    "full": {"ad_n": 41, "composite_n": 6, "steps": 500, "trace_blocks": 10,
             "pool": {"pauli": 12, "ad": 12, "cnot": 12, "superradiance": 12}},
    "tiny": {"ad_n": 4, "composite_n": 3, "steps": 40, "trace_blocks": 1,
             "pool": {"pauli": 3, "ad": 3, "cnot": 2, "superradiance": 2}},
}

# (family, x axis, y axis, fixed parameters, horizon) of each sweep; the
# ranges are those of the paper's fig3 (ad), fig2 (cnot) and fig4
# (superradiance)
_SWEEPS = {
    "ad-measures": [
        ("ad", ("gamma0", 0.05, 2.0), ("lambda", 0.1, 2.0), {}, 100.0),
    ],
    "composite-measures": [
        ("cnot", ("gamma", 0.01, 1.0), ("a", 0.0, 1.0), {"J": 1.0}, 10.0),
        ("superradiance", ("x", 0.05 * math.pi, 3.0 * math.pi), ("a", 0.0, 1.0),
         {"gamma0": 1.0}, 10.0),
    ],
}

#: calls per family and kind in one shuffled block of the call stream: nine
#: in ten calls take the analytic path, one in ten the composite one
_BLOCK = {"pauli": 9, "ad": 9, "cnot": 1, "superradiance": 1}
KINDS = ("classify", "blp", "rhp")
BLOCK_CALLS = len(KINDS) * sum(_BLOCK.values())


#: largest seeded axis offset, in grid spacings; cell costs vary sharply
#: across the composite planes, so a larger shift makes the work per run
#: depend on the seed
_SHIFT = 0.1


def _axis(rng: random.Random, name: str, lo: float, hi: float, n: int) -> dict:
    """Axis of ``n`` points offset by a seeded fraction of the spacing.

    The spacing is the same for every seed, and every point stays inside
    ``[lo, hi]``.
    """
    h = (hi - lo) / (n - 1)
    delta = _SHIFT * h * rng.random()
    return {"name": name, "min": lo + delta, "max": hi - _SHIFT * h + delta, "n": n}


def sweep_configs(workload: str, seed: int, size: str, jobs: int) -> list[dict]:
    """``kdivis sweep`` configs of a sweep workload, without output block."""
    sz = SIZES[size]
    n = sz["ad_n"] if workload == "ad-measures" else sz["composite_n"]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for family, (xn, xlo, xhi), (yn, ylo, yhi), fixed, horizon in _SWEEPS[workload]:
        out.append({
            "model": {"family": family, **fixed},
            "sweep": {"x": _axis(rng, xn, xlo, xhi, n), "y": _axis(rng, yn, ylo, yhi, n)},
            "run": {"horizon": horizon, "steps": sz["steps"], "measures": True,
                    "jobs": jobs},
        })
    return out


def _pauli_entry(rng: random.Random, i: int) -> tuple[dict, float]:
    pick = i % 4
    if pick == 0:
        return {"g1": "const:1", "g2": "const:1", "g3": "tanh-neg"}, 10.0   # hall
    if pick == 1:
        return {"g1": "const:1", "g2": "sin", "g3": "sin-neg"}, 4.0 * math.pi  # sine
    c = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(3)]
    if pick == 2:
        return {f"g{k + 1}": f"const:{v:g}" for k, v in enumerate(c)}, 2.0
    # time-dependent: two constant rates plus a sign-changing one
    return {"g1": f"const:{abs(c[0]):g}", "g2": f"const:{abs(c[1]):g}",
            "g3": rng.choice(("tanh-neg", "sin", "sin-neg"))}, 6.0


def _entry(rng: random.Random, family: str, i: int, steps: int) -> dict:
    """The ``i``-th pool entry of a family; its kind and grid follow from
    ``i`` alone, so every seed's pool costs about the same."""
    if family == "pauli":
        params, horizon = _pauli_entry(rng, i)
    elif family == "ad":
        params = {"gamma0": round(rng.uniform(0.05, 2.0), 4),
                  "lambda": round(rng.uniform(0.1, 2.0), 4)}
        horizon = 30.0
    elif family == "cnot":
        # near the fig2 preset (1, 0.1, 0.5), so composite calls cost alike
        params = {"J": 1.0, "gamma": round(rng.uniform(0.08, 0.12), 4),
                  "a": round(rng.uniform(0.4, 0.6), 4)}
        horizon = 10.0
    else:
        # near the fig4 preset (1, pi/2, 0.5)
        params = {"gamma0": 1.0,
                  "x": round(rng.uniform(math.pi / 2 - 0.1, math.pi / 2 + 0.1), 4),
                  "a": round(rng.uniform(0.4, 0.6), 4)}
        horizon = 10.0
    # every third entry probes an off-grid complement step epsilon < dt
    eps = 0.5 * horizon / steps if i % 3 == 2 else None
    return {"family": family, "params": params, "horizon": horizon,
            "steps": steps, "epsilon": eps}


def call_pool(seed: int, size: str) -> list[dict]:
    """Models the one-off calls draw from, as plain serialisable entries."""
    sz = SIZES[size]
    rng = random.Random(f"single-calls:{seed}")
    return [_entry(rng, family, i, sz["steps"])
            for family, count in sz["pool"].items() for i in range(count)]


def call_stream(pool: list[dict], seed: int):
    """Endless seeded stream of blocks of ``(pool index, kind)`` calls.

    Each block holds a fixed number of calls per family and kind in seeded
    order, so the call mix is the same for every seed and run length.
    """
    rng = random.Random(f"stream:{seed}")
    by_family: dict[str, list[int]] = {}
    for i, e in enumerate(pool):
        by_family.setdefault(e["family"], []).append(i)
    while True:
        block = [(rng.choice(by_family[fam]), kind)
                 for kind in KINDS for fam, k in _BLOCK.items() for _ in range(k)]
        rng.shuffle(block)
        yield block
