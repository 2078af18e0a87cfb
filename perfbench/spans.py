"""In-memory span tracer that wraps the package's public layer functions.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer replaces module attributes such as ``kdivis.models.propagator_grid``
with a timing wrapper while it is installed. Package code reaches these
functions through module attributes or module globals, so calls between
layers are traced too. Work inside a layer that does not cross one of these
functions (for example ``qmat``) is part of the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

import numpy as np

from kdivis import config, models

#: the timed public functions of each layer, in call-graph order
LAYERS = {
    "cli": ("main",),
    "sweep": ("run_sweep", "encode_csv", "encode_svg"),
    "figures": ("atomic_write_text",),
    "models": ("model_from_params", "propagator_grid"),
    "divisibility": ("complement_scan", "verdict_from_scan", "classify"),
    "measures": ("blp_from_grid", "rhp_from_scan", "blp_measure", "rhp_measure"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "child_ns", "attrs")

    def __init__(self, sid: int, name: str, start: int, parent: int | None):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_ns = 0
        self.attrs: dict = {}

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        # calls are nested and single-threaded, so child spans never overlap
        return self.duration_ns - self.child_ns

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, **self.attrs}


def _grid_bytes(grid) -> int:
    """Bytes held by the arrays of a propagator grid, views counted once."""
    seen, total = set(), 0
    for val in vars(grid).values():
        if isinstance(val, np.ndarray):
            root = val
            while isinstance(root.base, np.ndarray):
                root = root.base
            if id(root) not in seen:
                seen.add(id(root))
                total += root.nbytes
    return total


def _model_key(args, kwargs) -> str:
    """A model with its time grid; the complement step epsilon is left out."""
    call = dict(zip(("model", "horizon", "n_steps"), args), **kwargs)
    family, params = models.model_params(call["model"])
    return json.dumps([family, params, call["horizon"], call["n_steps"]], sort_keys=True)


class Tracer:
    """Collects spans and return-value counts while installed.

    ``tag`` is copied into every span started while it is set; the per-family
    probe uses it to label spans with the model family.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.tag: str | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self.model_calls: Counter = Counter()

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"kdivis.{mod_name}")
            for fn in fns:
                orig = getattr(mod, fn)
                self._saved.append((mod, fn, orig))
                setattr(mod, fn, self._wrap(f"{mod_name}.{fn}", orig))
        return self

    def uninstall(self) -> None:
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, 0, parent.id if parent else None)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_ns += span.duration_ns
            if tracer.tag is not None:
                span.attrs["tag"] = tracer.tag
            tracer._count(name, span, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, span, result, args, kwargs) -> None:
        """Counts taken from the returned values, outside the span's time."""
        a = span.attrs
        if name == "models.propagator_grid":
            a["bytes"] = _grid_bytes(result)
            self.model_calls[_model_key(args, kwargs)] += 1
        elif name == "divisibility.complement_scan":
            valid = ~result.singular
            # the generic path refines every step beyond this CP gate; on the
            # closed-form paths the same count is reported for comparison
            gate = 0.1 * config.DEFAULT.violation_per_eps * result.epsilon
            with np.errstate(invalid="ignore"):
                cp_fail = valid & (result.cp_witness < -gate)
            a["steps"] = int(len(result.times))
            a["singular_steps"] = int(result.singular.sum())
            a["cp_fail_steps"] = int(cp_fail.sum())
        elif name == "measures.blp_from_grid":
            a["pair_evals"] = int(len(result.times) * len(result.directions))
        elif name in ("sweep.encode_csv", "sweep.encode_svg"):
            a["bytes"] = len(result.encode())

    # -- summaries --------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def attr_sum(self, name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.by_name(name))

    def dump(self, path, label: str) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps({"pass": label, **s.as_dict()}) + "\n")
