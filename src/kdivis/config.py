"""Central numerical tolerances.

Every threshold used anywhere in the package lives in one immutable value,
:data:`DEFAULT`, instead of as magic numbers in individual modules. Rate
integrals and propagators are closed form, so no integration target is
among them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: Bound used by verification-style checks (TP tests, residuals).
    check: float = 1e-10
    #: Condition number above which a propagator counts as singular.
    cond_threshold: float = 1e8
    #: Per-step witness tolerance for divisibility verdicts, scaled by the
    #: complement step epsilon (a complement deviates from the identity at
    #: order epsilon, so raw eigenvalue thresholds must scale with it).
    violation_per_eps: float = 1e-7
    #: A measure above this value counts as "detected" non-Markovianity.
    detection: float = 1e-5


DEFAULT = Tolerances()
