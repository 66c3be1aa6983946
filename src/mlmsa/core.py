"""Problem-independent building blocks: levels, step schedules, reprojection.

Everything here is immutable after construction and safe to share across
threads.  Stochastic code lives in :mod:`mlmsa.engine`; this module only
encodes the deterministic contracts (step-size admissibility, nested
constraint sets, rate parameters).

A step schedule has no length: every caller passes its run length to
:meth:`StepSchedule.step_sizes`, and that vector is the one statement of
the step rule, so a step read off it is the step the engine takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "NumericalError",
    "StepSchedule",
    "ReprojectionFamily",
    "RateParameters",
]


class ParameterError(ValueError):
    """A precondition on user-supplied parameters is violated."""


class NumericalError(RuntimeError):
    """A numerical computation failed a correctness check."""


# The most bytes one allocation sized by a user input may take: a dense exact
# kernel, the coupled stationary solve's four m**3 stacks (m = 203 is the
# largest that fits), a certificate grid's kernel stack, or a run's step
# vector, chunk of uniforms and recorded paths.
_BYTE_BUDGET = 256 * 2 ** 20


def _check_bytes(what: str, need: int) -> None:
    """Refuse, before allocating, an allocation of need bytes over the budget."""
    if need > _BYTE_BUDGET:
        size = f"{need:,}" if need < 2 ** 80 else "more than 2**80"
        raise ParameterError(f"{what} needs {size} bytes, over the "
                             f"{_BYTE_BUDGET:,}-byte budget")


def _check_positive(**settings: float) -> None:
    """Refuse each named setting that is not a positive finite number."""
    for name, value in settings.items():
        if not value > 0:
            raise ParameterError(f"{name} must be positive, got {value}")
        if value == math.inf:
            raise ParameterError(f"{name} must be finite, got {value}")


def level_delta(l) -> float:
    """Mesh proxy 2**-l; accepts math.inf for the limit model (delta 0)."""
    return 2.0 ** (-l) if l != math.inf else 0.0


@dataclass(frozen=True)
class StepSchedule:
    """Validated step-size sequence gamma_n: gamma0 * n**-rho or constant gamma0.

    Polynomial schedules are only admissible for rho in (1/2, 1), which
    guarantees the three conditions needed for almost-sure convergence and
    the CLT: divergent step sum, square-summable steps, and
    log(gamma_n/gamma_{n-1}) = o(gamma_n).  An exponent outside (1/2, 1) is
    refused with a diagnostic naming the condition that fails:

    - rho <= 1/2 breaks square summability (sum of gamma_n**2 diverges),
    - rho == 1 breaks the ratio condition (log(gamma_n/gamma_{n-1}) is of
      exact order gamma_n, not smaller),
    - rho > 1 breaks divergence of the step sum.

    Constant schedules are used by the multilevel driver, where the step is
    tied to the iteration budget of each level; they deliberately do not
    satisfy the decay conditions, ignore rho (stored as None) and allow
    gamma0 == 0 so that frozen-parameter runs can reuse the simulation
    engines as plain Markov-chain samplers.
    """

    kind: str  # "polynomial" | "constant"
    gamma0: float
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("polynomial", "constant"):
            raise ParameterError(
                f"schedule kind must be 'polynomial' or 'constant', got {self.kind!r}")
        if self.kind == "constant":
            if not self.gamma0 >= 0:
                raise ParameterError(f"constant schedule needs gamma0 >= 0, got {self.gamma0}")
        elif not self.gamma0 > 0:
            raise ParameterError(f"polynomial schedule needs gamma0 > 0, got {self.gamma0}")
        elif self.rho is None:
            raise ParameterError("polynomial schedule needs an exponent rho")
        elif math.isnan(self.rho):
            raise ParameterError(f"rho must be a number, got {self.rho}")
        elif self.rho <= 0.5:
            raise ParameterError(f"rho={self.rho} violates square summability: "
                                 "sum of gamma_n**2 is infinite for rho <= 1/2")
        elif self.rho == 1.0:
            raise ParameterError(
                "rho=1 violates the ratio condition: log(gamma_n/gamma_{n-1})/gamma_n "
                "tends to -1/gamma0, not 0")
        elif self.rho > 1.0:
            raise ParameterError(
                f"rho={self.rho} violates divergence: sum of gamma_n is finite for rho > 1")
        if self.gamma0 == math.inf:
            raise ParameterError(f"{self.kind} schedule needs a finite gamma0, got {self.gamma0}")
        object.__setattr__(self, "gamma0", float(self.gamma0))
        object.__setattr__(self, "rho", float(self.rho) if self.kind == "polynomial" else None)

    def step_sizes(self, n_steps: int) -> np.ndarray:
        """Vector (gamma_1, ..., gamma_n_steps)."""
        if self.kind == "constant":
            return np.full(n_steps, self.gamma0)
        g = np.arange(1, n_steps + 1, dtype=float)  # in place: one vector at the peak
        g **= -self.rho
        g *= self.gamma0
        return g


@dataclass(frozen=True)
class ReprojectionFamily:
    """Nested symmetric intervals K_k = [-(r0 + growth*k), r0 + growth*k].

    The family covers the whole real line as k grows, which is all the
    stability argument needs; the linear growth rate is a free choice.  The
    defaults are the command line's reprojection settings.
    """

    r0: float = 2.0
    growth: float = 1.0

    def __post_init__(self):
        _check_positive(r0=self.r0, growth=self.growth)

    def radius(self, k):
        """r0 + growth*k, elementwise for an array of set indices."""
        if np.min(k) < 0:
            raise ParameterError(f"set index must be >= 0, got {k}")
        return self.r0 + self.growth * k

    def contains(self, theta: float, k: int) -> bool:
        r = self.radius(k)
        return -r <= theta <= r


@dataclass(frozen=True)
class RateParameters:
    """Decay/cost exponents of a level hierarchy.

    alpha: bias rate of the per-level roots, |theta*_l - theta*| = O(delta_l**alpha).
    beta:  decay rate of kernel/stationary-law perturbations across levels.
    zeta:  Holder exponent of the theta-continuity bounds, in (1/2, 1].
    kappa: per-step cost exponent, cost of one level-l step = delta_l**-kappa.
    """

    alpha: float
    beta: float
    zeta: float
    kappa: float

    def __post_init__(self):
        _check_positive(alpha=self.alpha, beta=self.beta)
        if not (0.5 < self.zeta <= 1.0):
            raise ParameterError(f"zeta must lie in (1/2, 1], got {self.zeta}")
        _check_positive(kappa=self.kappa)

    @property
    def variance_rate(self) -> float:
        """min(alpha*zeta, beta): decay rate of the increment variance."""
        return min(self.alpha * self.zeta, self.beta)
