"""Multilevel estimation: level schedules, collapsing-sum assembly, cost.

Given a target precision eps, :func:`schedule_levels` picks the deepest
level L (so the level-L bias is within eps) and per-level iteration
budgets n_l ~ c_n eps**-2 delta_l**((min(alpha*zeta, beta) + kappa)/2),
each level running with the constant step 1/n_l.  :func:`ml_estimate`
then runs one single-level pass at level 0 and one coupled increment pass
per level 1..L, all on disjoint seed streams, and assembles the telescoped
estimate theta_hat = est_0 + sum_l increment_l.  The level passes are the
lanes of one engine loop of max n_l steps (see :mod:`mlmsa.engine`); each
gives the bits of its standalone run.  :func:`mse_cost_experiment` runs
the levels of every precision's plan in that one loop too.  The per-step
cost of a level-l chain is delta_l**-kappa; a coupled run pays for both of
its chains.

The analyzed regime needs min(alpha*zeta, beta) > kappa, in which case
the mean square error is O(eps**2) at total cost O(eps**-2); equality
min(alpha*zeta, beta) = kappa is accepted with the cost annotation
O(eps**-2 log(eps)**2); anything below is rejected.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    NumericalError,
    ParameterError,
    RateParameters,
    ReprojectionFamily,
    StepSchedule,
    level_delta,
)
from .engine import _Lane, _run_lanes, _Streams
from .exact import level_root
from .model import FiniteLevelModel

__all__ = [
    "LevelPlan",
    "schedule_levels",
    "MLEstimate",
    "ml_estimate",
    "MseCostRow",
    "MseCostResult",
    "mse_cost_experiment",
]


def _ceil_stable(v: float) -> int:
    # guard against 2.0000000000000004-style float fuzz inflating a ceil
    return int(math.ceil(v - 1e-12))


@dataclass(frozen=True)
class LevelPlan:
    """Level schedule derived from a target precision."""

    epsilon: float
    L: int
    n_l: tuple[int, ...]          # iterations per level, indices 0..L
    gamma_l: tuple[float, ...]    # constant step 1/n_l per level
    predicted_cost: float         # sum_l n_l * delta_l**-kappa (fine chain only)
    rates: RateParameters
    c_n: float
    n_min: int
    cost_note: str                # complexity annotation for the chosen regime

    def __post_init__(self):
        if self.L < 1:
            raise ParameterError(f"plan must have L >= 1, got {self.L}")
        if len(self.n_l) != self.L + 1:
            raise ParameterError("n_l must have one entry per level 0..L")
        if any(n < self.n_min for n in self.n_l):
            raise ParameterError("every level budget must be >= n_min")
        if not math.isfinite(self.predicted_cost):
            raise ParameterError("predicted cost must be finite")


def schedule_levels(epsilon: float, rates: RateParameters, n_min: int = 100,
                    c_n: float = 1.0) -> LevelPlan:
    """Level schedule for target precision eps in (0, 1).

    L = ceil(log2(1/eps)/alpha) makes the deepest-level bias
    delta_L**alpha <= eps; the budgets decay geometrically in the level so
    the summed cost stays O(eps**-2).  c_n scales every budget (the
    asymptotic schedule fixes budgets only up to a constant) and n_min
    floors them so desk-scale runs keep nondegenerate level samples.
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not c_n > 0:
        raise ParameterError(f"c_n must be positive, got {c_n}")
    if not isinstance(n_min, int) or n_min < 1:
        raise ParameterError(f"n_min must be a positive integer, got {n_min!r}")
    v = rates.variance_rate
    kappa = rates.kappa
    if v < kappa - 1e-12:
        raise ParameterError(
            f"min(alpha*zeta, beta) = {v} < kappa = {kappa}: outside the analyzed cost "
            "regime (per-level budgets would not sum to O(eps**-2))")
    boundary = abs(v - kappa) <= 1e-12
    expo = 0.5 * (v + kappa)
    n_l, gamma_l, cost = [], [], 0.0
    try:
        L = max(1, _ceil_stable(math.log2(1.0 / epsilon) / rates.alpha))
        for l in range(L + 1):
            delta = level_delta(l)
            n = max(n_min, _ceil_stable(c_n * epsilon ** -2 * delta ** expo))
            n_l.append(n)
            gamma_l.append(1.0 / n)
            cost += n * delta ** -kappa
    except (OverflowError, ZeroDivisionError) as exc:
        # float ** raises instead of returning inf; 2.0**-l is 0.0 past l = 1074
        raise ParameterError(
            f"epsilon={epsilon} and c_n={c_n} give a level budget or cost that is not "
            f"a finite float under {rates}") from exc
    note = "cost O(eps^-2 log(eps)^2)" if boundary else "cost O(eps^-2)"
    return LevelPlan(epsilon=float(epsilon), L=L, n_l=tuple(n_l), gamma_l=tuple(gamma_l),
                     predicted_cost=float(cost), rates=rates, c_n=float(c_n),
                     n_min=n_min, cost_note=note)


@dataclass(frozen=True)
class MLEstimate:
    """Assembled multilevel estimate.

    level_estimates[0] is the level-0 estimate and level_estimates[l] the
    level-l increment estimate; theta_hat is their left-to-right sum.
    seeds records (root_seed, spawn_index) per level: level l runs on the
    l-th child stream of SeedSequence(root_seed).
    """

    theta_hat: float
    level_estimates: tuple[float, ...]
    realized_cost: float
    seeds: tuple[tuple[int, int], ...]


def _run_plan_ensemble(model: FiniteLevelModel, plans, root_seeds,
                       reproj: ReprojectionFamily, theta0: float,
                       coupling: str) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Run every level of every plan for all replicates in one lane loop of
    max n_l steps.

    Level l of every plan reads child l of each root seed, so plans sharing
    root seeds draw identical uniforms and start states at level l.  Returns
    per plan (per-level estimates (L+1, R), assembled theta_hat (R,) and the
    realized cost of a single replicate)."""
    lanes = [_Lane(l, StepSchedule("constant", plan.gamma_l[l]), plan.n_l[l],
                   _Streams(root_seeds, (l,)), theta0, None, theta0, None,
                   coupled=l > 0, coupling=coupling)
             for plan in plans for l in range(plan.L + 1)]
    states = iter(_run_lanes(model, lanes, reproj)[0])
    out = []
    for plan in plans:
        kappa = plan.rates.kappa
        estimates = np.empty((plan.L + 1, len(root_seeds)))
        cost = 0.0
        for l in range(plan.L + 1):
            st = next(states)
            # level 0 is a single chain; level l >= 1 a fine-minus-coarse pair
            estimates[l] = st.theta[0] - st.theta[1] if l > 0 else st.theta[0]
            cost += plan.n_l[l] * (2.0 ** (l * kappa)
                                   + (2.0 ** ((l - 1) * kappa) if l > 0 else 0.0))
        theta_hat = sum(estimates[1:], estimates[0])
        out.append((estimates, theta_hat, cost))
    return out


def ml_estimate(model: FiniteLevelModel, plan: LevelPlan, seed: int,
                reproj: ReprojectionFamily = ReprojectionFamily(), theta0: float = 0.0,
                coupling: str = "crn") -> MLEstimate:
    """One multilevel estimate under the given plan.

    Level runs use disjoint child streams of SeedSequence(seed), so they
    are exchangeable: executing levels in any order, or all at once as the
    lanes of one loop, gives the same per-level results.  The assembly
    sums level estimates in level order.
    """
    [(estimates, theta_hat, cost)] = _run_plan_ensemble(model, [plan], [seed], reproj,
                                                        theta0, coupling)
    return MLEstimate(theta_hat=float(theta_hat[0]),
                      level_estimates=tuple(float(v) for v in estimates[:, 0]),
                      realized_cost=float(cost),
                      seeds=tuple((int(seed), l) for l in range(plan.L + 1)))


@dataclass(frozen=True)
class MseCostRow:
    epsilon: float
    mse: float
    mean_cost: float
    stderr_mse: float


@dataclass(frozen=True)
class MseCostResult:
    """Replicated mean-square-error/cost curve against the limit root."""

    rows: tuple[MseCostRow, ...]
    cost_slope: float        # slope of log(mean_cost) against log(epsilon)
    theta_reference: float   # the limit root the MSE is measured against

    def mse_ratio_drift(self) -> float:
        """max over eps of MSE/eps**2 divided by its min (schedule health)."""
        ratios = [r.mse / r.epsilon ** 2 for r in self.rows]
        return max(ratios) / min(ratios)


def mse_cost_experiment(model: FiniteLevelModel, epsilons, R: int, seed0: int,
                        rates: RateParameters | None = None, n_min: int = 100,
                        c_n: float = 1.0, reproj: ReprojectionFamily = ReprojectionFamily(),
                        theta0: float = 0.0, coupling: str = "crn") -> MseCostResult:
    """Empirical MSE and cost of the multilevel estimator per precision.

    For each eps: R independent estimates, replicate r rooted at seed0 + r
    at every eps, so the rows share common random numbers and their
    stderr_mse values are not independent of each other; MSE against the
    exact limit root, replicate-mean realized cost.  The log-log slope of
    cost against eps should sit near -2 in the analyzed regime.  Every plan
    runs in one lane loop; an MSE of exactly 0 leaves MSE/eps**2 without a
    drift and is a NumericalError.
    """
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 3 or any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ParameterError("epsilons must be strictly decreasing with at least 3 entries")
    if not 50 <= R <= sys.maxsize:  # the length of the range of root seeds is an index
        raise ParameterError(f"need 50 <= R <= {sys.maxsize} replicates, got {R}")
    if rates is None:
        rates = RateParameters(alpha=model.beta0, beta=model.beta0, zeta=1.0, kappa=0.5)
    plans = [schedule_levels(eps, rates, n_min=n_min, c_n=c_n) for eps in epsilons]
    runs = _run_plan_ensemble(model, plans, range(seed0, seed0 + R), reproj, theta0, coupling)
    truth = level_root(model, math.inf)
    rows = []
    for plan, (_, theta_hats, cost) in zip(plans, runs):
        sq = (theta_hats - truth) ** 2
        rows.append(MseCostRow(epsilon=plan.epsilon, mse=float(sq.mean()), mean_cost=float(cost),
                               stderr_mse=float(sq.std(ddof=1) / math.sqrt(R))))
        if rows[-1].mse == 0.0:  # MSE/eps**2 has no drift when one MSE is 0
            raise NumericalError(f"the MSE at epsilon={plan.epsilon} is 0: every estimate "
                                 f"equals the limit root {truth!r}")
    slope = float(np.polyfit(np.log([r.epsilon for r in rows]),
                             np.log([r.mean_cost for r in rows]), 1)[0])
    return MseCostResult(rows=tuple(rows), cost_slope=slope, theta_reference=float(truth))
