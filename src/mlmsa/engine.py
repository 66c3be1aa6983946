"""Stochastic simulation of the root-finding procedures.

Three procedures are provided: single-level stochastic approximation with
reprojection (:func:`msa_run`), the coupled level-increment variant that
advances a fine and a coarse chain with shared step sizes
(:func:`coupled_msa_run`), and a replicated estimator of the increment
CLT variance (:func:`empirical_clt_variance`).

One iteration is: sample the next chain state from the Metropolis kernel
at the current parameter, take the tentative Robbins-Monro step
theta + gamma_n * H(theta, X_n) evaluated at the fresh state, then either
accept it (if it lies in the current constraint set) or reset to the
initial parameter and enlarge the set.  On reset the chain state is
restored to its initial value as well.

Determinism contract: every run owns a generator seeded from its explicit
seed, and identical (arguments, seed) reproduce bit-identical
trajectories.  An unconfigured initial state takes one integer draw; then
each step draws two uniforms, four under the independent coupling.  The
fine chain reads columns (0, 1) as its (direction, acceptance) pair, the
coarse chain (0, 1) under CRN and (2, 3) under the independent coupling.
Replicated estimators seed replicate i with seed0 + i; replicates are
mutually independent and are executed as one vectorized ensemble, whose
state has layout (chains, replicates): row 0 is the fine chain at level
l, row 1 (coupled runs only) the coarse chain at level l - 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import NumericalError, ParameterError, ReprojectionFamily, StepSchedule
from .model import FiniteLevelModel, _step_diffs, level_statistic

__all__ = [
    "Trajectory",
    "CoupledTrajectory",
    "msa_run",
    "coupled_msa_run",
    "CLTVarianceEstimate",
    "empirical_clt_variance",
]

_CHUNK = 8192


def _validate_containment(family: ReprojectionFamily, theta_paths, psi_path,
                          events) -> None:
    """Check theta_n in K_{psi_n} for every path and n, that psi increments
    exactly at the recorded reprojection events, and that psi never
    decreases."""
    bounds = family.r0 + family.growth * psi_path
    if any(np.any(np.abs(path) > bounds) for path in theta_paths):
        raise NumericalError("containment violated: a parameter left its constraint set")
    jumps = np.flatnonzero(np.diff(psi_path) != 0) + 1
    if not np.array_equal(jumps, np.asarray(events, dtype=jumps.dtype)):
        raise NumericalError("psi jumps do not match recorded reprojection events")
    if np.any(np.diff(psi_path) < 0):
        raise NumericalError("psi must be nondecreasing")


@dataclass(frozen=True)
class Trajectory:
    """Single-level run record; paths have length n_steps + 1 (entry 0 is
    the initial condition)."""

    level: int | float
    seed: int
    theta_path: np.ndarray
    x_path: np.ndarray
    psi_path: np.ndarray
    reprojection_events: tuple[int, ...]
    theta0: float
    x0: int

    @property
    def theta_final(self) -> float:
        return float(self.theta_path[-1])

    def validate_containment(self, family: ReprojectionFamily) -> None:
        _validate_containment(family, (self.theta_path,), self.psi_path,
                              self.reprojection_events)


@dataclass(frozen=True)
class CoupledTrajectory:
    """Coupled run record; the two chains share psi and reset together."""

    level: int
    seed: int
    coupling: str
    fine_theta_path: np.ndarray
    coarse_theta_path: np.ndarray
    fine_x_path: np.ndarray
    coarse_x_path: np.ndarray
    psi_path: np.ndarray
    reprojection_events: tuple[int, ...]
    theta0: float
    theta0_bar: float
    x0: int
    x0_bar: int

    @property
    def increments(self) -> np.ndarray:
        return self.fine_theta_path - self.coarse_theta_path

    @property
    def increment_final(self) -> float:
        return float(self.fine_theta_path[-1] - self.coarse_theta_path[-1])

    def validate_containment(self, family: ReprojectionFamily) -> None:
        _validate_containment(family, (self.fine_theta_path, self.coarse_theta_path),
                              self.psi_path, self.reprojection_events)


class _Ensemble:
    """Vectorized replicate state for the stepping loop (internal): theta,
    theta0, x and x0 per (chain, replicate), psi and last_reproj per replicate."""

    def __init__(self, rngs, m, theta0, theta0_bar, x0, x0_bar, coupled):
        for name, x in (("x0", x0), ("x0_bar", x0_bar)):  # None: drawn or shared
            if x is not None and (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                                  or not 0 <= x < m):
                raise ParameterError(f"{name} must be None or an integer in [0, m) with "
                                     f"m={m}, got {x!r}")
        R = len(rngs)
        C = 2 if coupled else 1
        fine = np.array([rng.integers(m) if x0 is None else x0 for rng in rngs], np.int64)
        # an unconfigured coarse chain starts at the fine chain's state:
        # the pair begins coalesced, which is what the coupling is for
        coarse = fine if x0_bar is None else np.full(R, x0_bar, np.int64)
        self.theta0 = np.repeat([[theta0], [theta0_bar]][:C], R, axis=1).astype(float)
        self.x0 = np.stack([fine, coarse][:C])
        self.theta = self.theta0.copy()
        self.x = self.x0.copy()
        self.psi = np.zeros(R, dtype=np.int64)
        self.last_reproj = np.zeros(R, dtype=np.int64)


def _move(x, up, u_acc, theta, table):
    """Vectorized Metropolis move given the direction flags (proposal is
    +1) and acceptance uniforms; table is a move table from _step_diffs."""
    diff, dest = table
    i = 2 * x + up
    acc = np.exp(np.minimum(theta * diff[i], 0.0))
    return np.where(u_acc < acc, dest[i], x)


def _run_ensemble(model: FiniteLevelModel, l, schedule: StepSchedule,
                  family: ReprojectionFamily, n_steps: int, rngs,
                  theta0: float, x0, theta0_bar: float = 0.0, x0_bar=None,
                  coupled: bool = False, coupling: str = "crn",
                  record: bool = False):
    """Advance all replicates n_steps; the inner loop is vectorized across
    chains and replicates, and uniforms are pre-drawn per chunk from each
    replicate's own generator (batching does not change a generator's
    stream)."""
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    if coupling not in ("crn", "independent"):
        raise ParameterError(f"coupling must be 'crn' or 'independent', got {coupling!r}")
    R, m = len(rngs), model.m
    st = _Ensemble(rngs, m, theta0, theta0_bar, x0, x0_bar, coupled)
    levels = (l, l - 1) if coupled else (l,)
    # one table for all chains: chain c's states, landing states included,
    # are offset by c*m, so one gather serves every chain
    offsets = m * np.arange(len(levels))[:, None]
    diffs, dests = zip(*(_step_diffs(model, k) for k in levels))
    table = np.concatenate(diffs), (np.stack(dests) + offsets).ravel()
    s = np.concatenate([level_statistic(model, k) for k in levels])
    st.x += offsets
    st.x0 += offsets
    gammas = schedule.step_sizes(n_steps)
    # each chain's (direction, acceptance) columns start here: CRN reuses the
    # fine chain's pair for the coarse chain, the independent coupling draws two more
    cols = np.array([0, 2 if coupling == "independent" else 0][:len(levels)])
    paths = None
    if record:
        paths = {"theta": np.empty((n_steps + 1,) + st.theta.shape),
                 "x": np.empty((n_steps + 1,) + st.x.shape, np.int64),
                 "psi": np.empty((n_steps + 1, R), np.int64), "events": [[] for _ in range(R)]}
        paths["theta"][0], paths["x"][0], paths["psi"][0] = st.theta, st.x, st.psi
    step = 0
    while step < n_steps:
        span = min(_CHUNK, n_steps - step)
        U = np.stack([rng.random((span, cols[-1] + 2)) for rng in rngs], axis=2)
        ups, accs = U[:, cols] < 0.5, U[:, cols + 1]  # (span, chains, replicates)
        for t in range(span):
            step += 1
            xn = _move(st.x, ups[t], accs[t], st.theta, table)
            theta_half = st.theta + gammas[step - 1] * (s[xn] - st.theta)
            # one chain outside the set, or nan, resets both chains
            reset = ~(np.maximum.reduce(np.abs(theta_half)) <= family.r0 + family.growth * st.psi)
            st.theta = np.where(reset, st.theta0, theta_half)
            st.x = np.where(reset, st.x0, xn)
            st.psi = st.psi + reset
            st.last_reproj = np.where(reset, step, st.last_reproj)
            if record:
                paths["theta"][step], paths["x"][step], paths["psi"][step] = st.theta, st.x, st.psi
                for r in np.flatnonzero(reset):
                    paths["events"][r].append(step)
        if not np.all(np.isfinite(st.theta)):
            raise NumericalError(f"non-finite parameter encountered by step {step}")
    st.x -= offsets
    st.x0 -= offsets
    if record:
        paths["x"] -= offsets
    return st, paths


def msa_run(model: FiniteLevelModel, l, schedule: StepSchedule,
            reproj: ReprojectionFamily, n_steps: int, theta0: float,
            x0: int | None, seed: int) -> Trajectory:
    """Single-level stochastic approximation run.

    theta0 must lie in the initial constraint set.  x0 = None draws the
    initial state uniformly from the grid (one integer draw before the
    per-step uniforms).
    """
    if not reproj.contains(theta0, 0):
        raise ParameterError(f"theta0={theta0} is outside the initial constraint set")
    rng = np.random.default_rng(seed)
    st, paths = _run_ensemble(model, l, schedule, reproj, n_steps, [rng],
                              theta0, x0, record=True)
    return Trajectory(level=l, seed=seed,
                      theta_path=paths["theta"][:, 0, 0].copy(),
                      x_path=paths["x"][:, 0, 0].copy(),
                      psi_path=paths["psi"][:, 0].copy(),
                      reprojection_events=tuple(paths["events"][0]),
                      theta0=theta0, x0=int(st.x0[0, 0]))


def coupled_msa_run(model: FiniteLevelModel, l, schedule: StepSchedule,
                    reproj: ReprojectionFamily, n_steps: int, seed: int,
                    theta0: float = 0.0, theta0_bar: float = 0.0,
                    x0: int | None = None, x0_bar: int | None = None,
                    coupling: str = "crn") -> CoupledTrajectory:
    """Coupled level-increment run: fine chain at level l, coarse at l - 1,
    both parameters updated with the same step sizes, states advanced by
    one coupled transition per iteration, reprojection joint.

    With x0 and x0_bar unconfigured the pair starts at one shared uniform
    draw (coalesced), which is the point of the coupling; pass explicit
    distinct states to study excursions.
    """
    if l == math.inf or l < 1:
        raise ParameterError(f"coupled run needs a finite level l >= 1, got {l!r}")
    if not (reproj.contains(theta0, 0) and reproj.contains(theta0_bar, 0)):
        raise ParameterError("initial parameters must lie in the initial constraint set")
    rng = np.random.default_rng(seed)
    st, paths = _run_ensemble(model, l, schedule, reproj, n_steps, [rng],
                              theta0, x0, theta0_bar, x0_bar,
                              coupled=True, coupling=coupling, record=True)
    return CoupledTrajectory(level=int(l), seed=seed, coupling=coupling,
                             fine_theta_path=paths["theta"][:, 0, 0].copy(),
                             coarse_theta_path=paths["theta"][:, 1, 0].copy(),
                             fine_x_path=paths["x"][:, 0, 0].copy(),
                             coarse_x_path=paths["x"][:, 1, 0].copy(),
                             psi_path=paths["psi"][:, 0].copy(),
                             reprojection_events=tuple(paths["events"][0]),
                             theta0=theta0, theta0_bar=theta0_bar,
                             x0=int(st.x0[0, 0]), x0_bar=int(st.x0[1, 0]))


@dataclass(frozen=True)
class CLTVarianceEstimate:
    """Replicated estimate of the increment CLT variance.

    estimate is gamma_n**-1 times the sample variance of the final
    increments over the kept replicates; stderr is its jackknife standard
    error.  Replicates that reprojected in the second half of the run are
    discarded (the CLT is conditional on the iterates having settled).
    """

    estimate: float
    stderr: float
    gamma_n: float
    n_steps: int
    n_kept: int
    n_discarded: int
    increments: np.ndarray = field(repr=False)


def empirical_clt_variance(model: FiniteLevelModel, l, schedule: StepSchedule,
                           n_steps: int, R: int, seed0: int,
                           reproj: ReprojectionFamily | None = None,
                           coupling: str = "crn",
                           theta0: float = 0.0, theta0_bar: float = 0.0) -> CLTVarianceEstimate:
    """Estimate the increment CLT variance from R independent coupled runs.

    Requires a polynomial schedule (the CLT scaling needs decaying steps)
    and R >= 100.  Replicate i is seeded seed0 + i and is identical to
    coupled_msa_run with that seed; the ensemble is advanced jointly for
    speed.  Warns when more than 20% of replicates are discarded by the
    settling rule, which indicates a reprojection family that is too
    tight for the model.
    """
    if R < 100:
        raise ParameterError(f"need R >= 100 replicates, got {R}")
    if schedule.kind != "polynomial":
        raise ParameterError("CLT variance estimation needs a polynomial schedule")
    if reproj is None:
        reproj = ReprojectionFamily(2.0, 1.0)
    rngs = [np.random.default_rng(seed0 + i) for i in range(R)]
    st, _ = _run_ensemble(model, l, schedule, reproj, n_steps, rngs,
                          theta0, None, theta0_bar, None,
                          coupled=True, coupling=coupling, record=False)
    keep = st.last_reproj <= n_steps // 2
    n_disc = int(R - keep.sum())
    if n_disc > 0.2 * R:
        warnings.warn(f"{n_disc}/{R} replicates reprojected late (reprojection family too "
                      "tight for this model); estimate may be biased", stacklevel=2)
    inc = (st.theta[0] - st.theta[1])[keep]
    n = inc.size
    if n < 3:
        raise NumericalError(f"only {n} replicates survived the settling rule")
    gamma_n = schedule.step_size(n_steps)
    est = float(np.var(inc, ddof=1) / gamma_n)
    # leave-one-out variances in closed form for the jackknife
    s1, s2 = inc.sum(), np.dot(inc, inc)
    loo_mean = (s1 - inc) / (n - 1)
    loo_var = (s2 - inc ** 2 - (n - 1) * loo_mean ** 2) / (n - 2)
    jack = loo_var / gamma_n
    stderr = float(np.sqrt((n - 1) / n * np.sum((jack - jack.mean()) ** 2)))
    return CLTVarianceEstimate(estimate=est, stderr=stderr, gamma_n=float(gamma_n),
                               n_steps=n_steps, n_kept=n, n_discarded=n_disc,
                               increments=inc)
