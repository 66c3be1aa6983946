"""Exact linear-algebra computations on finite-state chains.

Everything in this module is deterministic linear algebra: stationary
laws, Poisson-equation solutions, mean fields and their roots, the
asymptotic variance of the coupled level-increment estimator with its full
term breakdown, geometric-ergodicity rates, drift/minorization
certificates, and the decay-rate diagnostics that check the model's level
hierarchy behaves as advertised.  One solver gives every stationary law
and makes each of its checks once.  The coupled chain on m**2 pairs is
block-tridiagonal in its fine state and is solved by linear level
reduction over m x m blocks (O(m**4) time, O(m**3) memory, m up to about
200); a single-level chain is the one-level case.  Uniqueness and
aperiodicity are checked by breadth-first reachability on the kernel's
support graph (one closed communicating class, of period 1), not by its
spectrum.

Conventions.  For a weight vector V >= 1, |f|_V = max_x |f(x)|/V(x); for
signed measures, ||mu - xi||_V = sum_y V(y)|mu(y) - xi(y)| (the V-weighted
total variation, which is the sup over |f| <= V of the integral gap); for
kernels, |||K1 - K2|||_V = max_x ||K1(x,.) - K2(x,.)||_V / V(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, ParameterError, _check_bytes
from .model import (
    FiniteLevelModel,
    _per_model,
    coupled_kernel_blocks,
    kernel_matrix,
    level_statistic,
    lyapunov_vector,
    metric_matrix,
    target_density,
)

__all__ = [
    "PoissonSolution",
    "poisson_solve",
    "mean_field",
    "mean_field_derivative",
    "level_root",
    "VarianceReport",
    "asymptotic_variance",
    "GeometricRate",
    "estimate_geometric_rate",
    "ErgodicityCertificate",
    "certify_drift_minorization",
    "LevelDiagnostics",
    "rate_diagnostics",
    "lemma_diagnostics",
    "fitted_log2_slope",
]

_ROOT_BRACKET = (-2.0, 2.0)
_ROOT_TOL = 1e-12
_RATE_MAX_POWERS = 2000  # power steps of estimate_geometric_rate
_RATE_CHUNK = 16  # powers per reduction: the chunk buffer is about 1.5 MB at the defaults
_RATE_N_PROBES = 6  # probe functions: constant, alternating, seeded random signs
_RATE_SEED = 0
_DRIFT_MARGIN = 0.05  # added to the worst drift ratio to give lambda_drift
_MINOR_TARGET = 0.05  # minorization mass the doubling search for n0 aims at
_MINOR_N0_CAP = 1 << 15
# bytes certify_drift_minorization holds, measured with tracemalloc at m = 8 to
# 64 over 63 and 280 kernels: per kernel and state, the V, pi and KV stacks
# with the drift search's temporaries (55 to 65); and per call, numpy's
# iterator buffers and the fits' small arrays (about 110 KiB)
_CERT_STATE_BYTES, _CERT_CALL_BYTES = 72, 2 ** 17


def _check_stochastic(*blocks: np.ndarray) -> None:
    """The blocks, (B, n, n) stacks side by side, form row-stochastic
    kernels: entries are nonnegative and each row sums to 1 over all blocks."""
    if blocks[0].ndim != 3 or blocks[0].shape[1] != blocks[0].shape[2]:
        raise ParameterError(f"kernel must be square, got shape {blocks[0].shape[1:]}")
    if not all(np.all(B >= -1e-12) for B in blocks):
        raise ParameterError("kernel has negative or NaN entries")
    if np.max(np.abs(sum(B.sum(axis=-1) for B in blocks) - 1.0)) > 1e-9:
        raise ParameterError("kernel rows do not sum to 1")


def _distances(n: int, src: np.ndarray, dst: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first path length from start to every state along the edges
    src -> dst; -1 where unreachable.

    The edges are held as a padded adjacency table: row v lists the states
    v reaches, padded to the largest out-degree with a sink state n that
    counts as reached.  Each distance is then one gather of the frontier's
    rows, one filter, one scatter and one scan for the next frontier:
    O(edges + n * (largest out-degree + depth)) in all."""
    order = np.argsort(src, kind="stable")
    count = np.bincount(src, minlength=n)
    table = np.full((n, count.max()), n)
    src = src[order]
    table[src, np.arange(src.size) - (np.cumsum(count) - count)[src]] = dst[order]
    dist = np.full(n + 1, -1)
    dist[[start, n]] = 0
    frontier, d = np.array([start]), 0
    while frontier.size:
        d += 1
        reached = table[frontier].ravel()
        dist[reached[dist[reached] < 0]] = d
        frontier = np.flatnonzero(dist == d)
    return dist[:n]


def _check_support(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Structural check on the support graph of an n-state chain, given as
    its edges src -> dst.

    The multiplicity of eigenvalue 1 is the number of closed communicating
    classes (classes no edge leaves), so exactly one is required.  State r
    is in a closed class when every state r reaches reaches r back; until
    then r moves to the farthest state that does not, a class further down,
    so at most n - 1 times: more moves mean wrong distances, a NumericalError.
    The closed class is then unique when every state reaches r.  Its period,
    the gcd over its edges u -> v of dist(u) + 1 - dist(v) for dist the path
    length from r, must be 1.
    """
    r = 0
    for _ in range(n):
        dist = _distances(n, src, dst, r)
        back = _distances(n, dst, src, r) >= 0
        escaped = np.where(back, -1, dist)
        if escaped.max() < 0:
            break
        r = int(np.argmax(escaped))
    else:
        raise NumericalError(f"support check failed: no closed class found in {n} moves")
    if not back.all():
        raise NumericalError(
            f"support check failed: eigenvalue 1 has multiplicity above 1 ({n - back.sum()} "
            f"states cannot reach the closed class of state {r}; stationary law is not unique)")
    inside = dist[src] >= 0
    period = int(np.gcd.reduce(np.abs(dist[src[inside]] + 1 - dist[dst[inside]])))
    if period != 1:
        raise NumericalError(
            f"support check failed: the closed class of {int((dist >= 0).sum())} states has "
            f"period {period} (periodic chain)")


def _block_stationary(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Unique stationary law P, of shape (L, n), of a block-tridiagonal chain.

    The chain has L levels of n states; lower[x], diag[x] and upper[x] are
    the (n, n) blocks from level x to levels x - 1, x and x + 1, so lower[0]
    and upper[L-1] are zero.  Linear level reduction (Gaver, Jacobs and
    Latouche 1984) censors the chain from the top level down: the chain
    watched on levels <= x has level-x block

        U_{L-1} = D_{L-1},   U_x = D_x + Up_x (I - U_{x+1})^-1 Lo_{x+1}.

    The balance equations of U_0, one replaced by sum(p) = 1, give P[0] up
    to scale, and P[x] = P[x-1] Up_{x-1} (I - U_x)^-1; O(L n**3) time.

    Every check of a stationary law is here, once: nonnegative entries and
    unit row sums; one closed communicating class of period 1 on the
    support graph (transient states, periodic or not, are allowed);
    nonsingular solves; no negative mass beyond 1e-10; and the balance
    residual |P K - P| at most 1e-9, block by block.
    """
    _check_stochastic(diag, lower, upper)
    L, n = diag.shape[:2]
    xs, ys, shift, yn = np.nonzero(np.stack([lower > 0.0, diag > 0.0, upper > 0.0], axis=2))
    _check_support(L * n, xs * n + ys, (xs + shift - 1) * n + yn)
    eye = np.eye(n)
    U = np.empty_like(diag)
    U[-1] = diag[-1]
    P = np.empty((L, n))
    try:
        for x in range(L - 2, -1, -1):
            U[x] = diag[x] + upper[x] @ np.linalg.solve(eye - U[x + 1], lower[x + 1])
        A = U[0].T - eye
        A[-1, :] = 1.0
        P[0] = np.linalg.solve(A, eye[-1])
        for x in range(1, L):
            P[x] = np.linalg.solve((eye - U[x]).T, P[x - 1] @ upper[x - 1])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary solve is singular: {exc}") from exc
    if np.min(P) < -1e-10 * P.sum():
        raise NumericalError(
            f"stationary solve produced negative mass {np.min(P) / P.sum():.3e}")
    P = np.maximum(P, 0.0)
    P /= P.sum()
    resid = (P[:, None, :] @ diag)[:, 0, :] - P
    resid[:-1] += (P[1:, None, :] @ lower[1:])[:, 0, :]
    resid[1:] += (P[:-1, None, :] @ upper[:-1])[:, 0, :]
    if np.max(np.abs(resid)) > 1e-9:
        raise NumericalError(f"stationary residual {np.max(np.abs(resid)):.3e} exceeds tolerance")
    return P


def stationary_distribution(K: np.ndarray) -> np.ndarray:
    """Unique stationary law of a row-stochastic matrix: the one-level case
    of _block_stationary, with all of its checks."""
    K = np.asarray(K, dtype=float)[None]
    return _block_stationary(np.zeros_like(K), K, np.zeros_like(K))[0]


@dataclass(frozen=True)
class PoissonSolution:
    """Solution g of g - K g = f - pi(f) with the centering pi(g) = 0."""

    g_hat: np.ndarray
    Kg_hat: np.ndarray
    centered_f: np.ndarray


def poisson_solve(K: np.ndarray, pi: np.ndarray, f: np.ndarray) -> PoissonSolution:
    """Poisson-equation solve through the fundamental matrix.

    Solves (I - K + 1 pi^T) g = f - pi(f), which automatically yields
    pi(g) = 0; g is recentred once more to scrub rounding.  The residual of
    the identity g - Kg = f - pi(f) is checked to 1e-10 and an
    ill-conditioned fundamental matrix is reported with its condition
    estimate.
    """
    _check_stochastic(K[None])
    if np.max(np.abs(pi @ K - pi)) > 1e-8:
        raise ParameterError("pi is not stationary for K")
    n = K.shape[0]
    centered = f - pi @ f
    M = np.eye(n) - K + np.outer(np.ones(n), pi)
    try:
        g = np.linalg.solve(M, centered)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"fundamental matrix is singular (condition estimate {np.linalg.cond(M):.3e})"
        ) from exc
    g = g - pi @ g
    Kg = K @ g
    resid = np.max(np.abs(g - Kg - centered))
    if resid > 1e-10:
        raise NumericalError(
            f"Poisson identity residual {resid:.3e} exceeds 1e-10 "
            f"(fundamental matrix condition {np.linalg.cond(M):.3e})")
    return PoissonSolution(g, Kg, centered)


def mean_field(model: FiniteLevelModel, l, theta: float) -> float:
    """h_l(theta) = pi_{theta,l}(phi_l) - theta."""
    pi = target_density(model, l, theta)
    return float(pi @ level_statistic(model, l) - theta)


def mean_field_derivative(model: FiniteLevelModel, l, theta: float) -> float:
    """dh_l/dtheta = Var_{pi_{theta,l}}(phi_l) - 1 (tilt identity)."""
    pi = target_density(model, l, theta)
    s = level_statistic(model, l)
    mu = pi @ s
    return float(pi @ (s * s) - mu * mu - 1.0)


@_per_model
def level_root(model: FiniteLevelModel, l) -> float:
    """Unique root theta*_l of h_l, by bisection to |h| < 1e-12.

    Every model has |phi_l| <= 0.96, so h is strictly decreasing with
    h(-2) >= 1.04 > 0 > h(2): [-2, 2] holds the root, unchecked.  The stop
    can still fail: at large m the rounding of pi @ s can exceed 1e-12.
    """
    lo, hi = _ROOT_BRACKET
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h_mid = mean_field(model, l, mid)
        if abs(h_mid) < _ROOT_TOL:
            return mid
        if h_mid > 0.0:
            lo = mid
        else:
            hi = mid
    raise NumericalError(f"bisection did not reach |h| < {_ROOT_TOL} (level {l})")


@_per_model
def _coupled_stationary(model: FiniteLevelModel, l, theta: float, theta_bar: float,
                        coupling: str) -> np.ndarray:
    """Stationary law of the coupled kernel, flat over pairs x*m + xbar.

    The kernel is block-tridiagonal in the fine state x (a finite
    level-dependent quasi-birth-death chain), so _block_stationary solves
    it from coupled_kernel_blocks, never as a dense m**2 x m**2 matrix:
    O(m**4) time, and 32 m**3 bytes for the blocks and U, which the byte
    budget allows up to m = 203.  At the defaults the result's bytes do
    not change with the BLAS thread count.  Kept with the model, though no
    command solves one law twice: perfbench reads its cache_info().
    """
    m = model.m
    _check_bytes(f"coupled stationary law for m={m}", 4 * 8 * m ** 3)  # blocks and U
    pi = _block_stationary(*coupled_kernel_blocks(model, l, theta, theta_bar, coupling)).ravel()
    pi.setflags(write=False)
    return pi


@dataclass(frozen=True)
class VarianceReport:
    """Asymptotic variance of the coupled level-increment estimator.

    sigma is the variance in the increment CLT; t1/t2 split it into the
    fine-marginal and coarse-marginal halves, the shared cross term divided
    evenly between them.  cross_term is the raw coupled expectation
    pi_check(g_f (x) g_c - K g_f (x) K g_c) without its prefactor, with
    pi_check the coupled stationary law of _coupled_stationary.  That law
    comes from the level reduction over m levels of m pairs; at the default
    model, levels 1 to 8, the fields agree to within 1e-11 with the law of
    the m**2 x m**2 kernel solved as one level, and a cross term that is
    zero in exact arithmetic (independent coupling) reads as rounding of
    order 1e-13.
    """

    level: int
    coupling: str
    sigma: float
    t1: float
    t2: float
    dh_l: float
    dh_lm1: float
    theta_star_l: float
    theta_star_lm1: float
    cross_term: float


def asymptotic_variance(model: FiniteLevelModel, l, coupling: str = "crn") -> VarianceReport:
    """Exact CLT variance of the level-l increment estimator.

    Assembles, at the pair of roots (theta*_l, theta*_{l-1}):

    - the two marginal terms, each the classical single-chain asymptotic
      variance pi(g^2 - (Kg)^2) of the update statistic H scaled by
      -(2 dh/dtheta)^-1, and
    - the cross term, the coupled-stationary expectation of
      g_f (x) g_c - K(g_f) (x) K(g_c) scaled by
      2 (dh_l/dtheta + dh_{l-1}/dtheta)^-1,

    where g is the Poisson solution for H at its root.  Under the
    independent coupling the cross expectation factorizes over centred
    functions and vanishes; common random numbers make it positive, which
    lowers sigma.  Each dh/dtheta = Var(phi_l) - 1 <= 0.96**2 - 1 < -0.079,
    since every model has |phi_l| <= 0.96, far beyond its rounding (m * eps).
    """
    if l == math.inf or l < 1:
        raise ParameterError(f"variance needs a finite level l >= 1, got {l!r}")
    th_f, th_c, _, (f2, Kf2, c2, Kc2, cross, Kcross) = _level_pair(model, l, coupling)
    dh_f = mean_field_derivative(model, l, th_f)
    dh_c = mean_field_derivative(model, l - 1, th_c)
    fine_raw = f2 - Kf2
    coarse_raw = c2 - Kc2
    cross_raw = cross - Kcross
    pref_f = -1.0 / (2.0 * dh_f)
    pref_c = -1.0 / (2.0 * dh_c)
    pref_x = 1.0 / (dh_f + dh_c)
    t1 = pref_f * fine_raw + pref_x * cross_raw
    t2 = pref_c * coarse_raw + pref_x * cross_raw
    sigma = t1 + t2
    if sigma < -1e-10:
        raise NumericalError(
            f"asymptotic variance {sigma:.3e} is negative beyond tolerance "
            "(formula implementation bug)")
    return VarianceReport(level=int(l), coupling=coupling, sigma=sigma, t1=t1, t2=t2,
                          dh_l=dh_f, dh_lm1=dh_c, theta_star_l=th_f, theta_star_lm1=th_c,
                          cross_term=cross_raw)


def _level_pair(model: FiniteLevelModel, l, coupling: str):
    """Roots (theta*_l, theta*_{l-1}), the m x m coupled stationary law P and, for
    Poisson solutions A = g_l, B = g_{l-1} and P's marginals marg_f, marg_c, the raw
    moments marg_f(A^2), marg_f((KA)^2), marg_c(B^2), marg_c((KB)^2), APB, KA P KB."""
    th_f = level_root(model, l)
    th_c = level_root(model, l - 1)
    sol_f = _poisson_for(model, l, th_f)
    sol_c = _poisson_for(model, l - 1, th_c)
    A, KA = sol_f.g_hat, sol_f.Kg_hat
    B, KB = sol_c.g_hat, sol_c.Kg_hat
    P = _coupled_stationary(model, l, th_f, th_c, coupling).reshape(model.m, model.m)
    marg_f = P.sum(axis=1)
    marg_c = P.sum(axis=0)
    return th_f, th_c, P, (marg_f @ (A * A), marg_f @ (KA * KA), marg_c @ (B * B),
                           marg_c @ (KB * KB), A @ P @ B, KA @ P @ KB)


@dataclass(frozen=True)
class GeometricRate:
    """Fitted geometric convergence rate and the powers the fit read."""

    rho_hat: float
    n_powers: int


def estimate_geometric_rate(K: np.ndarray, pi: np.ndarray,
                            V: np.ndarray) -> tuple[GeometricRate, ...]:
    """Fit rho in |(K^n - pi)(f)|_V <= C rho^n over a probe set |f| <= V,
    for each kernel of a (B, n, n) stack K with pi and V of shape (B, n);
    returns the rates in stack order.

    Probes are sign patterns times V (constant, alternating, and seeded
    random signs).  The decay of the probe maximum is fitted log-linearly
    past a short transient.  One power loop serves the whole stack: each
    kernel stops at its own first power n with sup_n < 1e-13 max(sup_1, 1),
    the loop ends once every kernel has stopped or after _RATE_MAX_POWERS
    powers, and each fit reads its kernel's sequence up to its own stop.

    The loop runs in chunks of _RATE_CHUNK powers.  Each power is one
    matmul into the chunk buffer; each chunk then reduces all its powers at
    once, in place, against full-shape copies of the means and of V, and
    finds every running kernel's first power under the stop.  These are the
    same IEEE operations on the same operands as one reduction per power,
    and a max is exact, so the sups, stops and fits do not depend on the
    chunk size.  A chunk may run past the power where the last kernel
    stops; no fit reads those powers.
    """
    _check_stochastic(K)
    B, n = K.shape[:2]
    rng = np.random.default_rng(_RATE_SEED)
    signs = [np.ones(n), (-1.0) ** np.arange(n)]
    while len(signs) < _RATE_N_PROBES:
        signs.append(rng.choice([-1.0, 1.0], size=n))
    curr = np.stack([V * s for s in signs], axis=-1)  # (B, n, probes)
    shape = curr.shape
    means = np.broadcast_to(pi[:, None, :] @ curr, shape).copy()
    weights = np.broadcast_to(V[:, :, None], shape).copy()
    buf = np.empty((_RATE_CHUNK,) + shape)
    sup = np.empty((_RATE_MAX_POWERS, B))  # row j: each kernel's sup at power j + 1
    stop = np.zeros(B, dtype=int)  # the power each kernel stopped at
    done = 0
    while done < _RATE_MAX_POWERS and not stop.all():
        t = min(_RATE_CHUNK, _RATE_MAX_POWERS - done)
        for i in range(t):
            curr = np.matmul(K, curr, out=buf[i])
        curr = curr.copy()  # the reductions below overwrite the chunk in place
        chunk = buf[:t]
        np.subtract(chunk, means, out=chunk)
        np.abs(chunk, out=chunk)
        np.divide(chunk, weights, out=chunk)
        np.max(chunk.reshape(t, B, -1), axis=2, out=sup[done:done + t])
        below = sup[done:done + t] < 1e-13 * np.maximum(sup[0], 1.0)
        hit = (stop == 0) & below.any(axis=0)
        stop[hit] = done + 1 + below.argmax(axis=0)[hit]
        done += t
    stop[stop == 0] = _RATE_MAX_POWERS
    rates = []
    for row, n_powers in zip(sup.T, stop.tolist()):
        row = row[:n_powers]
        start = min(5, max(n_powers - 3, 0))
        usable = row[start:] > 1e-300
        rho = 0.0
        if np.sum(usable) >= 3:
            ns = np.arange(start + 1, n_powers + 1)[usable]
            rho = float(np.exp(np.polyfit(ns, np.log(row[start:][usable]), 1)[0]))
        rates.append(GeometricRate(rho_hat=rho, n_powers=n_powers))
    return tuple(rates)


@dataclass(frozen=True)
class ErgodicityCertificate:
    """Numerical drift/minorization certificate, uniform over a (theta, l) grid.

    The drift inequality K(V)(x) <= lambda_drift V(x) + b_drift 1_C(x)
    holds entrywise at every grid point with lambda_drift < 1; margins are
    folded into lambda_drift and b_drift so the certificate also survives
    parameters between grid points.  Minorization is certified for the
    n_steps_minor-fold kernel: K^n0(x, .) >= epsilon_minor nu_{theta,l}(.)
    for every state x, with nu_mass = inf over the grid of nu(C).
    One-step minorization is hopeless for a nearest-neighbour chain (rows
    have zeros), hence the multi-step form.
    """

    epsilon_minor: float
    small_set: tuple[int, ...]
    nu_mass: float
    lambda_drift: float
    b_drift: float
    rho_hat: float
    n_steps_minor: int
    thetas: tuple[float, ...]
    levels: tuple[int, ...]
    extended_states: tuple[int, ...]  # states added to the top-mass core


def _distinct_grid(model: FiniteLevelModel, levels: list[int], thetas: list[float]):
    """The grid points, levels outer and theta inner, each kept only if no
    earlier kept point has the same (K, V, pi), and the (B, m, m), (B, m)
    and (B, m) stacks of the kept points' K, V and pi, in grid order.  A
    hash of the three arrays' bytes picks the candidates, np.array_equal
    confirms a match.  The per-point rows go on return, before the
    certificate's larger temporaries."""
    points, rows, seen = [], [], {}
    for l in levels:
        for th in thetas:
            row = (kernel_matrix(model, l, th), lyapunov_vector(model, l, th),
                   target_density(model, l, th))
            same = seen.setdefault(hash(tuple(a.tobytes() for a in row)), [])
            if not any(all(map(np.array_equal, row, rows[i])) for i in same):
                same.append(len(rows))
                rows.append(row)
                points.append((l, th))
    return (points, *(np.stack(stack) for stack in zip(*rows)))


def certify_drift_minorization(model: FiniteLevelModel, levels,
                               theta_grid) -> ErgodicityCertificate:
    """Search a uniform drift/minorization certificate over the grid.

    The grid's kernels K, Lyapunov vectors V and stationary laws pi are
    stacked once, levels outer and theta inner, and every step below is one
    array expression over the stack.  The stack holds each distinct
    (K, V, pi) once, at its first grid point (theta = 0 gives the same flat
    walk at every level): each step reduces its rows by max, min or union,
    so a repeated row would change nothing, and a failing row is named by
    its first grid point.  The small set starts as the union
    over the grid of the smallest top-mass state sets holding half the
    stationary mass; states whose worst-case drift ratio max K(V)/V is not
    below 1 are then moved into the set by falling ratio (reflecting walls
    are the usual culprits).
    lambda_drift is the worst ratio outside the set plus _DRIFT_MARGIN, at
    most 1 - 1e-6, or halfway to 1 where that cap is not above the ratio,
    and b_drift 1.05 times the largest KV - lambda V on the set plus 1e-9, so
    the drift check fails on rounding only.  A flat target (theta = 0 makes
    V and K(V)/V identically 1) puts every state in the set: still a valid
    certificate for a finite chain, with the b-term everywhere.

    n0 doubles from m until every kernel's column-minimum mass of K^n0
    reaches _MINOR_TARGET or n0 reaches _MINOR_N0_CAP.  That mass lies in
    (0, 1) but for rounding: K is irreducible with K[0, 0] >= 1/2, so
    K^n > 0 from n = 2(m - 1), under the cap at every m the byte budget
    admits; and column minima sum to 1 only over equal rows, which no power
    of a reversible K of rank above one has.
    """
    levels = [int(l) for l in levels]
    n_kernels, m = len(levels) * len(theta_grid), model.m
    if not n_kernels:
        raise ParameterError("need at least one level and one theta")
    # per grid point, though only the distinct points' rows are held: the
    # kernel stack and the state vectors, then the larger of
    # matrix_power's temporaries (up to three more kernel stacks) and the rate
    # loop's sup history, chunk buffer and five more probe stacks (the probe
    # list, the stack, its copy, the means and the weights)
    probe_stack = 8 * _RATE_N_PROBES * m
    per_kernel = 8 * m * m + _CERT_STATE_BYTES * m + max(
        3 * 8 * m * m, 8 * _RATE_MAX_POWERS + probe_stack * (_RATE_CHUNK + 5))
    _check_bytes(f"a certificate over {len(levels)} levels x {len(theta_grid)} thetas at m={m}",
                 _CERT_CALL_BYTES + n_kernels * per_kernel)
    thetas = [float(t) for t in theta_grid]
    grid, K, V, pi = _distinct_grid(model, levels, thetas)
    order = np.argsort(-pi, axis=1)
    take = (np.cumsum(np.take_along_axis(pi, order, axis=1), axis=1) < 0.5).sum(axis=1) + 1
    core = np.zeros(m, dtype=bool)
    core[order[np.arange(m) < take[:, None]]] = True  # union of the top-mass sets
    KV = (K @ V[:, :, None])[:, :, 0]
    all_ratios = KV / V
    ratios = all_ratios.max(axis=0)
    # the outside states by falling ratio, ties to the lower index; those at
    # or above 1 - 1e-9 join the set, in that order
    outside = np.flatnonzero(~core)
    outside = outside[np.argsort(-ratios[outside], kind="stable")]
    extended = outside[ratios[outside] >= 1.0 - 1e-9].tolist()
    core[extended] = True
    if np.all(core):
        # flat-target degeneracy: fall back to the worst sub-unit contraction
        pool = all_ratios[all_ratios < 1.0 - 1e-9]
        worst_ratio = float(np.max(pool)) if pool.size else 0.5
    else:
        worst_ratio = np.max(ratios[~core])
    lam = min(worst_ratio + _DRIFT_MARGIN, 1.0 - 1e-6)
    if lam <= worst_ratio:
        lam = 0.5 * (worst_ratio + 1.0)
    b = 1.05 * np.max((KV - lam * V)[:, core], initial=0.0) + 1e-9

    # multi-step minorization: smallest doubling n0 with colmin mass >= target
    n0 = m
    while True:
        colmin = np.linalg.matrix_power(K, n0).min(axis=1)
        mass = colmin.sum(axis=1)
        eps = mass.min()
        if eps >= _MINOR_TARGET or n0 >= _MINOR_N0_CAP:
            break
        n0 *= 2
    if not (0.0 < eps < 1.0):
        raise NumericalError(
            f"minorization mass {eps:.3e} at n0={n0} not in (0, 1); chain mixes too slowly")
    # compress keeps rows C-ordered, so each row sums as the 1-D colmin[core] would
    nu_mass = np.min(colmin.compress(core, axis=1).sum(axis=1) / mass)
    rhos = [rate.rho_hat for rate in estimate_geometric_rate(K, pi, V)]
    k = int(np.argmax(rhos))
    rho = rhos[k]
    if not rho < 1.0:
        raise NumericalError(f"fitted rate {rho!r} is not below 1 at (theta={grid[k][1]}, "
                             f"l={grid[k][0]}): the chain does not decay within "
                             f"{_RATE_MAX_POWERS} powers")

    gap = KV - (lam * V + b * core)
    if np.max(gap) > 1e-12:
        k, x = np.unravel_index(np.argmax(gap), gap.shape)
        raise NumericalError(f"drift inequality fails at (theta={grid[k][1]}, l={grid[k][0]}, "
                             f"x={x}) by {np.max(gap):.3e}")
    return ErgodicityCertificate(
        epsilon_minor=float(eps),
        small_set=tuple(int(i) for i in np.flatnonzero(core)),
        nu_mass=float(nu_mass),
        lambda_drift=float(lam),
        b_drift=float(b),
        rho_hat=float(rho),
        n_steps_minor=int(n0),
        thetas=tuple(thetas),
        levels=tuple(levels),
        extended_states=tuple(extended),
    )


def fitted_log2_slope(levels, values) -> float | str:
    """Least-squares slope of log2(values) against the level index.

    Returns the string "exact" when the quantity is numerically zero at
    every level (no level dependence at all)."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericalError("cannot fit a decay slope through nan or infinite values")
    if np.max(np.abs(values)) < 1e-14:
        return "exact"
    if np.min(values) <= 0.0:
        raise NumericalError("cannot fit a decay slope through zero or negative values")
    return float(np.polyfit(np.asarray(levels, dtype=float), np.log2(values), 1)[0])


@dataclass(frozen=True)
class LevelDiagnostics:
    """Exactly evaluated per-level quantities, each an array over levels,
    and the log2 decay slopes fitted to some of them; an identically zero
    quantity has the slope "exact"."""

    levels: tuple[int, ...]
    quantities: dict[str, np.ndarray]
    slopes: dict[str, float | str]


def _slope_levels(levels, r: float) -> list[int]:
    """The levels of a slope fit as ints: at least 4 distinct ones, each
    >= 1, since a gap pairs l with l - 1; r, the power of the Lyapunov
    weight, must lie in (0, 1]."""
    levels = [int(l) for l in levels]
    if len(set(levels)) < 4:
        raise ParameterError(f"need at least 4 distinct levels for a slope fit, got {levels}")
    if min(levels) < 1:
        raise ParameterError("levels must be >= 1 (gaps pair l with l-1)")
    if not (0.0 < r <= 1.0):
        raise ParameterError(f"r must lie in (0, 1], got {r}")
    return levels


def rate_diagnostics(model: FiniteLevelModel, levels, theta: float,
                     r: float = 1.0) -> LevelDiagnostics:
    """Measure the level hierarchy's perturbation norms and their decay.

    The quantities, exact finite sums and maxima over states, each with
    its fitted slope:

    - kernel_distance:     |||K_{theta,l} - K_{theta,inf}|||_{V_{theta,l}^r}
    - stationary_distance: ||pi_{theta,l} - pi_{theta,inf}||_{V_{theta,inf}^r}
    - mean_shift:          |pi_{theta,inf}(H_l - H_inf)|
    - smoothed_shift:      |K_{theta,inf}(H_l - H_{l-1})|_{V_{theta,l-1}^r}
    - derivative_shift:    |pi_{theta,inf}(dH_l/dtheta - dH_inf/dtheta)|

    The slopes should reproduce -beta0 for quantities that depend on the
    level at all.
    """
    levels = _slope_levels(levels, r)
    K_inf = kernel_matrix(model, math.inf, theta)
    pi_inf = target_density(model, math.inf, theta)
    V_inf = lyapunov_vector(model, math.inf, theta) ** r
    s_inf = level_statistic(model, math.inf)
    q = {k: [] for k in ("kernel_distance", "stationary_distance", "mean_shift",
                         "smoothed_shift", "derivative_shift")}
    for l in levels:
        V_l, V_lm1 = (lyapunov_vector(model, k, theta) ** r for k in (l, l - 1))
        s_l = level_statistic(model, l)
        s_lm1 = level_statistic(model, l - 1)
        q["kernel_distance"].append(
            float(np.max(np.abs(kernel_matrix(model, l, theta) - K_inf) @ V_l / V_l)))
        q["stationary_distance"].append(
            float(np.sum(V_inf * np.abs(target_density(model, l, theta) - pi_inf))))
        # H_l - H_inf = phi_l - phi_inf: the theta part cancels
        q["mean_shift"].append(abs(float(pi_inf @ (s_l - s_inf))))
        q["smoothed_shift"].append(float(np.max(np.abs(K_inf @ (s_l - s_lm1)) / V_lm1)))
        # dH/dtheta = -1 at every level: the gap is identically zero
        q["derivative_shift"].append(0.0)
    quantities = {k: np.asarray(v) for k, v in q.items()}
    slopes = {k: fitted_log2_slope(levels, v) for k, v in quantities.items()}
    return LevelDiagnostics(tuple(levels), quantities, slopes)


@_per_model
def _poisson_for(model: FiniteLevelModel, l, theta: float) -> PoissonSolution:
    """Poisson solution for the update statistic H_l(theta, .), kept with
    the model; its arrays are read-only."""
    K = kernel_matrix(model, l, theta)
    pi = target_density(model, l, theta)
    H = level_statistic(model, l) - theta
    sol = poisson_solve(K, pi, H)
    sol.g_hat.setflags(write=False)
    sol.Kg_hat.setflags(write=False)
    return sol


def lemma_diagnostics(model: FiniteLevelModel, levels, theta: float, theta_prime: float,
                      zeta: float = 1.0, r: float = 1.0,
                      coupling: str = "crn") -> LevelDiagnostics:
    """Evaluate the Poisson-gap and variance-block diagnostics per level.

    The quantities: the V-norm gap of the Poisson solution across adjacent
    levels (solution_gap) and of its one-step smoothing (smoothed_gap);
    the theta-continuity gap at fixed level divided by
    |theta - theta'|**zeta (theta_gap, holder_ratio); the mean-field
    derivative gap across levels at (theta, theta') (derivative_gap) and
    at equal arguments (derivative_gap_equal, the purely level-driven part
    whose decay rate is clean; at theta != theta' the raw gap plateaus at
    the Holder term); the Lipschitz ratio of the Poisson solution in the
    state metric (lipschitz_ratio); and the coupled-expectation blocks of
    the variance formula at the per-level roots (block_*), with sqrt of
    the coupled second moment of the metric (coupled_d2_sqrt) and the root
    gap (root_gap) for comparison.  Slopes are fitted to solution_gap,
    smoothed_gap, derivative_gap_equal, coupled_d2_sqrt and root_gap.
    """
    levels = _slope_levels(levels, r)
    D = metric_matrix(model)
    off = ~np.eye(model.m, dtype=bool)
    q = {k: [] for k in ("solution_gap", "smoothed_gap", "theta_gap", "holder_ratio",
                         "derivative_gap", "derivative_gap_equal", "lipschitz_ratio",
                         "block_fine", "block_coarse", "block_fine_smoothed",
                         "block_coarse_smoothed", "coupled_d2_sqrt", "root_gap")}
    for l in levels:
        V_l = lyapunov_vector(model, l, theta) ** r
        sol_l = _poisson_for(model, l, theta)
        sol_lm1 = _poisson_for(model, l - 1, theta)
        q["solution_gap"].append(float(np.max(np.abs(sol_l.g_hat - sol_lm1.g_hat) / V_l)))
        q["smoothed_gap"].append(float(np.max(np.abs(sol_l.Kg_hat - sol_lm1.Kg_hat) / V_l)))
        sol_prime = _poisson_for(model, l, theta_prime)
        tgap = float(np.max(np.abs(sol_l.g_hat - sol_prime.g_hat) / V_l))
        q["theta_gap"].append(tgap)
        dth = abs(theta - theta_prime)
        q["holder_ratio"].append(tgap / dth ** zeta if dth > 0.0 else 0.0)
        dh_l_at = mean_field_derivative(model, l, theta)
        q["derivative_gap"].append(abs(dh_l_at - mean_field_derivative(model, l - 1, theta_prime)))
        q["derivative_gap_equal"].append(abs(dh_l_at - mean_field_derivative(model, l - 1, theta)))
        gaps = np.abs(sol_l.g_hat[:, None] - sol_l.g_hat[None, :])
        q["lipschitz_ratio"].append(float(np.max(gaps[off] / D[off])))

        th_f, th_c, P, (f2, Kf2, c2, Kc2, cross, Kcross) = _level_pair(model, l, coupling)
        q["block_fine"].append(abs(float(f2 - cross)))
        q["block_coarse"].append(abs(float(c2 - cross)))
        q["block_fine_smoothed"].append(abs(float(Kf2 - Kcross)))
        q["block_coarse_smoothed"].append(abs(float(Kc2 - Kcross)))
        q["coupled_d2_sqrt"].append(float(np.sqrt(np.sum(P * D * D))))
        q["root_gap"].append(abs(th_f - th_c))
    quantities = {k: np.asarray(v) for k, v in q.items()}
    slopes = {k: fitted_log2_slope(levels, quantities[k])
              for k in ("solution_gap", "smoothed_gap", "derivative_gap_equal",
                        "coupled_d2_sqrt", "root_gap")}
    return LevelDiagnostics(tuple(levels), quantities, slopes)
