"""Independent references the tests compare the package against.

Each is written without the package's move table, fundamental matrix or
stepping loop: the scalar Metropolis samplers restate the move rule one
state at a time, the Poisson series sums powers of the kernel, the
containment check reads only a run's recorded paths, the rate fit
reduces each power on its own, and the support-graph search visits one
state at a time.
"""

from collections import deque

import numpy as np

from mlmsa.core import NumericalError, ParameterError
from mlmsa.exact import _RATE_MAX_POWERS, _RATE_N_PROBES, _RATE_SEED, GeometricRate
from mlmsa.model import level_statistic


def reference_move(model, l, theta, x, u_dir, u_acc):
    """One Metropolis move from x without the move table: propose x+1 if
    u_dir < 1/2, else x-1, and reject an off-grid proposal in place.  np.exp
    on numpy scalars rounds like the engine's vectorized exp; math.exp does not."""
    s = level_statistic(model, l)
    y = x + 1 if u_dir < 0.5 else x - 1
    if not 0 <= y < model.m:
        return int(x)
    return int(y) if u_acc < np.exp(np.minimum(theta * (s[y] - s[x]), 0.0)) else int(x)


def sample_step(model, l, theta, x, rng):
    """One Metropolis transition from x; consumes exactly two uniforms
    (direction, acceptance) so the stream layout is state-independent."""
    u = rng.random(2)
    return reference_move(model, l, theta, x, u[0], u[1])


def coupled_sample_step(model, l, theta, theta_bar, x, x_bar, rng, coupling="crn"):
    """One coupled transition of the (fine, coarse) pair.

    CRN consumes one direction uniform and one acceptance uniform shared
    by both chains; the independent coupling consumes two of each, fine
    first.
    """
    if coupling == "crn":
        u = rng.random(2)
        return (reference_move(model, l, theta, x, u[0], u[1]),
                reference_move(model, l - 1, theta_bar, x_bar, u[0], u[1]))
    if coupling != "independent":
        raise ParameterError(f"coupling must be 'crn' or 'independent', got {coupling!r}")
    u = rng.random(4)
    return (reference_move(model, l, theta, x, u[0], u[1]),
            reference_move(model, l - 1, theta_bar, x_bar, u[2], u[3]))


def drift_term(model, l, theta, x):
    """Update statistic H_l(theta, x) = phi_l(u_x) - theta."""
    s = level_statistic(model, l)
    return float(s[x] - theta)


def poisson_series(K, pi, f, n_terms=200):
    """Truncated-series reference sum_{n=0..N} (K^n - pi)(f): straight power
    iteration, no fundamental matrix, no recentring.  Converges
    geometrically for an aperiodic chain with a unique stationary law."""
    mean = pi @ f
    acc = f - mean
    curr = f.copy()
    for _ in range(n_terms):
        curr = K @ curr
        acc = acc + (curr - mean)
    return acc


def reprojection_events(psi_path):
    """The steps n at which a run reprojected: those where psi rises."""
    return tuple((np.flatnonzero(np.diff(psi_path) > 0) + 1).tolist())


def validate_containment(traj, family):
    """Check, on a run record, theta_n in K_{psi_n} for every chain (column)
    and n, that psi increments exactly at the recorded reprojection events,
    and that psi never decreases."""
    bounds = family.r0 + family.growth * traj.psi_path
    if np.any(np.abs(traj.theta_path) > bounds[:, None]):
        raise NumericalError("containment violated: a parameter left its constraint set")
    jumps = np.flatnonzero(np.diff(traj.psi_path) != 0) + 1
    if tuple(jumps.tolist()) != reprojection_events(traj.psi_path):
        raise NumericalError("psi jumps do not match recorded reprojection events")
    if np.any(np.diff(traj.psi_path) < 0):
        raise NumericalError("psi must be nondecreasing")


def reference_geometric_rate(K, pi, V):
    """estimate_geometric_rate's fit with one reduction per power: the loop
    the chunked one must equal bit for bit (same probes, stop rule and fit,
    read from the package's constants)."""
    n = K.shape[-1]
    rng = np.random.default_rng(_RATE_SEED)
    signs = [np.ones(n), (-1.0) ** np.arange(n)]
    while len(signs) < _RATE_N_PROBES:
        signs.append(rng.choice([-1.0, 1.0], size=n))
    curr = np.stack([V * s for s in signs], axis=-1)  # (B, n, probes)
    means = pi[:, None, :] @ curr
    sup, stop = [], np.zeros(len(K), dtype=int)  # the power each kernel stopped at
    for power in range(1, _RATE_MAX_POWERS + 1):
        curr = K @ curr
        sup.append(np.max(np.abs(curr - means) / V[:, :, None], axis=(1, 2)))
        stop[(stop == 0) & (sup[-1] < 1e-13 * np.maximum(sup[0], 1.0))] = power
        if stop.all():
            break
    stop[stop == 0] = _RATE_MAX_POWERS
    rates = []
    for row, n_powers in zip(np.array(sup).T, stop.tolist()):
        row = row[:n_powers]
        start = min(5, max(n_powers - 3, 0))
        usable = row[start:] > 1e-300
        rho = 0.0
        if np.sum(usable) >= 3:
            ns = np.arange(start + 1, n_powers + 1)[usable]
            rho = float(np.exp(np.polyfit(ns, np.log(row[start:][usable]), 1)[0]))
        rates.append(GeometricRate(rho_hat=rho, n_powers=n_powers))
    return tuple(rates)


def reference_distances(n, src, dst, start):
    """Breadth-first path length from start to every state along the edges
    src -> dst, -1 where unreachable: a deque search over adjacency lists."""
    out = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        out[u].append(v)
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
