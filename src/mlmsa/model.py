"""Finite-state reference problem with a synthetic per-level solver bias.

States are a grid x in {0, ..., m-1} at positions u_x = x/(m-1) in [0, 1].
The level-l target is the exponential-family tilt

    pi_{theta,l}(x) propto exp(theta * phi_l(u_x)),
    phi_l = phi + delta_l**beta0 * c,     delta_l = 2**-l,

so the limit l = inf recovers the unbiased statistic phi.  The bias
amplitude delta_l**beta0 is injected with an exactly known rate, which is
what makes decay-rate assertions testable: every perturbation norm across
levels inherits the rate beta0 by construction.

The Markov kernel per (theta, l) is a random-walk Metropolis chain with
nearest-neighbour proposals, off-grid proposals rejected in place; the
move table of _step_diffs states this rule once for the dense kernels and
the engine.  The coupled kernel advances a fine chain at (theta, l) and a
coarse chain at (theta_bar, l-1) with shared proposal direction and shared
acceptance uniform (common random numbers); an independent product
coupling is available as a baseline.  Both couplings reproduce the
single-level kernels exactly as their coordinate marginals.  The fine chain
moves at most one state per step, so coupled_kernel_blocks states the
coupled kernel as the (lower, diagonal, upper) blocks of its tridiagonal
form in the fine state; coupled_kernel_matrix scatters them into the dense
m**2 x m**2 matrix, which only tests use.

The update statistic is H_l(theta, x) = phi_l(u_x) - theta, so the mean
field h_l(theta) = pi_{theta,l}(phi_l) - theta has derivative
Var_{pi_{theta,l}}(phi_l) - 1 <= 0.96**2 - 1, since every choice pair keeps
|phi_l| <= |phi| + |c| <= 0.9596 at every level: each level has a unique
root, inside [-2, 2] as h_l(-2) >= 1.04 > 0 > -1.04 >= h_l(2).
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, field

import numpy as np

from .core import NumericalError, ParameterError, _check_bytes, level_delta

__all__ = [
    "FiniteLevelModel",
    "build_model",
    "level_statistic",
    "target_density",
    "kernel_matrix",
    "coupled_kernel_blocks",
    "lyapunov_vector",
    "metric_matrix",
]

INF = math.inf

_PHI_CHOICES = ("sine", "zero")
# "shifted-cosine" breaks the quarter-period alignment between sin(2*pi*u)
# and cos(2*pi*u) under which several signed level-perturbation integrals
# cancel identically; use it when a diagnostic needs the generic decay rate.
_BIAS_CHOICES = ("cosine", "shifted-cosine", "zero")
COUPLINGS = ("crn", "independent")  # of a coupled pair's fine and coarse chain
_MAX_STATES = 2 ** 20  # keeps each O(m) array of the model and its move tables <= 16 MiB


@dataclass(frozen=True, eq=False)
class FiniteLevelModel:
    """Validated, immutable model: five settings and the arrays they derive.

    m >= 3 keeps the nearest-neighbour proposal meaningful and m <= 2**20
    bounds the grid's arrays; beta0 > 0 is the synthetic bias rate;
    lyap_exponent in (0, 1) shapes the Lyapunov function pi**-lyap_exponent.
    """

    m: int = 32
    beta0: float = 1.0
    lyap_exponent: float = 0.5
    phi_choice: str = "sine"
    bias_choice: str = "cosine"
    phi: np.ndarray = field(init=False)   # base statistic phi(u_x)
    bias: np.ndarray = field(init=False)  # bias shape c(u_x)

    def __post_init__(self):
        m, phi_choice, bias_choice = self.m, self.phi_choice, self.bias_choice
        if not isinstance(m, int) or not 3 <= m <= _MAX_STATES:
            raise ParameterError(f"m must be an integer in [3, {_MAX_STATES}], got {m!r}")
        if not self.beta0 > 0:  # refuses nan, which would void |phi_l| <= 0.96
            raise ParameterError(f"beta0 must be positive, got {self.beta0}")
        if not (0.0 < self.lyap_exponent < 1.0):
            raise ParameterError(f"lyap_exponent must lie in (0, 1), got {self.lyap_exponent}")
        if phi_choice not in _PHI_CHOICES:
            raise ParameterError(f"phi_choice must be one of {_PHI_CHOICES}, got {phi_choice!r}")
        if bias_choice not in _BIAS_CHOICES:
            raise ParameterError(
                f"bias_choice must be one of {_BIAS_CHOICES}, got {bias_choice!r}")
        u = self.positions
        phi = 0.5 * np.sin(2 * np.pi * u) if phi_choice == "sine" else np.zeros(m)
        if bias_choice == "cosine":
            bias = 0.5 * np.cos(2 * np.pi * u)
        elif bias_choice == "shifted-cosine":
            bias = 0.5 * np.cos(2 * np.pi * u + 1.0)
        else:
            bias = np.zeros(m)
        phi.setflags(write=False)
        bias.setflags(write=False)
        for name, value in (("beta0", float(self.beta0)), ("phi", phi), ("bias", bias),
                            ("lyap_exponent", float(self.lyap_exponent))):
            object.__setattr__(self, name, value)

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.m) / (self.m - 1)


def build_model(m: int = 32, beta0: float = 1.0, lyap_exponent: float = 0.5,
                phi_choice: str = "sine", bias_choice: str = "cosine") -> FiniteLevelModel:
    """FiniteLevelModel of these settings; a function, so wrapping it leaves the class alone."""
    return FiniteLevelModel(m, beta0, lyap_exponent, phi_choice, bias_choice)


def _check_level(l, minimum: int = 0) -> None:
    """l is math.inf or an integer >= minimum that converts to a float, as
    level_delta needs."""
    if l == INF:
        return
    if (not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < minimum
            or l > sys.float_info.max):
        raise ParameterError(f"level must be an integer in [{minimum}, "
                             f"{sys.float_info.max:.17g}] or math.inf, got {l!r}")


# model -> {level: phi_l}; a model that nothing else holds takes its levels'
# statistics with it.  The exact layer's lru_caches are keyed by the model and
# hold it, so a model an exact solve has seen keeps them until those evict it
_STATISTICS = weakref.WeakKeyDictionary()


def level_statistic(model: FiniteLevelModel, l) -> np.ndarray:
    """phi_l = phi + delta_l**beta0 * c; phi itself at l = inf.  Kept per
    model and level while the model lives."""
    _check_level(l)
    kept = _STATISTICS.setdefault(model, {})
    if l not in kept:
        amp = level_delta(l) ** model.beta0
        kept[l] = model.phi + amp * model.bias
        kept[l].setflags(write=False)
    return kept[l]


def _step_diffs(model: FiniteLevelModel, l) -> tuple[np.ndarray, np.ndarray]:
    """Move table of the level-l chain: (statistic increment, landing state).

    Entry 2*x + 1 is the +1 proposal from x and entry 2*x the -1 proposal.
    Wall rule: an off-grid proposal lands on x with increment 0, so it
    leaves the state in place whatever the acceptance draw.  Built on each
    call: a cache keyed by the model would keep every run's tables, since
    each command-line call builds a fresh model.
    """
    s = level_statistic(model, l)
    x = np.arange(model.m)
    dest = np.empty(2 * model.m, dtype=np.int64)
    dest[0::2] = np.maximum(x - 1, 0)
    dest[1::2] = np.minimum(x + 1, model.m - 1)
    return s[dest] - np.repeat(s, 2), dest


def _move_probabilities(model: FiniteLevelModel, l, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(acceptance, landing state) of every entry of the level-l move table;
    min(1, exp(z)) is exp(min(z, 0)), which cannot overflow.  A move that
    stays in place gets 0: the kernels put all rejected mass on the diagonal."""
    diff, dest = _step_diffs(model, l)
    moves = dest != np.repeat(np.arange(model.m), 2)
    return np.where(moves, np.exp(np.minimum(theta * diff, 0.0)), 0.0), dest


def target_density(model: FiniteLevelModel, l, theta: float) -> np.ndarray:
    """Normalized pi_{theta,l}; exponentials are max-shifted before
    normalization so any finite theta is safe."""
    _check_level(l)
    z = theta * level_statistic(model, l)
    w = np.exp(z - np.max(z))
    return w / w.sum()


def kernel_matrix(model: FiniteLevelModel, l, theta: float) -> np.ndarray:
    """Row-stochastic random-walk Metropolis transition matrix.

    Proposals x -> x+-1 with probability 1/2 each; an off-grid proposal is
    rejected in place; rejected mass sits on the diagonal.  The matrix is
    reversible with respect to target_density(model, l, theta).
    """
    m = model.m
    _check_bytes(f"kernel for m={m}", 8 * m ** 2)
    acc, dest = _move_probabilities(model, l, theta)
    K = np.zeros((m, m))
    idx = np.arange(m)
    K[np.repeat(idx, 2), dest] = 0.5 * acc
    K[idx, idx] = 1.0 - 0.5 * acc[1::2] - 0.5 * acc[0::2]
    return K


def coupled_kernel_blocks(model: FiniteLevelModel, l, theta: float, theta_bar: float,
                          coupling: str = "crn") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel on pairs (fine at (theta, l), coarse at (theta_bar, l-1)) as
    the (lower, diagonal, upper) blocks of its fine-state tridiagonal form.

    Each block is an (m, m, m) array: block[x][xbar, xbar'] is the
    probability of moving from the pair (x, xbar) to (x - 1, xbar'),
    (x, xbar') or (x + 1, xbar') respectively, so lower[0] and upper[m-1]
    are zero.  "crn" shares one proposal direction and one acceptance
    uniform between the chains: per direction the joint move splits into at
    most four outcomes (both accept, fine only, coarse only, neither) with
    probabilities min(af, ac), af - min, ac - min, 1 - max.  "independent"
    is the product of the single-level kernels.  Both reproduce the
    single-level kernels exactly as coordinate marginals.
    """
    _check_level(l, minimum=1)
    if l == INF:  # the limit chain has no coarser level to be coupled with
        raise ParameterError(f"coupled kernel needs a finite level l >= 1, got {l!r}")
    m = model.m
    _check_bytes(f"coupled kernel blocks for m={m}", 3 * 8 * m ** 3)
    if coupling not in COUPLINGS:
        raise ParameterError(f"coupling must be 'crn' or 'independent', got {coupling!r}")
    if coupling == "independent":
        Kf = kernel_matrix(model, l, theta)
        bands = np.zeros((3, m))  # Kf[x, x - 1], Kf[x, x], Kf[x, x + 1]
        bands[0, 1:] = np.diagonal(Kf, -1)
        bands[1] = np.diagonal(Kf)
        bands[2, :-1] = np.diagonal(Kf, 1)
        return tuple(bands[:, :, None, None] * kernel_matrix(model, l - 1, theta_bar))
    acc_f, dest_f = _move_probabilities(model, l, theta)
    acc_c, dest_c = _move_probabilities(model, l - 1, theta_bar)
    x = np.repeat(np.arange(m), m)
    y = np.tile(np.arange(m), m)
    B = np.zeros((3, m, m, m))  # (fine move + 1, x, xbar, xbar')
    # +1 proposals (entries 2*x + 1) first: the order of the sums below sets
    # the rounding.  No sum repeats an index, so each is one fancy-index add.
    for up in (1, 0):
        i, j = 2 * x + up, 2 * y + up
        af, ac, xn, yn = acc_f[i], acc_c[j], dest_f[i], dest_c[j]
        k = xn - x + 1
        mn = np.minimum(af, ac)
        B[k, x, y, yn] += 0.5 * mn
        B[k, x, y, y] += 0.5 * (af - mn)
        B[1, x, y, yn] += 0.5 * (ac - mn)
        B[1, x, y, y] += 0.5 * (1.0 - np.maximum(af, ac))
    return tuple(B)


def coupled_kernel_matrix(model: FiniteLevelModel, l, theta: float, theta_bar: float,
                          coupling: str = "crn") -> np.ndarray:
    """Row-stochastic m**2 x m**2 kernel on pairs, pair (x, xbar) at flat
    index x*m + xbar: the blocks of coupled_kernel_blocks scattered into
    one dense matrix, entry for entry."""
    m = model.m
    _check_bytes(f"coupled kernel for m={m}", 8 * m ** 4)
    blocks = coupled_kernel_blocks(model, l, theta, theta_bar, coupling)
    K = np.zeros((m * m, m * m))
    K4 = K.reshape(m, m, m, m)  # (x, xbar, x', xbar')
    for shift, block in zip((-1, 0, 1), blocks):
        x = np.arange(max(0, -shift), min(m, m - shift))
        K4[x, :, x + shift, :] = block[x]
    return K


def lyapunov_vector(model: FiniteLevelModel, l, theta: float) -> np.ndarray:
    """V_{theta,l} = (pi / max pi)**-lyap_exponent; every entry >= 1 with
    the minimum 1 attained at the mode.  A vector that overflows is a
    NumericalError naming its (theta, l)."""
    with np.errstate(divide="ignore", over="ignore"):  # an overflow is named below
        pi = target_density(model, l, theta)
        V = (pi / pi.max()) ** (-model.lyap_exponent)
    if not np.isfinite(V).all():
        raise NumericalError(f"Lyapunov vector overflows at (theta={theta}, l={l}): "
                             f"(pi/max pi)**-{model.lyap_exponent} is not finite")
    return V


def metric_matrix(model: FiniteLevelModel) -> np.ndarray:
    """State-pair metric D(x, y) = |u_x - u_y|."""
    _check_bytes(f"metric for m={model.m}", 8 * model.m ** 2)
    u = model.positions
    return np.abs(u[:, None] - u[None, :])
