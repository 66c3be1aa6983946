"""Stochastic simulation of the root-finding procedures.

Three procedures are provided: single-level stochastic approximation with
reprojection (:func:`msa_run`), the coupled level-increment variant that
advances a fine and a coarse chain with shared step sizes
(:func:`coupled_msa_run`), and a replicated estimator of the increment
CLT variance (:func:`empirical_clt_variance`).  A recorded run is one
:class:`Trajectory` whose paths carry a chain axis: column 0 is the chain
at level l, column 1 the coarse chain of a coupled run.  Each fact is
stored once: the starts are row 0, the final state the last row, and the
reprojections the steps where psi rises.

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

The stepping loop is one code path for every run, and its cost is numpy
call overhead, so it keeps the calls per step few.  It advances lanes: a
lane is one run (a single chain, or a coupled pair) with its own level,
step vector, run length, generators and starts, and every lane of a loop
lives in one (chains, columns) state, R columns per lane, with one move
table over every level the lanes use.  A multilevel estimate runs all of
its levels as lanes of one loop, which takes max n_l steps where the
levels one after another take sum n_l.  The lanes are placed longest
first, and the loop runs in segments: each ends where the shortest
running lane ends, whose state is read off before the arrays are cut to
the lanes still running.  A single-chain lane in a loop with coupled
lanes carries an identical copy of its chain as its second row (same
level, start and uniforms), so the joint reset rule, one per column
over both rows, resets it exactly when its own chain leaves the set.
Each lane does the arithmetic of its standalone run on the same
uniforms, so its result is bit-identical to that run.

Inside the loop a chain's state x is held as its move-table index base
2*(x + b*m), b being its level's block of the table: a move's table
entry is then one add, and landing states and the statistic are stored
against that base.  The loop owns x as one contiguous array and moves it
in place, writing the landing state where the move is accepted; a reset
builds a new x from the starts, and each segment cut copies the running
prefix, as a strided view moves in place through a hidden copy and slows
every other operation on it.  A move is accepted when u < exp(p),
p = theta * increment, u the acceptance uniform.  For u in [0, 1) this is
u < exp(min(p, 0)), the kernels' acceptance min(1, exp(p)): for p >= 0
both accept, an overflow to inf included, and for a nan p both reject.
So the loop runs with numpy's overflow warning off, and an acceptance
that overflows warns of nothing.

Resets are rare, so each step tests every tentative parameter with one
reduction: max |theta| over all chains and columns against the smallest
set bound of the running columns, which is recomputed only where a bound
changes, after a reset and after a segment cut.  Only when that test
fails is each column checked against its own bound and are the resets,
the psi increments and the bounds worked out; where the bounds differ
the test can fail with every column inside its set, and then nothing
changes.  The maximum propagates nan, so a nan or infinite tentative
parameter fails the test and |theta| <= bound, and a blow-up resets and
counts as a reprojection like any exit from the set.

Where no reset is possible the test is skipped, decided once per chunk:
when every running lane's steps in the chunk lie in [0, 1] (a nan step
does not) and S, the largest |statistic| over the loop's levels, is at
most bmin / 2, half the smallest set bound.  Then no step of the chunk
can leave its set.  Every column always holds |theta| <= b, its own
bound: at the start and after a reset theta is theta0, in K_0, the
smallest set, and a kept step passed the test.  A step computes
d = fl(s - theta), p = fl(gamma * d) and fl(theta + p).  With
0 <= gamma <= 1, p has the sign of d and |p| <= |d|, as rounding is
monotone and d is a float, so theta + p lies between theta and
theta + d; and theta + d is s up to one rounding of s - theta,
|theta + d - s| <= u * (S + b) with u = 2**-53 (a difference that would
underflow is exact).  With S <= bmin / 2 <= b / 2 both ends lie in
[-b, b], so the rounded sum does too, b being a float.  So no column
fails its own test, no nan arises, and skipping the test changes no
bit.  The margin b / 2 is far more than the rounding needs, and it holds
at the command line's defaults: |statistic| <= 0.71 against r0 = 2, and
every step is at most 1.  This is the reprojection of Andrieu, Moulines
and Priouret (2005) in the regime where its sets are never left.

The run inputs are checked once, in the lane loop every procedure goes
through, for every lane before any step vector or generator of the loop
exists: the level by the model's rule, n_steps >= 1, the coupling, a
coupled run's finite level l >= 1, the bytes the lane holds (its step
vector, a generator and the loop's column arrays per replicate and, when
recorded, its paths), each start parameter in K_0 and each configured
start state on the grid; then the bytes of all lanes and of the loop's
chunk together.  Generators are built only by iterating a lane's
_Streams, after the checks.

The uniforms are drawn per chunk of steps: each replicate draws its
chunk from its own generator straight into its row of one
replicate-major buffer, (columns, steps, uniforms per step), which holds
the same values as its standalone run draws step by step.  The step loop
reads each step's acceptance uniforms as a (chains, columns) view of
these rows, so they are neither stacked nor copied.  The buffer carries
one padding step: without it a replicate's row at R = 400 is 16 KiB, the
entries one step reads from all replicates fall in the same cache sets,
and reading them takes about twice as long.  The move offsets, 1 where
the proposal is +1 and 0 where it is -1, are filled once per chunk into
a step-major int64 array, (steps, chains, columns), contiguous per step:
the gather's add takes such a row fastest, where a bool or strided row
is cast through numpy's general iterator.  The fill compares the
direction uniforms into a replicate-major bool array and transposes that
with one copy, cheaper at R = 400 than one comparison written through the
transposed view.  A chunk then holds at most about 33 bytes per
chain-column step (two uniforms, a direction flag, an offset and a step
size), and its chain-column steps over all running lanes are capped at
_CHUNK_VALUES / 4, so what it holds does not grow with the lane count; a
chunk of one step, the least the loop takes, and the padding step are
counted in the column arrays.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import NumericalError, ParameterError, ReprojectionFamily, StepSchedule, _check_bytes
from .model import COUPLINGS, FiniteLevelModel, _check_level, _step_diffs, level_statistic

__all__ = [
    "Trajectory",
    "msa_run",
    "coupled_msa_run",
    "CLTVarianceEstimate",
    "empirical_clt_variance",
]

_CHUNK = 1024
# four times the most chain-column steps a chunk holds over all running
# lanes, so what a chunk holds does not grow with the lane count: at most
# that of a one-lane chunk of 512 steps at R = 400, coupled
_CHUNK_VALUES = _CHUNK * 4 * 400
# bytes a chunk holds per chain, column and step: at most two uniforms, a
# direction flag, a move offset and a step size (tracemalloc: 33.1 to 33.8
# for single chains and the independent coupling, 24.6 to 24.9 under CRN,
# at R = 100 and 400, padding step included); and
# what a loop holds whatever its lanes, measured with tracemalloc at R = 1,
# m = 8: numpy's 64 KiB iterator buffers and the loop's small arrays
_CHUNK_VALUE_BYTES, _LOOP_BYTES = 34, 2 ** 17
# bytes held per replicate besides the chunk, both measured with tracemalloc:
# one generator built by _Streams (939.3 over 10,000 of them), and
# what the lane loop holds per replicate column at one step per chunk under
# the independent coupling (states, starts, offsets, psi, set bounds, step
# temporaries and the chunk's step and padding step; 252 at R = 50,000)
_GENERATOR_BYTES = 941
_COLUMN_BYTES = 256
# bytes per state of each level the lanes use: the level's _step_diffs
# table, built for the loop, its block of the joined move table and
# statistic, and the temporaries that join them; tracemalloc measures 92 to
# 96 at m = 2**14 to 2**17 over 2 to 7 levels, with cold caches
_TABLE_BYTES = 100


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: paths of shape (n_steps + 1, chains), row 0 the start
    and row n the state after step n; column 0 is the chain at level l and
    column 1 the coarse chain of a coupled run.  The chains share psi and
    reset together, so a reprojection is a step where psi rises."""

    theta_path: np.ndarray
    x_path: np.ndarray
    psi_path: np.ndarray

    @property
    def fine_x_path(self) -> np.ndarray:
        return self.x_path[:, 0]

    @property
    def coarse_x_path(self) -> np.ndarray:
        return self.x_path[:, 1]


class _Streams:
    """Generators default_rng(SeedSequence(root, spawn_key=key)), one per root
    seed, built as they are iterated; the empty key gives default_rng(root)."""

    def __init__(self, roots, key=()):
        self.roots, self.key = roots, key

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return (np.random.default_rng(np.random.SeedSequence(root, spawn_key=self.key))
                for root in self.roots)


class _Lane(NamedTuple):
    """One run of the lane loop: a single chain at level l, or a coupled pair
    at (l, l - 1), with its own step rule, run length, starts and one
    generator per replicate, which the loop builds from rngs, a _Streams,
    after every lane of the loop is checked."""

    level: int | float
    schedule: StepSchedule
    n_steps: int
    rngs: _Streams | list
    theta0: float
    x0: int | None
    theta0_bar: float = 0.0
    x0_bar: int | None = None
    coupled: bool = False
    coupling: str = "crn"


class _Placed(NamedTuple):
    """A lane as the loop holds it: its place in the caller's list, its
    generators and columns, the uniforms it draws per step (2, or 4 under
    the independent coupling) and its step vector."""

    index: int
    lane: _Lane
    rngs: list
    cols: slice
    draws: int
    gammas: np.ndarray


@dataclass
class _LaneState:
    """Final state of one lane (the loop built its generators and drops
    them): theta and x per (chain, replicate), the fine chain's row first;
    psi and last_reproj per replicate; gamma_n, the lane's last step size;
    x0, the start states per (chain, replicate)."""

    theta: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    last_reproj: np.ndarray
    gamma_n: float
    x0: np.ndarray


def _check_lane(lane: _Lane, m: int, family: ReprojectionFamily, record: bool) -> int:
    """Refuse a lane's invalid inputs before any array or generator of the
    loop exists; returns the bytes the lane holds.  The level is checked
    first, then n_steps >= 1: a negative count makes the bytes negative."""
    _check_level(lane.level)
    if lane.n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {lane.n_steps}")
    if lane.coupling not in COUPLINGS:
        raise ParameterError(f"coupling must be 'crn' or 'independent', got {lane.coupling!r}")
    if lane.coupled and (lane.level == math.inf or lane.level < 1):
        raise ParameterError(f"coupled run needs a finite level l >= 1, got {lane.level!r}")
    chains, R = 1 + lane.coupled, len(lane.rngs)
    # the step vector, a generator and the column arrays per replicate and,
    # when recorded, the paths (theta and x per chain, psi)
    need = (8 * lane.n_steps + R * (_GENERATOR_BYTES + _COLUMN_BYTES)
            + record * 8 * (lane.n_steps + 1) * R * (2 * chains + 1))
    _check_bytes(f"a run of n_steps={lane.n_steps} over R={R} replicates", need)
    for name, theta in zip(("theta0", "theta0_bar"), (lane.theta0, lane.theta0_bar)[:chains]):
        if not family.contains(theta, 0):
            raise ParameterError(f"{name}={theta} is outside the initial constraint "
                                 f"set [{-family.radius(0)}, {family.radius(0)}]")
    for name, x in zip(("x0", "x0_bar"), (lane.x0, lane.x0_bar)[:chains]):
        if x is not None and (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                              or not 0 <= x < m):  # None: drawn or shared
            raise ParameterError(f"{name} must be None or an integer in [0, m) with "
                                 f"m={m}, got {x!r}")
    return need


@np.errstate(over="ignore")  # exp(theta * increment) may overflow to inf: accepted
def _run_lanes(model: FiniteLevelModel, lanes, family: ReprojectionFamily,
               record: bool = False):
    """Advance every lane its own n_steps in one loop; returns each lane's
    _LaneState, in the order given, and the recorded paths of a one-lane run
    (record=True needs exactly one lane).

    The state is one (chains, columns) array: a lane owns R adjacent
    columns, and the lanes are placed longest first, so the lanes still
    running are a prefix of the columns.  The loop runs in segments, each
    ending where the shortest running lane ends; that lane's state is then
    read off and the arrays are cut to the running prefix.  Uniforms are
    pre-drawn per chunk from each replicate's own generator into its row of
    one buffer (batching does not change a generator's stream), and a
    chunk's chain-column steps over every running lane are capped at
    _CHUNK_VALUES / 4."""
    m, C = model.m, 2 if any(lane.coupled for lane in lanes) else 1
    need = sum(_check_lane(lane, m, family, record) for lane in lanes)
    # a chunk takes at most _CHUNK steps over every chain and column and,
    # unless one step long, at most _CHUNK_VALUES / 4 chain-column steps
    columns = sum(len(lane.rngs) for lane in lanes)
    values = C * columns * min(_CHUNK, max(lane.n_steps for lane in lanes))
    n_levels = len({lane.level - c for lane in lanes for c in range(1 + lane.coupled)})
    _check_bytes(f"the step vectors of {len(lanes)} runs, their generators, one chunk "
                 f"and the move table of {n_levels} levels at m={m}",
                 need + _LOOP_BYTES + _CHUNK_VALUE_BYTES * min(values, _CHUNK_VALUES // 4)
                 + _TABLE_BYTES * n_levels * m)
    levels = {}  # level -> its block of the one move table
    runs, theta0, x0, offsets = [], [], [], []
    for i in sorted(range(len(lanes)), key=lambda i: -lanes[i].n_steps):
        lane = lanes[i]
        rngs = list(lane.rngs)
        R, indep = len(rngs), lane.coupled and lane.coupling == "independent"
        # a single chain in a two-chain loop carries an identical copy of
        # itself in row 1, so the joint reset rule leaves it alone
        chains = (lane.level, lane.level - 1) if lane.coupled else (lane.level, lane.level)
        theta0s = (lane.theta0, lane.theta0_bar if lane.coupled else lane.theta0)
        x0s = (lane.x0, lane.x0_bar if lane.coupled else None)
        fine = np.array([rng.integers(m) if x0s[0] is None else x0s[0] for rng in rngs],
                        np.int64)
        # an unconfigured coarse chain starts at the fine chain's state:
        # the pair begins coalesced, which is what the coupling is for
        x0.append(np.stack([fine] + [fine if x is None else np.full(R, x, np.int64)
                                     for x in x0s[1:C]]))
        theta0.append(np.repeat(np.array(theta0s[:C], float)[:, None], R, axis=1))
        blocks = [levels.setdefault(k, len(levels)) for k in chains[:C]]
        offsets.append(np.repeat(m * np.array(blocks)[:, None], R, axis=1))
        # CRN reuses the fine chain's (direction, acceptance) pair for the
        # coarse chain, the independent coupling draws two more
        start = runs[-1].cols.stop if runs else 0
        runs.append(_Placed(i, lane, rngs, slice(start, start + R), 4 if indep else 2,
                            lane.schedule.step_sizes(lane.n_steps)))
    # one table for every level: level k's states, landing states included,
    # are offset by its block times m, so one gather serves every chain;
    # states are held doubled (the index base), so the entry of a move from x
    # is 2*x + (proposal is +1), dest2 holds doubled landing states and
    # s2[2*x] is the statistic at x
    diffs, dests = zip(*(_step_diffs(model, k) for k in levels))
    diff = np.concatenate(diffs)
    dest2 = 2 * (np.stack(dests) + m * np.arange(len(levels))[:, None]).ravel()
    s2 = np.repeat(np.concatenate([level_statistic(model, k) for k in levels]), 2)
    S = max(s2.max(), -s2.min())  # max |s2|, nan if one is, without a table-sized temporary
    offsets = np.concatenate(offsets, axis=1)
    theta0 = np.concatenate(theta0, axis=1)
    x0 = 2 * (np.concatenate(x0, axis=1) + offsets)
    # x is the loop's own contiguous array, moved in place; resets read x0
    theta, x = theta0, x0.copy()
    psi = np.zeros(theta.shape[1], dtype=np.int64)
    last_reproj = np.zeros_like(psi)
    bound = family.radius(psi)
    paths = None
    if record:
        n_steps, R = lanes[0].n_steps, theta.shape[1]
        paths = {"theta": np.empty((n_steps + 1,) + theta.shape),
                 "x": np.empty((n_steps + 1,) + x.shape, np.int64),
                 "psi": np.empty((n_steps + 1, R), np.int64)}
        paths["theta"][0], paths["x"][0], paths["psi"][0] = theta, x, psi
    states = [None] * len(lanes)
    step = 0
    while runs:
        end = runs[-1].lane.n_steps  # the shortest running lane ends this segment
        bmin = bound.min()  # every column of the segment is in its set if max|theta| <= bmin
        chunk = min(end - step, _CHUNK, max(1, _CHUNK_VALUES // (4 * theta.size)))
        # one set of chunk arrays per segment, refilled in place: allocated
        # afresh per chunk, their pages were faulted in again every chunk,
        # which cost about 18% of a run at R = 400 under the independent
        # coupling.  drawn is (columns, chunk + 1 padding step, W), W the
        # widest lane's draws per step; a lane that draws fewer fills both
        # halves of its row, so its second chain reads its first chain's
        # pair.  accs is a (chunk, chains, columns) view of it, its chain
        # axis of stride 0 when W = 2; ups holds the move offsets (1 where
        # the proposal is +1) step-major and contiguous, as the gather's add
        # takes an int64 row fastest, filled per chunk from the bool
        # comparison dirs by one transposing copy.  gammas is a full-shape
        # array: a step row of the state's shape multiplies as fast as one
        # scalar step, where a broadcast row is slower
        W = max(run.draws for run in runs)
        steps = (chunk,) + theta.shape
        drawn = dirs = ups = accs = gammas = None
        drawn = np.empty((theta.shape[1], chunk + 1, W))
        dirs = np.empty((theta.shape[1], chunk + 1, W // 2), bool)
        ups = np.empty(steps, np.int64)
        accs = np.broadcast_to(drawn[:, :chunk, 1::2].transpose(1, 2, 0), steps)
        gammas = np.empty(steps)
        while step < end:
            span = min(end - step, chunk)
            for run in runs:
                for col, rng in enumerate(run.rngs, run.cols.start):
                    if run.draws < W:
                        drawn[col, :span, 2:] = drawn[col, :span, :2] = rng.random((span, 2))
                    else:
                        rng.random(out=drawn[col, :span])
                gammas[:span, :, run.cols] = run.gammas[step:step + span, None, None]
            # no step of this chunk can leave its set (module docstring)
            unguarded = S <= bmin / 2 and all(0.0 <= g.min() and g.max() <= 1.0 for g in (
                run.gammas[step:step + span] for run in runs))
            np.less(drawn[:, :span, 0::2], 0.5, out=dirs[:, :span])
            np.copyto(ups[:span], dirs[:, :span].transpose(1, 2, 0))
            for t in range(span):
                step += 1
                # the Metropolis move: gather the entry, accept with
                # probability min(exp(theta * increment), 1); u < exp(p) is
                # u < exp(min(p, 0)) for u in [0, 1), an overflow to inf too
                i = x + ups[t]
                np.putmask(x, accs[t] < np.exp(theta * diff[i]), dest2[i])
                theta_half = theta + gammas[t] * (s2[x] - theta)
                # an unguarded chunk keeps every step untested; otherwise the
                # maximum propagates nan, which fails <= and takes the branch below
                if unguarded or np.maximum.reduce(np.abs(theta_half), axis=None) <= bmin:
                    theta = theta_half
                else:
                    # one chain outside its set, or nan, resets both chains;
                    # columns whose bounds exceed bmin may all still be inside
                    reset = ~(np.abs(theta_half) <= bound).all(axis=0)
                    theta = np.where(reset, theta0, theta_half)
                    x = np.where(reset, x0, x)
                    psi = psi + reset
                    last_reproj = np.where(reset, step, last_reproj)
                    bound = family.radius(psi)
                    bmin = bound.min()
                if record:
                    paths["theta"][step], paths["x"][step], paths["psi"][step] = theta, x, psi
        while runs and runs[-1].lane.n_steps == step:
            run = runs.pop()
            rows, sl = slice(0, 1 + run.lane.coupled), run.cols
            states[run.index] = _LaneState(
                theta=theta[rows, sl], x=x[rows, sl] // 2 - offsets[rows, sl], psi=psi[sl],
                last_reproj=last_reproj[sl], gamma_n=run.gammas[-1],
                x0=x0[rows, sl] // 2 - offsets[rows, sl])
        width = runs[-1].cols.stop if runs else 0
        # x is copied: a strided view moves in place through a copy and slows
        # every other operation on it
        theta, theta0, x0 = theta[:, :width], theta0[:, :width], x0[:, :width]
        x = x[:, :width].copy()
        psi, last_reproj, bound = psi[:width], last_reproj[:width], bound[:width]
    if record:
        paths["x"] //= 2
        paths["x"] -= offsets
    return states, paths


def _run_ensemble(model: FiniteLevelModel, l, schedule: StepSchedule,
                  family: ReprojectionFamily, n_steps: int, rngs,
                  theta0: float, x0, theta0_bar: float = 0.0, x0_bar=None,
                  coupled: bool = False, coupling: str = "crn",
                  record: bool = False):
    """Advance all replicates of one run n_steps: the one-lane case of
    _run_lanes, returning (state, paths)."""
    lane = _Lane(l, schedule, n_steps, rngs, theta0, x0, theta0_bar, x0_bar, coupled, coupling)
    states, paths = _run_lanes(model, [lane], family, record)
    return states[0], paths


def _recorded_run(model: FiniteLevelModel, l, schedule: StepSchedule,
                  reproj: ReprojectionFamily, n_steps: int, seed: int,
                  *starts, coupled: bool = False, coupling: str = "crn") -> Trajectory:
    """One recorded run on a generator seeded from seed; starts are
    (theta0, x0[, theta0_bar, x0_bar])."""
    _, paths = _run_ensemble(model, l, schedule, reproj, n_steps, _Streams([seed]), *starts,
                             coupled=coupled, coupling=coupling, record=True)
    return Trajectory(paths["theta"][:, :, 0], paths["x"][:, :, 0], paths["psi"][:, 0])


def msa_run(model: FiniteLevelModel, l, schedule: StepSchedule,
            reproj: ReprojectionFamily, n_steps: int, theta0: float,
            x0: int | None, seed: int) -> Trajectory:
    """Single-level stochastic approximation run, recorded as one column.

    theta0 must lie in the initial constraint set.  x0 = None draws the
    initial state uniformly from the grid (one integer draw before the
    per-step uniforms).
    """
    return _recorded_run(model, l, schedule, reproj, n_steps, seed, theta0, x0)


def coupled_msa_run(model: FiniteLevelModel, l, schedule: StepSchedule,
                    reproj: ReprojectionFamily, n_steps: int, seed: int,
                    theta0: float = 0.0, theta0_bar: float = 0.0,
                    x0: int | None = None, x0_bar: int | None = None,
                    coupling: str = "crn") -> Trajectory:
    """Coupled level-increment run: fine chain at level l, coarse at l - 1,
    both parameters updated with the same step sizes, states advanced by
    one coupled transition per iteration, reprojection joint; recorded as
    columns (fine, coarse).

    With x0 and x0_bar unconfigured the pair starts at one shared uniform
    draw (coalesced), which is the point of the coupling; pass explicit
    distinct states to study excursions.
    """
    return _recorded_run(model, l, schedule, reproj, n_steps, seed,
                         theta0, x0, theta0_bar, x0_bar, coupled=True, coupling=coupling)


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
    n_kept: int
    n_discarded: int
    increments: np.ndarray = field(repr=False)


def empirical_clt_variance(model: FiniteLevelModel, l, schedule: StepSchedule,
                           n_steps: int, R: int, seed0: int,
                           reproj: ReprojectionFamily = ReprojectionFamily(),
                           coupling: str = "crn") -> CLTVarianceEstimate:
    """Estimate the increment CLT variance from R independent coupled runs.

    Requires a polynomial schedule (the CLT scaling needs decaying steps)
    and R >= 100.  Replicate i is seeded seed0 + i and is identical to
    coupled_msa_run with that seed; the ensemble is advanced jointly for
    speed.  Warns when more than 20% of replicates are discarded by the
    settling rule, which indicates a reprojection family that is too
    tight for the model.
    """
    if not 100 <= R <= sys.maxsize:  # the length of the range of seeds is an index
        raise ParameterError(f"need 100 <= R <= {sys.maxsize} replicates, got {R}")
    if schedule.kind != "polynomial":
        raise ParameterError("CLT variance estimation needs a polynomial schedule")
    st, _ = _run_ensemble(model, l, schedule, reproj, n_steps, _Streams(range(seed0, seed0 + R)),
                          0.0, None, 0.0, None, coupled=True, coupling=coupling)
    keep = st.last_reproj <= n_steps // 2
    n_disc = int(R - keep.sum())
    if n_disc > 0.2 * R:
        warnings.warn(f"{n_disc}/{R} replicates reprojected late (reprojection family too "
                      "tight for this model); estimate may be biased", stacklevel=2)
    inc = (st.theta[0] - st.theta[1])[keep]
    n = inc.size
    if n < 3:
        raise NumericalError(f"only {n} replicates survived the settling rule")
    est = float(np.var(inc, ddof=1) / st.gamma_n)
    # leave-one-out variances in closed form for the jackknife
    s1, s2 = inc.sum(), np.dot(inc, inc)
    loo_mean = (s1 - inc) / (n - 1)
    loo_var = (s2 - inc ** 2 - (n - 1) * loo_mean ** 2) / (n - 2)
    jack = loo_var / st.gamma_n
    stderr = float(np.sqrt((n - 1) / n * np.sum((jack - jack.mean()) ** 2)))
    return CLTVarianceEstimate(estimate=est, stderr=stderr, gamma_n=float(st.gamma_n),
                               n_kept=n, n_discarded=n_disc, increments=inc)
