import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from mlmsa import cli, engine
from mlmsa.core import (
    NumericalError,
    ParameterError,
    ReprojectionFamily,
    StepSchedule,
)
from mlmsa.engine import (
    _CHUNK,
    _CHUNK_VALUES,
    Trajectory,
    _Lane,
    _run_ensemble,
    _run_lanes,
    _Streams,
    coupled_msa_run,
    empirical_clt_variance,
    msa_run,
)
from mlmsa.exact import asymptotic_variance, level_root
from mlmsa.model import (
    COUPLINGS,
    build_model,
    coupled_kernel_matrix,
    kernel_matrix,
    level_statistic,
    target_density,
)

from reference import (
    coupled_sample_step,
    drift_term,
    reprojection_events,
    sample_step,
    validate_containment,
)

FAMILY = ReprojectionFamily(2.0, 1.0)
# resets a few times in 50 steps at m = 32; at m = 3 every |statistic| is
# at most 0.25 and theta never leaves [-0.25, 0.25], so it never resets there
TIGHT = ReprojectionFamily(0.25, 0.05)


def poly(gamma0=1.0, rho=0.75):
    return StepSchedule("polynomial", gamma0, rho)


class TestMsaRun:
    def test_zero_steps_freeze_theta(self, default_model):
        frozen = StepSchedule("constant", 0.0)
        traj = msa_run(default_model, 2, frozen, FAMILY, 500, 0.3, 4, seed=1)
        assert np.all(traj.theta_path == 0.3)
        assert len(reprojection_events(traj.psi_path)) == 0

    def test_zero_drift_keeps_theta_constant(self):
        # constant (zero) statistic and theta0 at its value: H identically 0
        flat = build_model(phi_choice="zero", bias_choice="zero")
        traj = msa_run(flat, 2, poly(), FAMILY, 100, 0.0, 3, seed=5)
        assert np.all(traj.theta_path == 0.0)

    def test_deterministic_given_seed(self, default_model):
        a = msa_run(default_model, 3, poly(), FAMILY, 2000, 0.0, None, seed=9)
        b = msa_run(default_model, 3, poly(), FAMILY, 2000, 0.0, None, seed=9)
        np.testing.assert_array_equal(a.theta_path, b.theta_path)
        np.testing.assert_array_equal(a.x_path, b.x_path)
        assert a.x_path[0, 0] == b.x_path[0, 0]

    def test_converges_to_level_root(self, default_model):
        traj = msa_run(default_model, 4, poly(gamma0=0.1), FAMILY,
                       100000, 0.0, None, seed=12345)
        assert abs(traj.theta_path[-1, 0] - level_root(default_model, 4)) <= 0.05
        assert len(reprojection_events(traj.psi_path)) == 0  # r0 = 2 is ample

    def test_reprojection_resets_and_counts(self, default_model):
        tight = ReprojectionFamily(0.001, 0.001)
        traj = msa_run(default_model, 1, poly(), tight, 3000, 0.0, None, seed=2)
        assert len(reprojection_events(traj.psi_path)) > 0
        validate_containment(traj, tight)
        k = reprojection_events(traj.psi_path)[0]
        assert traj.theta_path[k, 0] == 0.0  # theta0
        assert traj.x_path[k, 0] == traj.x_path[0, 0]  # state resets too, by design
        assert traj.psi_path[k] == traj.psi_path[k - 1] + 1

    def test_containment_invariant_on_generic_run(self, default_model):
        traj = msa_run(default_model, 2, poly(), FAMILY, 5000, 0.0, None, seed=3)
        validate_containment(traj, FAMILY)

    def test_theta0_must_start_inside(self, default_model):
        with pytest.raises(ParameterError):
            msa_run(default_model, 2, poly(), FAMILY, 10, 5.0, None, seed=0)

    @pytest.mark.parametrize("x0", [-1, 32])
    def test_initial_state_off_grid_rejected(self, default_model, x0):
        with pytest.raises(ParameterError, match="x0 .*m=32"):
            msa_run(default_model, 2, poly(), FAMILY, 10, 0.0, x0, seed=0)

    @pytest.mark.parametrize("m, x0", [(32, 9), (3, 0)])
    def test_step_semantics_replay_scalar_procedure(self, m, x0):
        # replay the run through the scalar sampler: sample the next state
        # first, then step theta with the statistic at the FRESH state,
        # then apply the containment rule; must match the engine exactly.
        # m = 3 keeps the chain at the walls, where proposals leave the grid
        model = build_model(m=m)
        l, n, seed = 3, 50, 61
        sched = poly()
        traj = msa_run(model, l, sched, TIGHT, n, 0.1, x0, seed=seed)
        gammas = sched.step_sizes(n)
        rng = np.random.default_rng(seed)
        theta, x, psi, events = 0.1, x0, 0, []
        for k in range(1, n + 1):
            x_new = sample_step(model, l, theta, x, rng)
            tentative = theta + gammas[k - 1] * drift_term(model, l, theta, x_new)
            if TIGHT.contains(tentative, psi):
                theta, x = tentative, x_new
            else:
                theta, x, psi = 0.1, x0, psi + 1
                events.append(k)
            assert traj.theta_path[k, 0] == theta
            assert traj.x_path[k, 0] == x
            assert traj.psi_path[k] == psi
        assert psi > 0 or m == 3  # the reset path is replayed too
        assert reprojection_events(traj.psi_path) == tuple(events)

    def test_long_run_is_stable_without_reprojection(self, default_model):
        roomy = ReprojectionFamily(10.0, 1.0)
        traj = msa_run(default_model, 3, poly(), roomy, 1000000, 0.0,
                       None, seed=77)
        assert len(reprojection_events(traj.psi_path)) == 0
        assert np.all(traj.psi_path == 0)


class TestCoupledMsaRun:
    def test_identical_levels_give_zero_increment(self, bias_off_model):
        traj = coupled_msa_run(bias_off_model, 3, poly(), FAMILY, 5000,
                               seed=11, theta0=0.2, theta0_bar=0.2)
        # exact: both chains identical
        np.testing.assert_array_equal(traj.theta_path[:, 0], traj.theta_path[:, 1])

    def test_increment_near_root_gap(self, default_model):
        rep = asymptotic_variance(default_model, 4)
        n = 100000
        traj = coupled_msa_run(default_model, 4, poly(), FAMILY, n, seed=777)
        sd = math.sqrt(poly().step_sizes(n)[-1] * rep.sigma)
        truth = rep.theta_star_l - rep.theta_star_lm1
        assert abs(traj.theta_path[-1, 0] - traj.theta_path[-1, 1] - truth) <= 3 * sd

    def test_deterministic_given_seed(self, default_model):
        a = coupled_msa_run(default_model, 2, poly(), FAMILY, 3000, seed=21)
        b = coupled_msa_run(default_model, 2, poly(), FAMILY, 3000, seed=21)
        np.testing.assert_array_equal(a.theta_path[:, 0], b.theta_path[:, 0])
        np.testing.assert_array_equal(a.x_path[:, 1], b.x_path[:, 1])

    def test_unconfigured_pair_starts_coalesced(self, default_model):
        traj = coupled_msa_run(default_model, 2, poly(), FAMILY, 10, seed=4)
        assert traj.x_path[0, 0] == traj.x_path[0, 1]

    def test_joint_reprojection_resets_both(self, default_model):
        tight = ReprojectionFamily(0.001, 0.001)
        traj = coupled_msa_run(default_model, 1, poly(), tight, 2000, seed=6)
        assert len(reprojection_events(traj.psi_path)) > 0
        validate_containment(traj, tight)
        k = reprojection_events(traj.psi_path)[0]
        # both chains back at their starts: theta0 = theta0_bar = 0, x0, x0_bar
        np.testing.assert_array_equal(traj.theta_path[k], [0.0, 0.0])
        np.testing.assert_array_equal(traj.x_path[k], traj.x_path[0])

    def test_containment_rejects_decreasing_psi(self):
        # psi rises at step 1 and falls at step 2
        zeros = np.zeros((3, 2))
        traj = Trajectory(theta_path=zeros, x_path=zeros.astype(int), psi_path=np.array([0, 1, 0]))
        with pytest.raises(NumericalError):
            validate_containment(traj, FAMILY)

    def test_frozen_occupation_matches_target(self):
        # the coupling's marginal property in action: the fine chain of a
        # frozen coupled run is a plain chain for its own target
        m8 = build_model(m=8)
        frozen = StepSchedule("constant", 0.0)
        n = 100000
        traj = coupled_msa_run(m8, 2, frozen, FAMILY, n, seed=99,
                               theta0=0.7, theta0_bar=0.7)
        occ = np.bincount(traj.x_path[1:, 0], minlength=8) / n
        pi = target_density(m8, 2, 0.7)
        assert 0.5 * np.abs(occ - pi).sum() <= 0.02

    def test_level_zero_rejected(self, default_model):
        with pytest.raises(ParameterError):
            coupled_msa_run(default_model, 0, poly(), FAMILY, 10, seed=0)

    def test_unknown_coupling_rejected(self, default_model):
        # not silently run as CRN
        with pytest.raises(ParameterError, match="coupling must be 'crn' or 'independent', "
                                                 "got 'bogus'"):
            coupled_msa_run(default_model, 2, poly(), FAMILY, 10, seed=0, coupling="bogus")

    @pytest.mark.parametrize("state", [-1, 32])
    @pytest.mark.parametrize("name", ["x0", "x0_bar"])
    def test_initial_state_off_grid_rejected(self, default_model, name, state):
        with pytest.raises(ParameterError, match=f"{name} .*m=32"):
            coupled_msa_run(default_model, 2, poly(), FAMILY, 10, seed=0, **{name: state})

    @pytest.mark.parametrize("coupling", ["crn", "independent"])
    @pytest.mark.parametrize("m, x0, x0_bar", [(32, 4, 11), (3, 0, 2)])
    def test_step_semantics_replay_scalar_procedure(self, m, x0, x0_bar, coupling):
        # same replay as the single-level case: one coupled transition, both
        # parameters stepped with the same gamma at their fresh states, then
        # the joint containment rule; m = 3 keeps both chains at the walls
        model = build_model(m=m)
        l, n, seed = 2, 50, 62
        sched = poly()
        traj = coupled_msa_run(model, l, sched, TIGHT, n, seed=seed,
                               theta0=0.1, theta0_bar=-0.2, x0=x0, x0_bar=x0_bar,
                               coupling=coupling)
        gammas = sched.step_sizes(n)
        rng = np.random.default_rng(seed)
        th, tb, x, xb, psi, events = 0.1, -0.2, x0, x0_bar, 0, []
        for k in range(1, n + 1):
            xn, xbn = coupled_sample_step(model, l, th, tb, x, xb, rng, coupling)
            g = gammas[k - 1]
            half = th + g * drift_term(model, l, th, xn)
            half_bar = tb + g * drift_term(model, l - 1, tb, xbn)
            if TIGHT.contains(half, psi) and TIGHT.contains(half_bar, psi):
                th, tb, x, xb = half, half_bar, xn, xbn
            else:
                th, tb, x, xb, psi = 0.1, -0.2, x0, x0_bar, psi + 1
                events.append(k)
            assert tuple(traj.theta_path[k]) == (th, tb)
            assert tuple(traj.x_path[k]) == (x, xb)
            assert traj.psi_path[k] == psi
        assert psi > 0 or m == 3  # the reset path is replayed too
        assert reprojection_events(traj.psi_path) == tuple(events)


class TestSkippedSetTest:
    # a chunk skips the per-step set test when all its steps lie in [0, 1] and
    # the largest |statistic| S is at most half the smallest set bound.  Steps
    # above 1 guard the first chunks of gamma0 > 1 and every chunk of a
    # constant step above 1; r0 < 2S guards chunks until resets grow the sets
    RUNS = [(False, "crn"), (True, "crn"), (True, "independent")]
    SCHEDULES = [poly(gamma0) for gamma0 in (0.5, 1.0, 1.5, 4.0)] + [
        StepSchedule("constant", gamma) for gamma in (1.0, 1.5)]

    @staticmethod
    def replay(model, l, coupled, coupling, gammas, family, theta0s, seed):
        """The scalar procedure, which tests every step against its set:
        rows (theta per chain, x per chain, psi) after each step."""
        rng = np.random.default_rng(seed)
        x0 = [int(rng.integers(model.m))] * (1 + coupled)  # a pair starts coalesced
        theta, x, psi, rows = list(theta0s), list(x0), 0, []
        for g in gammas:
            if coupled:
                xn = coupled_sample_step(model, l, *theta, *x, rng, coupling)
            else:
                xn = (sample_step(model, l, theta[0], x[0], rng),)
            half = [th + g * drift_term(model, level, th, state)
                    for th, level, state in zip(theta, (l, l - 1), xn)]
            if all(family.contains(h, psi) for h in half):
                theta, x = half, list(xn)
            else:
                theta, x, psi = list(theta0s), list(x0), psi + 1
            rows.append((theta, x, psi))
        return rows

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(3, 12), l=st.integers(1, 6), R=st.integers(1, 3),
           run=st.sampled_from(RUNS), schedule=st.sampled_from(SCHEDULES),
           r0_over_2S=st.sampled_from([0.25, 0.9, 1.0, 1.1, 4.0]),
           growth=st.sampled_from([0.01, 1.0]),
           theta0_over_r0=st.sampled_from([-1.0, -0.99, 0.0, 0.99, 1.0]),
           n=st.integers(1, 2 * _CHUNK + 100), seed0=st.integers(0, 2**32))
    # a reset in the first chunk, which steps above 1 guard, then unguarded chunks
    @example(m=32, l=3, R=2, run=RUNS[1], schedule=SCHEDULES[3], r0_over_2S=4.0, growth=1.0,
             theta0_over_r0=1.0, n=_CHUNK + 100, seed0=5)
    # resets where r0 < 2S, then unguarded chunks once the sets have grown
    @example(m=32, l=3, R=2, run=RUNS[0], schedule=SCHEDULES[1], r0_over_2S=0.25, growth=4.0,
             theta0_over_r0=0.0, n=2 * _CHUNK + 100, seed0=6)
    # r0 = 2S exactly, the guard's edge, under a constant step above 1
    @example(m=32, l=3, R=3, run=RUNS[2], schedule=SCHEDULES[5], r0_over_2S=1.0, growth=0.01,
             theta0_over_r0=-1.0, n=_CHUNK + 100, seed0=7)
    def test_every_step_replays_the_scalar_procedure(self, m, l, R, run, schedule, r0_over_2S,
                                                      growth, theta0_over_r0, n, seed0):
        coupled, coupling = run
        model = build_model(m=m)
        S = max(np.abs(level_statistic(model, k)).max() for k in (l, l - 1)[:1 + coupled])
        family = ReprojectionFamily(r0_over_2S * 2 * S, growth)
        theta0 = theta0_over_r0 * family.r0
        theta0s = (theta0, -theta0)[:1 + coupled]
        _, paths = _run_ensemble(model, l, schedule, family, n, _Streams(range(seed0, seed0 + R)),
                                 theta0, None, -theta0, None, coupled=coupled, coupling=coupling,
                                 record=True)
        gammas = schedule.step_sizes(n)
        for i in range(R):
            rows = self.replay(model, l, coupled, coupling, gammas, family, theta0s, seed0 + i)
            for name, path, column in zip(("theta", "x", "psi"),
                                          (paths["theta"][1:, :, i], paths["x"][1:, :, i],
                                           paths["psi"][1:, i]), zip(*rows)):
                bad = np.flatnonzero(np.any((path != np.array(column)).reshape(n, -1), axis=1))
                assert bad.size == 0, f"replicate {i}: {name} differs first at step {bad[0] + 1}"

    def test_runs_at_the_defaults_skip_the_set_test(self, tmp_path, monkeypatch):
        # no run at the command line's defaults can reset, so the set test,
        # one np.abs per step wherever it runs, is skipped in every chunk;
        # each vector step makes one np.exp call, and the one-column kernel
        # one per chain and step where its move's p is negative
        reads = Counter()

        class CountingNumpy:
            def __getattr__(self, name):
                reads[name] += 1
                return getattr(np, name)
        monkeypatch.setattr(engine, "np", CountingNumpy())
        for sub in ("run-msa", "run-coupled", "ml-run", "mse-cost"):
            assert cli.main([sub, "--output", str(tmp_path / sub)]) == 0
        assert reads["exp"] >= 10 * _CHUNK
        assert reads["abs"] <= reads["exp"] // _CHUNK


@pytest.mark.parametrize("coupled", [False, True], ids=["single", "coupled"])
def test_only_the_vector_body_builds_chunk_arrays(monkeypatch, default_model, coupled):
    # an R = 1 run is stepped by the one-column kernel alone; an R = 2 run by
    # the vector body, which builds its acceptance view once per segment
    reads = Counter()

    class CountingNumpy:
        def __getattr__(self, name):
            reads[name] += 1
            return getattr(np, name)
    monkeypatch.setattr(engine, "np", CountingNumpy())
    if coupled:
        coupled_msa_run(default_model, 2, poly(), FAMILY, 50, seed=1)
    else:
        msa_run(default_model, 2, poly(), FAMILY, 50, 0.0, None, seed=1)
    assert reads["broadcast_to"] == 0
    _run_ensemble(default_model, 2, poly(), FAMILY, 50, _Streams([1, 2]), 0.0, None,
                  coupled=coupled)
    assert reads["broadcast_to"] == 1


class TestEmpiricalCltVariance:
    def test_replicates_equal_standalone_runs(self, default_model):
        n, R, seed0 = 4000, 100, 50
        est = empirical_clt_variance(default_model, 2, poly(), n, R, seed0)
        assert est.n_discarded == 0
        for i in (0, 37, 99):
            traj = coupled_msa_run(default_model, 2, poly(), FAMILY, n,
                                   seed=seed0 + i)
            assert est.increments[i] == pytest.approx(
                traj.theta_path[-1, 0] - traj.theta_path[-1, 1], abs=1e-12)

    def test_zero_steps_rejected(self, default_model):
        with pytest.raises(ParameterError, match="n_steps"):
            empirical_clt_variance(default_model, 2, poly(), 0, 100, 0)

    def test_scales_by_the_last_step_the_engine_took(self):
        # at n = 14, gamma0 * 14**-rho evaluated as a scalar differs in the
        # last ulp from the step vector's entry
        sched = poly()
        est = empirical_clt_variance(build_model(m=8), 2, sched, 14, 100, 0)
        assert est.gamma_n == sched.step_sizes(14)[-1]

    def test_keeps_a_replicate_that_last_reprojects_at_the_half(self):
        # the second half of the run starts after step n/2: a nan step n/2
        # resets every replicate there, and every one of them is kept
        class NanAtHalf(StepSchedule):
            def step_sizes(self, n_steps):
                gammas = super().step_sizes(n_steps)
                gammas[n_steps // 2 - 1] = math.nan
                return gammas
        n, R = 200, 100
        est = empirical_clt_variance(build_model(m=8), 2, NanAtHalf("polynomial", 1.0, 0.75),
                                     n, R, 0)
        assert (est.n_kept, est.n_discarded) == (R, 0)

    def test_builds_the_step_vector_once(self, monkeypatch):
        calls = []
        step_sizes = StepSchedule.step_sizes

        def counted(self, n_steps):
            calls.append(n_steps)
            return step_sizes(self, n_steps)
        monkeypatch.setattr(StepSchedule, "step_sizes", counted)
        empirical_clt_variance(build_model(m=8), 2, poly(), 500, 100, 0)
        assert calls == [500]

    def test_degenerate_levels_give_zero_estimate(self, bias_off_model):
        est = empirical_clt_variance(bias_off_model, 2, poly(), 2000, 100, 7)
        assert est.estimate == 0.0

    def test_matches_exact_variance(self, default_model):
        rep = asymptotic_variance(default_model, 3)
        est = empirical_clt_variance(default_model, 3, poly(), 30000, 200,
                                     seed0=4000)
        assert abs(est.estimate - rep.sigma) <= 3 * est.stderr

    def test_seed_block_invariance(self, default_model):
        blocks = [empirical_clt_variance(default_model, 2, poly(), 20000,
                                         150, seed0=s) for s in (100, 4100, 9100)]
        for i in range(3):
            for j in range(i + 1, 3):
                gap = abs(blocks[i].estimate - blocks[j].estimate)
                combined = math.hypot(blocks[i].stderr, blocks[j].stderr)
                assert gap <= 3 * combined

    @pytest.mark.parametrize("rho", [0.6, 0.9])
    def test_scaled_variance_invariant_to_step_exponent(self, default_model, rho):
        # the gamma_n**-1 scaling removes the schedule: any admissible
        # exponent must estimate the same asymptotic variance
        exact = asymptotic_variance(default_model, 2).sigma
        sched = StepSchedule("polynomial", 1.0, rho)
        est = empirical_clt_variance(default_model, 2, sched, 40000, 250,
                                     seed0=7000)
        assert abs(est.estimate - exact) <= 3 * est.stderr

    def test_independent_coupling_inflates_variance(self, default_model):
        crn = empirical_clt_variance(default_model, 2, poly(), 5000, 100,
                                     seed0=31, coupling="crn")
        ind = empirical_clt_variance(default_model, 2, poly(), 5000, 100,
                                     seed0=31, coupling="independent")
        assert ind.estimate > crn.estimate

    def test_requires_polynomial_schedule(self, default_model):
        const = StepSchedule("constant", 0.01)
        with pytest.raises(ParameterError):
            empirical_clt_variance(default_model, 2, const, 100, 100, 0)

    def test_requires_enough_replicates(self, default_model):
        with pytest.raises(ParameterError):
            empirical_clt_variance(default_model, 2, poly(), 100, 50, 0)

    def test_warns_when_family_too_tight(self, default_model):
        tight = ReprojectionFamily(0.5, 0.01)
        with pytest.warns(UserWarning, match="too tight"):
            est = empirical_clt_variance(default_model, 1, poly(), 400, 100, 3,
                                         reproj=tight)
        assert est.n_discarded > 20


class TestRunEnsemble:
    @pytest.mark.parametrize("family", [FAMILY, ReprojectionFamily(0.001, 0.001)],
                             ids=["roomy", "tight"])
    @pytest.mark.parametrize("coupled, coupling", [(False, "crn"), (True, "crn"),
                                                   (True, "independent")],
                             ids=["single", "crn", "independent"])
    def test_replicates_equal_standalone_runs_across_a_chunk(self, default_model, family,
                                                            coupled, coupling):
        # replicate i of the ensemble is bit for bit the standalone run with
        # seed seed0 + i, also after the uniforms are drawn for a second chunk
        l, n, R, seed0 = 2, _CHUNK + 37, 4, 80
        rngs = [np.random.default_rng(seed0 + i) for i in range(R)]
        st, _ = _run_ensemble(default_model, l, poly(), family, n, rngs, 0.0, None,
                              0.0, None, coupled=coupled, coupling=coupling)
        for i in (0, 1, R - 1):
            if coupled:
                traj = coupled_msa_run(default_model, l, poly(), family, n, seed0 + i,
                                       coupling=coupling)
            else:
                traj = msa_run(default_model, l, poly(), family, n, 0.0, None, seed0 + i)
            assert tuple(st.theta[:, i]) == tuple(traj.theta_path[-1])
            assert tuple(st.x[:, i]) == tuple(traj.x_path[-1])
            assert st.psi[i] == traj.psi_path[-1]
            assert (st.psi[i] > 0) == (family is not FAMILY)

    # R = 2 steps through the vector loop, R = 1 through the one-column kernel
    @pytest.mark.parametrize("coupled, R", [(False, 2), (True, 2), (False, 1), (True, 1)],
                             ids=["single", "coupled", "single-R1", "coupled-R1"])
    def test_blow_up_resets_and_counts_as_a_reprojection(self, default_model, coupled, R):
        class NanEverySeventhStep:
            def step_sizes(self, n_steps):
                g = poly().step_sizes(n_steps)
                g[::7] = np.nan
                return g

        n = 300
        rngs = [np.random.default_rng(i) for i in range(R)]
        st, paths = _run_ensemble(default_model, 2, NanEverySeventhStep(), FAMILY, n, rngs,
                                  0.0, None, coupled=coupled, record=True)
        assert np.all(np.isfinite(st.theta))
        assert np.all(st.psi == len(range(0, n, 7)))
        jumps = np.diff(paths["psi"], axis=0) > 0
        assert all(list(np.flatnonzero(jumps[:, r]) + 1) == list(range(1, n + 1, 7))
                   for r in range(R))

    @pytest.mark.parametrize("coupled, coupling", [(False, "crn"), (True, "crn"),
                                                   (True, "independent")],
                             ids=["single", "crn", "independent"])
    def test_columns_whose_bounds_differ_equal_standalone_runs(self, default_model, coupled,
                                                              coupling):
        # the replicates reset at different steps, so their set bounds
        # differ, and some steps move a |theta| above the smallest bound
        # with every column inside its own set: no column may reset there
        family, l, n, R, seed0 = ReprojectionFamily(0.05, 0.01), 2, 300, 3, 80
        _, paths = _run_ensemble(default_model, l, poly(), family, n,
                                 _Streams(range(seed0, seed0 + R)), 0.0, None, 0.0, None,
                                 coupled=coupled, coupling=coupling, record=True)
        theta, psi = paths["theta"], paths["psi"]
        kept = (psi[1:] == psi[:-1]).all(axis=1)
        smallest_bound = (family.r0 + family.growth * psi[:-1]).min(axis=1)
        assert np.any(kept & (np.abs(theta[1:]).max(axis=(1, 2)) > smallest_bound))
        for i in range(R):
            if coupled:
                traj = coupled_msa_run(default_model, l, poly(), family, n, seed0 + i,
                                       coupling=coupling)
            else:
                traj = msa_run(default_model, l, poly(), family, n, 0.0, None, seed0 + i)
            assert np.array_equal(theta[:, :, i], traj.theta_path)
            assert np.array_equal(paths["x"][:, :, i], traj.x_path)
            assert np.array_equal(psi[:, i], traj.psi_path)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(3, 12), l=st.integers(1, 6), R=st.integers(1, 4),
           run=st.sampled_from([(False, "crn"), (True, "crn"), (True, "independent")]),
           family=st.sampled_from([FAMILY, TIGHT, ReprojectionFamily(0.001, 0.001)]),
           n=st.integers(1, _CHUNK + 40), seed0=st.integers(0, 2**32))
    def test_replicates_equal_standalone_runs_over_random_runs(self, m, l, R, run, family, n,
                                                               seed0):
        coupled, coupling = run
        model = build_model(m=m)
        rngs = [np.random.default_rng(seed0 + i) for i in range(R)]
        ens, _ = _run_ensemble(model, l, poly(), family, n, rngs, 0.0, None,
                               0.0, None, coupled=coupled, coupling=coupling)
        for i in range(R):
            if coupled:
                traj = coupled_msa_run(model, l, poly(), family, n, seed0 + i,
                                       coupling=coupling)
            else:
                traj = msa_run(model, l, poly(), family, n, 0.0, None, seed0 + i)
            assert tuple(ens.theta[:, i]) == tuple(traj.theta_path[-1])
            assert tuple(ens.x[:, i]) == tuple(traj.x_path[-1])
            assert ens.psi[i] == traj.psi_path[-1]
            assert ens.last_reproj[i] == (reprojection_events(traj.psi_path) or (0,))[-1]


def test_scalar_exp_is_the_vectorized_exp():
    # the one-column kernel takes np.exp of one Python float where the vector
    # loop takes it of an array; math.exp rounds about 5% of these p
    # differently in the last bit, so the kernel may not use it
    p = np.random.default_rng(3).uniform(-700.0, 0.0, 100_000)
    vector = np.exp(p)
    assert sum(np.exp(v) != e for v, e in zip(p.tolist(), vector.tolist())) == 0


class TestRunLanes:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), m=st.integers(3, 12),
           family=st.sampled_from([FAMILY, TIGHT, ReprojectionFamily(0.001, 0.001)]),
           ns=st.lists(st.integers(1, _CHUNK + 40), min_size=1, max_size=4, unique=True),
           seed0=st.integers(0, 2**32))
    def test_lanes_equal_standalone_runs(self, data, m, family, ns, seed0):
        # each lane of a joint run, ending mid-chunk or not, is bit for bit
        # its own run: its steps, generators and starts only
        model = build_model(m=m)
        specs = []
        for j, n in enumerate(ns):
            l = data.draw(st.integers(0, 5))
            coupled, coupling = data.draw(st.sampled_from(
                [(False, "crn"), (True, "crn"), (True, "independent")] if l > 0
                else [(False, "crn")]))
            seeds = [seed0 + 10 * j + i for i in range(data.draw(st.integers(1, 3)))]
            schedule = poly(gamma0=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
            specs.append((l, schedule, n, seeds, coupled, coupling))

        def lane(l, schedule, n, seeds, coupled, coupling):
            return _Lane(l, schedule, n, [np.random.default_rng(s) for s in seeds],
                         0.0, None, 0.0, None, coupled, coupling)

        states, _ = _run_lanes(model, [lane(*spec) for spec in specs], family)
        for (l, schedule, n, seeds, coupled, coupling), joint in zip(specs, states):
            alone, _ = _run_ensemble(model, l, schedule, family, n,
                                     [np.random.default_rng(s) for s in seeds], 0.0, None,
                                     coupled=coupled, coupling=coupling)
            for name in ("theta", "x", "psi", "last_reproj"):
                a, b = getattr(joint, name), getattr(alone, name)
                assert a.shape == b.shape and (a == b).all(), name

    @pytest.mark.parametrize("indep_steps", [300, _CHUNK + 100],
                             ids=["independent-shortest", "independent-longest"])
    @pytest.mark.parametrize("family", [FAMILY, TIGHT], ids=["roomy", "tight"])
    def test_lanes_equal_standalone_runs_across_buffer_widths(self, default_model, family,
                                                               indep_steps):
        # a single chain, a CRN pair and an independent pair in one loop: the
        # uniform buffer is 4 wide while the independent lane runs, and the
        # other lanes fill both halves of their rows; when it ends first the
        # next segments' buffers are 2 wide, when it ends last every segment's
        # is 4 wide.  The longest lane crosses a chunk boundary
        specs = [(2, _CHUNK + 37, 3, False, "crn"), (3, 700, 2, True, "crn"),
                 (2, indep_steps, 2, True, "independent")]
        lanes = [_Lane(l, poly(), n, _Streams(range(R), (j,)), 0.0, None, 0.0, None,
                       coupled, coupling)
                 for j, (l, n, R, coupled, coupling) in enumerate(specs)]
        states, _ = _run_lanes(default_model, lanes, family)
        for lane, joint in zip(lanes, states):
            alone, _ = _run_ensemble(default_model, lane.level, lane.schedule, family,
                                     lane.n_steps, lane.rngs, 0.0, None, coupled=lane.coupled,
                                     coupling=lane.coupling)
            for name in ("theta", "x", "psi", "last_reproj"):
                a, b = getattr(joint, name), getattr(alone, name)
                assert a.shape == b.shape and (a == b).all(), name
        assert (states[1].psi > 0).all() == (family is TIGHT)

    @pytest.mark.parametrize("family", [FAMILY, TIGHT], ids=["roomy", "tight"])
    @pytest.mark.parametrize("coupled, coupling", [(False, "crn"), (True, "crn"),
                                                   (True, "independent")],
                             ids=["single", "crn", "independent"])
    def test_last_column_continues_where_the_vector_loop_left_it(self, default_model, family,
                                                                 coupled, coupling):
        # the longer lane's one replicate is stepped by the vector loop, in a
        # 4-wide two-chain state, until the shorter lane ends at step 8, and
        # by the one-column kernel from there; its final state is that of
        # its standalone run, which the kernel steps throughout, and of its
        # column in an R = 2 ensemble, which the vector loop steps throughout
        l, n, handoff, seed = 2, _CHUNK + 200, 8, 41
        lane = _Lane(l, poly(), n, [np.random.default_rng(seed)], 0.0, None, 0.0, None,
                     coupled, coupling)
        short = _Lane(3, poly(), handoff, _Streams([7, 8]), 0.0, None, 0.0, None,
                      coupled=True, coupling="independent")
        joint = _run_lanes(default_model, [short, lane], family)[0][1]
        alone, _ = _run_ensemble(default_model, l, poly(), family, n,
                                 [np.random.default_rng(seed)], 0.0, None,
                                 coupled=coupled, coupling=coupling)
        pair, paths = _run_ensemble(default_model, l, poly(), family, n,
                                    [np.random.default_rng(s) for s in (seed, seed + 1)],
                                    0.0, None, coupled=coupled, coupling=coupling, record=True)
        for name in ("theta", "x", "psi", "last_reproj"):
            a, b, c = getattr(joint, name), getattr(alone, name), getattr(pair, name)
            assert a.shape == b.shape and (a == b).all() and (a == c[..., :1]).all(), name
        rises = np.flatnonzero(np.diff(paths["psi"][:, 0])) + 1
        if family is TIGHT:  # resets fall on both sides of the handoff
            assert rises.min() <= handoff < rises.max()
        else:
            assert rises.size == 0

    def test_chunk_uniforms_do_not_grow_with_the_lane_count(self):
        # 40 lanes of 100 replicates under the independent coupling draw ten
        # times the uniforms of a one-lane step at R = 400; the chunk is cut
        # to keep what it holds at the one-lane size (uncut, its acceptance
        # uniforms alone take 2.5 times that: 32 MB)
        model = build_model(m=8)
        lanes = [_Lane(1 + j % 5, poly(), 500 + 10 * j,
                       [np.random.default_rng(100 * j + i) for i in range(100)],
                       0.0, None, 0.0, None, coupled=True, coupling="independent")
                 for j in range(40)]
        tracemalloc.start()
        try:
            _run_lanes(model, lanes, FAMILY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * _CHUNK_VALUES

    # (level, n_steps, R, coupled, coupling) per lane
    @pytest.mark.parametrize("specs, record", [
        ([(3, 10_000, 1, False, "crn")], True),
        ([(3, 2048, 400, True, "crn")], False),
        ([(3, 2048, 400, True, "independent")], False),
        ([(3, 1100, 4000, True, "independent")], False),
        ([(j % 5, 100 + 130 * j, 200, j % 5 > 0, ("crn", "independent")[j % 2])
          for j in range(15)], False),
    ], ids=["R1-single-recorded", "R400-crn", "R400-independent", "R4000-independent",
            "15-lanes-mixed"])
    def test_size_rule_bounds_what_the_loop_holds(self, monkeypatch, specs, record):
        model = build_model(m=8)

        def lanes():
            return [_Lane(l, poly(), n, _Streams(range(R), (j,)), 0.0, None, 0.0, None,
                          coupled, coupling)
                    for j, (l, n, R, coupled, coupling) in enumerate(specs)]
        counted = []
        check_bytes = engine._check_bytes
        monkeypatch.setattr(engine, "_check_bytes",
                            lambda what, need: (counted.append(need), check_bytes(what, need)))
        tracemalloc.start()
        try:
            _run_lanes(model, lanes(), FAMILY, record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counted) == len(specs) + 1  # one check per lane, then the joint one
        assert peak <= counted[-1]

    def test_size_rule_admits_a_replicate_count_whose_run_fits(self, monkeypatch):
        # counted with a chunk of every step at R = 16,000 this was 285 MB, over
        # the budget; the loop caps its chunk, and the run peaks near 50 MB.
        # The loop builds its first generator once every size check has passed
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted
        monkeypatch.setattr(np.random, "default_rng", admitted)
        lane = _Lane(3, poly(), 1024, _Streams(range(16_000)), 0.0, None, 0.0, None,
                     coupled=True)
        with pytest.raises(Admitted):
            _run_lanes(build_model(m=8), [lane], FAMILY)

    def test_size_rule_counts_the_move_table(self, monkeypatch):
        # seven levels at m = 2**15 join a move table of about 20 MB, many
        # times what the one-step, one-replicate lanes hold besides
        lane = _Lane(1, poly(), 1, _Streams([0]), 0.0, None, 0.0, None, coupled=True)
        _run_lanes(build_model(m=8), [lane], FAMILY)  # imports numpy's lazy modules
        lanes = [lane._replace(level=l, rngs=_Streams([l])) for l in range(1, 7)]
        counted = []
        check_bytes = engine._check_bytes
        monkeypatch.setattr(engine, "_check_bytes",
                            lambda what, need: (counted.append(need), check_bytes(what, need)))
        model = build_model(m=2 ** 15)
        tracemalloc.start()
        try:
            _run_lanes(model, lanes, FAMILY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak > 16 * 2 ** 20 and peak <= counted[-1]

    def test_loop_keeps_no_move_table(self):
        # a run leaves held only its levels' cached statistics, 8 bytes per
        # state and level; its move tables, 32 bytes per state and level,
        # go with the loop, so runs on fresh models do not pile them up
        m = 2 ** 16
        lane = _Lane(1, poly(), 1, _Streams([0]), 0.0, None, 0.0, None, coupled=True)
        _run_lanes(build_model(m=8), [lane], FAMILY)  # imports numpy's lazy modules
        model = build_model(m=m)
        tracemalloc.start()
        try:
            _run_lanes(model, [lane], FAMILY)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 16 * m

    @staticmethod
    def refused_before_any_generator(monkeypatch, lanes, record, match):
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built
        monkeypatch.setattr(np.random, "default_rng", built)
        with pytest.raises(ParameterError, match=match):
            _run_lanes(build_model(m=8), lanes, FAMILY, record)

    @pytest.mark.parametrize("order", [1, -1], ids=["longer-first", "shorter-first"])
    def test_recorded_loop_is_one_lane(self, monkeypatch, order):
        # the paths hold the steps of one run, so two lanes are refused in
        # either order, before a generator is built
        lanes = [_Lane(2, poly(), n, _Streams([0, 1]), 0.0, None) for n in (10, 5)]
        self.refused_before_any_generator(monkeypatch, lanes[::order], True,
                                          "a recorded loop holds exactly one lane, got 2")

    @pytest.mark.parametrize("beside", [[], [1]], ids=["alone", "beside-one-replicate"])
    def test_lane_without_replicates_is_refused(self, monkeypatch, beside):
        lanes = [_Lane(2, poly(), 5, _Streams(beside), 0.0, None)] if beside else []
        lanes.append(_Lane(2, poly(), 10, [], 0.0, None))
        self.refused_before_any_generator(monkeypatch, lanes, False,
                                          "a run needs at least one replicate, got R=0")

    def test_step_vectors_of_all_lanes_are_checked_together(self, default_model):
        # each lane fits the byte budget alone, the two step vectors do not
        n = 20_000_000
        lanes = [_Lane(l, poly(), n, _Streams([l]), 0.0, None) for l in (0, 1)]
        with pytest.raises(ParameterError, match="step vectors of 2 runs"):
            _run_lanes(default_model, lanes, FAMILY)


class TestFrozenLaw:
    # the chi-square statistic of one chain's final states against its exact
    # law is refused above its 1 - 1e-5 quantile on m - 1 degrees of freedom
    ALPHA = 1e-5

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(3, 8), l=st.integers(1, 6), theta=st.floats(-2.0, 2.0),
           n=st.integers(1, 30), R=st.integers(800, 2000), seed0=st.integers(0, 2**32),
           coupled=st.booleans())
    def test_final_states_follow_the_exact_law(self, m, l, theta, n, R, seed0, coupled):
        # gamma0 = 0 freezes theta, so each chain is a plain Metropolis chain
        # from a uniform start (a coupled pair from one shared draw, under
        # CRN); after n steps its state has the law uniform @ K^n of its own
        # level's kernel, the coarse chain's at level l - 1
        model = build_model(m=m)
        frozen = StepSchedule("constant", 0.0)
        state, _ = _run_ensemble(model, l, frozen, FAMILY, n, _Streams(range(seed0, seed0 + R)),
                                 theta, None, theta, None, coupled=coupled)
        assert (state.theta == theta).all() and state.x.shape == (1 + coupled, R)
        for x, level in zip(state.x, (l, l - 1)):
            K_n = np.linalg.matrix_power(kernel_matrix(model, level, theta), n)
            expected = R * np.full(m, 1.0 / m) @ K_n
            stat = np.sum((np.bincount(x, minlength=m) - expected) ** 2 / expected)
            assert stat <= chi2.isf(self.ALPHA, m - 1), (level, stat)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(3, 6), l=st.integers(1, 6), theta=st.floats(-2.0, 2.0),
           theta_bar=st.floats(-2.0, 2.0), n=st.integers(1, 29), R=st.integers(2000, 3999),
           seed0=st.integers(0, 2**32), coupling=st.sampled_from(COUPLINGS),
           apart=st.booleans())
    def test_final_pairs_follow_the_exact_coupled_law(self, m, l, theta, theta_bar, n, R, seed0,
                                                      coupling, apart):
        # the joint law, which the marginals above cannot tell apart between
        # couplings: with theta and theta_bar frozen the pair is a Markov
        # chain on (x, xbar) with the coupled kernel, so after n steps from a
        # coalesced uniform start, or from (0, m - 1), the pair has the law
        # start @ K**n.  The statistic runs over the pairs of positive mass
        # and is refused above its 1 - 1e-5 quantile; a pair of zero mass
        # must not occur at all
        model = build_model(m=m)
        frozen = StepSchedule("constant", 0.0)
        starts = (0, m - 1) if apart else (None, None)
        state, _ = _run_ensemble(model, l, frozen, FAMILY, n, _Streams(range(seed0, seed0 + R)),
                                 theta, starts[0], theta_bar, starts[1], coupled=True,
                                 coupling=coupling)
        start = np.zeros(m * m)
        if apart:
            start[m - 1] = 1.0
        else:
            start[::m + 1] = 1.0 / m
        law = start @ np.linalg.matrix_power(
            coupled_kernel_matrix(model, l, theta, theta_bar, coupling), n)
        counts = np.bincount(state.x[0] * m + state.x[1], minlength=m * m)
        assert not counts[law == 0].any(), "a pair of zero mass occurred"
        expected = R * law[law > 0]
        stat = np.sum((counts[law > 0] - expected) ** 2 / expected)
        assert stat <= chi2.isf(self.ALPHA, expected.size - 1), stat
