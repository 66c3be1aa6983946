import math

import numpy as np
import pytest

from mlmsa.core import (
    NumericalError,
    ParameterError,
    ReprojectionFamily,
    make_step_schedule,
)
from mlmsa.engine import (
    _CHUNK,
    CoupledTrajectory,
    _run_ensemble,
    coupled_msa_run,
    empirical_clt_variance,
    msa_run,
)
from mlmsa.exact import asymptotic_variance, level_root
from mlmsa.model import (
    build_model,
    coupled_sample_step,
    drift_term,
    sample_step,
    target_density,
)

FAMILY = ReprojectionFamily(2.0, 1.0)


def poly(n_total, gamma0=1.0, rho=0.75):
    return make_step_schedule("polynomial", gamma0, rho, n_total)


class TestMsaRun:
    def test_zero_steps_freeze_theta(self, default_model):
        frozen = make_step_schedule("constant", 0.0, n_total=1)
        traj = msa_run(default_model, 2, frozen, FAMILY, 500, 0.3, 4, seed=1)
        assert np.all(traj.theta_path == 0.3)
        assert len(traj.reprojection_events) == 0

    def test_zero_drift_keeps_theta_constant(self):
        # constant (zero) statistic and theta0 at its value: H identically 0
        flat = build_model(phi_choice="zero", bias_choice="zero")
        traj = msa_run(flat, 2, poly(100), FAMILY, 100, 0.0, 3, seed=5)
        assert np.all(traj.theta_path == 0.0)

    def test_deterministic_given_seed(self, default_model):
        a = msa_run(default_model, 3, poly(2000), FAMILY, 2000, 0.0, None, seed=9)
        b = msa_run(default_model, 3, poly(2000), FAMILY, 2000, 0.0, None, seed=9)
        np.testing.assert_array_equal(a.theta_path, b.theta_path)
        np.testing.assert_array_equal(a.x_path, b.x_path)
        assert a.x0 == b.x0

    def test_converges_to_level_root(self, default_model):
        traj = msa_run(default_model, 4, poly(100000, gamma0=0.1), FAMILY,
                       100000, 0.0, None, seed=12345)
        assert abs(traj.theta_final - level_root(default_model, 4)) <= 0.05
        assert len(traj.reprojection_events) == 0  # r0 = 2 is ample

    def test_reprojection_resets_and_counts(self, default_model):
        tight = ReprojectionFamily(0.001, 0.001)
        traj = msa_run(default_model, 1, poly(3000), tight, 3000, 0.0, None, seed=2)
        assert len(traj.reprojection_events) > 0
        traj.validate_containment(tight)
        k = traj.reprojection_events[0]
        assert traj.theta_path[k] == traj.theta0
        assert traj.x_path[k] == traj.x0  # state resets too, by design
        assert traj.psi_path[k] == traj.psi_path[k - 1] + 1

    def test_containment_invariant_on_generic_run(self, default_model):
        traj = msa_run(default_model, 2, poly(5000), FAMILY, 5000, 0.0, None, seed=3)
        traj.validate_containment(FAMILY)

    def test_theta0_must_start_inside(self, default_model):
        with pytest.raises(ParameterError):
            msa_run(default_model, 2, poly(10), FAMILY, 10, 5.0, None, seed=0)

    @pytest.mark.parametrize("x0", [-1, 32])
    def test_initial_state_off_grid_rejected(self, default_model, x0):
        with pytest.raises(ParameterError, match="x0 .*m=32"):
            msa_run(default_model, 2, poly(10), FAMILY, 10, 0.0, x0, seed=0)

    @pytest.mark.parametrize("m, x0", [(32, 9), (3, 0)])
    def test_step_semantics_replay_scalar_procedure(self, m, x0):
        # replay the run through the scalar sampler: sample the next state
        # first, then step theta with the statistic at the FRESH state,
        # then apply the containment rule; must match the engine exactly.
        # m = 3 keeps the chain at the walls, where proposals leave the grid
        model = build_model(m=m)
        l, n, seed = 3, 50, 61
        sched = poly(n)
        traj = msa_run(model, l, sched, FAMILY, n, 0.1, x0, seed=seed)
        # the engine's step vector: step_size(k) can differ from it in the last ulp
        gammas = sched.step_sizes(n)
        rng = np.random.default_rng(seed)
        theta, x, psi = 0.1, x0, 0
        for k in range(1, n + 1):
            x_new = sample_step(model, l, theta, x, rng)
            tentative = theta + gammas[k - 1] * drift_term(model, l, theta, x_new)
            if FAMILY.contains(tentative, psi):
                theta, x = tentative, x_new
            else:
                theta, x, psi = 0.1, x0, psi + 1
            assert traj.theta_path[k] == theta
            assert traj.x_path[k] == x
            assert traj.psi_path[k] == psi

    def test_long_run_is_stable_without_reprojection(self, default_model):
        roomy = ReprojectionFamily(10.0, 1.0)
        traj = msa_run(default_model, 3, poly(1000000), roomy, 1000000, 0.0,
                       None, seed=77)
        assert len(traj.reprojection_events) == 0
        assert np.all(traj.psi_path == 0)


class TestCoupledMsaRun:
    def test_identical_levels_give_zero_increment(self, bias_off_model):
        traj = coupled_msa_run(bias_off_model, 3, poly(5000), FAMILY, 5000,
                               seed=11, theta0=0.2, theta0_bar=0.2)
        assert np.all(traj.increments == 0.0)  # exact: both chains identical

    def test_increment_near_root_gap(self, default_model):
        rep = asymptotic_variance(default_model, 4)
        n = 100000
        traj = coupled_msa_run(default_model, 4, poly(n), FAMILY, n, seed=777)
        sd = math.sqrt(poly(n).step_size(n) * rep.sigma)
        truth = rep.theta_star_l - rep.theta_star_lm1
        assert abs(traj.increment_final - truth) <= 3 * sd

    def test_deterministic_given_seed(self, default_model):
        a = coupled_msa_run(default_model, 2, poly(3000), FAMILY, 3000, seed=21)
        b = coupled_msa_run(default_model, 2, poly(3000), FAMILY, 3000, seed=21)
        np.testing.assert_array_equal(a.fine_theta_path, b.fine_theta_path)
        np.testing.assert_array_equal(a.coarse_x_path, b.coarse_x_path)

    def test_unconfigured_pair_starts_coalesced(self, default_model):
        traj = coupled_msa_run(default_model, 2, poly(10), FAMILY, 10, seed=4)
        assert traj.x0 == traj.x0_bar

    def test_joint_reprojection_resets_both(self, default_model):
        tight = ReprojectionFamily(0.001, 0.001)
        traj = coupled_msa_run(default_model, 1, poly(2000), tight, 2000, seed=6)
        assert len(traj.reprojection_events) > 0
        traj.validate_containment(tight)
        k = traj.reprojection_events[0]
        assert traj.fine_theta_path[k] == traj.theta0
        assert traj.coarse_theta_path[k] == traj.theta0_bar
        assert traj.fine_x_path[k] == traj.x0
        assert traj.coarse_x_path[k] == traj.x0_bar

    def test_containment_rejects_decreasing_psi(self):
        # psi jumps at the recorded events, but the second jump goes down
        zeros = np.zeros(3)
        traj = CoupledTrajectory(level=1, seed=0, coupling="crn",
                                 fine_theta_path=zeros, coarse_theta_path=zeros,
                                 fine_x_path=zeros.astype(int), coarse_x_path=zeros.astype(int),
                                 psi_path=np.array([0, 1, 0]), reprojection_events=(1, 2),
                                 theta0=0.0, theta0_bar=0.0, x0=0, x0_bar=0)
        with pytest.raises(NumericalError):
            traj.validate_containment(FAMILY)

    def test_frozen_occupation_matches_target(self):
        # the coupling's marginal property in action: the fine chain of a
        # frozen coupled run is a plain chain for its own target
        m8 = build_model(m=8)
        frozen = make_step_schedule("constant", 0.0, n_total=1)
        n = 100000
        traj = coupled_msa_run(m8, 2, frozen, FAMILY, n, seed=99,
                               theta0=0.7, theta0_bar=0.7)
        occ = np.bincount(traj.fine_x_path[1:], minlength=8) / n
        pi = target_density(m8, 2, 0.7)
        assert 0.5 * np.abs(occ - pi).sum() <= 0.02

    def test_level_zero_rejected(self, default_model):
        with pytest.raises(ParameterError):
            coupled_msa_run(default_model, 0, poly(10), FAMILY, 10, seed=0)

    @pytest.mark.parametrize("state", [-1, 32])
    @pytest.mark.parametrize("name", ["x0", "x0_bar"])
    def test_initial_state_off_grid_rejected(self, default_model, name, state):
        with pytest.raises(ParameterError, match=f"{name} .*m=32"):
            coupled_msa_run(default_model, 2, poly(10), FAMILY, 10, seed=0, **{name: state})

    @pytest.mark.parametrize("coupling", ["crn", "independent"])
    @pytest.mark.parametrize("m, x0, x0_bar", [(32, 4, 11), (3, 0, 2)])
    def test_step_semantics_replay_scalar_procedure(self, m, x0, x0_bar, coupling):
        # same replay as the single-level case: one coupled transition, both
        # parameters stepped with the same gamma at their fresh states, then
        # the joint containment rule; m = 3 keeps both chains at the walls
        model = build_model(m=m)
        l, n, seed = 2, 50, 62
        sched = poly(n)
        traj = coupled_msa_run(model, l, sched, FAMILY, n, seed=seed,
                               theta0=0.1, theta0_bar=-0.2, x0=x0, x0_bar=x0_bar,
                               coupling=coupling)
        gammas = sched.step_sizes(n)
        rng = np.random.default_rng(seed)
        th, tb, x, xb, psi = 0.1, -0.2, x0, x0_bar, 0
        for k in range(1, n + 1):
            xn, xbn = coupled_sample_step(model, l, th, tb, x, xb, rng, coupling)
            g = gammas[k - 1]
            half = th + g * drift_term(model, l, th, xn)
            half_bar = tb + g * drift_term(model, l - 1, tb, xbn)
            if FAMILY.contains(half, psi) and FAMILY.contains(half_bar, psi):
                th, tb, x, xb = half, half_bar, xn, xbn
            else:
                th, tb, x, xb, psi = 0.1, -0.2, x0, x0_bar, psi + 1
            assert traj.fine_theta_path[k] == th
            assert traj.coarse_theta_path[k] == tb
            assert traj.fine_x_path[k] == x
            assert traj.coarse_x_path[k] == xb


class TestEmpiricalCltVariance:
    def test_replicates_equal_standalone_runs(self, default_model):
        n, R, seed0 = 4000, 100, 50
        est = empirical_clt_variance(default_model, 2, poly(n), n, R, seed0)
        assert est.n_discarded == 0
        for i in (0, 37, 99):
            traj = coupled_msa_run(default_model, 2, poly(n), FAMILY, n,
                                   seed=seed0 + i)
            assert est.increments[i] == pytest.approx(traj.increment_final,
                                                      abs=1e-12)

    def test_zero_steps_rejected(self, default_model):
        with pytest.raises(ParameterError, match="n_steps"):
            empirical_clt_variance(default_model, 2, poly(100), 0, 100, 0)

    def test_degenerate_levels_give_zero_estimate(self, bias_off_model):
        est = empirical_clt_variance(bias_off_model, 2, poly(2000), 2000, 100, 7)
        assert est.estimate == 0.0

    def test_matches_exact_variance(self, default_model):
        rep = asymptotic_variance(default_model, 3)
        est = empirical_clt_variance(default_model, 3, poly(30000), 30000, 200,
                                     seed0=4000)
        assert abs(est.estimate - rep.sigma) <= 3 * est.stderr

    def test_seed_block_invariance(self, default_model):
        blocks = [empirical_clt_variance(default_model, 2, poly(20000), 20000,
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
        sched = make_step_schedule("polynomial", 1.0, rho, 40000)
        est = empirical_clt_variance(default_model, 2, sched, 40000, 250,
                                     seed0=7000)
        assert abs(est.estimate - exact) <= 3 * est.stderr

    def test_independent_coupling_inflates_variance(self, default_model):
        crn = empirical_clt_variance(default_model, 2, poly(5000), 5000, 100,
                                     seed0=31, coupling="crn")
        ind = empirical_clt_variance(default_model, 2, poly(5000), 5000, 100,
                                     seed0=31, coupling="independent")
        assert ind.estimate > crn.estimate

    def test_requires_polynomial_schedule(self, default_model):
        const = make_step_schedule("constant", 0.01, n_total=100)
        with pytest.raises(ParameterError):
            empirical_clt_variance(default_model, 2, const, 100, 100, 0)

    def test_requires_enough_replicates(self, default_model):
        with pytest.raises(ParameterError):
            empirical_clt_variance(default_model, 2, poly(100), 100, 50, 0)

    def test_warns_when_family_too_tight(self, default_model):
        tight = ReprojectionFamily(0.5, 0.01)
        with pytest.warns(UserWarning, match="too tight"):
            est = empirical_clt_variance(default_model, 1, poly(400), 400, 100, 3,
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
        st, _ = _run_ensemble(default_model, l, poly(n), family, n, rngs, 0.0, None,
                              0.0, None, coupled=coupled, coupling=coupling)
        for i in (0, 1, R - 1):
            if coupled:
                traj = coupled_msa_run(default_model, l, poly(n), family, n, seed0 + i,
                                       coupling=coupling)
                assert st.theta[0, i] == traj.fine_theta_path[-1]
                assert st.theta[1, i] == traj.coarse_theta_path[-1]
                assert st.x[0, i] == traj.fine_x_path[-1]
                assert st.x[1, i] == traj.coarse_x_path[-1]
            else:
                traj = msa_run(default_model, l, poly(n), family, n, 0.0, None, seed0 + i)
                assert st.theta[0, i] == traj.theta_path[-1]
                assert st.x[0, i] == traj.x_path[-1]
            assert st.psi[i] == traj.psi_path[-1]
            assert (st.psi[i] > 0) == (family is not FAMILY)
