import dataclasses
import math

import numpy as np
import pytest

from mlmsa.core import (
    ParameterError,
    RateParameters,
    ReprojectionFamily,
    StepSchedule,
)
from mlmsa.engine import _run_ensemble
from mlmsa.exact import level_root
from mlmsa.model import build_model
from mlmsa.multilevel import (
    LevelPlan,
    ml_estimate,
    mse_cost_experiment,
    schedule_levels,
)

RATES = RateParameters(alpha=1.0, beta=1.0, zeta=1.0, kappa=0.5)


class TestScheduleLevels:
    def test_depth_from_precision(self):
        assert schedule_levels(0.25, RATES).L == 2  # ceil(log2 4 / 1)
        assert schedule_levels(0.1, RATES).L == 4
        assert schedule_levels(0.9, RATES).L == 1

    def test_budget_formula(self):
        # eps = 0.5 and unit constants: n_l = ceil(4 * 2**(-0.75 l))
        plan = schedule_levels(0.5, RATES, n_min=1, c_n=1.0)
        assert plan.L == 1
        assert plan.n_l == (4, 3)
        assert plan.gamma_l == (0.25, 1 / 3)

    def test_floor_applies(self):
        plan = schedule_levels(0.5, RATES, n_min=100, c_n=1.0)
        assert all(n == 100 for n in plan.n_l)

    def test_predicted_cost_counts_fine_chain(self):
        plan = schedule_levels(0.5, RATES, n_min=1, c_n=1.0)
        assert plan.predicted_cost == pytest.approx(4 + 3 * 2 ** 0.5)

    def test_rejects_cost_regime_below_kappa(self):
        bad = RateParameters(alpha=0.3, beta=0.3, zeta=1.0, kappa=0.5)
        with pytest.raises(ParameterError, match="regime"):
            schedule_levels(0.1, bad)

    def test_boundary_regime_annotated(self):
        edge = RateParameters(alpha=0.5, beta=0.5, zeta=1.0, kappa=0.5)
        plan = schedule_levels(0.1, edge)
        assert "log" in plan.cost_note

    def test_interior_regime_annotation(self):
        assert "log" not in schedule_levels(0.1, RATES).cost_note

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ParameterError):
            schedule_levels(eps, RATES)

    @pytest.mark.parametrize("c_n", [0.0, -1.0, math.nan])
    def test_budget_scale_must_be_positive(self, c_n):
        # nan fails c_n > 0; it would otherwise reach int() of a nan budget
        with pytest.raises(ParameterError, match=f"c_n must be positive, got {c_n}"):
            schedule_levels(0.1, RATES, c_n=c_n)

    def test_plan_invariants_enforced(self):
        with pytest.raises(ParameterError):
            LevelPlan(epsilon=0.1, L=0, n_l=(10,), gamma_l=(0.1,),
                      predicted_cost=1.0, rates=RATES, c_n=1.0, n_min=1,
                      cost_note="")
        plan = schedule_levels(0.2, RATES, n_min=10)
        for change, message in [
                (dict(L=0), "plan must have L >= 1"),
                (dict(n_l=plan.n_l[:-1]), "n_l must have one entry per level"),
                (dict(n_l=(9, *plan.n_l[1:])), "every level budget must be >= n_min"),
                (dict(predicted_cost=math.inf), "predicted cost must be finite")]:
            with pytest.raises(ParameterError, match=message):
                dataclasses.replace(plan, **change)

    def test_serializable(self):
        d = dataclasses.asdict(schedule_levels(0.2, RATES))
        assert d["L"] >= 1 and len(d["n_l"]) == d["L"] + 1
        assert d["rates"]["kappa"] == 0.5


class TestCollapsingSum:
    def test_oracle_roots_telescope_exactly(self, default_model):
        # pure arithmetic: theta*_0 + sum of increments reproduces theta*_L
        L = 6
        roots = [level_root(default_model, l) for l in range(L + 1)]
        total = roots[0]
        for l in range(1, L + 1):
            total += roots[l] - roots[l - 1]
        assert total == pytest.approx(roots[L], abs=1e-12)


@pytest.fixture(scope="module")
def plan():
    return schedule_levels(0.2, RATES, n_min=50, c_n=10.0)


class TestMlEstimate:
    def test_assembly_identity(self, default_model, plan):
        est = ml_estimate(default_model, plan, seed=42)
        total = est.level_estimates[0]
        for inc in est.level_estimates[1:]:
            total += inc
        assert est.theta_hat == total  # same summation order: exact
        assert len(est.level_estimates) == plan.L + 1

    def test_deterministic(self, default_model, plan):
        a = ml_estimate(default_model, plan, seed=7)
        b = ml_estimate(default_model, plan, seed=7)
        assert a.theta_hat == b.theta_hat
        assert a.level_estimates == b.level_estimates

    def test_level_runs_are_exchangeable(self, default_model, plan):
        # each level owns a child stream of SeedSequence(seed): recomputing the
        # levels in any order reproduces the assembled estimate bit for bit
        seed = 99
        est = ml_estimate(default_model, plan, seed=seed)
        fam = ReprojectionFamily(2.0, 1.0)
        parts = {}
        for l in reversed(range(plan.L + 1)):
            rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(plan.L + 1)[l])
            n = plan.n_l[l]
            sched = StepSchedule("constant", plan.gamma_l[l])
            st, _ = _run_ensemble(default_model, l, sched, fam, n, [rng],
                                  0.0, None, 0.0, None, coupled=l > 0)
            # rows: the fine chain, then (l >= 1) the coarse chain
            parts[l] = float(st.theta[0, 0] - st.theta[1, 0]) if l > 0 else float(st.theta[0, 0])
        assert tuple(parts[l] for l in range(plan.L + 1)) == est.level_estimates

    def test_seed_bookkeeping(self, default_model, plan):
        est = ml_estimate(default_model, plan, seed=5)
        assert est.seeds == tuple((5, l) for l in range(plan.L + 1))

    def test_realized_cost_accounting(self, default_model, plan):
        est = ml_estimate(default_model, plan, seed=3)
        expect = plan.n_l[0]
        for l in range(1, plan.L + 1):
            expect += plan.n_l[l] * (2.0 ** (0.5 * l) + 2.0 ** (0.5 * (l - 1)))
        assert est.realized_cost == pytest.approx(expect)
        assert plan.predicted_cost <= est.realized_cost <= 2 * plan.predicted_cost

    def test_accuracy_against_limit_root(self, default_model):
        plan = schedule_levels(0.1, RATES, n_min=100, c_n=25.0)
        truth = level_root(default_model, math.inf)
        errs = [abs(ml_estimate(default_model, plan, seed=4000 + r).theta_hat - truth)
                for r in range(100)]
        assert sum(e <= 0.3 for e in errs) >= 95  # |error| <= 3 eps

    def test_bias_off_increments_center_on_zero(self, bias_off_model):
        plan = schedule_levels(0.2, RATES, n_min=50, c_n=10.0)
        incs = np.array([ml_estimate(bias_off_model, plan, seed=800 + r).level_estimates[1:]
                         for r in range(100)])
        level0 = np.array([ml_estimate(bias_off_model, plan, seed=800 + r).level_estimates[0]
                           for r in range(100)])
        hats = level0 + incs.sum(axis=1)
        # every increment mean is statistically zero
        for l in range(incs.shape[1]):
            se = incs[:, l].std(ddof=1) / 10.0
            assert abs(incs[:, l].mean()) <= 4 * se
        # and the assembled estimator matches the level-0-only one
        gap = hats.mean() - level0.mean()
        se = math.hypot(hats.std(ddof=1), level0.std(ddof=1)) / 10.0
        assert abs(gap) <= 4 * se


class TestMseCostExperiment:
    def test_preconditions(self, default_model):
        with pytest.raises(ParameterError):
            mse_cost_experiment(default_model, [0.2, 0.1], 50, 0)
        with pytest.raises(ParameterError):
            mse_cost_experiment(default_model, [0.1, 0.2, 0.3], 50, 0)
        with pytest.raises(ParameterError):
            mse_cost_experiment(default_model, [0.3, 0.2, 0.1], 10, 0)

    def test_deterministic(self, default_model):
        kw = dict(rates=RATES, n_min=20, c_n=1.0)
        a = mse_cost_experiment(default_model, [0.5, 0.4, 0.3], 50, 17, **kw)
        b = mse_cost_experiment(default_model, [0.5, 0.4, 0.3], 50, 17, **kw)
        assert [r.mse for r in a.rows] == [r.mse for r in b.rows]
        assert a.cost_slope == b.cost_slope

    def test_stderr_scales_as_root_replicates(self, default_model):
        # iid averaging: four times the replicates halves the standard error
        kw = dict(rates=RATES, n_min=20, c_n=2.0)
        small = mse_cost_experiment(default_model, [0.5, 0.4, 0.3], 60, 900, **kw)
        big = mse_cost_experiment(default_model, [0.5, 0.4, 0.3], 240, 900, **kw)
        for r_small, r_big in zip(small.rows, big.rows):
            ratio = r_big.stderr_mse / r_small.stderr_mse
            assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3

    def test_plans_sharing_root_seeds_stay_apart(self, small_model):
        # every plan's levels run in one loop on the same root seeds; each
        # row must still be the MSE of that plan's standalone estimates
        kw = dict(n_min=10, c_n=4.0)
        res = mse_cost_experiment(small_model, [0.5, 0.3, 0.2], 50, 300, rates=RATES, **kw)
        truth = level_root(small_model, math.inf)
        for row in res.rows:
            plan = schedule_levels(row.epsilon, RATES, **kw)
            hats = np.array([ml_estimate(small_model, plan, seed=300 + r).theta_hat
                             for r in range(50)])
            assert row.mse == float(((hats - truth) ** 2).mean())

    def test_cost_slope_in_scaling_regime(self, default_model):
        res = mse_cost_experiment(default_model, [0.4, 0.2, 0.1], 50, 230,
                                  rates=RATES, n_min=50, c_n=50.0)
        assert -2.5 <= res.cost_slope <= -1.6
        assert res.mse_ratio_drift() < 3.0
