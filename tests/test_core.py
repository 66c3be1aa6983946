import math
import tracemalloc

import numpy as np
import pytest

from mlmsa.core import (
    ParameterError,
    RateParameters,
    ReprojectionFamily,
    StepSchedule,
    level_delta,
)
from mlmsa.model import build_model, target_density


class TestLevel:
    def test_delta_is_exact_power_of_two(self):
        for l in range(12):
            assert level_delta(l) == 2.0 ** (-l)
        assert level_delta(math.inf) == 0.0  # the limit model

    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_rejects_bad_indices(self, bad):
        # level_statistic keeps each level under its type, so True is never level 1
        with pytest.raises(ParameterError):
            target_density(build_model(m=3), bad, 0.0)


class TestStepSchedule:
    def test_polynomial_value(self):
        sched = StepSchedule("polynomial", 1.0, 0.75)
        # direct evaluation of gamma0 * n**-rho at n = 3
        assert sched.step_sizes(3)[-1] == pytest.approx(0.4386913376508308, rel=1e-15)
        assert sched.step_sizes(1)[-1] == 1.0

    def test_polynomial_vector_is_built_in_place(self):
        # gamma0 * arange ** -rho as one expression holds two vectors at its peak
        n = 10 ** 6
        sched = StepSchedule("polynomial", 0.7, 0.6)
        tracemalloc.start()
        try:
            steps = sched.step_sizes(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n
        assert (steps == 0.7 * np.arange(1, n + 1, dtype=float) ** -0.6).all()

    def test_constant_value(self):
        sched = StepSchedule("constant", 0.1)
        assert all(sched.step_sizes(n)[-1] == 0.1 for n in (1, 50, 100))

    def test_constant_allows_zero_for_frozen_runs(self):
        sched = StepSchedule("constant", 0.0)
        assert sched.step_sizes(5)[-1] == 0.0

    def test_rho_one_rejected_naming_ratio_condition(self):
        # log(gamma_n/gamma_{n-1}) ~ -1/n is of exact order gamma_n = 1/n
        with pytest.raises(ParameterError, match="ratio condition"):
            StepSchedule("polynomial", 1.0, 1.0)

    def test_rho_half_rejected_naming_square_summability(self):
        with pytest.raises(ParameterError, match="square summability"):
            StepSchedule("polynomial", 1.0, 0.5)

    def test_rho_above_one_rejected_naming_divergence(self):
        with pytest.raises(ParameterError, match="divergence"):
            StepSchedule("polynomial", 1.0, 1.2)

    def test_gamma0_validation(self):
        with pytest.raises(ParameterError):
            StepSchedule("polynomial", 0.0, 0.75)
        with pytest.raises(ParameterError):
            StepSchedule("constant", -0.1)

    def test_unknown_kind_and_missing_rho_rejected(self):
        with pytest.raises(ParameterError, match="schedule kind must be 'polynomial' or "
                                                 "'constant', got 'linear'"):
            StepSchedule("linear", 1.0, 0.75)
        with pytest.raises(ParameterError, match="polynomial schedule needs an exponent rho"):
            StepSchedule("polynomial", 1.0)

    def test_settings_stored_as_floats(self):
        assert StepSchedule("polynomial", 1, 3 / 4) == StepSchedule("polynomial", 1.0, 0.75)
        assert type(StepSchedule("polynomial", 1, 0.75).gamma0) is float
        assert StepSchedule("constant", 1, 0.75).rho is None

    def test_step_sum_diverges_numerically(self):
        g = StepSchedule("polynomial", 1.0, 0.75).step_sizes(200000)
        partial = np.cumsum(g)
        # increments over successive doublings grow: the sum diverges
        inc_late = partial[-1] - partial[len(g) // 2]
        inc_early = partial[len(g) // 10] - partial[len(g) // 20]
        assert inc_late > inc_early > 0

    def test_squared_sum_converges_numerically(self):
        g = StepSchedule("polynomial", 1.0, 0.75).step_sizes(200000)
        sq = np.cumsum(g ** 2)
        # the tail contributes a vanishing fraction
        assert sq[-1] - sq[len(g) // 2] < 0.01 * sq[-1]

    def test_ratio_diagnostic_decreases_to_zero(self):
        # |log(gamma_n/gamma_{n-1})| / gamma_n for n = 2..5000
        g = StepSchedule("polynomial", 1.0, 0.75).step_sizes(5000)
        d = np.abs(np.log(g[1:] / g[:-1])) / g[1:]
        assert np.all(np.diff(d) < 0)
        assert d[-1] < 0.2 * d[0]


class TestReprojectionFamily:
    def test_interval_examples(self):
        fam = ReprojectionFamily(1.0, 1.0)
        assert fam.radius(0) == 1.0
        assert fam.radius(3) == 4.0
        assert fam.contains(-4.0, 3) and fam.contains(4.0, 3) and not fam.contains(4.5, 3)

    def test_nested_over_scanned_range(self):
        fam = ReprojectionFamily(0.5, 2.0)
        for k in range(1, 40):
            assert fam.radius(k - 1) <= fam.radius(k)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ReprojectionFamily(0.0, 1.0)
        with pytest.raises(ParameterError):
            ReprojectionFamily(1.0, -1.0)
        with pytest.raises(ParameterError):
            ReprojectionFamily(1.0, 1.0).radius(-1)


class TestRateParameters:
    def test_valid(self):
        r = RateParameters(alpha=1.0, beta=1.0, zeta=1.0, kappa=0.5)
        assert r.variance_rate == 1.0

    def test_variance_rate_takes_minimum(self):
        r = RateParameters(alpha=2.0, beta=0.8, zeta=0.6, kappa=0.5)
        assert r.variance_rate == pytest.approx(0.8)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, beta=1.0, zeta=1.0, kappa=0.5),
        dict(alpha=1.0, beta=-1.0, zeta=1.0, kappa=0.5),
        dict(alpha=1.0, beta=1.0, zeta=0.5, kappa=0.5),
        dict(alpha=1.0, beta=1.0, zeta=1.1, kappa=0.5),
        dict(alpha=1.0, beta=1.0, zeta=1.0, kappa=0.0),
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ParameterError):
            RateParameters(**kwargs)


NAN = math.nan


@pytest.mark.parametrize("build, message", [
    (lambda: StepSchedule("polynomial", NAN, 0.75), "polynomial schedule needs gamma0 > 0"),
    (lambda: StepSchedule("polynomial", 1.0, NAN), "rho must be a number"),
    (lambda: StepSchedule("constant", NAN), "constant schedule needs gamma0 >= 0"),
    (lambda: ReprojectionFamily(NAN, 1.0), "r0 must be positive"),
    (lambda: ReprojectionFamily(2.0, NAN), "growth must be positive"),
    (lambda: RateParameters(alpha=NAN, beta=1.0, zeta=1.0, kappa=0.5), "alpha must be positive"),
    (lambda: RateParameters(alpha=1.0, beta=NAN, zeta=1.0, kappa=0.5), "beta must be positive"),
    (lambda: RateParameters(alpha=1.0, beta=1.0, zeta=1.0, kappa=NAN), "kappa must be positive"),
], ids=["schedule-gamma0", "schedule-rho", "constant-gamma0", "r0", "growth",
        "alpha", "beta", "kappa"])
def test_settings_refuse_nan(build, message):
    # every comparison with nan is false, so each check asks for the admissible case
    with pytest.raises(ParameterError, match=f"{message}, got nan"):
        build()


INF = math.inf


@pytest.mark.parametrize("build, message", [
    (lambda: StepSchedule("polynomial", INF, 0.75), "polynomial schedule needs a finite gamma0"),
    (lambda: StepSchedule("constant", INF), "constant schedule needs a finite gamma0"),
    (lambda: ReprojectionFamily(INF, 1.0), "r0 must be finite"),
    (lambda: ReprojectionFamily(2.0, INF), "growth must be finite"),
    (lambda: RateParameters(alpha=INF, beta=1.0, zeta=1.0, kappa=0.5), "alpha must be finite"),
    (lambda: RateParameters(alpha=1.0, beta=INF, zeta=1.0, kappa=0.5), "beta must be finite"),
    (lambda: RateParameters(alpha=1.0, beta=1.0, zeta=1.0, kappa=INF), "kappa must be finite"),
], ids=["schedule-gamma0", "constant-gamma0", "r0", "growth", "alpha", "beta", "kappa"])
def test_settings_refuse_inf(build, message):
    # inf passes every lower bound, so it is refused by name after them
    with pytest.raises(ParameterError, match=f"{message}, got inf"):
        build()
