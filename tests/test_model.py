import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmsa.core import ParameterError
from mlmsa.exact import level_root, mean_field_derivative
from mlmsa.model import (
    _BIAS_CHOICES,
    _PHI_CHOICES,
    FiniteLevelModel,
    build_model,
    coupled_kernel_blocks,
    coupled_kernel_matrix,
    kernel_matrix,
    level_statistic,
    lyapunov_vector,
    metric_matrix,
    target_density,
)

from reference import coupled_sample_step, drift_term, sample_step


class TestBuildModel:
    def test_defaults(self, default_model):
        m = default_model
        assert m.m == 32 and m.beta0 == 1.0 and m.lyap_exponent == 0.5
        u = m.positions
        np.testing.assert_allclose(m.phi, 0.5 * np.sin(2 * np.pi * u))
        np.testing.assert_allclose(m.bias, 0.5 * np.cos(2 * np.pi * u))

    def test_minimal_grid_is_valid(self):
        assert build_model(m=3).m == 3

    # each refusal runs through the factory and the class itself, so that no
    # way to build a model skips a check
    def test_rejects_degenerate_grid(self):
        for build in (build_model, FiniteLevelModel):
            with pytest.raises(ParameterError, match="m must be an integer"):
                build(m=2)

    def test_grid_size_is_bounded(self):
        assert build_model(m=2 ** 20).m == 2 ** 20
        for build in (build_model, FiniteLevelModel):
            for m in (2 ** 20 + 1, 2 ** 70):  # 2**70 overflows numpy's index type
                with pytest.raises(ParameterError,
                                   match=r"m must be an integer in \[3, 1048576\]"):
                    build(m=m)

    @pytest.mark.parametrize("kwargs", [
        dict(beta0=0.0), dict(lyap_exponent=0.0), dict(lyap_exponent=1.0),
        dict(phi_choice="triangle"), dict(bias_choice="sawtooth"),
        dict(beta0=math.nan), dict(beta0=math.inf),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        for build in (build_model, FiniteLevelModel):
            with pytest.raises(ParameterError, match=next(iter(kwargs))):
                build(**kwargs)

    def test_class_takes_only_the_settings(self):
        model = FiniteLevelModel(8, 1, 0.5, "zero", "zero")
        assert (model.beta0, model.lyap_exponent) == (1.0, 0.5)
        assert type(model.beta0) is float
        assert not model.phi.flags.writeable and not model.bias.flags.writeable
        with pytest.raises(TypeError):
            FiniteLevelModel(8, 1.0, 0.5, "sine", "zero", np.zeros(8), np.zeros(8))

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 33, 1001, 2 ** 20])
    def test_statistics_bound_proves_the_exact_layer_guards(self, m):
        # level_root's bracket [-2, 2] and asymptotic_variance's negative
        # derivatives both follow from |phi_l| <= 0.96 at every level
        for phi_choice in _PHI_CHOICES:
            for bias_choice in _BIAS_CHOICES:
                model = build_model(m=m, phi_choice=phi_choice, bias_choice=bias_choice)
                assert np.max(np.abs(model.phi) + np.abs(model.bias)) <= 0.96

    @pytest.mark.parametrize("bias_choice", ["cosine", "shifted-cosine"])
    def test_mean_field_derivative_bounded_at_level_roots(self, bias_choice):
        model = build_model(bias_choice=bias_choice)
        for l in (*range(9), math.inf):
            assert mean_field_derivative(model, l, level_root(model, l)) <= -0.079


class TestLevelStatistic:
    def test_bias_amplitude_per_level(self):
        m = build_model(m=64, beta0=1.0)
        for l in range(6):
            np.testing.assert_allclose(level_statistic(m, l),
                                       m.phi + 2.0 ** (-l) * m.bias, atol=1e-15)

    def test_limit_has_no_bias(self, default_model):
        np.testing.assert_array_equal(level_statistic(default_model, math.inf),
                                      default_model.phi)

    def test_statistics_stay_bounded_by_one(self, default_model):
        for l in (0, 1, 3, math.inf):
            assert np.max(np.abs(level_statistic(default_model, l))) <= 1.0

    def test_rejects_bad_level(self, default_model):
        with pytest.raises(ParameterError):
            level_statistic(default_model, -1)
        with pytest.raises(ParameterError):
            level_statistic(default_model, 1.5)


class TestDriftTerm:
    def test_zero_at_matching_theta(self, default_model):
        s = level_statistic(default_model, 2)
        for x in (0, 7, 31):
            assert drift_term(default_model, 2, float(s[x]), x) == 0.0

    def test_exactly_lipschitz_one_in_theta(self, default_model):
        # H is linear in theta with slope -1: the Holder bound holds with zeta = 1
        for th, th2 in ((0.0, 1.3), (-2.0, 0.7)):
            gap = abs(drift_term(default_model, 1, th, 5)
                      - drift_term(default_model, 1, th2, 5))
            assert gap == pytest.approx(abs(th - th2), rel=1e-14)

    def test_lipschitz_in_state_with_slope_bound(self, default_model):
        # max slope of phi_l is pi * (1 + 2**-l * beta-amplitude) for the
        # sine/cosine pair scaled by 1/2
        D = metric_matrix(default_model)
        for l in (0, 2, 5):
            s = level_statistic(default_model, l)
            bound = np.pi * (1.0 + 2.0 ** (-l))
            gaps = np.abs(s[:, None] - s[None, :])
            off = ~np.eye(default_model.m, dtype=bool)
            assert np.max(gaps[off] / D[off]) <= bound + 1e-12


class TestTargetDensity:
    def test_zero_theta_is_uniform(self, default_model):
        np.testing.assert_allclose(target_density(default_model, 3, 0.0),
                                   np.full(32, 1 / 32), atol=1e-15)

    def test_limit_uses_base_statistic_only(self, default_model):
        pi_inf = target_density(default_model, math.inf, 1.3)
        expect = np.exp(1.3 * default_model.phi)
        expect /= expect.sum()
        np.testing.assert_allclose(pi_inf, expect, atol=1e-14)

    def test_three_state_hand_value(self):
        # m=3, theta=1, l=0: phi_0 = (1/2, -1/2, 1/2) up to sin(pi) rounding,
        # so pi = (e^.5, e^-.5, e^.5) / (2 e^.5 + e^-.5)
        m3 = build_model(m=3)
        a, b = math.exp(0.5), math.exp(-0.5)
        expect = np.array([a, b, a]) / (2 * a + b)
        np.testing.assert_allclose(target_density(m3, 0, 1.0), expect, atol=1e-12)

    def test_normalization(self, default_model):
        for th in (-3.0, 0.4, 2.5):
            assert abs(target_density(default_model, 1, th).sum() - 1.0) <= 1e-12

    def test_extreme_theta_is_overflow_safe(self, default_model):
        pi = target_density(default_model, 0, 500.0)
        assert np.all(np.isfinite(pi)) and abs(pi.sum() - 1.0) <= 1e-12


class TestKernelMatrix:
    def test_flat_target_is_symmetric_walk(self, default_model):
        K = kernel_matrix(default_model, 2, 0.0)
        m = default_model.m
        for x in range(1, m - 1):
            assert K[x, x + 1] == 0.5 and K[x, x - 1] == 0.5 and K[x, x] == 0.0
        assert K[0, 0] == 0.5 and K[m - 1, m - 1] == 0.5

    def test_rows_sum_to_one(self, default_model):
        for th in (-1.5, 0.7):
            K = kernel_matrix(default_model, 2, th)
            np.testing.assert_allclose(K.sum(axis=1), 1.0, atol=1e-12)
            assert np.min(K) >= 0.0

    def test_target_invariance(self):
        m16 = build_model(m=16)
        K = kernel_matrix(m16, 2, 0.7)
        pi = target_density(m16, 2, 0.7)
        assert np.max(np.abs(pi @ K - pi)) <= 1e-10

    def test_detailed_balance_entrywise(self, default_model):
        for th, l in ((0.7, 2), (-1.2, 0), (1.9, 5)):
            K = kernel_matrix(default_model, l, th)
            pi = target_density(default_model, l, th)
            flux = pi[:, None] * K
            np.testing.assert_allclose(flux, flux.T, atol=1e-12)

    def test_irreducible_and_aperiodic(self, default_model):
        K = kernel_matrix(default_model, 1, 0.5)
        P = np.linalg.matrix_power(K, 2 * default_model.m)
        assert np.all(P > 0)


class TestCoupledKernel:
    @pytest.mark.parametrize("m", [48, 64])
    def test_largest_supported_sizes_build(self, m):
        K = coupled_kernel_matrix(build_model(m=m), 2, 0.4, -0.3, "independent")
        assert K.shape == (m * m, m * m)

    @pytest.mark.parametrize("m, kernel, need", [
        (200, lambda model: coupled_kernel_matrix(model, 1, 0.0, 0.0, "crn"), "12,800,000,000"),
        (200, lambda model: coupled_kernel_matrix(model, 1, 0.0, 0.0, "independent"),
         "12,800,000,000"),
        (6000, lambda model: kernel_matrix(model, 1, 0.0), "288,000,000"),
        (300, lambda model: coupled_kernel_blocks(model, 1, 0.0, 0.0), "648,000,000"),
    ], ids=["crn", "independent", "single", "blocks"])
    def test_oversized_kernel_rejected_before_allocation(self, m, kernel, need):
        with pytest.raises(ParameterError, match=rf"m={m} needs {need} bytes"):
            kernel(build_model(m=m))

    def test_rows_sum_to_one(self, default_model):
        Kc = coupled_kernel_matrix(default_model, 2, 0.4, -0.3)
        np.testing.assert_allclose(Kc.sum(axis=1), 1.0, atol=1e-12)
        assert np.min(Kc) >= 0.0

    @pytest.mark.parametrize("coupling", ["crn", "independent"])
    def test_both_marginals_reproduce_single_kernels(self, default_model, coupling):
        m = default_model.m
        rng = np.random.default_rng(3)
        for _ in range(5):
            th, tb = rng.uniform(-2, 2, size=2)
            l = int(rng.integers(1, 7))
            T = coupled_kernel_matrix(default_model, l, th, tb, coupling).reshape(m, m, m, m)
            fine = np.broadcast_to(kernel_matrix(default_model, l, th)[:, None, :],
                                   (m, m, m))
            coarse = np.broadcast_to(kernel_matrix(default_model, l - 1, tb)[None, :, :],
                                     (m, m, m))
            np.testing.assert_allclose(T.sum(axis=3), fine, atol=1e-12)
            np.testing.assert_allclose(T.sum(axis=2), coarse, atol=1e-12)

    def test_diagonal_absorbing_when_levels_identical(self, bias_off_model):
        m = bias_off_model.m
        T = coupled_kernel_matrix(bias_off_model, 3, 0.8, 0.8).reshape(m, m, m, m)
        for x in (0, 5, m - 1):
            row = T[x, x]
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(row - np.diag(np.diag(row))).max() <= 1e-15

    def test_flat_targets_move_in_lockstep(self, default_model):
        # theta = theta_bar = 0: every interior proposal is accepted by both
        # chains, so the pair distance is preserved off the walls
        m = default_model.m
        T = coupled_kernel_matrix(default_model, 2, 0.0, 0.0).reshape(m, m, m, m)
        D = metric_matrix(default_model)
        for x, y in ((3, 7), (10, 20), (22, 9)):
            dest = np.argwhere(T[x, y] > 0)
            for xn, yn in dest:
                if 0 < x < m - 1 and 0 < y < m - 1:
                    assert D[xn, yn] == pytest.approx(D[x, y], abs=1e-15)

    def test_independent_coupling_is_kronecker(self, default_model):
        Kc = coupled_kernel_matrix(default_model, 2, 0.4, -0.3, "independent")
        expect = np.kron(kernel_matrix(default_model, 2, 0.4),
                         kernel_matrix(default_model, 1, -0.3))
        np.testing.assert_array_equal(Kc, expect)

    def test_coarse_level_must_exist(self, default_model):
        with pytest.raises(ParameterError):
            coupled_kernel_matrix(default_model, 0, 0.1, 0.1)

    @pytest.mark.parametrize("build", [coupled_kernel_blocks, coupled_kernel_matrix])
    def test_limit_level_has_no_coupled_kernel(self, build):
        # like asymptotic_variance and a coupled run, the kernel refuses l = inf
        with pytest.raises(ParameterError, match="finite level l >= 1, got inf"):
            build(build_model(m=8), math.inf, 0.1, 0.1)

    def test_unknown_coupling_rejected(self):
        with pytest.raises(ParameterError, match="coupling must be 'crn' or 'independent', "
                                                 "got 'bogus'"):
            coupled_kernel_blocks(build_model(m=8), 2, 0.1, 0.1, "bogus")


def reference_kernel(model, l, theta):
    """Single kernel from per-state loops over phi_l: an off-grid proposal
    is rejected in place and its rejected mass stays on the diagonal."""
    s, m = level_statistic(model, l), model.m
    K = np.zeros((m, m))
    for x in range(m):
        a = {}
        for d in (1, -1):
            y = x + d
            a[d] = np.exp(np.minimum(theta * (s[y] - s[x]), 0.0)) if 0 <= y < m else 0.0
            if 0 <= y < m:
                K[x, y] = 0.5 * a[d]
        K[x, x] = 1.0 - 0.5 * a[1] - 0.5 * a[-1]
    return K


def reference_crn_kernel(model, l, theta, theta_bar):
    """CRN kernel from per-pair loops: for each shared direction, the four
    outcomes (both move, fine only, coarse only, neither) are added to the
    pair's row in that order, +1 proposals before -1 proposals."""
    m = model.m
    s_f, s_c = level_statistic(model, l), level_statistic(model, l - 1)

    def accept(s, th, x, d):
        y = x + d
        if not 0 <= y < m:
            return 0.0, x
        return np.exp(np.minimum(th * (s[y] - s[x]), 0.0)), y

    K = np.zeros((m * m, m * m))
    for x in range(m):
        for y in range(m):
            row = K[x * m + y]
            for d in (1, -1):
                af, xn = accept(s_f, theta, x, d)
                ac, yn = accept(s_c, theta_bar, y, d)
                mn = min(af, ac)
                row[xn * m + yn] += 0.5 * mn
                row[xn * m + y] += 0.5 * (af - mn)
                row[x * m + yn] += 0.5 * (ac - mn)
                row[x * m + y] += 0.5 * (1.0 - max(af, ac))
    return K


_MODELS = {m: build_model(m=m) for m in range(3, 10)}
_THETAS = st.floats(-3.0, 3.0, allow_nan=False)


class TestKernelsAgainstReference:
    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(3, 9), l=st.integers(1, 6), theta=_THETAS, theta_bar=_THETAS,
           coupling=st.sampled_from(["crn", "independent"]))
    def test_kernels_equal_loop_reference(self, m, l, theta, theta_bar, coupling):
        model = _MODELS[m]
        K_f, K_c = kernel_matrix(model, l, theta), kernel_matrix(model, l - 1, theta_bar)
        np.testing.assert_array_equal(K_f, reference_kernel(model, l, theta))
        np.testing.assert_array_equal(K_c, reference_kernel(model, l - 1, theta_bar))
        T = coupled_kernel_matrix(model, l, theta, theta_bar, coupling)
        if coupling == "crn":
            expect = reference_crn_kernel(model, l, theta, theta_bar)
        else:
            expect = np.kron(reference_kernel(model, l, theta),
                             reference_kernel(model, l - 1, theta_bar))
        np.testing.assert_array_equal(T, expect)
        T = T.reshape(m, m, m, m)
        np.testing.assert_allclose(T.sum(axis=3), np.broadcast_to(K_f[:, None, :], (m, m, m)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(T.sum(axis=2), np.broadcast_to(K_c[None, :, :], (m, m, m)),
                                   rtol=0, atol=1e-12)


class TestLyapunov:
    def test_flat_target_gives_unit_vector(self, default_model):
        np.testing.assert_array_equal(lyapunov_vector(default_model, 2, 0.0),
                                      np.ones(32))

    def test_minimum_one_at_mode(self, default_model):
        V = lyapunov_vector(default_model, 1, 1.3)
        pi = target_density(default_model, 1, 1.3)
        assert V.min() == 1.0
        assert V[np.argmax(pi)] == 1.0
        assert np.all(V >= 1.0)

    def test_largest_entry_hand_value(self):
        m8 = build_model(m=8, lyap_exponent=0.5)
        pi = target_density(m8, 0, 1.0)
        V = lyapunov_vector(m8, 0, 1.0)
        assert V.max() == pytest.approx((pi.min() / pi.max()) ** -0.5, rel=1e-12)

    def test_level_ratio_bounded_over_grid(self, default_model):
        # consecutive-level Lyapunov functions stay comparable
        for th in np.linspace(-2, 2, 5):
            for l in range(1, 8):
                ratio = (lyapunov_vector(default_model, l - 1, th)
                         / lyapunov_vector(default_model, l, th))
                assert np.max(ratio) < 3.0

    def test_statistic_dominated_by_sqrt_lyapunov(self, default_model):
        # |H_l(theta, .)| <= (1 + |theta|) <= C sqrt(V) since V >= 1
        for th in (-2.0, 0.3, 2.0):
            for l in (0, 4, math.inf):
                H = np.abs(level_statistic(default_model, l) - th)
                V = lyapunov_vector(default_model, l, th)
                assert np.max(H / np.sqrt(V)) <= 1.0 + abs(th)


class TestMetric:
    def test_metric_axioms(self, default_model):
        D = metric_matrix(default_model)
        assert np.all(np.diag(D) == 0.0)
        np.testing.assert_array_equal(D, D.T)
        m = default_model.m
        idx = np.arange(m)
        lhs = D[idx[:, None], idx[None, :]]
        for z in (0, 13, 31):
            assert np.all(lhs <= D[:, [z]] + D[[z], :] + 1e-15)


class TestSamplers:
    def test_flat_target_moves_half_half(self, default_model):
        rng = np.random.default_rng(0)
        moves = [sample_step(default_model, 1, 0.0, 16, rng) - 16 for _ in range(4000)]
        up = sum(1 for d in moves if d == 1)
        assert all(abs(d) == 1 for d in moves)
        assert abs(up / 4000 - 0.5) < 0.03

    def test_seeded_trajectory_reproducible(self, default_model):
        def walk(seed):
            rng = np.random.default_rng(seed)
            x, path = 5, []
            for _ in range(200):
                x = sample_step(default_model, 2, 0.7, x, rng)
                path.append(x)
            return path
        assert walk(123) == walk(123)

    def test_empirical_frequencies_match_kernel_row(self):
        m16 = build_model(m=16)
        K = kernel_matrix(m16, 1, 0.7)
        x = 7
        rng = np.random.default_rng(42)
        n = 100000
        counts = np.zeros(16)
        for _ in range(n):
            counts[sample_step(m16, 1, 0.7, x, rng)] += 1
        freq = counts / n
        assert 0.5 * np.abs(freq - K[x]).sum() < 0.01
        # 4-sigma binomial band per destination
        for y in np.flatnonzero(K[x] > 0):
            band = 4 * math.sqrt(K[x, y] * (1 - K[x, y]) / n)
            assert abs(freq[y] - K[x, y]) <= band

    @pytest.mark.parametrize("coupling", ["crn", "independent"])
    def test_coupled_frequencies_match_coupled_row(self, coupling):
        m8 = build_model(m=8)
        Kc = coupled_kernel_matrix(m8, 2, 0.5, -0.4, coupling).reshape(8, 8, 8, 8)
        x, y = 3, 6
        rng = np.random.default_rng(7)
        n = 40000
        counts = np.zeros((8, 8))
        for _ in range(n):
            xn, yn = coupled_sample_step(m8, 2, 0.5, -0.4, x, y, rng, coupling)
            counts[xn, yn] += 1
        tv = 0.5 * np.abs(counts / n - Kc[x, y]).sum()
        assert tv < 0.02

    def test_crn_consumes_two_uniforms_per_step(self, default_model):
        rng1 = np.random.default_rng(11)
        coupled_sample_step(default_model, 2, 0.3, 0.1, 4, 4, rng1)
        rng2 = np.random.default_rng(11)
        rng2.random(2)
        assert rng1.random() == rng2.random()


class TestSyntheticRateGroundTruth:
    def test_stationary_l1_distance_decays_at_beta0(self, default_model):
        levels = range(2, 9)
        vals = [np.abs(target_density(default_model, l, 0.7)
                       - target_density(default_model, math.inf, 0.7)).sum()
                for l in levels]
        slope = np.polyfit(list(levels), np.log2(vals), 1)[0]
        assert abs(slope - (-default_model.beta0)) <= 0.2
