import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlmsa.core import NumericalError, ParameterError, ReprojectionFamily, StepSchedule
from mlmsa import exact
from mlmsa.engine import coupled_msa_run, msa_run
from mlmsa.exact import (
    _coupled_stationary,
    asymptotic_variance,
    certify_drift_minorization,
    estimate_geometric_rate,
    fitted_log2_slope,
    lemma_diagnostics,
    level_root,
    mean_field,
    mean_field_derivative,
    poisson_solve,
    rate_diagnostics,
    stationary_distribution,
)
from mlmsa.model import (
    build_model,
    coupled_kernel_blocks,
    coupled_kernel_matrix,
    kernel_matrix,
    level_statistic,
    lyapunov_vector,
    metric_matrix,
    target_density,
)

from reference import poisson_series, reference_distances, reference_geometric_rate


def random_reversible_chain(n, seed):
    """Metropolis chain for a random target under a random proposal."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(n) * 2.0)
    Q = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    Q /= Q.sum(axis=1, keepdims=True)
    off = ~np.eye(n, dtype=bool)
    ratio = np.ones((n, n))
    ratio[off] = (pi[None, :] * Q.T)[off] / (pi[:, None] * Q)[off]
    K = Q * np.minimum(1.0, ratio)
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    return K, pi


def spectral_verdict(K):
    """Reference for stationary_distribution's support check, from the
    spectrum: "multiplicity" when eigenvalue 1 is repeated (several closed
    classes), "periodic" when another eigenvalue has modulus 1, else None."""
    ev = np.linalg.eigvals(K)
    near_one = np.abs(ev - 1.0) < 1e-9
    if np.sum(near_one) != 1:
        return "multiplicity"
    others = np.abs(ev[~near_one])
    if others.size and np.max(others) > 1.0 - 1e-9:
        return "periodic"
    return None


def slem(K):
    """Second-largest eigenvalue modulus of K."""
    return np.sort(np.abs(np.linalg.eigvals(K)))[-2]


def coupled_law(model, rep):
    """The m x m coupled stationary law at the roots of a VarianceReport."""
    K = coupled_kernel_matrix(model, rep.level, rep.theta_star_l, rep.theta_star_lm1,
                              rep.coupling)
    return stationary_distribution(K).reshape(model.m, model.m)


def structural_verdict(K):
    try:
        pi = stationary_distribution(K)
    except NumericalError as exc:
        for verdict in ("multiplicity", "periodic"):
            if verdict in str(exc):
                return verdict
        raise
    assert np.max(np.abs(pi @ K - pi)) <= 1e-9
    return None


@st.composite
def sparse_stochastic(draw):
    """Row-stochastic n x n matrix, n in [1, 30], on a random support; every
    positive entry is at least 1/20 of the largest weight in its row.

    With p > 0 the support is layered: each state draws a label mod p and
    keeps only the edges from label k to label k + 1 (mod p), plus rare
    shortcuts, so periodic classes and long transient paths are common."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    support = rng.random((n, n)) < draw(st.floats(0.05, 0.8))
    if p:
        label = rng.integers(0, p, size=n)
        support &= label[None, :] == (label[:, None] + 1) % p
        support |= rng.random((n, n)) < draw(st.sampled_from([0.0, 0.01]))
    empty = ~support.any(axis=1)
    support[empty, empty.nonzero()[0]] = True  # a row with no edge becomes absorbing
    W = np.where(support, rng.uniform(1.0, 20.0, size=(n, n)), 0.0)
    return W / W.sum(axis=1, keepdims=True)


@st.composite
def edge_lists(draw):
    """n in [1, 40] states and an edge list (src, dst) over them, with
    self-loops and repeated edges; states without out-edges and states no
    edge enters are common, as the list holds at most 2n edges."""
    n = draw(st.integers(1, 40))
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, state), max_size=2 * n))
    edges += [(v, v) for v in draw(st.lists(state, max_size=3))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return n, src, dst


def forward_shortcut_path(n):
    """Transient path 0 -> 1 -> ... -> n-1 into an absorbing state, with an
    edge from every state to every later one: every state r can escape to
    is one step away and the search takes the first, so r moves n - 1 times."""
    return np.triu(np.ones((n, n))) / np.arange(n, 0, -1)[:, None]


class TestStationary:
    def test_symmetric_two_state(self):
        K = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(stationary_distribution(K), [0.5, 0.5], atol=1e-14)

    def test_two_state_hand_solution(self):
        # balance: 0.1 pi0 = 0.2 pi1 with pi0 + pi1 = 1
        K = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(stationary_distribution(K), [2 / 3, 1 / 3],
                                   atol=1e-14)

    def test_reversible_metropolis_matches_target(self, default_model):
        K = kernel_matrix(default_model, 2, 0.7)
        pi = target_density(default_model, 2, 0.7)
        assert np.max(np.abs(stationary_distribution(K) - pi)) <= 1e-10

    def test_reducible_chain_rejected(self):
        K = np.eye(4)
        with pytest.raises(NumericalError, match="multiplicity"):
            stationary_distribution(K)

    def test_periodic_chain_rejected(self):
        K = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="periodic"):
            stationary_distribution(K)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ParameterError):
            stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_nan_kernel_rejected(self):
        with pytest.raises(ParameterError, match="NaN"):
            stationary_distribution(np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_periodic_closed_class_behind_transient_state_rejected(self):
        K = np.array([[0.5, 0.5, 0.0],
                      [0.0, 0.0, 1.0],
                      [0.0, 1.0, 0.0]])
        assert spectral_verdict(K) == "periodic"
        with pytest.raises(NumericalError, match="periodic"):
            stationary_distribution(K)

    def test_two_closed_classes_with_transient_states_rejected(self):
        K = np.array([[0.2, 0.4, 0.4, 0.0, 0.0],
                      [0.5, 0.0, 0.0, 0.5, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.3, 0.7],
                      [0.0, 0.0, 0.0, 0.6, 0.4]])
        assert spectral_verdict(K) == "multiplicity"
        with pytest.raises(NumericalError, match="multiplicity"):
            stationary_distribution(K)

    def test_periodic_transient_class_draining_into_aperiodic_class_accepted(self):
        # {0, 1} alternate with period 2 but leak into the closed class {2, 3}
        K = np.array([[0.0, 1.0, 0.0, 0.0],
                      [0.5, 0.0, 0.5, 0.0],
                      [0.0, 0.0, 0.9, 0.1],
                      [0.0, 0.0, 0.2, 0.8]])
        assert spectral_verdict(K) is None
        np.testing.assert_allclose(stationary_distribution(K), [0, 0, 2 / 3, 1 / 3],
                                   atol=1e-14)

    def test_aperiodic_class_without_self_loop_accepted(self):
        # no diagonal entry; cycles 0-1-0 and 0-1-2-0 have coprime lengths 2, 3
        K = np.array([[0.0, 1.0, 0.0],
                      [0.5, 0.0, 0.5],
                      [1.0, 0.0, 0.0]])
        assert spectral_verdict(K) is None
        np.testing.assert_allclose(stationary_distribution(K), [0.4, 0.4, 0.2],
                                   atol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(K=sparse_stochastic())
    @example(K=forward_shortcut_path(30))
    @example(K=np.eye(30, k=1) + np.eye(30) * np.r_[np.zeros(29), 1.0])  # plain path
    def test_support_check_agrees_with_spectrum(self, K):
        assert structural_verdict(K) == spectral_verdict(K)

    @settings(max_examples=300, deadline=None)
    @given(graph=edge_lists())
    def test_distances_match_a_deque_search(self, graph):
        n, src, dst = graph
        for a, b in ((src, dst), (dst, src)):
            for start in range(n):
                assert exact._distances(n, a, b, start).tolist() == \
                    reference_distances(n, a, b, start)

    def test_distances_on_the_coupled_support_graph_at_m160(self):
        # the edges of the CRN coupled kernel, as _block_stationary builds them
        m = 160
        lower, diag, upper = coupled_kernel_blocks(build_model(m=m), 3, 0.6, -0.4, "crn")
        xs, ys, shift, yn = np.nonzero(np.stack([lower > 0.0, diag > 0.0, upper > 0.0], axis=2))
        src, dst = xs * m + ys, (xs + shift - 1) * m + yn
        for a, b in ((src, dst), (dst, src)):
            assert exact._distances(m * m, a, b, 0).tolist() == \
                reference_distances(m * m, a, b, 0)

    def test_walk_on_wrong_distances_stops_after_n_moves(self, monkeypatch):
        # every state reached from r and none reaching back moves r between
        # states 0 and 1 for ever; the fake stops a walk that has no bound
        n, calls = 4, []

        def wrong(n, src, dst, start):
            calls.append(start)
            if len(calls) > 2 * (n + 1):
                raise AssertionError("support walk did not stop")
            dist = np.full(n, -1 if len(calls) % 2 == 0 else 1)
            dist[start] = 0
            return dist

        monkeypatch.setattr(exact, "_distances", wrong)
        with pytest.raises(NumericalError, match="no closed class found in 4 moves"):
            exact._check_support(n, np.arange(n), np.roll(np.arange(n), 1))
        assert calls == [0, 0, 1, 1] * 2

    @pytest.mark.parametrize("coupling", ["crn", "independent"])
    def test_coupled_kernels_pass_both_checks(self, small_model, coupling):
        K = coupled_kernel_matrix(small_model, 2, 0.6, -0.9, coupling)
        assert spectral_verdict(K) is None
        assert structural_verdict(K) is None

    def test_no_dense_spectral_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense spectral decomposition called")

        for name in ("eigvals", "eig", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        # a fresh model: no cached coupled solve can hide the call
        rep = asymptotic_variance(build_model(), 2)
        assert rep.sigma > 0.0


_COUPLED_MODELS = {m: build_model(m=m) for m in range(3, 25)}


class TestCoupledStationary:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 24), l=st.integers(1, 6), theta=st.floats(-2.0, 2.0),
           theta_bar=st.floats(-2.0, 2.0), coupling=st.sampled_from(["crn", "independent"]))
    @example(m=12, l=2, theta=0.0, theta_bar=0.0, coupling="crn")  # transient pairs
    def test_level_reduction_matches_dense_law(self, m, l, theta, theta_bar, coupling):
        model = _COUPLED_MODELS[m]
        K = coupled_kernel_matrix(model, l, theta, theta_bar, coupling)
        scattered = np.zeros_like(K)
        for shift, block in zip((-1, 0, 1), coupled_kernel_blocks(model, l, theta, theta_bar,
                                                                  coupling)):
            for x in range(m):
                if 0 <= x + shift < m:
                    scattered[x * m:(x + 1) * m, (x + shift) * m:(x + shift + 1) * m] = block[x]
                else:
                    assert not block[x].any()
        np.testing.assert_array_equal(scattered, K)
        law = _coupled_stationary(model, l, theta, theta_bar, coupling)
        assert np.max(np.abs(law - stationary_distribution(K))) <= 1e-12
        P = law.reshape(m, m)
        assert np.max(np.abs(P.sum(axis=1) - target_density(model, l, theta))) <= 1e-10
        assert np.max(np.abs(P.sum(axis=0) - target_density(model, l - 1, theta_bar))) <= 1e-10


_LAZY = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])  # aperiodic
_FLIP = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])  # period 2
_MIX = np.full((3, 3), 1 / 3)
_TWO_TRAPS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])


def pair_blocks(fine, coarse, entry=None):
    """(lower, diagonal, upper) blocks of the product chain kron(fine, coarse),
    for a tridiagonal fine kernel; entry, if given, is added to diagonal[1][0, 0]."""
    m = len(fine)
    K4 = np.kron(fine, coarse).reshape(m, m, m, m)
    x = np.arange(m)
    lower, diag, upper = np.zeros((3, m, m, m))
    lower[1:] = K4[x[1:], :, x[:-1], :]
    diag[:] = K4[x, :, x, :]
    upper[:-1] = K4[x[:-1], :, x[1:], :]
    if entry is not None:
        diag[1][0, 0] += entry
    return lower, diag, upper


class TestCoupledChecks:
    """The coupled path checks the full chain: crafted blocks fed to
    _coupled_stationary in place of the model's fail their named check."""

    @pytest.mark.parametrize("blocks, error, match", [
        # y = 0 and y = 1 are closed, each across all three levels
        (pair_blocks(_LAZY, _TWO_TRAPS), NumericalError, "multiplicity"),
        (pair_blocks(_FLIP, _MIX), NumericalError, "periodic"),
        (pair_blocks(_LAZY, _MIX, 0.1), ParameterError, "do not sum to 1"),
        (pair_blocks(_LAZY, _MIX, np.nan), ParameterError, "NaN"),
    ], ids=["two-closed-classes", "periodic", "row-sum", "nan"])
    def test_crafted_blocks_fail_their_check(self, monkeypatch, blocks, error, match):
        monkeypatch.setattr(exact, "coupled_kernel_blocks", lambda *args: blocks)
        with pytest.raises(error, match=match):
            _coupled_stationary(build_model(m=3), 1, 0.0, 0.0, "crn")


_NOT_SQUARE = np.full((2, 3), 1.0 / 3.0)


@pytest.mark.parametrize("solve", [
    lambda: stationary_distribution(_NOT_SQUARE),
    lambda: poisson_solve(_NOT_SQUARE, np.full(2, 0.5), np.zeros(2)),
    lambda: estimate_geometric_rate(_NOT_SQUARE[None], np.full((1, 2), 0.5), np.ones((1, 2))),
], ids=["stationary", "poisson", "rate"])
def test_non_square_kernel_is_refused(solve):
    with pytest.raises(ParameterError, match=r"kernel must be square, got shape \(2, 3\)"):
        solve()


class TestPoisson:
    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(3, 64), l=st.integers(0, 8), theta=st.floats(-2.0, 2.0))
    def test_identity_holds_for_the_update_statistic(self, m, l, theta):
        model = build_model(m=m)
        K = kernel_matrix(model, l, theta)
        pi = target_density(model, l, theta)
        f = level_statistic(model, l) - theta
        sol = poisson_solve(K, pi, f)
        assert np.max(np.abs(sol.g_hat - K @ sol.g_hat - (f - pi @ f))) <= 1e-10
        assert abs(pi @ sol.g_hat) <= 1e-12

    def test_identity_residual_on_random_chains(self):
        for seed in range(5):
            K, _ = random_reversible_chain(6, seed)
            pi = stationary_distribution(K)
            f = np.random.default_rng(seed + 100).normal(size=6)
            sol = poisson_solve(K, pi, f)
            resid = sol.g_hat - K @ sol.g_hat - (f - pi @ f)
            assert np.max(np.abs(resid)) <= 1e-10
            assert abs(pi @ sol.g_hat) <= 1e-10

    def test_iid_chain_gives_centered_function(self):
        pi = np.array([0.2, 0.3, 0.5])
        K = np.tile(pi, (3, 1))
        f = np.array([1.0, -2.0, 4.0])
        sol = poisson_solve(K, pi, f)
        np.testing.assert_allclose(sol.g_hat, f - pi @ f, atol=1e-12)

    def test_constant_function_gives_zero(self, default_model):
        K = kernel_matrix(default_model, 1, 0.4)
        pi = target_density(default_model, 1, 0.4)
        sol = poisson_solve(K, pi, np.full(32, 3.7))
        assert np.max(np.abs(sol.g_hat)) <= 1e-12

    def test_matches_truncated_series(self):
        K, _ = random_reversible_chain(5, 11)
        pi = stationary_distribution(K)
        f = np.random.default_rng(12).normal(size=5)
        sol = poisson_solve(K, pi, f)
        series = poisson_series(K, pi, f, n_terms=200)
        assert np.max(np.abs(sol.g_hat - series)) <= 1e-8

    def test_wrong_stationary_law_rejected(self):
        K, _ = random_reversible_chain(5, 1)
        with pytest.raises(ParameterError, match="stationary"):
            poisson_solve(K, np.full(5, 0.2), np.arange(5.0))

    def test_singular_fundamental_matrix_reported(self):
        K = np.eye(3)  # every law is stationary; fundamental matrix singular
        with pytest.raises(NumericalError):
            poisson_solve(K, np.full(3, 1 / 3), np.arange(3.0))


class TestMeanField:
    def test_value_at_zero_is_uniform_mean(self, default_model):
        s = level_statistic(default_model, 2)
        assert mean_field(default_model, 2, 0.0) == pytest.approx(s.mean(), rel=1e-12)

    def test_root_of_mean_field(self, default_model):
        th = level_root(default_model, 3)
        assert abs(mean_field(default_model, 3, th)) < 1e-12

    def test_derivative_negative_on_wide_grid(self, default_model):
        for th in np.linspace(-5, 5, 21):
            for l in (0, 2, math.inf):
                assert mean_field_derivative(default_model, l, th) < 0

    def test_derivative_matches_finite_difference(self, default_model):
        h = 1e-5
        for th in np.linspace(-3, 3, 13):
            fd = (mean_field(default_model, 2, th + h)
                  - mean_field(default_model, 2, th - h)) / (2 * h)
            assert abs(mean_field_derivative(default_model, 2, th) - fd) <= 1e-6


class TestLevelRoot:
    def test_symmetric_model_has_root_at_zero(self, bias_off_model):
        # odd statistic on a symmetric grid: h(0) = 0 exactly
        for l in (0, 3, math.inf):
            assert abs(level_root(bias_off_model, l)) < 1e-12

    def test_realized_bias_rate(self, default_model):
        # |theta*_l - theta*_inf| inherits the synthetic rate beta0
        levels = range(2, 9)
        truth = level_root(default_model, math.inf)
        gaps = [abs(level_root(default_model, l) - truth) for l in levels]
        slope = np.polyfit(list(levels), np.log2(gaps), 1)[0]
        assert abs(slope - (-default_model.beta0)) <= 0.2


class TestPerModelMemo:
    def test_results_go_with_the_model(self):
        model = build_model(m=8)
        level_root(model, 2)
        asymptotic_variance(model, 2)
        level_statistic(model, 3)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_second_level_reuses_the_shared_root(self):
        # the counts perfbench reads through cache_info()
        memos = (level_root, exact._poisson_for, _coupled_stationary)
        model = build_model(m=8)
        asymptotic_variance(model, 2)
        before = [memo.cache_info() for memo in memos]
        asymptotic_variance(model, 3)
        after = [memo.cache_info() for memo in memos]
        assert [(a.hits - b.hits, a.misses - b.misses)
                for a, b in zip(after, before)] == [(1, 1), (1, 1), (0, 1)]

    def test_a_kept_level_does_not_admit_true(self):
        model = build_model(m=8)
        level_statistic(model, 1)
        with pytest.raises(ParameterError, match="got True"):
            level_statistic(model, True)
        with pytest.raises(ParameterError, match="got True"):
            target_density(model, True, 0.0)


class TestAsymptoticVariance:
    def test_terms_add_up_exactly(self, default_model):
        rep = asymptotic_variance(default_model, 2)
        assert rep.sigma == pytest.approx(rep.t1 + rep.t2, abs=1e-10)
        assert rep.sigma >= -1e-10
        assert rep.dh_l < 0 and rep.dh_lm1 < 0

    def test_degenerate_equal_levels_gives_zero(self, bias_off_model):
        rep = asymptotic_variance(bias_off_model, 3)
        assert abs(rep.sigma) <= 1e-8

    def test_independent_coupling_dominates_crn(self, default_model):
        for l in (1, 2, 3, 4):
            crn = asymptotic_variance(default_model, l, coupling="crn")
            ind = asymptotic_variance(default_model, l, coupling="independent")
            assert ind.sigma >= crn.sigma
            # product coupling of centred functions has no cross term
            assert abs(ind.cross_term) <= 1e-10

    def test_coupled_stationary_has_exact_marginals(self, default_model):
        rep = asymptotic_variance(default_model, 2)
        P = coupled_law(default_model, rep)
        pi_f = target_density(default_model, 2, rep.theta_star_l)
        pi_c = target_density(default_model, 1, rep.theta_star_lm1)
        assert np.max(np.abs(P.sum(axis=1) - pi_f)) <= 1e-8
        assert np.max(np.abs(P.sum(axis=0) - pi_c)) <= 1e-8

    def test_marginal_term_matches_batch_means(self, default_model):
        # the fine marginal term is the classical single-chain asymptotic
        # variance of H at the root, scaled by -(2 dh/dtheta)^-1; check the
        # unscaled part against a long-run batch-means estimate
        l = 2
        rep = asymptotic_variance(default_model, l)
        K = kernel_matrix(default_model, l, rep.theta_star_l)
        pi = target_density(default_model, l, rep.theta_star_l)
        H = level_statistic(default_model, l) - rep.theta_star_l
        sol = poisson_solve(K, pi, H)
        exact_av = pi @ (sol.g_hat ** 2) - pi @ (sol.Kg_hat ** 2)
        # frozen-theta run: the chain path is a plain Metropolis trajectory
        frozen = StepSchedule("constant", 0.0)
        traj = msa_run(default_model, l, frozen, ReprojectionFamily(5.0, 1.0),
                       400000, theta0=rep.theta_star_l, x0=None, seed=314)
        vals = H[traj.x_path[1:, 0]]
        b = 2000
        batches = vals[: (len(vals) // b) * b].reshape(-1, b).mean(axis=1)
        bm = b * batches.var(ddof=1)
        se = bm * math.sqrt(2.0 / (len(batches) - 1))
        assert abs(bm - exact_av) <= 3 * se

    def test_cross_term_matches_batch_means_covariance(self, default_model):
        # the cross expectation equals the asymptotic cross-covariance of the
        # two update statistics along the frozen coupled chain, which a
        # batch-means covariance estimates without any Poisson solve
        rep = asymptotic_variance(default_model, 2)
        frozen = StepSchedule("constant", 0.0)
        n, b = 400000, 2000
        traj = coupled_msa_run(default_model, 2, frozen, ReprojectionFamily(5.0, 1.0),
                               n, seed=2718, theta0=rep.theta_star_l,
                               theta0_bar=rep.theta_star_lm1)
        Hf = (level_statistic(default_model, 2) - rep.theta_star_l)[traj.x_path[1:, 0]]
        Hc = (level_statistic(default_model, 1) - rep.theta_star_lm1)[traj.x_path[1:, 1]]
        a = n // b
        bf = Hf[: a * b].reshape(a, b).mean(axis=1)
        bc = Hc[: a * b].reshape(a, b).mean(axis=1)
        cross_bm = b * np.cov(bf, bc, ddof=1)[0, 1]
        var_f, var_c = b * bf.var(ddof=1), b * bc.var(ddof=1)
        se = math.sqrt((var_f * var_c + cross_bm ** 2) / (a - 1))
        assert abs(cross_bm - rep.cross_term) <= 3 * se

    def test_level_zero_rejected(self, default_model):
        with pytest.raises(ParameterError):
            asymptotic_variance(default_model, 0)

    def test_monotone_decay_of_variance_ingredients(self, default_model):
        levels = range(2, 9)
        D = metric_matrix(default_model)
        sigmas, d2s, gaps = [], [], []
        for l in levels:
            rep = asymptotic_variance(default_model, l)
            P = coupled_law(default_model, rep)
            sigmas.append(rep.sigma)
            d2s.append(float(np.sum(P * D * D)))
            gaps.append(abs(rep.theta_star_l - rep.theta_star_lm1))
        assert np.all(np.diff(sigmas) < 0)
        assert np.all(np.diff(d2s) < 0)
        assert np.all(np.diff(gaps) < 0)


class TestGeometricRate:
    def test_iid_chain_converges_in_one_step(self):
        pi = np.array([0.3, 0.2, 0.5])
        K = np.tile(pi, (3, 1))
        (rate,) = estimate_geometric_rate(K[None], pi[None], np.ones((1, 3)))
        assert rate.rho_hat <= 0.01

    def test_two_state_second_eigenvalue(self):
        # (K^n - pi)(f) is 0.7**n times a fixed vector: the fit is exact
        K = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi = stationary_distribution(K)
        (rate,) = estimate_geometric_rate(K[None], pi[None], np.ones((1, 2)))
        assert slem(K) == pytest.approx(0.7, abs=1e-12)  # trace - 1
        assert rate.rho_hat == pytest.approx(0.7, abs=1e-4)

    def test_fitted_rate_tracks_spectrum_on_random_chains(self):
        for seed in range(6):
            K, _ = random_reversible_chain(8, seed + 40)
            pi = stationary_distribution(K)
            (rate,) = estimate_geometric_rate(K[None], pi[None], np.ones((1, 8)))
            assert abs(rate.rho_hat - slem(K)) <= 0.05

    def test_stack_equals_single_kernel_calls(self):
        # an iid chain stops within a few powers while lazy random chains run
        # on: each kernel keeps its own stopping power and fit
        rng = np.random.default_rng(11)
        chains = [random_reversible_chain(8, seed) for seed in range(7)]
        Ks = [0.9 * np.eye(8) + 0.1 * K for K, _ in chains]
        pis = [pi for _, pi in chains]
        Ks.insert(3, np.tile(pis[0], (8, 1)))
        pis.insert(3, pis[0])
        Vs = [1.0 + rng.random(8) for _ in Ks]
        stacked = estimate_geometric_rate(np.stack(Ks), np.stack(pis), np.stack(Vs))
        singles = [estimate_geometric_rate(K[None], pi[None], V[None])[0]
                   for K, pi, V in zip(Ks, pis, Vs)]
        assert isinstance(stacked, tuple) and len(stacked) == 8
        assert stacked == tuple(singles)
        assert singles[3].n_powers <= 3 < min(r.n_powers for r in singles[:3] + singles[4:])

    # per kernel of a stack: its kind, a seed, a weight for the mix kind and
    # whether V is constant
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), kernels=st.lists(
        st.tuples(st.sampled_from(["reversible", "lazy", "iid", "mix"]),
                  st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.999), st.booleans()),
        min_size=1, max_size=6))
    @example(n=2, kernels=[("iid", 0, 0.0, True)])  # every kernel stops at power 1
    @example(n=3, kernels=[("mix", 1, 0.999, True), ("lazy", 2, 0.0, False)])  # the cap
    def test_chunked_loop_equals_per_power_loop(self, n, kernels):
        Ks, pis, Vs = [], [], []
        for kind, seed, weight, flat in kernels:
            K, pi = random_reversible_chain(n, seed)
            iid = np.tile(pi, (n, 1))
            Ks.append({"reversible": K, "lazy": 0.9 * np.eye(n) + 0.1 * K, "iid": iid,
                       "mix": weight * np.eye(n) + (1.0 - weight) * iid}[kind])
            pis.append(pi)
            Vs.append(np.ones(n) if flat else 1.0 + np.random.default_rng(seed).random(n))
        K, pi, V = np.stack(Ks), np.stack(pis), np.stack(Vs)
        assert estimate_geometric_rate(K, pi, V) == reference_geometric_rate(K, pi, V)

    def test_stops_at_chunk_edges_equal_per_power_loop(self):
        # (K^n - pi)(f) is lam**n f for the two-state chain with eigenvalue
        # lam and every probe is +-1 or 0 off its mean, so the stop is the
        # first n with |lam|**n < 1e-13: lam = +-10**(-13 / (s - 0.5)) stops at s
        T = exact._RATE_CHUNK
        stops = [1, 7, T, T + 1, T + 1, 2 * T, exact._RATE_MAX_POWERS]
        lams = [0.0, 10 ** (-13 / 6.5), 10 ** (-13 / (T - 0.5)), 10 ** (-13 / (T + 0.5)),
                -10 ** (-13 / (T + 0.5)), 10 ** (-13 / (2 * T - 0.5)), 0.999]
        K = np.stack([[[1 + lam, 1 - lam], [1 - lam, 1 + lam]] for lam in lams]) / 2
        pi, V = np.full((len(lams), 2), 0.5), np.ones((len(lams), 2))
        reference = reference_geometric_rate(K, pi, V)
        assert [rate.n_powers for rate in reference] == stops
        assert estimate_geometric_rate(K, pi, V) == reference
        for i in range(len(lams)):  # alone, each kernel ends the loop at its own stop
            one = slice(i, i + 1)
            assert estimate_geometric_rate(K[one], pi[one], V[one]) == reference[one]

    def test_stack_rejects_a_non_stochastic_kernel(self):
        K = np.stack([np.eye(3), np.full((3, 3), 0.5)])
        with pytest.raises(ParameterError, match="sum to 1"):
            estimate_geometric_rate(K, np.full((2, 3), 1.0 / 3.0), np.ones((2, 3)))


@pytest.fixture(scope="module")
def cert(default_model):
    return certify_drift_minorization(default_model, range(0, 7),
                                      np.linspace(-2, 2, 9))


class TestCertificate:
    def test_drift_rate_below_one(self, cert):
        assert 0.0 < cert.lambda_drift < 1.0
        assert cert.b_drift > 0.0
        assert 0.0 < cert.epsilon_minor < 1.0
        assert 0.0 < cert.rho_hat < 1.0

    def test_drift_inequality_entrywise_on_grid(self, default_model, cert):
        ind = np.zeros(32)
        ind[list(cert.small_set)] = 1.0
        for l in cert.levels:
            for th in cert.thetas:
                K = kernel_matrix(default_model, l, th)
                V = lyapunov_vector(default_model, l, th)
                assert np.max(K @ V - cert.lambda_drift * V - cert.b_drift * ind) <= 1e-12

    def test_out_of_sample_triples(self, default_model, cert):
        rng = np.random.default_rng(5)
        ind = np.zeros(32)
        ind[list(cert.small_set)] = 1.0
        for _ in range(100):
            th = rng.uniform(-2, 2)
            l = int(rng.integers(0, 7))
            x = int(rng.integers(0, 32))
            K = kernel_matrix(default_model, l, th)
            V = lyapunov_vector(default_model, l, th)
            assert (K @ V)[x] <= cert.lambda_drift * V[x] + cert.b_drift * ind[x] + 1e-12

    def test_multistep_minorization_mass(self, default_model, cert):
        # K^n0(x,.) >= eps nu(.) for every x, re-checked at every (theta, l)
        for l in cert.levels:
            for th in cert.thetas:
                Kn = np.linalg.matrix_power(kernel_matrix(default_model, l, th),
                                            cert.n_steps_minor)
                assert Kn.min(axis=0).sum() >= cert.epsilon_minor - 1e-12, (th, l)

    def test_flat_target_degenerates_to_whole_space(self):
        tiny = build_model(m=8)
        cert = certify_drift_minorization(tiny, [0, 1], [0.0])
        assert len(cert.small_set) == 8  # V constant: b-term needed everywhere
        assert cert.lambda_drift < 1.0
        assert cert.nu_mass == pytest.approx(1.0)

    def test_repeated_grid_points_change_no_field(self):
        # theta = 0 is the same flat walk at every level, and 0.5 and 0.0 repeat
        model = build_model(m=8)
        thetas = [0.5, 0.0, -1.0, 0.5, 0.0]
        repeated = dataclasses.asdict(certify_drift_minorization(model, [0, 1, 2], thetas))
        once = dataclasses.asdict(certify_drift_minorization(model, [0, 1, 2], thetas[:3]))
        assert repeated.pop("thetas") == tuple(thetas)
        assert once.pop("thetas") == tuple(thetas[:3])
        assert repeated == once

    def test_rate_loop_holds_each_distinct_kernel_once(self, monkeypatch, default_model):
        rows = []
        rate = exact.estimate_geometric_rate

        def spy(K, pi, V):
            rows.append(len(K))
            return rate(K, pi, V)

        monkeypatch.setattr(exact, "estimate_geometric_rate", spy)
        # the certify defaults: 7 levels x 9 thetas, theta = 0 the same at every level
        certify_drift_minorization(default_model, range(7), np.linspace(-2, 2, 9))
        assert rows == [63 - 6]

    # the larger per-kernel term is the rate loop's at m = 8 (its sup history)
    # and m = 40 (its probe stacks), matrix_power's temporaries at m = 96,
    # where n0 = 1536 is not a power of two: there a count without them
    # (12.3 MB) falls below the peak (17.1 MB)
    @pytest.mark.parametrize("m", [8, 40, 96])
    def test_size_rule_bounds_what_certify_holds(self, monkeypatch, m):
        counted = []
        check_bytes = exact._check_bytes
        monkeypatch.setattr(exact, "_check_bytes",
                            lambda what, need: (counted.append(need), check_bytes(what, need)))
        model = build_model(m=m)
        certify_drift_minorization(model, [0], [0.5])  # imports numpy's lazy modules
        tracemalloc.start()
        try:
            certify_drift_minorization(model, range(7), np.linspace(-2, 2, 9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counted) == 2 and peak <= counted[1]


class TestRateDiagnostics:
    def test_slopes_match_synthetic_rate(self, default_model):
        diag = rate_diagnostics(default_model, range(2, 9), theta=0.7)
        for name in ("kernel_distance", "stationary_distance", "mean_shift",
                     "smoothed_shift"):
            assert abs(diag.slopes[name] - (-default_model.beta0)) <= 0.3, name
        assert diag.slopes["derivative_shift"] == "exact"

    def test_bias_off_makes_everything_exact(self, bias_off_model):
        diag = rate_diagnostics(bias_off_model, range(2, 6), theta=0.7)
        assert all(s == "exact" for s in diag.slopes.values())

    def test_mean_shift_closed_form(self, default_model):
        # |pi_inf(H_l - H_inf)| = delta_l**beta0 |pi_inf(c)| exactly
        diag = rate_diagnostics(default_model, range(2, 6), theta=0.7)
        pi_inf = target_density(default_model, math.inf, 0.7)
        base = abs(pi_inf @ default_model.bias)
        for l, val in zip(diag.levels, diag.quantities["mean_shift"]):
            assert val == pytest.approx(2.0 ** (-l) * base, rel=1e-10)

    def test_needs_four_levels(self, default_model):
        with pytest.raises(ParameterError):
            rate_diagnostics(default_model, [2, 3, 4], theta=0.7)


class TestLemmaDiagnostics:
    def test_poisson_gap_slope_on_default(self, default_model):
        diag = lemma_diagnostics(default_model, range(2, 9), 0.7, 0.9)
        assert abs(diag.slopes["solution_gap"] - (-1.0)) <= 0.3
        assert abs(diag.slopes["smoothed_gap"] - (-1.0)) <= 0.3

    def test_derivative_gap_slope_needs_generic_bias(self, skew_model):
        # the default sine/cosine pair hides a reflection symmetry that
        # cancels the linear term of the variance gap; the shifted bias
        # realizes the nominal rate
        diag = lemma_diagnostics(skew_model, range(2, 9), 0.7, 0.9)
        assert abs(diag.slopes["derivative_gap_equal"] - (-1.0)) <= 0.3

    def test_theta_continuity_vanishes_at_equal_arguments(self, default_model):
        diag = lemma_diagnostics(default_model, range(2, 6), 0.7, 0.7)
        assert np.max(diag.quantities["theta_gap"]) == 0.0
        assert np.max(diag.quantities["holder_ratio"]) == 0.0

    def test_derivative_gap_at_equal_thetas_is_variance_gap(self, default_model):
        diag = lemma_diagnostics(default_model, range(2, 6), 0.7, 0.7)
        for l, val in zip(diag.levels, diag.quantities["derivative_gap"]):
            s_l = level_statistic(default_model, l)
            s_c = level_statistic(default_model, l - 1)
            pi_l = target_density(default_model, l, 0.7)
            pi_c = target_density(default_model, l - 1, 0.7)
            var_gap = abs((pi_l @ s_l ** 2 - (pi_l @ s_l) ** 2)
                          - (pi_c @ s_c ** 2 - (pi_c @ s_c) ** 2))
            assert val == pytest.approx(var_gap, abs=1e-14)

    def test_lipschitz_and_holder_ratios_bounded(self, default_model):
        diag = lemma_diagnostics(default_model, range(2, 7), 0.7, 0.9)
        assert np.max(diag.quantities["lipschitz_ratio"]) < 1e3
        assert np.max(diag.quantities["holder_ratio"]) < 1e3

    def test_variance_blocks_controlled_by_rate_terms(self, default_model):
        # |coupled blocks| <= C (delta**beta + gap**zeta + sqrt pi(D^2))
        diag = lemma_diagnostics(default_model, range(2, 7), 0.7, 0.9)
        budget = (2.0 ** -np.asarray(diag.levels)
                  + diag.quantities["root_gap"]
                  + diag.quantities["coupled_d2_sqrt"])
        for name in ("block_fine", "block_coarse", "block_fine_smoothed",
                     "block_coarse_smoothed"):
            assert np.all(diag.quantities[name] <= 1e3 * budget)


class TestSlopeFit:
    def test_exact_for_zeros(self):
        assert fitted_log2_slope([2, 3, 4], [0.0, 0.0, 0.0]) == "exact"

    def test_recovers_geometric_decay(self):
        vals = [3.0 * 2.0 ** (-1.5 * l) for l in range(2, 8)]
        assert fitted_log2_slope(range(2, 8), vals) == pytest.approx(-1.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nan_and_infinite_values(self, bad):
        with pytest.raises(NumericalError, match="nan or infinite"):
            fitted_log2_slope([2, 3, 4, 5], [1.0, 0.5, bad, 0.125])

    def test_rejects_mixed_zeros(self):
        with pytest.raises(NumericalError):
            fitted_log2_slope([2, 3, 4], [1.0, 0.0, 0.5])
