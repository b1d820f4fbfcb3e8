from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from newsciv import linmodel
from newsciv.linmodel import (
    DECISION_THRESHOLD,
    LogisticModel,
    TrainConfig,
    _sigmoid,
    evaluate,
    fit_with_history,
    gradient,
    load_logistic,
    loss,
    roc_auc,
    save_logistic,
    train_logistic,
)


def dense_loss_oracle(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Independent dense loss: per-sample math on raw floats."""
    total = 0.0
    for i in range(len(y)):
        z = float(np.dot(X[i], w)) + b
        # log(1 + e^z) - y*z, stably
        total += max(z, 0.0) + math.log1p(math.exp(-abs(z))) - y[i] * z
    return total / len(y) + 0.5 * lam * float(np.dot(w, w))


def fd_gradient_oracle(w, b, X, y, lam, h=1e-5):
    """Central finite differences of the dense loss."""
    grad_w = np.zeros_like(w)
    for j in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        grad_w[j] = (dense_loss_oracle(wp, b, X, y, lam) - dense_loss_oracle(wm, b, X, y, lam)) / (2 * h)
    grad_b = (dense_loss_oracle(w, b + h, X, y, lam) - dense_loss_oracle(w, b - h, X, y, lam)) / (2 * h)
    return grad_w, grad_b


def brute_force_auc(scores, labels) -> float:
    """All (positive, negative) pairs; ties count one half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def loop_roc_auc(scores, labels) -> float:
    """The tie loop ``roc_auc`` used before its tie groups were found from
    neighbour inequality: each group is walked element by element."""
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=bool)
    n_pos = int(lab.sum())
    n_neg = int(lab.size - n_pos)
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    pos_rank_sum = float(ranks[lab].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# Scores drawn mostly from a few values, so most lists hold ties, with NaN,
# both zeros and both infinities among them.
TIED_SCORES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -3.0, math.inf, -math.inf, math.nan])
    | st.floats(allow_nan=True, allow_infinity=True),
    min_size=2, max_size=60,
)


def random_instance(rng: np.random.Generator, n: int, d: int):
    X = rng.normal(size=(n, d))
    X[rng.random(size=X.shape) < 0.3] = 0.0  # make it genuinely sparse
    y = rng.random(n) < 0.5
    if y.all() or not y.any():
        y[0] = ~y[0]
    return X, y


def sparse_instance(seed: int, n: int, d: int, density: float, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    X = sp.random(n, d, density=density, format="csr", random_state=rng,
                  data_rvs=lambda k: scale * rng.standard_normal(k))
    y = rng.random(n) < 0.4
    y[:2] = [True, False]
    return X, y


def scipy_optimum(X, y, l2_lambda: float) -> float:
    """The objective's minimum as scipy's L-BFGS-B finds it, run to the
    limit of double precision."""
    from scipy.optimize import minimize

    yv = y.astype(float)
    result = minimize(
        lambda v: loss(v[:-1], v[-1], X, yv, l2_lambda),
        np.zeros(X.shape[1] + 1),
        jac=lambda v: np.append(*gradient(v[:-1], v[-1], X, yv, l2_lambda)),
        method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10_000},
    )
    return float(result.fun)


def max_gradient(model, X, y, l2_lambda: float) -> float:
    grad_w, grad_b = gradient(model.weights, model.bias, X, y.astype(float), l2_lambda)
    return max(np.max(np.abs(grad_w)), abs(grad_b))


# (id, instance, config): fits that must stop on the gradient tolerance at
# the optimum. Features scaled by 3 make full steps overshoot.
OPTIMUM_CASES = [
    ("random-60x25", sparse_instance(0, 60, 25, 0.2), TrainConfig()),
    ("random-200x80", sparse_instance(1, 200, 80, 0.05), TrainConfig()),
    ("random-35x120", sparse_instance(2, 35, 120, 0.1), TrainConfig(l2_lambda=1e-2)),
    ("random-400x300", sparse_instance(3, 400, 300, 0.02), TrainConfig(max_iterations=200)),
    ("scaled-3x", sparse_instance(4, 40, 8, 1.0, scale=3.0), TrainConfig(max_iterations=100)),
]
SEPARABLE = (sp.csr_matrix([[-2.0, 0.5], [-1.0, 0.0], [1.0, -0.5], [3.0, 1.0]]),
             np.array([False, False, True, True]))


class TestTrainerReachesOptimum:
    """The trainer reaches the objective it minimizes, or says it did not."""

    @pytest.mark.parametrize("instance, config", [case[1:] for case in OPTIMUM_CASES],
                             ids=[case[0] for case in OPTIMUM_CASES])
    def test_stops_on_gradient_at_scipy_optimum(self, instance, config):
        X, y = instance
        model, history = fit_with_history(X, y.tolist(), config)
        fit = model.convergence
        assert fit.stop == "gradient"
        assert fit.iterations == len(history) - 1 <= config.max_iterations
        assert max_gradient(model, X, y, config.l2_lambda) < config.tolerance
        assert fit.grad_max == pytest.approx(max_gradient(model, X, y, config.l2_lambda), rel=1e-6)
        best = scipy_optimum(X, y, config.l2_lambda)
        assert history[-1] == loss(model.weights, model.bias, X, y.astype(float),
                                   config.l2_lambda)
        assert abs(history[-1] - best) <= 1e-9 * abs(best)

    def test_looser_tolerance_stops_sooner(self):
        X, y = sparse_instance(5, 50, 10, 0.3)
        loose, _ = fit_with_history(X, y.tolist(), TrainConfig(tolerance=1e-2))
        tight, _ = fit_with_history(X, y.tolist(), TrainConfig())
        assert loose.convergence.stop == tight.convergence.stop == "gradient"
        assert max_gradient(loose, X, y, TrainConfig().l2_lambda) < 1e-2
        assert loose.convergence.iterations < tight.convergence.iterations

    @pytest.mark.parametrize("instance, cap", [
        (sparse_instance(1, 200, 80, 0.05), 5),
        (sparse_instance(7, 20, 5, 0.3), 0),
    ], ids=["random-200x80", "zero-iterations"])
    def test_capped_run_reports_max_iterations(self, instance, cap):
        X, y = instance
        config = TrainConfig(max_iterations=cap)
        model, history = fit_with_history(X, y.tolist(), config)
        fit = model.convergence
        assert (fit.stop, fit.iterations, len(history)) == ("max_iterations", cap, cap + 1)
        assert fit.grad_max == pytest.approx(max_gradient(model, X, y, config.l2_lambda), rel=1e-6)
        assert fit.grad_max >= config.tolerance

    def test_separable_without_l2_stops_at_cap_with_finite_weights(self):
        X, y = SEPARABLE
        config = TrainConfig(l2_lambda=0.0, tolerance=1e-300)
        model, history = fit_with_history(X, y.tolist(), config)
        assert model.convergence.stop == "max_iterations"
        assert len(history) == config.max_iterations + 1
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
        assert [p > 0.5 for p in model.predict_proba(X)] == y.tolist()
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_precision_floor_stops_on_line_search(self):
        # No double-precision point has max |gradient| below 1e-300, so
        # the fit ends when no step lowers the loss any more.
        (X, y), config = OPTIMUM_CASES[0][1:]
        model, history = fit_with_history(X, y.tolist(), TrainConfig(tolerance=1e-300))
        assert model.convergence.stop == "line_search"
        assert model.convergence.iterations == len(history) - 1 < config.max_iterations
        best = scipy_optimum(X, y, config.l2_lambda)
        assert abs(history[-1] - best) <= 1e-12 * abs(best)

    def test_line_search_backtracks_on_scaled_features(self, monkeypatch):
        calls = []
        objective = linmodel._objective

        def counted(*args):
            calls.append(1)
            return objective(*args)

        monkeypatch.setattr(linmodel, "_objective", counted)
        (X, y), config = OPTIMUM_CASES[4][1:]
        _, history = fit_with_history(X, y.tolist(), config)
        assert len(calls) > len(history)  # some trial points were rejected


class TestGradient:
    def test_gradient_at_zero_matches_mean_residual(self):
        # At w=0, b=0 every sigmoid is 0.5, so the gradient per coordinate
        # is the mean of (0.5 - y_i) * x_i.
        X = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
        y = np.array([1.0, 0.0, 1.0])
        grad_w, grad_b = gradient(np.zeros(2), 0.0, sp.csr_matrix(X), y, 0.0)
        expected = ((0.5 - y)[:, None] * X).mean(axis=0)
        assert grad_w == pytest.approx(expected, abs=1e-12)
        assert grad_b == pytest.approx((0.5 - y).mean(), abs=1e-12)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, d = int(rng.integers(2, 21)), int(rng.integers(1, 11))
            X, y = random_instance(rng, n, d)
            w = rng.normal(size=d)
            b = float(rng.normal())
            lam = float(rng.choice([0.0, 1e-3, 0.1]))
            grad_w, grad_b = gradient(w, b, sp.csr_matrix(X), y.astype(float), lam)
            fd_w, fd_b = fd_gradient_oracle(w, b, X, y.astype(float), lam)
            scale = max(np.max(np.abs(fd_w)), abs(fd_b), 1e-8)
            assert np.max(np.abs(grad_w - fd_w)) / scale < 1e-5
            assert abs(grad_b - fd_b) / scale < 1e-5

    def test_loss_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        X, y = random_instance(rng, 15, 6)
        w = rng.normal(size=6)
        assert loss(w, 0.3, sp.csr_matrix(X), y.astype(float), 1e-2) == pytest.approx(
            dense_loss_oracle(w, 0.3, X, y.astype(float), 1e-2), rel=1e-12
        )


class TestTraining:
    def test_zero_iterations_gives_zero_model(self):
        X = sp.csr_matrix([[1.0], [-1.0]])
        model = train_logistic(X, [True, False], TrainConfig(max_iterations=0))
        assert model.weights.tolist() == [0.0]
        assert model.bias == 0.0
        assert model.predict_proba(X[0]).tolist() == [0.5]

    def test_separable_1d_reaches_perfect_training_accuracy(self):
        X = sp.csr_matrix([[-1.0], [1.0]])
        model = train_logistic(X, [False, True], TrainConfig(l2_lambda=0.0, max_iterations=200))
        assert [p > 0.5 for p in model.predict_proba(X)] == [False, True]

    def test_loss_non_increasing_across_accepted_steps(self):
        rng = np.random.default_rng(11)
        X, y = random_instance(rng, 40, 8)
        # Features scaled by 10 make some full L-BFGS steps overshoot.
        _, history = fit_with_history(
            sp.csr_matrix(10.0 * X), y.tolist(), TrainConfig(l2_lambda=0.0, max_iterations=100)
        )
        assert len(history) > 1
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_single_class_errors(self):
        X = sp.csr_matrix([[1.0], [2.0]])
        with pytest.raises(ValueError, match="single class"):
            train_logistic(X, [True, True])

    def test_length_mismatch_and_too_few(self):
        X = sp.csr_matrix([[1.0], [2.0]])
        with pytest.raises(ValueError):
            train_logistic(X, [True])
        with pytest.raises(ValueError):
            train_logistic(X[:1], [True])

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X, y = random_instance(rng, 30, 5)
        rows = sp.csr_matrix(X)
        m1 = train_logistic(rows, y.tolist())
        m2 = train_logistic(rows, y.tolist())
        assert m1.weights.tolist() == m2.weights.tolist()
        assert m1.bias == m2.bias


class TestPredict:
    def test_sigmoid_matches_masked_formula_bit_for_bit(self):
        magnitudes = [0.0, 1e-320, 36.0, 709.8, 745.2, 1e4]
        z = np.array([sign * m for m in magnitudes for sign in (1.0, -1.0)])
        assert np.signbit(z[1])  # -0.0 is present
        masked = np.empty_like(z)
        pos = z >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        masked[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        assert _sigmoid(z, np.exp(-np.abs(z))).tobytes() == masked.tobytes()

    def test_zero_model_is_half(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        assert model.predict_proba(sp.csr_matrix([[1.0, 0.0]])).tolist() == [0.5]

    def test_sigmoid_saturation(self):
        model = LogisticModel(weights=np.zeros(1), bias=20.0)
        assert model.predict_proba(sp.csr_matrix([[1.0]]))[0] >= 0.999999

    def test_no_overflow_at_extreme_logits(self):
        x = sp.csr_matrix([[1.0]])
        high = LogisticModel(weights=np.array([1000.0]), bias=0.0)
        low = LogisticModel(weights=np.array([-1000.0]), bias=0.0)
        with np.errstate(over="raise"):
            assert high.predict_proba(x).tolist() == [1.0]
            assert low.predict_proba(x).tolist() == [0.0]

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            w = rng.normal(size=4)
            b = float(rng.normal())
            x = sp.csr_matrix([[float(rng.normal() or 1.0) for _ in range(4)]])
            p = LogisticModel(weights=w, bias=b).predict_proba(x)[0]
            q = LogisticModel(weights=-w, bias=-b).predict_proba(x)[0]
            assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_errors(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError):
            model.predict_proba(sp.csr_matrix([[1.0, 0.0, 0.0]]))

    def test_threshold_is_strict(self):
        assert DECISION_THRESHOLD == 0.5
        X = sp.csr_matrix([[1.0], [1.0]])

        def positives(bias):
            model = LogisticModel(weights=np.zeros(1), bias=bias)
            report = evaluate(model, X, [True, False])
            return report.tp + report.fp

        assert positives(0.0) == 0  # proba exactly 0.5 for both rows
        assert positives(1e-9) == 2
        assert positives(-1e-9) == 0


class TestRocAuc:
    def test_hand_example(self):
        scores = [0.9, 0.4, 0.1, 0.7]
        labels = [True, True, False, False]
        assert roc_auc(scores, labels) == 0.75
        assert brute_force_auc(scores, labels) == 0.75

    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_all_ties_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [True, True])

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(99)
        for trial in range(100):
            n = rng.randint(2, 50)
            if trial < 30:
                # force duplicate scores
                scores = [rng.choice([0.1, 0.25, 0.5, 0.9]) for _ in range(n)]
            else:
                scores = [rng.random() for _ in range(n)]
            labels = [rng.random() < 0.5 for _ in range(n)]
            if all(labels) or not any(labels):
                labels[0] = not labels[0]
            assert roc_auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-12
            )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_tie_groups_match_the_loop_exactly(self, data):
        scores = data.draw(TIED_SCORES)
        labels = data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)))
        labels[:2] = [True, False]
        assert roc_auc(scores, labels) == loop_roc_auc(scores, labels)

    def test_nan_scores_tie_nothing(self):
        nan = math.nan
        assert roc_auc([nan, nan, 0.1], [True, False, False]) == 0.5  # tied NaN: 0.75
        assert roc_auc([-0.0, 0.0, nan], [True, False, True]) == 0.75

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(4)
        scores = [rng.random() for _ in range(30)]
        labels = [rng.random() < 0.4 for _ in range(30)]
        labels[0], labels[1] = True, False
        base = roc_auc(scores, labels)
        assert roc_auc([math.exp(3 * s) for s in scores], labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc([s * 100 - 7 for s in scores], labels) == pytest.approx(base, abs=1e-12)


class TestEvaluate:
    def _fixed_model(self):
        # x = +1 predicts positive, x = -1 predicts negative
        return LogisticModel(weights=np.array([10.0]), bias=0.0)

    def test_hand_confusion_matrix(self):
        model = self._fixed_model()
        X = sp.csr_matrix([[1.0], [1.0], [-1.0], [-1.0]])
        y = [True, False, True, False]
        report = evaluate(model, X, y)
        assert (report.tp, report.fp, report.fn, report.tn) == (1, 1, 1, 1)
        assert report.accuracy == 0.5
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_perfect_predictions(self):
        model = self._fixed_model()
        X = sp.csr_matrix([[1.0], [1.0], [-1.0], [-1.0]])
        y = [True, True, False, False]
        report = evaluate(model, X, y)
        assert report.accuracy == report.precision == report.recall == report.f1 == 1.0
        assert report.auc == 1.0

    def test_counts_partition_test_set(self):
        rng = np.random.default_rng(8)
        X, y = random_instance(rng, 25, 3)
        model = train_logistic(sp.csr_matrix(X), y.tolist(), TrainConfig(max_iterations=5))
        report = evaluate(model, sp.csr_matrix(X), y.tolist())
        assert report.tp + report.fp + report.tn + report.fn == 25

    def test_undefined_precision_flagged(self):
        # every probability is at most 0.5 -> no positive predictions at all
        model = LogisticModel(weights=np.array([-10.0]), bias=0.0)
        X = sp.csr_matrix([[1.0], [0.0]])
        report = evaluate(model, X, [True, False])
        assert report.precision == 0.0
        assert not report.precision_defined
        assert report.recall_defined


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = LogisticModel(weights=np.array([0.0, -1.5, 2.25]), bias=0.125)
        path = tmp_path / "model.json"
        save_logistic(model, path)
        loaded = load_logistic(path)
        assert loaded.weights.tolist() == model.weights.tolist()
        assert loaded.bias == model.bias

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 0, "dimension": 1, "bias": 0, "weights": []}')
        with pytest.raises(ValueError):
            load_logistic(path)

    def test_file_that_is_not_json_raises_value_error_naming_it(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Expecting"):
            load_logistic(path)

    @pytest.mark.parametrize("key, value, message", [
        ("dimension", -1, "dimension must be a non-negative integer"),
        ("dimension", 2.0, "dimension must be a non-negative integer"),
        ("bias", "0.5", "bias must be a finite number"),
        ("bias", float("inf"), "bias must be a finite number"),
        ("weights", [[3, 1.0]], "weights must be [index, finite value] pairs with index < 3"),
        ("weights", [[-1, 1.0]], "weights must be [index, finite value] pairs"),
        ("weights", [[True, 1.0]], "weights must be [index, finite value] pairs"),
        ("weights", [[0, float("nan")]], "weights must be [index, finite value] pairs"),
        ("weights", [[0, 10**400]], "weights must be [index, finite value] pairs"),
        ("weights", [[0]], "weights must be [index, finite value] pairs"),
        ("weights", {"0": 1.0}, "weights must be [index, finite value] pairs"),
        ("weights", [[1, 2.0], [1, -5.0]], "weights repeat an index"),
    ])
    def test_damaged_file_raises_value_error_naming_it(self, tmp_path, key, value, message):
        path = tmp_path / "model.json"
        save_logistic(LogisticModel(weights=np.array([0.0, -1.5, 2.25]), bias=0.125), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_logistic(path)
