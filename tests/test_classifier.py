import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmean.classifier import (
    SoftmaxModel,
    TrainProtocol,
    _stratified_split,
    _train_softmax,
    _xent,
    fit,
    fit_runs,
    metrics,
    score_runs,
    softmax_xent,
)
from pmean.errors import InputError
from pmean.optim import BETA1, BETA2, EPS, AdamState, Layout, adam_step


def make_blobs(n_per_class=100, d=2, margin_gap=1.0, n_classes=2, seed=0):
    """Linearly separable Gaussian blobs with centers 2+gap apart."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(n_classes):
        angle = 2 * math.pi * c / n_classes
        center = (2 + margin_gap) * np.array([math.cos(angle), math.sin(angle)])
        pts = center + 0.4 * rng.standard_normal((n_per_class, 2))
        if d > 2:
            pts = np.hstack([pts, rng.standard_normal((n_per_class, d - 2))])
        X.append(pts)
        y.extend([f"k{c}"] * n_per_class)
    return np.vstack(X), y


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        grads = np.zeros(2)
        state = AdamState.zeros_like(params)
        out, state = adam_step(params, grads, state, t=1)
        assert np.array_equal(out, params)

    def test_first_step_magnitude_is_step_size(self):
        # bias correction makes m_hat / sqrt(v_hat) = sign(g) at t=1
        params = np.array([0.0])
        grads = np.array([7.3])
        state = AdamState.zeros_like(params)
        out, _ = adam_step(params, grads, state, t=1, step_size=0.05)
        assert out[0] == pytest.approx(-0.05, rel=1e-6)

    def test_pure_function(self):
        params = np.array([1.0])
        grads = np.array([0.5])
        state = AdamState.zeros_like(params)
        a1, s1 = adam_step(params, grads, state, t=1)
        a2, s2 = adam_step(params, grads, state, t=1)
        assert np.array_equal(a1, a2)
        assert np.array_equal(s1.m, s2.m)
        assert params[0] == 1.0  # inputs untouched

    def test_moments_decay_toward_zero_on_zero_grads(self):
        params = np.array([1.0])
        state = AdamState(m=np.array([1.0]), v=np.array([1.0]))
        _, state = adam_step(params, np.zeros(1), state, t=5)
        assert abs(state.m[0]) < 1.0 and state.v[0] < 1.0

    def test_rejects_bad_t(self):
        params = np.zeros(1)
        with pytest.raises(ValueError):
            adam_step(params, params, AdamState.zeros_like(params), t=0)

    def test_matches_scalar_oracle_bit_for_bit(self):
        # signed zeros, subnormal and tiny values, large values whose square overflows
        params = np.array([0.0, -0.0, 5e-324, -1e-300, 1e-8, 3.5, -2.25, 1e150, -1e300, 7e-20])
        grads = np.array([-0.0, 0.0, 1e-310, 5e-324, -1e-8, 0.1, -7.0, 1e160, 2e300, -3e-200])
        state = AdamState.zeros_like(params)
        p_ref = [float(p) for p in params]
        m_ref = [0.0] * len(p_ref)
        v_ref = [0.0] * len(p_ref)
        for t in range(1, 6):
            g_t = grads * t  # a different gradient each step
            with np.errstate(over="ignore"):  # g * g overflows to inf, as in Python
                params, state = adam_step(params, g_t, state, t, step_size=0.01)
            for i, g in enumerate(float(x) for x in g_t):
                m_ref[i] = BETA1 * m_ref[i] + (1 - BETA1) * g
                v_ref[i] = BETA2 * v_ref[i] + (1 - BETA2) * g * g
                m_hat = m_ref[i] / (1 - BETA1**t)
                v_hat = v_ref[i] / (1 - BETA2**t)
                p_ref[i] = p_ref[i] - 0.01 * m_hat / (math.sqrt(v_hat) + EPS)
            for got, want in ((params, p_ref), (state.m, m_ref), (state.v, v_ref)):
                assert got.tobytes() == np.array(want).tobytes()


class TestLayout:
    def test_views_round_trip_named_arrays(self):
        arrays = {"W": np.arange(6.0).reshape(2, 3), "b": np.array([-1.0, 2.0])}
        layout = Layout(arrays)
        flat = layout.pack(arrays)
        assert flat.shape == (8,)
        views = layout.views(flat)
        assert list(views) == ["W", "b"]
        for name, arr in arrays.items():
            assert np.array_equal(views[name], arr)
            assert np.shares_memory(views[name], flat)


class TestSoftmaxXent:
    def test_uniform_logits_loss_is_ln_c(self):
        for C in (2, 3, 5):
            model = SoftmaxModel(np.zeros((C, 4)), np.zeros(C), [f"k{i}" for i in range(C)])
            X = np.random.default_rng(0).normal(size=(10, 4)) * 0  # zero features
            loss, _ = softmax_xent(model, X, ["k0"] * 10)
            assert loss == pytest.approx(math.log(C), rel=1e-12)

    def test_confident_correct_logits_near_zero_loss(self):
        model = SoftmaxModel(np.array([[30.0], [-30.0]]), np.zeros(2), ["a", "b"])
        X = np.array([[1.0], [-1.0]])
        loss, _ = softmax_xent(model, X, ["a", "b"])
        assert loss < 1e-3

    def test_unknown_label_rejected(self):
        model = SoftmaxModel(np.zeros((2, 2)), np.zeros(2), ["a", "b"])
        with pytest.raises(InputError):
            softmax_xent(model, np.zeros((1, 2)), ["zzz"])

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            C = int(rng.integers(2, 5))
            D = int(rng.integers(1, 7))
            n = int(rng.integers(2, 9))
            labels = [f"k{i}" for i in range(C)]
            model = SoftmaxModel(rng.normal(size=(C, D)), rng.normal(size=C), labels)
            X = rng.normal(size=(n, D))
            y = [labels[i] for i in rng.integers(0, C, size=n)]
            _, grads = softmax_xent(model, X, y)
            h = 1e-6
            for name, arr in (("W", model.weights), ("b", model.bias)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    orig = arr[i]
                    arr[i] = orig + h
                    lp, _ = softmax_xent(model, X, y)
                    arr[i] = orig - h
                    lm, _ = softmax_xent(model, X, y)
                    arr[i] = orig
                    num = (lp - lm) / (2 * h)
                    got = grads[name][i]
                    rel = abs(got - num) / max(1e-8, abs(got) + abs(num))
                    assert rel < 1e-4

    def test_bias_shift_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(1)
        model = SoftmaxModel(rng.normal(size=(3, 4)), rng.normal(size=3), ["a", "b", "c"])
        X = rng.normal(size=(50, 4))
        before = model.predict(X)
        shifted = SoftmaxModel(model.weights, model.bias + 11.7, model.class_labels)
        assert shifted.predict(X) == before


class TestFit:
    def test_separable_blobs_high_train_accuracy(self):
        X, y = make_blobs(seed=3)
        model = fit(X, y, TrainProtocol(seed=0), np.random.default_rng(0))
        assert metrics(y, model.predict(X), "accuracy") >= 0.99

    def test_random_labels_stay_near_chance(self):
        rng = np.random.default_rng(8)
        n = 400
        X = rng.standard_normal((n, 4))
        y = [f"k{i}" for i in rng.integers(0, 2, size=n)]
        model = fit(X, y, TrainProtocol(seed=1), np.random.default_rng(1))
        acc = metrics(y, model.predict(X), "accuracy")
        # binomial null on the full set; training can only overfit mildly here
        assert abs(acc - 0.5) < 3 * math.sqrt(0.25 / n) + 0.05

    def test_deterministic_per_seed(self):
        X, y = make_blobs(seed=5)
        m1 = fit(X, y, TrainProtocol(seed=4), np.random.default_rng(4))
        m2 = fit(X, y, TrainProtocol(seed=4), np.random.default_rng(4))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(InputError):
            fit(X, ["same"] * 10, TrainProtocol(), np.random.default_rng(0))

    def test_loss_nonincreasing_on_separable_data(self):
        X, y = make_blobs(seed=11)
        labels = ["k0", "k1"]
        y_idx = np.array([labels.index(v) for v in y])
        # training for k epochs from the same seed is the first k epochs of a
        # longer run, so retraining for 1..30 epochs gives the per-epoch losses
        losses = []
        for k in range(1, 31):
            W, b = _train_softmax(X, y_idx, 2, [0.01], TrainProtocol(max_epochs=k, seed=0),
                                  [np.random.default_rng(2)])
            losses.append(_xent({"W": W[0], "b": b[0]}, X, y_idx)[0])
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert drops / (len(losses) - 1) >= 0.95


def train_cell_reference(X, y_idx, labels, lr, protocol, rng):
    """One learning-rate cell trained on its own: softmax_xent and adam_step per minibatch."""
    n, d = X.shape
    C = len(labels)
    flat = np.concatenate([rng.normal(0.0, 0.01, size=(C, d)).ravel(), np.zeros(C)])
    state = AdamState.zeros_like(flat)
    t = 0
    for _ in range(protocol.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, protocol.batch_size):
            idx = order[start : start + protocol.batch_size]
            model = SoftmaxModel(flat[: C * d].reshape(C, d), flat[C * d :], labels)
            _, grads = softmax_xent(model, X[idx], [labels[i] for i in y_idx[idx]])
            t += 1
            flat, state = adam_step(flat, np.concatenate([grads["W"].ravel(), grads["b"]]),
                                    state, t, step_size=lr)
    return flat[: C * d].reshape(C, d), flat[C * d :]


class TestBatchedCells:
    """Every cell of the stacked trainer equals that cell trained alone, bit for bit."""

    @pytest.mark.parametrize("n, d, C, batch_size, epochs, lrs", [
        (12, 3, 2, 1, 2, (1e-1, 1e-2, 1e-3, 1e-4)),  # batch size 1
        (37, 4, 5, 8, 3, (1e-1, 1e-2, 1e-3, 1e-4)),  # ragged last batch, 5 classes
        (20, 1, 2, 6, 4, (1e-1, 1e-3)),  # d = 1
        (15, 3, 5, 4, 0, (1e-1, 1e-2)),  # no epochs: the init is returned
        (30, 6, 2, 32, 5, (1e-2,)),  # one rate; batch larger than n
        (25, 5, 3, 7, 3, (1e-2, 1e-2, 1e-3)),  # a repeated rate
        (64, 300, 5, 32, 2, (1e-1, 1e-2, 1e-3, 1e-4)),  # wide
    ])
    def test_cells_match_per_cell_reference(self, n, d, C, batch_size, epochs, lrs):
        rng = np.random.default_rng(n * 1000 + d)
        X = rng.normal(size=(n, d)) * 3.0
        y_idx = rng.integers(0, C, size=n)
        labels = [f"k{i}" for i in range(C)]
        protocol = TrainProtocol(lr_grid=lrs, batch_size=batch_size, max_epochs=epochs)
        weights, biases = _train_softmax(X, y_idx, C, lrs, protocol,
                                         np.random.default_rng(5).spawn(len(lrs)))
        assert weights.shape == (len(lrs), C, d) and biases.shape == (len(lrs), C)
        for k, (lr, cell_rng) in enumerate(zip(lrs, np.random.default_rng(5).spawn(len(lrs)))):
            W, b = train_cell_reference(X, y_idx, labels, lr, protocol, cell_rng)
            assert np.array_equal(weights[k], W)
            assert np.array_equal(biases[k], b)

    def test_fit_returns_the_cell_that_wins_validation(self):
        X, y = make_blobs(n_per_class=30, d=4, seed=12)
        protocol = TrainProtocol(max_epochs=4)
        model = fit(X, y, protocol, np.random.default_rng(3))
        # the same split and cell streams as fit draws them
        rng = np.random.default_rng(3)
        labels = ["k0", "k1"]
        y_idx = np.array([labels.index(v) for v in y])
        train_idx, val_idx = _stratified_split(y_idx, protocol.val_fraction, rng,
                                               min_second=False)
        scored = []
        for lr, cell_rng in zip(protocol.lr_grid, rng.spawn(len(protocol.lr_grid))):
            W, b = train_cell_reference(X[train_idx], y_idx[train_idx], labels, lr,
                                        protocol, cell_rng)
            cell = SoftmaxModel(W, b, labels)
            score = metrics([y[i] for i in val_idx], cell.predict(X[val_idx]), "accuracy")
            scored.append((-score, lr, cell))
        best = min(scored, key=lambda c: (c[0], c[1]))[2]
        assert np.array_equal(model.weights, best.weights)
        assert np.array_equal(model.bias, best.bias)


class TestMetrics:
    def test_perfect_prediction(self):
        assert metrics(["a", "b"], ["a", "b"], "accuracy") == 1.0
        assert metrics(["a", "b"], ["a", "b"], "macro_f1") == 1.0

    def test_hand_computed_macro_f1(self):
        # per-class F1: A -> 2/3, B -> 4/5
        got = metrics(["A", "A", "B", "B"], ["A", "B", "B", "B"], "macro_f1")
        assert got == pytest.approx(0.7333333333333333, abs=1e-12)
        assert metrics(["A", "A", "B", "B"], ["A", "B", "B", "B"], "accuracy") == 0.75

    def test_all_one_class_prediction(self):
        got = metrics(["A", "B", "A", "B"], ["A", "A", "A", "A"], "macro_f1")
        assert got == pytest.approx(0.3333333333333333, abs=1e-12)
        assert metrics(["A", "B", "A", "B"], ["A", "A", "A", "A"], "accuracy") == 0.5

    def test_absent_class_still_counts_via_labels(self):
        got = metrics(["A", "A"], ["A", "A"], "macro_f1", labels=["A", "B"])
        assert got == pytest.approx(0.5)  # B contributes F1 = 0

    def test_macro_f1_equals_accuracy_on_symmetric_confusion(self):
        y_true = ["A"] * 10 + ["B"] * 10
        y_pred = ["A"] * 8 + ["B"] * 2 + ["B"] * 8 + ["A"] * 2
        assert metrics(y_true, y_pred, "macro_f1") == pytest.approx(
            metrics(y_true, y_pred, "accuracy")
        )

    @given(st.permutations(list(range(12))))
    @settings(deadline=None)
    def test_sample_order_invariance(self, perm):
        y_true = ["A", "B", "C"] * 4
        y_pred = ["A", "A", "C", "B"] * 3
        pt = [y_true[i] for i in perm]
        pp = [y_pred[i] for i in perm]
        for kind in ("accuracy", "macro_f1"):
            assert metrics(pt, pp, kind, labels=["A", "B", "C"]) == pytest.approx(
                metrics(y_true, y_pred, kind, labels=["A", "B", "C"])
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            metrics(["a"], ["a", "b"], "accuracy")

    def test_unknown_metric_kind_rejected(self):
        with pytest.raises(InputError):
            metrics(["a"], ["a"], "rmse")


def held_out_score(X, y, protocol, metric_kind="accuracy"):
    """Fit every seeded run once and score each on its own held-out rows."""
    return score_runs(fit_runs(X, y, protocol, metric_kind), X, y, metric_kind, held_out=True)


class TestSubsampleValidate:
    def test_single_run_has_zero_std(self):
        X, y = make_blobs(n_per_class=40, seed=2)
        score = held_out_score(X, y, TrainProtocol(runs=1, seed=0))
        assert len(score.per_run) == 1
        assert score.std == 0.0

    def test_mean_std_consistent_with_per_run(self):
        X, y = make_blobs(n_per_class=40, seed=2)
        score = held_out_score(X, y, TrainProtocol(runs=5, seed=0))
        assert score.mean == pytest.approx(float(np.mean(score.per_run)), abs=1e-12)
        assert score.std == pytest.approx(float(np.std(score.per_run)), abs=1e-12)

    def test_identical_seeds_identical_scores(self):
        X, y = make_blobs(n_per_class=40, seed=6)
        s1 = held_out_score(X, y, TrainProtocol(runs=4, seed=9))
        s2 = held_out_score(X, y, TrainProtocol(runs=4, seed=9))
        assert s1 == s2

    def test_duplicated_dataset_scores_within_noise(self):
        X, y = make_blobs(n_per_class=50, seed=7)
        base = held_out_score(X, y, TrainProtocol(runs=8, seed=3))
        X2 = np.vstack([X, X])
        y2 = y + y
        doubled = held_out_score(X2, y2, TrainProtocol(runs=8, seed=3))
        assert abs(base.mean - doubled.mean) <= 0.05

    def test_degenerate_class_named_in_error(self):
        X = np.zeros((5, 2))
        y = ["a", "a", "a", "a", "lonely"]
        with pytest.raises(InputError, match="lonely"):
            held_out_score(X, y, TrainProtocol(runs=1, seed=0))

    def test_macro_f1_metric_plumbs_through(self):
        X, y = make_blobs(n_per_class=40, seed=8)
        score = held_out_score(X, y, TrainProtocol(runs=2, seed=0), metric_kind="macro_f1")
        assert score.metric == "macro_f1"
        assert 0.0 <= score.mean <= 1.0
