import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmean.classifier
from pmean.classifier import (
    SoftmaxModel,
    TrainProtocol,
    _stratified_split,
    _train_softmax,
    fit,
    fit_runs,
    metrics,
    score_runs,
)
from pmean.errors import InputError, NumericalPolicyError
from pmean.optim import BETA1, BETA2, EPS, AdamState, Layout, adam_step


def softmax_xent(model: SoftmaxModel, X: np.ndarray, y) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy of the model on (X, y) and its exact gradients; y holds class indices.

    The scalar oracle of the classifier: ``_train_softmax`` runs these
    operations in this order, batched over its cells.
    """
    X = np.asarray(X, dtype=np.float64)
    rows = np.arange(X.shape[0])
    logits = model.logits(X)
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    loss = float(np.mean(log_z - logits[rows, y]))
    probs = np.exp(logits - log_z[:, None])
    probs[rows, y] -= 1.0
    probs /= X.shape[0]
    return loss, {"W": probs.T @ X, "b": probs.sum(axis=0)}


def make_blobs(n_per_class=100, d=2, margin_gap=1.0, n_classes=2, seed=0):
    """Linearly separable Gaussian blobs with centers 2+gap apart; y holds class indices."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(n_classes):
        angle = 2 * math.pi * c / n_classes
        center = (2 + margin_gap) * np.array([math.cos(angle), math.sin(angle)])
        pts = center + 0.4 * rng.standard_normal((n_per_class, 2))
        if d > 2:
            pts = np.hstack([pts, rng.standard_normal((n_per_class, d - 2))])
        X.append(pts)
        y.extend([c] * n_per_class)
    return np.vstack(X), np.array(y)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        grads = np.zeros(2)
        state = AdamState.zeros_like(params)
        adam_step(params, grads, state, t=1)
        assert np.array_equal(params, [1.0, -2.0])

    def test_first_step_magnitude_is_step_size(self):
        # bias correction makes m_hat / sqrt(v_hat) = sign(g) at t=1
        params = np.array([0.0])
        grads = np.array([7.3])
        state = AdamState.zeros_like(params)
        adam_step(params, grads, state, t=1, step_size=0.05)
        assert params[0] == pytest.approx(-0.05, rel=1e-6)

    def test_updates_in_place(self):
        def start():
            return (np.array([1.0, -3.0, 0.25]),
                    AdamState(m=np.array([0.1, 0.2, -0.3]), v=np.array([0.4, 0.0, 0.5])))

        grads = np.array([0.5, -2.0, 0.0])
        params, state = start()
        m, v = state.m, state.v
        before = (params.copy(), m.copy(), v.copy())
        assert adam_step(params, grads, state, t=3) is None
        # the caller's arrays hold the stepped values; the gradient is left as it was
        assert state.m is m and state.v is v
        for stepped, old in zip((params, m, v), before):
            assert not np.array_equal(stepped, old)
        assert np.array_equal(grads, [0.5, -2.0, 0.0])
        # two steps from equal copies give equal bytes
        other_params, other_state = start()
        for t in (3, 4):
            adam_step(other_params, grads, other_state, t)
        adam_step(params, grads, state, t=4)
        for a, b in zip((params, m, v), (other_params, other_state.m, other_state.v)):
            assert a.tobytes() == b.tobytes()

    def test_moments_decay_toward_zero_on_zero_grads(self):
        params = np.array([1.0])
        state = AdamState(m=np.array([1.0]), v=np.array([1.0]))
        adam_step(params, np.zeros(1), state, t=5)
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
                adam_step(params, g_t, state, t, step_size=0.01)
            for i, g in enumerate(float(x) for x in g_t):
                m_ref[i] = BETA1 * m_ref[i] + (1 - BETA1) * g
                v_ref[i] = BETA2 * v_ref[i] + (1 - BETA2) * g * g
                m_hat = m_ref[i] / (1 - BETA1**t)
                v_hat = v_ref[i] / (1 - BETA2**t)
                p_ref[i] = p_ref[i] - 0.01 * m_hat / (math.sqrt(v_hat) + EPS)
            for got, want in ((params, p_ref), (state.m, m_ref), (state.v, v_ref)):
                assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("step_size", [2e-3, np.array([[1e-3], [0.5], [3e-7]])],
                             ids=["scalar", "per-row"])
    def test_matches_the_formula_where_bias_correction_rounds_to_one(self, step_size):
        # 1 - BETA1**t is exactly 1.0 from t = 356 on; steps 340-420 cross that
        assert 1 - BETA1**355 < 1 and 1 - BETA1**356 == 1
        rng = np.random.default_rng(7)
        params = rng.normal(size=(3, 40))
        state = AdamState(m=0.1 * rng.normal(size=params.shape), v=0.01 * rng.random(params.shape))
        p_ref, m_ref, v_ref = params.copy(), state.m.copy(), state.v.copy()
        for t in range(340, 421):
            g = rng.normal(size=params.shape)
            adam_step(params, g, state, t, step_size=step_size)
            m_ref = BETA1 * m_ref + (1 - BETA1) * g
            v_ref = BETA2 * v_ref + (1 - BETA2) * g * g
            m_hat = m_ref / (1 - BETA1**t)
            v_hat = v_ref / (1 - BETA2**t)
            p_ref = p_ref - step_size * m_hat / (np.sqrt(v_hat) + EPS)
            for got, want in ((params, p_ref), (state.m, m_ref), (state.v, v_ref)):
                assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("weights, bias, message", [
    (np.zeros(3), np.zeros(3), "shapes disagree with class count"),
    (np.zeros((3, 2)), np.zeros(2), "shapes disagree with class count"),
    (np.zeros((1, 2)), np.zeros(1), "needs at least 2 classes"),
], ids=["flat-weights", "bias-of-other-length", "one-class"])
def test_softmax_model_rejects_what_is_not_a_softmax(weights, bias, message):
    with pytest.raises(InputError, match=message):
        SoftmaxModel(weights, bias)


class TestSoftmaxXent:
    def test_uniform_logits_loss_is_ln_c(self):
        for C in (2, 3, 5):
            model = SoftmaxModel(np.zeros((C, 4)), np.zeros(C))
            X = np.random.default_rng(0).normal(size=(10, 4)) * 0  # zero features
            loss, _ = softmax_xent(model, X, np.zeros(10, dtype=int))
            assert loss == pytest.approx(math.log(C), rel=1e-12)

    def test_confident_correct_logits_near_zero_loss(self):
        model = SoftmaxModel(np.array([[30.0], [-30.0]]), np.zeros(2))
        X = np.array([[1.0], [-1.0]])
        loss, _ = softmax_xent(model, X, [0, 1])
        assert loss < 1e-3

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            C = int(rng.integers(2, 5))
            D = int(rng.integers(1, 7))
            n = int(rng.integers(2, 9))
            model = SoftmaxModel(rng.normal(size=(C, D)), rng.normal(size=C))
            X = rng.normal(size=(n, D))
            y = rng.integers(0, C, size=n)
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
        model = SoftmaxModel(rng.normal(size=(3, 4)), rng.normal(size=3))
        X = rng.normal(size=(50, 4))
        before = model.predict(X)
        shifted = SoftmaxModel(model.weights, model.bias + 11.7)
        assert np.array_equal(shifted.predict(X), before)


class TestFit:
    def test_separable_blobs_high_train_accuracy(self):
        X, y = make_blobs(seed=3)
        model = fit(X, y, TrainProtocol(seed=0), np.random.default_rng(0))
        assert metrics(y, model.predict(X), "accuracy", 2) >= 0.99

    def test_random_labels_stay_near_chance(self):
        rng = np.random.default_rng(8)
        n = 400
        X = rng.standard_normal((n, 4))
        y = rng.integers(0, 2, size=n)
        model = fit(X, y, TrainProtocol(seed=1), np.random.default_rng(1))
        acc = metrics(y, model.predict(X), "accuracy", 2)
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
            fit(X, np.zeros(10, dtype=int), TrainProtocol(), np.random.default_rng(0))

    def test_negative_class_index_rejected(self):
        X, y = make_blobs(n_classes=3, seed=3)
        with pytest.raises(InputError, match="class indices must be non-negative"):
            fit(X, y - 1, TrainProtocol(), np.random.default_rng(0))

    def test_non_finite_winner_raises_naming_its_rate(self):
        X, y = make_blobs(seed=3)
        with pytest.raises(NumericalPolicyError, match=r"learning rate 1e\+308 ended non-finite"):
            fit(X, y, TrainProtocol(lr_grid=(1e308,), max_epochs=2), np.random.default_rng(0))

    def test_diverged_cell_that_loses_is_no_error(self):
        X, y = make_blobs(seed=3)
        protocol = TrainProtocol(lr_grid=(1e308, 0.1), max_epochs=5)
        model = fit(X, y, protocol, np.random.default_rng(0))
        assert np.isfinite(model.weights).all()
        assert metrics(y, model.predict(X), "accuracy", 2) >= 0.99

    @pytest.mark.parametrize("n_per_class, held_out", [(20, True), (3, False)])
    def test_rates_are_scored_on_the_validation_rows(self, monkeypatch, n_per_class, held_out):
        # 10% of 3 rows rounds to none held out, and then the train rows score the rates
        X, y = make_blobs(n_per_class=n_per_class, seed=4)
        protocol = TrainProtocol(max_epochs=2)
        scored = []

        def spy(y_true, y_pred, metric_kind, n_classes):
            scored.append(np.asarray(y_true))
            return metrics(y_true, y_pred, metric_kind, n_classes)

        monkeypatch.setattr(pmean.classifier, "metrics", spy)
        fit(X, y, protocol, np.random.default_rng(6))
        train_idx, val_idx = _stratified_split(y, protocol.val_fraction, np.random.default_rng(6))
        assert (val_idx.size > 0) == held_out
        expected = y[val_idx] if held_out else y[train_idx]
        assert len(scored) == len(protocol.lr_grid)
        assert all(np.array_equal(got, expected) for got in scored)

    def test_loss_nonincreasing_on_separable_data(self):
        X, y = make_blobs(seed=11)
        # training for k epochs from the same seed is the first k epochs of a
        # longer run, so retraining for 1..30 epochs gives the per-epoch losses
        losses = []
        for k in range(1, 31):
            W, b = _train_softmax(X, y, 2, [0.01], TrainProtocol(max_epochs=k, seed=0),
                                  [np.random.default_rng(2)])
            losses.append(softmax_xent(SoftmaxModel(W[0], b[0]), X, y)[0])
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert drops / (len(losses) - 1) >= 0.95


def train_cell_reference(X, y_idx, C, lr, protocol, rng):
    """One learning-rate cell trained on its own: softmax_xent and adam_step per minibatch."""
    n, d = X.shape
    flat = np.concatenate([rng.normal(0.0, 0.01, size=(C, d)).ravel(), np.zeros(C)])
    state = AdamState.zeros_like(flat)
    t = 0
    for _ in range(protocol.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, protocol.batch_size):
            idx = order[start : start + protocol.batch_size]
            model = SoftmaxModel(flat[: C * d].reshape(C, d), flat[C * d :])
            _, grads = softmax_xent(model, X[idx], y_idx[idx])
            t += 1
            adam_step(flat, np.concatenate([grads["W"].ravel(), grads["b"]]), state, t,
                      step_size=lr)
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
        protocol = TrainProtocol(lr_grid=lrs, batch_size=batch_size, max_epochs=epochs)
        weights, biases = _train_softmax(X, y_idx, C, lrs, protocol,
                                         np.random.default_rng(5).spawn(len(lrs)))
        assert weights.shape == (len(lrs), C, d) and biases.shape == (len(lrs), C)
        for k, (lr, cell_rng) in enumerate(zip(lrs, np.random.default_rng(5).spawn(len(lrs)))):
            W, b = train_cell_reference(X, y_idx, C, lr, protocol, cell_rng)
            assert np.array_equal(weights[k], W)
            assert np.array_equal(biases[k], b)

    def test_fit_returns_the_cell_that_wins_validation(self):
        X, y = make_blobs(n_per_class=30, d=4, seed=12)
        protocol = TrainProtocol(max_epochs=4)
        model = fit(X, y, protocol, np.random.default_rng(3))
        # the same split and cell streams as fit draws them
        rng = np.random.default_rng(3)
        train_idx, val_idx = _stratified_split(y, protocol.val_fraction, rng)
        scored = []
        for lr, cell_rng in zip(protocol.lr_grid, rng.spawn(len(protocol.lr_grid))):
            W, b = train_cell_reference(X[train_idx], y[train_idx], 2, lr, protocol, cell_rng)
            cell = SoftmaxModel(W, b)
            score = metrics(y[val_idx], cell.predict(X[val_idx]), "accuracy", 2)
            scored.append((-score, lr, cell))
        best = min(scored, key=lambda c: (c[0], c[1]))[2]
        assert np.array_equal(model.weights, best.weights)
        assert np.array_equal(model.bias, best.bias)


def stratified_split_reference(y, fraction, rng, classes=None):
    """_stratified_split one class at a time in plain Python, over sorted(set(y)) without classes."""
    labels = sorted(set(y.tolist())) if classes is None else range(len(classes))
    first, second = [], []
    for cls in labels:
        members = [i for i, label in enumerate(y.tolist()) if label == cls]
        if classes is not None and len(members) < 2:
            raise InputError(f"class {classes[cls]!r} has only {len(members)} samples")
        members = rng.permutation(np.array(members, dtype=np.intp)).tolist()
        k = min(max(round(fraction * len(members)), 0 if classes is None else 1),
                len(members) - 1)
        second += members[:k]
        first += members[k:]
    return sorted(first), sorted(second)


class TestStratifiedSplit:
    FRACTIONS = [0.0, 0.2, 0.4, 0.5, 0.7, 1.0]

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("seed", range(3))
    def test_classes_with_gaps_match_the_reference(self, fraction, seed):
        y = np.array([5, 2, 0, 5, 2, 5])  # classes {0, 2, 5} of sizes 1, 2 and 3
        first, second = _stratified_split(y, fraction, np.random.default_rng(seed))
        assert first.dtype == second.dtype == np.intp
        want = stratified_split_reference(y, fraction, np.random.default_rng(seed))
        assert (first.tolist(), second.tolist()) == want

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("seed", range(3))
    def test_named_classes_of_two_and_three_match_the_reference(self, fraction, seed):
        y = np.array([1, 0, 2, 1, 2, 0, 2, 1])  # sizes 2, 3 and 3
        classes = ("a", "b", "c")
        first, second = _stratified_split(y, fraction, np.random.default_rng(seed), classes)
        want = stratified_split_reference(y, fraction, np.random.default_rng(seed), classes)
        assert (first.tolist(), second.tolist()) == want
        for cls in range(len(classes)):  # one of each class on each side
            assert cls in y[first] and cls in y[second]


class TestMetrics:
    def test_perfect_prediction(self):
        assert metrics([0, 1], [0, 1], "accuracy", 2) == 1.0
        assert metrics([0, 1], [0, 1], "macro_f1", 2) == 1.0

    def test_hand_computed_macro_f1(self):
        # per-class F1: 0 -> 2/3, 1 -> 4/5
        got = metrics([0, 0, 1, 1], [0, 1, 1, 1], "macro_f1", 2)
        assert got == pytest.approx(0.7333333333333333, abs=1e-12)
        assert metrics([0, 0, 1, 1], [0, 1, 1, 1], "accuracy", 2) == 0.75

    def test_all_one_class_prediction(self):
        got = metrics([0, 1, 0, 1], [0, 0, 0, 0], "macro_f1", 2)
        assert got == pytest.approx(0.3333333333333333, abs=1e-12)
        assert metrics([0, 1, 0, 1], [0, 0, 0, 0], "accuracy", 2) == 0.5

    def test_absent_class_still_counts_via_labels(self):
        got = metrics([0, 0], [0, 0], "macro_f1", 2)
        assert got == pytest.approx(0.5)  # class 1 contributes F1 = 0

    def test_macro_f1_equals_accuracy_on_symmetric_confusion(self):
        y_true = [0] * 10 + [1] * 10
        y_pred = [0] * 8 + [1] * 2 + [1] * 8 + [0] * 2
        assert metrics(y_true, y_pred, "macro_f1", 2) == pytest.approx(
            metrics(y_true, y_pred, "accuracy", 2)
        )

    @given(st.permutations(list(range(12))))
    @settings(deadline=None)
    def test_sample_order_invariance(self, perm):
        y_true = [0, 1, 2] * 4
        y_pred = [0, 0, 2, 1] * 3
        pt = [y_true[i] for i in perm]
        pp = [y_pred[i] for i in perm]
        for kind in ("accuracy", "macro_f1"):
            assert metrics(pt, pp, kind, 3) == pytest.approx(metrics(y_true, y_pred, kind, 3))

    @given(st.integers(2, 8).flatmap(lambda C: st.tuples(
        st.just(C),
        st.lists(st.tuples(st.integers(0, C - 1), st.integers(0, C - 1)), min_size=1, max_size=60),
        st.booleans(),
    )))
    @settings(deadline=None, max_examples=300)
    def test_matches_per_class_loop_bit_for_bit(self, case):
        C, pairs, one_prediction = case
        y_true = [t for t, _ in pairs]
        y_pred = [pairs[0][1]] * len(pairs) if one_prediction else [p for _, p in pairs]
        names = [f"class{i}" for i in range(C)]
        true_names = [names[i] for i in y_true]
        pred_names = [names[i] for i in y_pred]
        for kind in ("accuracy", "macro_f1"):
            got = metrics(np.array(y_true), np.array(y_pred), kind, C)
            want = per_class_loop_metrics(true_names, pred_names, kind, names)
            assert got.hex() == want.hex()

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            metrics([0], [0, 1], "accuracy", 2)

    def test_unknown_metric_kind_rejected(self):
        with pytest.raises(InputError):
            metrics([0], [0], "rmse", 2)


def per_class_loop_metrics(y_true, y_pred, metric_kind, labels):
    """Accuracy or macro-F1 over label strings, one Python loop per class in ``labels``."""
    if metric_kind == "accuracy":
        return float(np.mean([t == p for t, p in zip(y_true, y_pred)]))
    f1s = []
    for lab in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == lab and p == lab)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != lab and p == lab)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == lab and p != lab)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


def held_out_score(X, y, protocol, metric_kind="accuracy", classes=("k0", "k1")):
    """Fit every seeded run once and score each on its own held-out rows."""
    runs = fit_runs(X, y, classes, protocol, metric_kind)
    return score_runs(runs, X, y, metric_kind, held_out=True)


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
        y2 = np.concatenate([y, y])
        doubled = held_out_score(X2, y2, TrainProtocol(runs=8, seed=3))
        assert abs(base.mean - doubled.mean) <= 0.05

    def test_degenerate_class_named_in_error(self):
        X = np.zeros((5, 2))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(InputError, match="lonely"):
            held_out_score(X, y, TrainProtocol(runs=1, seed=0), classes=["a", "lonely"])

    def test_class_without_items_named_in_error(self):
        X, y = make_blobs(n_per_class=10, seed=2)
        with pytest.raises(InputError, match="class 'empty' has only 0 samples"):
            held_out_score(X, y, TrainProtocol(runs=1, seed=0), classes=["k0", "k1", "empty"])

    def test_overflowing_logits_raise_instead_of_scoring(self):
        # finite weights, but a scored row far larger than any trained on
        runs = [(SoftmaxModel(weights=np.array([[10.0], [-10.0]]), bias=np.zeros(2)), None, None)]
        with pytest.raises(NumericalPolicyError, match="logits overflow"):
            score_runs(runs, np.array([[1.0], [1e308]]), np.array([0, 1]))

    def test_macro_f1_metric_plumbs_through(self):
        X, y = make_blobs(n_per_class=40, seed=8)
        score = held_out_score(X, y, TrainProtocol(runs=2, seed=0), metric_kind="macro_f1")
        assert score.metric == "macro_f1"
        assert 0.0 <= score.mean <= 1.0
