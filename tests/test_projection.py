import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pmean.projection
from pmean.embeddings import EmbeddingSpace
from pmean.errors import DimensionError, FormatError, InputError, NumericalPolicyError
from pmean.manifest import write_atomic
from pmean.optim import BETA1, BETA2, EPS, Layout
from pmean.projection import (
    ParallelCorpus,
    ProjectionModel,
    ProjectionTrainConfig,
    hinge_loss_grads,
    init_projection,
    load_projection,
    project,
    project_space,
    projection_json,
    train_projection,
    _clipped_mean,
    _derangement,
    _drop_out,
    _epoch_loss,
    _hinge_terms,
    _project_triples,
    _row_norms,
)
from test_acceptance import cosine, hinge_loss

TANH_1 = 0.7615941559557649  # math.tanh(1.0)


def new_arrays(params):
    """An ``out`` for hinge_loss_grads: a new array shaped like each parameter."""
    return {name: np.empty_like(p) for name, p in params.items()}


def forward_terms(params, Xs, Xt, Xu, margin):
    """The per-triple terms ``hinge_loss_grads`` returns, from its forward pass alone."""
    R = _project_triples(params, Xs, Xt, Xu)[3]
    return _hinge_terms(R, _row_norms(R * R), margin)[0]


def mean_hinge_loss(params, Xs, Xt, Xu, margin):
    """The batch loss of ``forward_terms``: the oracle that the trainer's epoch-end
    loss ``_epoch_loss`` is checked against."""
    return _clipped_mean(forward_terms(params, Xs, Xt, Xu, margin))


def fd_grads(model, xs, xt, xu, h=1e-5):
    """Central-difference gradients of hinge_loss; independent of the analytic path."""
    out = {}
    for name in ("W_l", "b_l", "W_k", "b_k"):
        arr = getattr(model, name)
        num = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            lp = hinge_loss(model, xs, xt, xu)
            arr[i] = orig - h
            lm = hinge_loss(model, xs, xt, xu)
            arr[i] = orig
            num[i] = (lp - lm) / (2 * h)
        out[name] = num
    return out


class TestInit:
    def test_deterministic_per_seed(self):
        m1 = init_projection(4, 5, 3, seed=9)
        m2 = init_projection(4, 5, 3, seed=9)
        for name in ("W_l", "b_l", "W_k", "b_k"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

    def test_biases_zero(self):
        m = init_projection(4, 5, 3, seed=0)
        assert not m.b_l.any() and not m.b_k.any()

    def test_scalar_weight_bound(self):
        # fan-based bound: |w| <= sqrt(6 / (1 + 1)) = sqrt(3)
        for seed in range(20):
            m = init_projection(1, 1, 1, seed=seed)
            assert abs(m.W_l[0, 0]) <= 1.7320508075688772
            assert abs(m.W_k[0, 0]) <= 1.7320508075688772

    @pytest.mark.parametrize("e, f, d", [(0, 5, 3), (4, -1, 3), (4, 5, 0)])
    def test_rejects_a_non_positive_dim(self, e, f, d):
        with pytest.raises(InputError, match="projection dims must be positive"):
            init_projection(e, f, d, seed=0)

    def test_dims(self):
        m = init_projection(4, 5, 3, seed=0)
        assert m.dims == (4, 5, 3)
        assert m.W_l.shape == (3, 4) and m.W_k.shape == (3, 5)

    @pytest.mark.parametrize("e, f, d, seed", [(4, 5, 3, 0), (1, 7, 2, 9), (30, 2, 5, 4)])
    def test_weights_are_the_glorot_uniform_draw(self, e, f, d, seed):
        # redrawn from the formula, U(-a, a) with a = sqrt(6 / (fan_in + d)), so a
        # changed constant moves the weights even where they stay within a bound
        rng = np.random.default_rng(seed)
        a_l, a_k = math.sqrt(6 / (e + d)), math.sqrt(6 / (f + d))
        m = init_projection(e, f, d, seed=seed)
        assert np.array_equal(m.W_l, rng.uniform(-a_l, a_l, size=(d, e)))
        assert np.array_equal(m.W_k, rng.uniform(-a_k, a_k, size=(d, f)))


class TestCorpus:
    def test_rejects_no_pairs_and_takes_one(self):
        with pytest.raises(InputError, match="parallel corpus is empty"):
            ParallelCorpus(np.ones((0, 3)), np.ones((0, 2)))
        assert len(ParallelCorpus(np.ones((1, 3)), np.ones((1, 2)))) == 1

    @pytest.mark.parametrize("source, target, error, message", [
        (np.ones((3, 2)), np.ones((2, 2)), DimensionError, "pair counts differ"),
        (np.ones((2, 2)), [[1.0, math.nan], [1.0, 1.0]], InputError, "non-finite vectors"),
        ([[math.inf, 1.0], [1.0, 1.0]], np.ones((2, 2)), InputError, "non-finite vectors"),
    ], ids=["pair-counts", "nan-target", "inf-source"])
    def test_rejects_pairs_that_do_not_align(self, source, target, error, message):
        with pytest.raises(error, match=message):
            ParallelCorpus(source, target)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_derangement_is_a_permutation_without_fixed_points(self, n, seed):
        # at small n the draw often fixes one point or two, which the repair must move
        perm = _derangement(np.random.default_rng(seed), n)
        assert sorted(perm.tolist()) == list(range(n))
        assert not (perm == np.arange(n)).any()


class TestProject:
    def test_zero_maps_to_zero(self):
        m = init_projection(3, 3, 2, seed=1)
        assert project(m, "source", np.zeros(3)) == pytest.approx([0.0, 0.0])

    def test_outputs_inside_open_unit_interval(self):
        m = init_projection(6, 6, 4, seed=2)
        rng = np.random.default_rng(0)
        out = project(m, "source", rng.normal(0, 3, size=(50, 6)))
        assert (np.abs(out) < 1.0).all()

    def test_scalar_tanh_value(self):
        m = ProjectionModel(W_l=np.array([[1.0]]), b_l=np.zeros(1),
                            W_k=np.array([[1.0]]), b_k=np.zeros(1))
        assert project(m, "source", np.array([1.0])) == pytest.approx([TANH_1], abs=1e-12)

    def test_dim_mismatch(self):
        m = init_projection(3, 4, 2, seed=0)
        with pytest.raises(DimensionError):
            project(m, "source", np.zeros(4))
        with pytest.raises(InputError):
            project(m, "sideways", np.zeros(3))


class TestCosine:
    def test_self_similarity(self):
        u = np.array([0.3, -2.0, 1.0])
        assert cosine(u, u) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antiparallel(self):
        u = np.array([1.0, 2.0])
        assert cosine(u, -u) == pytest.approx(-1.0)

    def test_zero_norm_guard(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0


class TestHingeLoss:
    def setup_method(self):
        # identity maps on 2-d inputs keep the geometry easy to stage
        self.model = ProjectionModel(W_l=np.eye(2) * 5, b_l=np.zeros(2),
                                     W_k=np.eye(2) * 5, b_k=np.zeros(2), margin=0.5)

    def test_zero_when_margin_satisfied(self):
        # r_s == r_t, r_u orthogonal: sims are 1 and 0
        assert hinge_loss(self.model, [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_equals_margin_when_sims_cancel(self):
        # x_t == x_u puts the same vector in both similarity slots
        x = [0.4, 0.2]
        assert hinge_loss(self.model, [1.0, 1.0], x, x) == pytest.approx(0.5)

    def test_plain_formula_value(self):
        # sim(s,t)=0 and sim(s,u)=0 leaves exactly the margin
        loss = hinge_loss(self.model, [1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
        assert loss == pytest.approx(0.5 - 0.0 + 0.0)

    def test_scale_invariance_through_cosine(self):
        # the loss depends on its vectors only through cosines, so positive
        # rescaling at the cosine level cannot change it
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = rng.normal(size=(3, 4))
            s, t, u = rng.uniform(0.1, 10, size=3)
            base = max(0.0, 0.5 - cosine(a, b) + cosine(a, c))
            scaled = max(0.0, 0.5 - cosine(s * a, t * b) + cosine(s * a, u * c))
            assert scaled == pytest.approx(base, rel=1e-12)


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            e, f, d = rng.integers(1, 6, size=3)
            model = init_projection(int(e), int(f), int(d), seed=int(rng.integers(1 << 30)))
            xs = rng.normal(size=int(e))
            xt = rng.normal(size=int(f))
            xu = rng.normal(size=int(f))
            params = model.params()
            _, grads = hinge_loss_grads(params, xs, xt, xu, model.margin, new_arrays(params))
            # skip kink-adjacent and degenerate-norm draws
            r_s = project(model, "source", xs)
            r_t = project(model, "target", xt)
            r_u = project(model, "target", xu)
            delta = model.margin - cosine(r_s, r_t) + cosine(r_s, r_u)
            if abs(delta) < 1e-3:
                continue
            if min(np.linalg.norm(r) for r in (r_s, r_t, r_u)) < 1e-6:
                continue
            num = fd_grads(model, xs, xt, xu)
            for name in grads:
                a, b = grads[name].ravel(), num[name].ravel()
                rel = np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))
                assert rel.max() < 1e-4, f"{name}: rel err {rel.max()}"
            checked += 1

    def test_inactive_hinge_has_zero_gradient(self):
        model = ProjectionModel(W_l=np.eye(2), b_l=np.zeros(2),
                                W_k=np.eye(2), b_k=np.zeros(2), margin=0.5)
        params = model.params()
        losses, grads = hinge_loss_grads(params, [3.0, 0.0], [3.0, 0.0], [-3.0, 0.0],
                                         model.margin, new_arrays(params))
        assert losses.shape == (1,) and losses[0] < 0.0  # about 0.5 - 1 - 1
        assert _clipped_mean(losses) == 0.0
        assert all(not g.any() for g in grads.values())


def triple_batch(rows=200, e=5, f=4, d=3, seed=3):
    rng = np.random.default_rng(seed)
    model = init_projection(e, f, d, seed=seed)
    model.b_l = rng.normal(size=d)
    model.b_k = rng.normal(size=d)
    return model, rng.normal(size=(rows, e)), rng.normal(size=(rows, f)), rng.normal(size=(rows, f))


def zero_target_map(model, xs):
    """Every projected target and negative row is zero, so every triple is guarded."""
    model.W_k = np.zeros_like(model.W_k)
    model.b_k = np.zeros_like(model.b_k)
    return np.ones(len(xs), dtype=bool)


def zero_some_sources(model, xs):
    """Every third source row projects to zero; the other triples are unguarded."""
    model.b_l = np.zeros_like(model.b_l)
    guarded = np.arange(len(xs)) % 3 == 0
    xs[guarded] = 0.0
    return guarded


class TestClippedMean:
    def test_in_range_means_keep_the_plain_arithmetic(self):
        rng = np.random.default_rng(4)
        for scale in (1e-300, 1.0, 1e300):
            losses = rng.normal(size=(50, 16)) * scale
            for row in losses:
                assert _clipped_mean(row) == float(np.maximum(row, 0.0).mean())

    def test_overflowing_sum_gives_the_scaled_mean(self):
        losses = np.full(16, 1e308)
        losses[3] = -1.0
        assert _clipped_mean(losses) == 1e308 * float((np.maximum(losses, 0.0) / 1e308).mean())
        assert np.isfinite(_clipped_mean(np.full(16, 1.7e308)))

    def test_an_infinite_loss_stays_infinite(self):
        assert _clipped_mean(np.array([np.inf, 1.0])) == np.inf


class TestLossOnlyForward:
    @pytest.mark.parametrize("guard", [None, zero_target_map, zero_some_sources])
    def test_equals_loss_of_gradient_pass(self, guard):
        model, xs, xt, xu = triple_batch()
        if guard is not None:
            guard(model, xs)
        params = model.params()
        losses, _ = hinge_loss_grads(params, xs, xt, xu, model.margin, new_arrays(params))
        assert mean_hinge_loss(model.params(), xs, xt, xu, model.margin) == _clipped_mean(losses)

    @pytest.mark.parametrize("guard", [None, zero_target_map, zero_some_sources])
    def test_terms_equal_the_forward_pass_and_the_scalar_oracle(self, guard):
        model, xs, xt, xu = triple_batch()
        if guard is not None:
            guard(model, xs)
        params = model.params()
        losses, _ = hinge_loss_grads(params, xs, xt, xu, model.margin, new_arrays(params))
        assert losses.shape == (len(xs),)
        assert losses.tobytes() == forward_terms(params, xs, xt, xu, model.margin).tobytes()
        per_triple = [hinge_loss(model, a, b, c) for a, b, c in zip(xs, xt, xu)]
        assert np.maximum(losses, 0.0) == pytest.approx(per_triple, rel=0, abs=1e-12)
        # the terms are returned unclipped: margin - cos_st + cos_su of each triple
        rs, rt, ru = (project(model, side, x) for side, x in
                      (("source", xs), ("target", xt), ("target", xu)))
        unclipped = [model.margin - cosine(a, b) + cosine(a, c) for a, b, c in zip(rs, rt, ru)]
        assert losses == pytest.approx(unclipped, rel=0, abs=1e-12)

    @pytest.mark.parametrize("guard", [None, zero_target_map, zero_some_sources])
    def test_epoch_loss_equals_the_forward_pass_bit_for_bit(self, guard):
        # the epoch-end loss gathers the negatives' projections from the target
        # rows' instead of projecting them; the oracle projects all three sides
        model, xs, xt, _ = triple_batch()
        if guard is not None:
            guard(model, xs)
        negatives = _derangement(np.random.default_rng(8), len(xs))
        corpus = ParallelCorpus(xs, xt)
        want = mean_hinge_loss(model.params(), xs, xt, xt[negatives], model.margin)
        assert _epoch_loss(model.params(), corpus, negatives, model.margin) == want

    @pytest.mark.parametrize("guard", [zero_target_map, zero_some_sources])
    def test_guarded_batch_matches_scalar_loss(self, guard):
        model, xs, xt, xu = triple_batch()
        guarded = guard(model, xs)
        params = model.params()
        losses, grads = hinge_loss_grads(params, xs, xt, xu, model.margin, new_arrays(params))
        per_triple = [hinge_loss(model, a, b, c) for a, b, c in zip(xs, xt, xu)]
        assert _clipped_mean(losses) == pytest.approx(np.mean(per_triple), abs=1e-12)
        assert all(np.isfinite(g).all() for g in grads.values())
        # a guarded triple adds nothing to the gradient sum
        keep = ~guarded
        if not keep.any():
            assert not any(g.any() for g in grads.values())
            return
        _, sub = hinge_loss_grads(params, xs[keep], xt[keep], xu[keep], model.margin,
                                  new_arrays(params))
        for name, g in grads.items():
            assert g * len(xs) == pytest.approx(sub[name] * keep.sum(), rel=1e-12, abs=1e-12)


class TestGradientBuffer:
    @pytest.mark.parametrize("guard", [None, zero_target_map, zero_some_sources])
    def test_out_views_receive_the_allocating_bytes(self, guard):
        model, xs, xt, xu = triple_batch(rows=7)
        if guard is not None:
            guard(model, xs)
        params = model.params()
        layout = Layout(params)
        gflat = np.full(sum(p.size for p in params.values()), np.nan)
        views = layout.views(gflat)
        losses, grads = hinge_loss_grads(params, xs, xt, xu, model.margin, out=views)
        assert grads is views
        for g in grads.values():
            assert np.shares_memory(g, gflat)
        want_losses, want = hinge_loss_grads(params, xs, xt, xu, model.margin,
                                             new_arrays(params))
        assert losses.tobytes() == want_losses.tobytes()
        assert gflat.tobytes() == layout.pack(want).tobytes()
        ref_loss, ref = reference_hinge(params, xs, xt, xu, model.margin)
        assert _clipped_mean(losses) == ref_loss
        assert gflat.tobytes() == layout.pack(ref).tobytes()


def reference_hinge(params, Xs, Xt, Xu, margin):
    """Mean hinge loss and gradients the way they were first computed: row norms
    from ``np.linalg.norm`` and a new array for every result."""
    Rs = np.tanh(Xs @ params["W_l"].T + params["b_l"])
    Rt = np.tanh(Xt @ params["W_k"].T + params["b_k"])
    Ru = np.tanh(Xu @ params["W_k"].T + params["b_k"])
    ns, nt, nu = (np.linalg.norm(R, axis=1, keepdims=True) for R in (Rs, Rt, Ru))
    small_s, small_t, small_u = ns < 1e-12, nt < 1e-12, nu < 1e-12
    g_st, g_su = small_s | small_t, small_s | small_u
    ns, nt, nu = np.where(small_s, 1.0, ns), np.where(small_t, 1.0, nt), np.where(small_u, 1.0, nu)
    n_st, n_su = ns * nt, ns * nu
    cos_st = np.where(g_st, 0.0, (Rs * Rt).sum(axis=1, keepdims=True) / n_st)
    cos_su = np.where(g_su, 0.0, (Rs * Ru).sum(axis=1, keepdims=True) / n_su)
    losses = margin - cos_st[:, 0] + cos_su[:, 0]
    B = len(Xs)
    active = (losses > 0).astype(np.float64)[:, None]
    d_st_s = np.where(g_st, 0.0, Rt / n_st - cos_st * Rs / ns**2)
    d_st_t = np.where(g_st, 0.0, Rs / n_st - cos_st * Rt / nt**2)
    d_su_s = np.where(g_su, 0.0, Ru / n_su - cos_su * Rs / ns**2)
    d_su_u = np.where(g_su, 0.0, Rs / n_su - cos_su * Ru / nu**2)
    dZs = (-d_st_s + d_su_s) * active / B * (1.0 - Rs**2)
    dZt = -d_st_t * active / B * (1.0 - Rt**2)
    dZu = d_su_u * active / B * (1.0 - Ru**2)
    grads = {"W_l": dZs.T @ Xs, "b_l": dZs.sum(axis=0),
             "W_k": dZt.T @ Xt + dZu.T @ Xu, "b_k": dZt.sum(axis=0) + dZu.sum(axis=0)}
    return float(np.maximum(losses, 0.0).mean()), grads


def reference_train(corpus, cfg):
    """The training loop with fresh arrays every step: ``reference_hinge``,
    ``Layout.pack`` and Adam written out from its formula."""
    n = len(corpus)
    init = init_projection(corpus.source.shape[1], corpus.target.shape[1],
                           cfg.shared_dim, cfg.seed).params()
    layout = Layout(init)
    flat = layout.pack(init)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    rng = np.random.default_rng(cfg.seed)
    keep = 1.0 - cfg.dropout_rate
    history, t = [], 0
    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        negatives = _derangement(rng, n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xs, xt, xu = corpus.source[idx], corpus.target[idx], corpus.target[negatives[idx]]
            if cfg.dropout_rate > 0:
                xs = xs * (rng.random(xs.shape) < keep) / keep
                xt = xt * (rng.random(xt.shape) < keep) / keep
                xu = xu * (rng.random(xu.shape) < keep) / keep
            _, grads = reference_hinge(layout.views(flat), xs, xt, xu, cfg.margin)
            g = layout.pack(grads)
            t += 1
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            m_hat = m / (1 - BETA1**t)
            v_hat = v / (1 - BETA2**t)
            flat = flat - cfg.step_size * m_hat / (np.sqrt(v_hat) + EPS)
        history.append(reference_hinge(layout.views(flat), corpus.source, corpus.target,
                                       corpus.target[negatives], cfg.margin)[0])
    return layout.views(flat), history


class TestTrainerMatchesReference:
    """The in-place trainer equals the allocating loop bit for bit."""

    @pytest.mark.parametrize("n, e, f, d, batch_size, epochs, dropout, zero_rows", [
        (9, 4, 4, 3, 1, 2, 0.5, False),  # batch size 1
        (23, 5, 5, 4, 5, 3, 0.0, False),  # ragged last batch, no dropout
        (30, 7, 3, 5, 8, 3, 0.5, False),  # e != f
        (20, 3, 6, 4, 6, 2, 0.0, True),  # zero rows trip the norm guard
        (16, 3, 2, 2, 4, 2, 0.5, True),  # guarded rows under dropout
        (12, 4, 3, 3, 16, 0, 0.5, False),  # no epochs: the init is returned
        (9, 4, 4, 3, 1, 45, 0.5, False),  # 405 steps: Adam's bias correction is 1.0 from 356
        # 320 x 64 x 64 is past OpenBLAS's small-matrix limit (M*N*K <= 1e6 on
        # SkylakeX), so the epoch-end gather is checked against the blocked product
        (320, 64, 64, 64, 32, 2, 0.5, False),
        # the last batch is one row of the reused gather and dropout buffers
        (17, 4, 4, 3, 8, 2, 0.5, True),
    ])
    def test_weights_and_history_equal(self, n, e, f, d, batch_size, epochs, dropout,
                                       zero_rows):
        rng = np.random.default_rng(n * 100 + e)
        source, target = rng.normal(size=(n, e)), rng.normal(size=(n, f))
        if zero_rows:
            source[::3] = 0.0
            target[1::4] = 0.0
        corpus = ParallelCorpus(source, target)
        cfg = ProjectionTrainConfig(shared_dim=d, batch_size=batch_size, max_epochs=epochs,
                                    dropout_rate=dropout, step_size=2e-2, seed=n)
        model, history = train_projection(corpus, cfg)
        want, want_history = reference_train(corpus, cfg)
        assert history == want_history
        for name, arr in want.items():
            assert np.array_equal(getattr(model, name), arr)

    def test_a_batch_size_above_the_corpus_size_is_one_batch_of_the_corpus(self):
        # the reused gather and dropout buffers hold one batch, never more than n rows,
        # so a batch size of 10**12 allocates for the 3 pairs alone
        rng = np.random.default_rng(3)
        corpus = ParallelCorpus(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))
        (model, history), (huge, huge_history) = (
            train_projection(corpus, ProjectionTrainConfig(
                shared_dim=2, batch_size=batch_size, max_epochs=4, dropout_rate=0.5, seed=1))
            for batch_size in (3, 10**12))
        assert np.array(huge_history).tobytes() == np.array(history).tobytes()
        for name, arr in model.params().items():
            assert getattr(huge, name).tobytes() == arr.tobytes()


class TestDropOut:
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 9), e=st.integers(1, 7), f=st.integers(1, 7),
           keep=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_one_draw_equals_a_draw_per_side(self, m, e, f, keep, seed):
        # the trainer's stacked buffer: source, target and negative rows side after side
        x = np.random.default_rng(seed + 1).normal(size=m * (e + 2 * f))
        sides = [side.reshape(m, -1) for side in np.split(x, [m * e, m * (e + f)])]
        want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [side * (want_rng.random(side.shape) < keep) / keep for side in sides]
        _drop_out(rng, x, np.empty_like(x), keep)
        assert x.tobytes() == b"".join(w.tobytes() for w in want)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def identity_corpus(n=200, dim=6, seed=5):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(n, dim))
    return ParallelCorpus(source=src, target=src.copy())


class TestTraining:
    def test_identity_corpus_loss_collapses(self):
        corpus = identity_corpus()
        cfg = ProjectionTrainConfig(shared_dim=6, max_epochs=100, batch_size=8,
                                    step_size=3e-3, seed=2)
        model, history = train_projection(corpus, cfg)
        assert len(history) == 100
        assert history[-1] < 0.1 * history[0]

    def test_non_finite_training_raises_naming_the_setting(self):
        cfg = ProjectionTrainConfig(shared_dim=4, max_epochs=2, seed=2, step_size=1e308)
        want = re.escape("projection training with margin 0.5 and step size 1e+308 gave non-finite")
        with pytest.raises(NumericalPolicyError, match=want):  # the weights overflow
            train_projection(identity_corpus(n=20), cfg)

    def test_margin_near_float_max_gives_a_finite_history(self):
        # each loss is 1e308 (the cosines vanish at its ulp), so their sum overflows;
        # the mean is taken over the losses scaled by their largest instead
        cfg = ProjectionTrainConfig(shared_dim=4, max_epochs=2, seed=2, margin=1e308)
        model, history = train_projection(identity_corpus(n=20), cfg)
        assert history == [1e308, 1e308]
        assert np.isfinite(model.W_l).all()

    def test_zero_epochs_returns_init(self):
        corpus = identity_corpus()
        cfg = ProjectionTrainConfig(shared_dim=4, max_epochs=0, seed=2)
        model, history = train_projection(corpus, cfg)
        init = init_projection(6, 6, 4, seed=2)
        init.margin = cfg.margin
        assert history == []
        assert np.array_equal(model.W_l, init.W_l)
        assert np.array_equal(model.W_k, init.W_k)

    def test_bit_identical_histories_per_seed(self):
        corpus = identity_corpus()
        cfg = ProjectionTrainConfig(shared_dim=4, max_epochs=12, seed=7)
        _, h1 = train_projection(corpus, cfg)
        _, h2 = train_projection(corpus, cfg)
        assert h1 == h2

    def test_no_dropout_fixed_data_is_deterministic(self):
        corpus = identity_corpus()
        cfg = ProjectionTrainConfig(shared_dim=4, max_epochs=8, dropout_rate=0.0, seed=3)
        m1, h1 = train_projection(corpus, cfg)
        m2, h2 = train_projection(corpus, cfg)
        assert h1 == h2
        assert np.array_equal(m1.W_l, m2.W_l) and np.array_equal(m1.b_k, m2.b_k)

    def test_builds_one_model_at_return(self, monkeypatch):
        # init_projection's model and the returned one; the loop steps a flat vector
        builds = []
        real = pmean.projection.ProjectionModel

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pmean.projection, "ProjectionModel", counting)
        cfg = ProjectionTrainConfig(shared_dim=4, max_epochs=3, batch_size=16, seed=0)
        model, history = train_projection(identity_corpus(), cfg)
        assert len(builds) == 2
        assert isinstance(model, real) and model.margin == cfg.margin
        assert len(history) == 3

    @pytest.mark.parametrize("n, batch_size, epochs, dropout", [
        (23, 5, 3, 0.5),  # ragged last batch of 3
        (23, 5, 3, 0.0),  # no dropout
        (9, 16, 2, 0.5),  # one batch an epoch, smaller than batch_size
    ])
    def test_one_gradient_and_one_adam_step_per_minibatch(self, monkeypatch, n, batch_size,
                                                          epochs, dropout):
        # perfbench's tracer counts these two calls as module attributes, as patched here
        calls = {"hinge_loss_grads": 0, "adam_step": 0}
        for name in calls:
            real = getattr(pmean.projection, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(pmean.projection, name, counting)
        cfg = ProjectionTrainConfig(shared_dim=3, batch_size=batch_size, max_epochs=epochs,
                                    dropout_rate=dropout, seed=1)
        train_projection(identity_corpus(n=n, dim=4), cfg)
        steps = epochs * math.ceil(n / batch_size)
        assert calls == {"hinge_loss_grads": steps, "adam_step": steps}

    def test_too_small_corpus_rejected(self):
        cfg = ProjectionTrainConfig(shared_dim=2, max_epochs=2)
        with pytest.raises(InputError, match="at least 2 pairs"):
            train_projection(ParallelCorpus(np.ones((1, 3)), np.ones((1, 3))), cfg)
        _, history = train_projection(ParallelCorpus(np.eye(2, 3), np.eye(2, 3)), cfg)
        assert len(history) == 2 and all(map(math.isfinite, history))

    def test_true_pairs_beat_mismatched_by_margin(self):
        corpus = identity_corpus(seed=9)
        cfg = ProjectionTrainConfig(shared_dim=6, max_epochs=100, batch_size=8,
                                    step_size=3e-3, seed=1)
        model, _ = train_projection(corpus, cfg)
        ps = project(model, "source", corpus.source)
        pt = project(model, "target", corpus.target)
        n = len(corpus)
        ok = 0
        for i in range(n):
            true_sim = cosine(ps[i], pt[i])
            others = [cosine(ps[i], pt[j]) for j in range(0, n, 5) if j != i]
            if true_sim - float(np.mean(others)) >= cfg.margin:
                ok += 1
        assert ok / n >= 0.9


class TestProjectSpace:
    def test_vocab_preserved_rows_mapped(self):
        rng = np.random.default_rng(6)
        space = EmbeddingSpace("sp", {"a": 0, "b": 1}, rng.normal(size=(2, 3)))
        model = init_projection(3, 3, 2, seed=4)
        out = project_space(model, "source", space)
        assert out.vocab == space.vocab
        assert out.dim == 2
        for tok in space.vocab:
            assert out.matrix[out.vocab[tok]] == pytest.approx(
                project(model, "source", space.matrix[space.vocab[tok]]), rel=1e-12
            )

    def test_scalar_model_reproduces_tanh(self):
        space = EmbeddingSpace("sp", {"a": 0, "b": 1}, np.array([[1.0], [-1.0]]))
        model = ProjectionModel(W_l=np.array([[1.0]]), b_l=np.zeros(1),
                                W_k=np.array([[1.0]]), b_k=np.zeros(1))
        out = project_space(model, "source", space)
        assert out.matrix[out.vocab["a"]] == pytest.approx([TANH_1], abs=1e-12)
        assert out.matrix[out.vocab["b"]] == pytest.approx([-TANH_1], abs=1e-12)

    def test_dim_mismatch(self):
        space = EmbeddingSpace("sp", {"a": 0}, np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            project_space(init_projection(3, 3, 2, seed=0), "source", space)


# values json.dumps writes in every spelling repr has: signed zeros, subnormals,
# and magnitudes on both sides of repr's positional band [1e-4, 1e16)
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2e-308, 1e-5, -2.5e-7, 1e-4, 1e16, -1e16, 1e308, -1e308]


@st.composite
def small_models(draw):
    """The arguments of a finite ``ProjectionModel`` with 0-3 input dims and 0-3 shared
    dims, empty arrays included."""
    e, f, d = (draw(st.integers(0, 3)) for _ in range(3))
    values = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))

    def array(*shape):
        flat = draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(flat, dtype=np.float64).reshape(shape)

    return dict(W_l=array(d, e), b_l=array(d), W_k=array(d, f), b_k=array(d),
                margin=draw(values))


class TestSerialization:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=small_models())
    def test_text_is_json_dumps_and_reads_back_bit_for_bit(self, tmp_path, fields):
        dims = fields["W_l"].shape[1], fields["W_k"].shape[1], fields["W_l"].shape[0]
        doc = {"format_version": 1, "dims": dict(zip(("e", "f", "d"), dims)),
               "margin": fields["margin"],
               **{name: arr.tolist() for name, arr in fields.items() if name != "margin"}}
        text = json.dumps(doc, indent=1) + "\n"
        path = tmp_path / "model.json"
        write_atomic(path, text)
        if 0 in dims:  # no model has a zero dim, so no file may hold one
            with pytest.raises(InputError, match=re.escape(f"(e, f, d) = {dims}")):
                ProjectionModel(**fields)
            with pytest.raises(FormatError, match="malformed model"):
                load_projection(path)
            return
        model = ProjectionModel(**fields)
        assert projection_json(model) == text
        back = load_projection(path)
        assert np.float64(back.margin).tobytes() == np.float64(model.margin).tobytes()
        for name, arr in model.params().items():
            assert getattr(back, name).shape == arr.shape
            assert getattr(back, name).tobytes() == arr.tobytes()

    def test_round_trip(self, tmp_path):
        model = init_projection(3, 4, 2, seed=8)
        model.margin = 0.25
        path = tmp_path / "model.json"
        write_atomic(path, projection_json(model))
        back = load_projection(path)
        assert back.margin == 0.25
        for name in ("W_l", "b_l", "W_k", "b_k"):
            assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_unknown_version_rejected(self, tmp_path):
        model = init_projection(2, 2, 2, seed=0)
        path = tmp_path / "model.json"
        write_atomic(path, projection_json(model))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version"):
            load_projection(path)

    def test_inconsistent_dims_rejected(self, tmp_path):
        model = init_projection(2, 2, 2, seed=0)
        path = tmp_path / "model.json"
        write_atomic(path, projection_json(model))
        doc = json.loads(path.read_text())
        doc["dims"]["e"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="dims"):
            load_projection(path)

    @pytest.mark.parametrize("mangle, message", [
        (lambda doc: json.dumps([doc]).encode(), "expected a JSON object, got list"),
        (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "W_l"}).encode(),
         "model has no 'W_l' key"),
        (lambda doc: json.dumps(doc).encode().replace(b"{", b"{\xff", 1), "not UTF-8"),
        (lambda doc: b"format_version: 1\n", "not valid JSON"),
        (lambda doc: json.dumps({**doc, "b_k": [math.nan, 0.5]}).encode(),
         "projection parameter b_k contains non-finite entries"),
    ], ids=["list", "missing-key", "not-utf8", "not-json", "nan-weight"])
    def test_malformed_file_raises_format_error_naming_it(self, tmp_path, mangle, message):
        path = tmp_path / "model.json"
        write_atomic(path, projection_json(init_projection(2, 2, 2, seed=0)))
        path.write_bytes(mangle(json.loads(path.read_text())))
        with pytest.raises(FormatError) as exc:
            load_projection(path)
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)

    @pytest.mark.parametrize("key, value", [
        ("W_l", "abc"),
        ("W_l", [[0.5, 0.5], [0.5]]),
        ("margin", [1]),
        ("b_l", {"a": 1}),
        ("margin", math.nan),
        ("W_l", 5),
        ("W_k", [0.5, 0.5]),
        ("margin", "0.5"),
        ("margin", True),
        ("W_l", [[True, False], [False, True]]),
        ("b_k", [0.5, True]),
        ("b_l", [0.5, None]),
        ("margin", 10**400),
    ], ids=["string-array", "ragged-array", "list-margin", "object-array", "nan-margin",
            "scalar-weights", "vector-weights", "string-margin", "bool-margin", "bool-array",
            "bool-among-floats", "null-entry", "huge-int-margin"])
    def test_malformed_field_raises_format_error_naming_it(self, tmp_path, key, value):
        path = tmp_path / "model.json"
        doc = json.loads(projection_json(init_projection(2, 2, 2, seed=0)))
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(FormatError) as exc:
            load_projection(path)
        assert str(exc.value).startswith(f"{path}: malformed model: ")
