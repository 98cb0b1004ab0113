"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Expected values are either closed forms computed with independent
scalar implementations (math.fsum based) or structural facts of the
constructions in pmean.synthetic.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pmean.classifier import SoftmaxModel, TrainProtocol
from pmean.cli import main
from pmean.embeddings import EmbeddingSpace
from pmean.evaluation import TransferPair, evaluate_monolingual, evaluate_transfer, sweep_pmeans
from pmean.pooling import PooledConfig, PooledPart, power_mean
from pmean.projection import (
    _NORM_GUARD,
    ProjectionTrainConfig,
    hinge_loss_grads,
    init_projection,
    project,
    project_space,
    train_projection,
)
from pmean.synthetic import (
    make_blobs_task,
    make_complementarity_task,
    make_parallel_corpus,
    make_quad_blobs_task,
    merge_spaces,
    scale_space,
    swap_dictionary,
    twin_space,
)
from test_classifier import softmax_xent

INF = math.inf


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- 1: pooling identities ----------------------------------------------------


def naive_column_mean(values, p):
    n = len(values)
    if p == INF:
        return max(values)
    if p == -INF:
        return min(values)
    if p == 0:
        return math.exp(math.fsum(math.log(v) for v in values) / n)
    if p == 1:
        return math.fsum(values) / n
    mean = math.fsum(v**p for v in values) / n
    return math.copysign(abs(mean) ** (1.0 / p), mean)


def test_c1_pooling_identities():
    rng = np.random.default_rng(20240816)
    t0 = time.perf_counter()
    p_grid = [-INF, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, INF]
    worst_closed = 0.0
    worst_mono = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        W = rng.uniform(0.1, 10.0, size=(n, d))
        for p in (1.0, -1.0, 0.0, INF, -INF):
            got = power_mean(W, p)
            want = np.array([naive_column_mean(list(W[:, j]), p) for j in range(d)])
            worst_closed = max(worst_closed, float(np.abs(got - want).max()))
        values = [power_mean(W, p) for p in p_grid]
        for lo, hi in zip(values, values[1:]):
            worst_mono = max(worst_mono, float((lo - hi).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_closed <= 1e-9 and worst_mono <= 1e-9 and elapsed < 5.0
    report(1, "pooling identities", ok,
           f"closed-form dev {worst_closed:.2e}, monotonicity dev {worst_mono:.2e}, "
           f"{elapsed:.1f}s")


# --- 2: dimensionality reproduction --------------------------------------------


def test_c2_dimensionality():
    rng = np.random.default_rng(7)

    def space(name):
        return EmbeddingSpace(name, {f"w{i}": i for i in range(5)},
                              rng.standard_normal((5, 300)))

    four = PooledConfig([PooledPart(space(f"s{i}"), [-INF, 1.0, INF]) for i in range(4)])
    three = PooledConfig([PooledPart(space(f"t{i}"), [-INF, 1.0, 3.0, INF]) for i in range(3)])
    from pmean.pooling import embed_corpus

    len_four = embed_corpus(four, ["w0 w1"])[0].shape[1]
    len_three = embed_corpus(three, ["w0 w1"])[0].shape[1]
    ok = four.output_dim == 3600 and three.output_dim == 3600 \
        and len_four == 3600 and len_three == 3600
    report(2, "dimensionality reproduction", ok,
           f"4x3x300 -> {four.output_dim}/{len_four}, 3x4x300 -> "
           f"{three.output_dim}/{len_three}")


# --- 3: gradient checks ---------------------------------------------------------


def cosine(u, v) -> float:
    """Cosine similarity with the projection's zero-norm guard (returns 0)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < _NORM_GUARD or nv < _NORM_GUARD:
        return 0.0
    return float(u @ v / (nu * nv))


def hinge_loss(model, x_s, x_t, x_u) -> float:
    """max(0, m - cos(r_s, r_t) + cos(r_s, r_u)) on one projected triple."""
    r_s = project(model, "source", x_s)
    r_t = project(model, "target", x_t)
    r_u = project(model, "target", x_u)
    return max(0.0, model.margin - cosine(r_s, r_t) + cosine(r_s, r_u))


def central_diff(f, arr, h):
    num = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + h
        lp = f()
        arr[i] = orig - h
        lm = f()
        arr[i] = orig
        num[i] = (lp - lm) / (2 * h)
    return num


def test_c3_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    worst_hinge = 0.0
    checked = 0
    while checked < 100:
        e, f, d = (int(v) for v in rng.integers(1, 6, size=3))
        model = init_projection(e, f, d, seed=int(rng.integers(1 << 30)))
        xs, xt, xu = rng.normal(size=e), rng.normal(size=f), rng.normal(size=f)
        r_s = project(model, "source", xs)
        r_t = project(model, "target", xt)
        r_u = project(model, "target", xu)
        if abs(model.margin - cosine(r_s, r_t) + cosine(r_s, r_u)) < 1e-6:
            continue
        if min(np.linalg.norm(r) for r in (r_s, r_t, r_u)) < 1e-6:
            continue
        params = model.params()
        _, grads = hinge_loss_grads(params, xs, xt, xu, model.margin,
                                    {name: np.empty_like(p) for name, p in params.items()})
        for name in ("W_l", "b_l", "W_k", "b_k"):
            arr = getattr(model, name)
            num = central_diff(lambda: hinge_loss(model, xs, xt, xu), arr, 1e-5)
            a, b = grads[name].ravel(), num.ravel()
            rel = np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))
            worst_hinge = max(worst_hinge, float(rel.max()))
        checked += 1

    worst_softmax = 0.0
    for _ in range(100):
        C = int(rng.integers(2, 5))
        D = int(rng.integers(1, 7))
        n = int(rng.integers(2, 9))
        model = SoftmaxModel(rng.normal(size=(C, D)), rng.normal(size=C))
        X = rng.normal(size=(n, D))
        y = rng.integers(0, C, size=n)
        _, grads = softmax_xent(model, X, y)
        for name, arr in (("W", model.weights), ("b", model.bias)):
            num = central_diff(lambda: softmax_xent(model, X, y)[0], arr, 1e-6)
            a, b = grads[name].ravel(), num.ravel()
            rel = np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))
            worst_softmax = max(worst_softmax, float(rel.max()))

    elapsed = time.perf_counter() - t0
    ok = worst_hinge < 1e-4 and worst_softmax < 1e-4 and elapsed < 10.0
    report(3, "gradient checks", ok,
           f"hinge rel err {worst_hinge:.2e}, softmax rel err {worst_softmax:.2e}, "
           f"{elapsed:.1f}s")


# --- 4: projection learning -----------------------------------------------------


def test_c4_projection_learning():
    t0 = time.perf_counter()
    corpus, _ = make_parallel_corpus(seed=3, n_pairs=500, dim=16, noise=0.05)
    cfg = ProjectionTrainConfig(shared_dim=8, margin=0.5, dropout_rate=0.5,
                                max_epochs=100, batch_size=16, seed=11)
    model, history = train_projection(corpus, cfg)
    ratio = history[-1] / history[0]

    rng = np.random.default_rng(5)
    ps = project(model, "source", corpus.source)
    pt = project(model, "target", corpus.target)
    n = len(corpus)
    hits = 0
    for i in range(n):
        cands = np.concatenate(
            [[i], rng.choice(np.delete(np.arange(n), i), size=49, replace=False)]
        )
        sims = pt[cands] @ ps[i] / (
            np.linalg.norm(pt[cands], axis=1) * np.linalg.norm(ps[i])
        )
        hits += int(np.argmax(sims) == 0)
    top1 = hits / n
    elapsed = time.perf_counter() - t0
    ok = ratio < 0.1 and top1 >= 0.80 and elapsed < 60.0
    report(4, "projection learning", ok,
           f"loss ratio {ratio:.3f}, top-1 {top1:.2f}, {elapsed:.1f}s")


# --- 5-7: complementarity, z-norm direction, negative-p direction ---------------


@pytest.fixture(scope="module")
def mixed_task():
    return make_complementarity_task(seed=42)


def full_protocol():
    return TrainProtocol(runs=50, max_epochs=25, seed=7)


def test_c5_complementarity(mixed_task):
    t0 = time.perf_counter()
    a, b, task = mixed_task
    proto = full_protocol()
    a_mean = evaluate_monolingual(PooledConfig([PooledPart(a, [1.0])]), task, proto)
    b_mean = evaluate_monolingual(PooledConfig([PooledPart(b, [1.0])]), task, proto)
    both = evaluate_monolingual(
        PooledConfig([PooledPart(a, [1.0, INF]), PooledPart(b, [1.0, INF])]), task, proto
    )
    elapsed = time.perf_counter() - t0
    ok = a_mean.mean <= 0.75 and b_mean.mean <= 0.75 and both.mean >= 0.90 \
        and elapsed < 120.0
    report(5, "complementary pooling beats single-space means", ok,
           f"A-mean {a_mean.mean:.3f}, B-mean {b_mean.mean:.3f}, "
           f"A+B mean/max {both.mean:.3f}, {elapsed:.0f}s")


def test_c6_znorm_direction(mixed_task):
    a, b, task = mixed_task
    proto = full_protocol()
    cfg = PooledConfig([PooledPart(a, [1.0, INF]),
                        PooledPart(scale_space(b, 100.0), [1.0, INF])])
    off = evaluate_monolingual(cfg, task, replace(proto, znorm=False))
    on = evaluate_monolingual(cfg, task, replace(proto, znorm=True))
    gain = on.mean - off.mean
    report(6, "standardization fixes mis-scaled concatenation", gain >= 0.02,
           f"off {off.mean:.3f}, on {on.mean:.3f}, gain {gain:+.3f}")


def test_c7_negative_p_degrades(mixed_task):
    a, b, task = mixed_task
    proto = full_protocol()
    cfg = PooledConfig([PooledPart(a, [1.0]), PooledPart(b, [1.0])])
    rep = sweep_pmeans(cfg, [[1.0, INF, -INF], [1.0, INF, -INF, -1.0]], [task], proto)
    base, with_neg = rep.rows[0].sigma, rep.rows[1].sigma
    report(7, "adding p=-1 degrades a zero-crossing task", with_neg < base,
           f"[1,inf,-inf] {base:.3f} vs [...,-1] {with_neg:.3f}")


# --- 8: transfer sanity ----------------------------------------------------------


def test_c8_transfer_sanity():
    proto = TrainProtocol(runs=6, max_epochs=25, seed=3)

    space, task = make_blobs_task(seed=5)
    bilingual = merge_spaces(space, twin_space(space, "_f"), "bi")
    pair = TransferPair(train=task, test=swap_dictionary(task, "_f"))
    cfg = PooledConfig([PooledPart(bilingual, [1.0, INF])])
    swap = evaluate_transfer(cfg, cfg, pair, proto)

    qspace, qtask = make_quad_blobs_task(seed=5)
    qtgt = twin_space(qspace, "_f", language_tag="xx")
    qpair = TransferPair(train=qtask, test=swap_dictionary(qtask, "_f", language_tag="xx"))
    cross_scores = []
    in_scores = []
    for mseed in range(16):
        model = init_projection(qspace.dim, qspace.dim, qspace.dim, seed=mseed)
        cfg_s = PooledConfig([PooledPart(project_space(model, "source", qspace), [1.0, INF])])
        cfg_t = PooledConfig([PooledPart(project_space(model, "target", qtgt), [1.0, INF])])
        res = evaluate_transfer(cfg_s, cfg_t, qpair, proto)
        cross_scores.append(res.cross.mean)
        in_scores.append(res.in_language.mean)
    mean_cross = float(np.mean(cross_scores))
    band = 3 * math.sqrt(0.25 * 0.75 / len(qpair.test.items))

    ok = swap.drop <= 0.02 and abs(mean_cross - 0.25) <= band and min(in_scores) >= 0.9
    report(8, "transfer sanity", ok,
           f"swap drop {swap.drop:+.4f}; untrained-projection cross "
           f"{mean_cross:.3f} vs chance 0.25 +- {band:.3f}, in-language min "
           f"{min(in_scores):.3f}")


# --- 9: CLI determinism -----------------------------------------------------------


def build_cli_fixture(root):
    rng = np.random.default_rng(0)

    def emb(path, tokens):
        lines = [
            f"{t} " + " ".join(f"{v:.6f}" for v in rng.uniform(0.1, 2.0, 4))
            for t in tokens
        ]
        path.write_text("\n".join(lines) + "\n")

    emb(root / "one.txt", ["alpha", "beta", "gamma", "delta"])
    emb(root / "two.txt", ["alpha", "beta", "gamma", "delta"])
    (root / "cfg.txt").write_text(
        "space=one p=1,inf path=one.txt\nspace=two p=1,inf path=two.txt\n"
    )
    (root / "sentences.txt").write_text("alpha beta\ngamma\ndelta alpha beta\n")
    lines = ["#name=toy", "#metric=accuracy"]
    for i in range(30):
        label = "up" if i % 2 == 0 else "down"
        words = "alpha beta" if label == "up" else "gamma delta"
        lines.append(f"{label}\t{words} {'alpha' if i % 3 else 'gamma'}")
    (root / "task.tsv").write_text("\n".join(lines) + "\n")
    (root / "pairs.tsv").write_text(
        "\n".join("alpha beta\tgamma delta" for _ in range(8)) + "\n"
    )


def test_c9_cli_determinism(tmp_path):
    build_cli_fixture(tmp_path)
    cfg = str(tmp_path / "cfg.txt")
    task = str(tmp_path / "task.tsv")
    proto = ["--runs", "3", "--epochs", "6", "--seed", "21"]
    commands = {
        "embed": ["embed", "--config", cfg, "--input", str(tmp_path / "sentences.txt"),
                  "--output", str(tmp_path / "emb.tsv"), "--znorm"],
        "train-projection": [
            "train-projection", "--source-embeddings", str(tmp_path / "one.txt"),
            "--target-embeddings", str(tmp_path / "two.txt"),
            "--pairs", str(tmp_path / "pairs.tsv"),
            "--model-out", str(tmp_path / "model.json"),
            "--history-out", str(tmp_path / "hist.csv"),
            "--shared-dim", "3", "--epochs", "3", "--seed", "21"],
        "eval": ["eval", "--config", cfg, "--task", task,
                 "--out", str(tmp_path / "report"), *proto],
        "eval-transfer": ["eval-transfer", "--source-config", cfg,
                          "--target-config", cfg, "--train-task", task,
                          "--test-task", task, "--out", str(tmp_path / "xfer"), *proto],
        "sweep": ["sweep", "--config", cfg, "--p-set", "1,inf", "--p-set", "1,inf,-inf",
                  "--task", task, "--out", str(tmp_path / "sweep"), *proto],
    }
    outputs = {
        "embed": ["emb.tsv", "emb.tsv.manifest.json"],
        "train-projection": ["model.json", "hist.csv", "model.json.manifest.json"],
        "eval": ["report.json", "report.md", "report.manifest.json"],
        "eval-transfer": ["xfer.json", "xfer.md", "xfer.manifest.json"],
        "sweep": ["sweep.json", "sweep.md", "sweep.manifest.json"],
    }

    diffs = []
    for name, argv in commands.items():
        assert main(list(argv)) == 0, f"{name} first run failed"
        first = {f: (tmp_path / f).read_bytes() for f in outputs[name]}
        assert main(list(argv)) == 0, f"{name} second run failed"
        for f in outputs[name]:
            if (tmp_path / f).read_bytes() != first[f]:
                diffs.append(f)
    report(9, "CLI determinism", not diffs,
           "all outputs byte-identical" if not diffs else f"differs: {diffs}")
