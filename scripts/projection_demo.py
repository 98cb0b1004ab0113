#!/usr/bin/env python3
"""Train the bilingual projection on a synthetic aligned corpus and report
loss convergence plus translation retrieval accuracy."""
import argparse

import numpy as np

from pmean.manifest import write_atomic
from pmean.projection import ProjectionTrainConfig, project, projection_json, train_projection
from pmean.synthetic import make_parallel_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=500)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--shared-dim", type=int, default=8)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--model-out", default=None, help="optional model JSON path")
    args = parser.parse_args()

    corpus, _ = make_parallel_corpus(seed=3, n_pairs=args.pairs, dim=args.dim,
                                     noise=args.noise)
    cfg = ProjectionTrainConfig(shared_dim=args.shared_dim, max_epochs=args.epochs,
                                batch_size=16, seed=args.seed)
    model, history = train_projection(corpus, cfg)
    print(f"epoch   1: mean loss {history[0]:.4f}")
    for mark in (10, 25, 50, len(history)):
        if mark <= len(history):
            print(f"epoch {mark:3d}: mean loss {history[mark - 1]:.4f}")

    ps = project(model, "source", corpus.source)
    pt = project(model, "target", corpus.target)
    rng = np.random.default_rng(5)
    n = len(corpus)
    hits = 0
    for i in range(n):
        cands = np.concatenate(
            [[i], rng.choice(np.delete(np.arange(n), i), size=min(49, n - 1), replace=False)]
        )
        sims = pt[cands] @ ps[i] / (
            np.linalg.norm(pt[cands], axis=1) * np.linalg.norm(ps[i])
        )
        hits += int(np.argmax(sims) == 0)
    print(f"top-1 retrieval among {min(50, n)} candidates: {hits / n:.2%}")

    if args.model_out:
        write_atomic(args.model_out, projection_json(model))
        print(f"model written to {args.model_out}")


if __name__ == "__main__":
    main()
