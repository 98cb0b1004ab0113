#!/usr/bin/env python3
"""Sweep pooling exponents on the synthetic mixed-signal task.

Shows the two headline effects on constructed data: concatenating mean and
max pooling across two complementary spaces beats either space alone, and
adding a negative exponent (whose poles hit sign-crossing inputs) hurts.
Also contrasts z-normalization on a deliberately mis-scaled concatenation.
"""
import argparse
import math
from dataclasses import replace

from pmean.classifier import TrainProtocol
from pmean.evaluation import emit_report, evaluate_monolingual, sweep_pmeans
from pmean.pooling import PooledConfig, PooledPart
from pmean.synthetic import make_complementarity_task, scale_space

INF = math.inf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=20)
    args = parser.parse_args()

    space_a, space_b, task = make_complementarity_task(seed=args.seed)
    proto = TrainProtocol(runs=args.runs, max_epochs=25, seed=args.seed)

    print("== single spaces vs concatenation (mean / mean+max) ==")
    for name, cfg in [
        ("A mean", PooledConfig([PooledPart(space_a, [1.0])])),
        ("B mean", PooledConfig([PooledPart(space_b, [1.0])])),
        ("A+B mean", PooledConfig([PooledPart(space_a, [1.0]), PooledPart(space_b, [1.0])])),
        ("A+B mean+max", PooledConfig([PooledPart(space_a, [1.0, INF]),
                                       PooledPart(space_b, [1.0, INF])])),
    ]:
        score = evaluate_monolingual(cfg, task, proto)
        print(f"  {name:14s} dim={cfg.output_dim:3d}  "
              f"{100 * score.mean:.1f} +- {100 * score.std:.1f}")

    print("\n== exponent sweep over A+B ==")
    report = sweep_pmeans(
        PooledConfig([PooledPart(space_a, [1.0]), PooledPart(space_b, [1.0])]),
        [[1.0], [1.0, INF, -INF], [1.0, INF, -INF, 3.0], [1.0, INF, -INF, -1.0]],
        [task], proto,
    )
    print(emit_report(report, "markdown"))

    print("== z-norm with space B mis-scaled x100 ==")
    cfg = PooledConfig([PooledPart(space_a, [1.0, INF]),
                        PooledPart(scale_space(space_b, 100.0), [1.0, INF])])
    off = evaluate_monolingual(cfg, task, proto)
    on = evaluate_monolingual(cfg, task, replace(proto, znorm=True))
    print(f"  znorm off {100 * off.mean:.1f}   znorm on {100 * on.mean:.1f}   "
          f"gain {100 * (on.mean - off.mean):+.1f}")


if __name__ == "__main__":
    main()
