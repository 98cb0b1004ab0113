#!/usr/bin/env python3
"""pmean benchmark: run one workload as real CLI commands and print its metrics.

    python3 perfbench/run.py --workload embed-zipf --seed 1 --seconds 30 --trace 0

Run from the root of a pmean checkout. The inputs are generated from
``--seed`` (untimed) under ``.bench_work/``. With ``--trace 0`` the workload's
``python -m pmean`` command is spawned again and again, one at a time, for
``--seconds``; each command is timed from spawn to exit and its CPU time and
peak RSS are read from ``os.wait4``. Times are reported scaled by a yardstick
task run between commands (``yardstick.py``), so that the host's speed drops
out of them. Every command's outputs are checked.
With ``--trace 1`` the same command runs in-process through
``pmean.cli.main``, alternately untraced and traced, and the per-layer
metrics of the traced runs are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run (samples, input and output SHA-256, environment) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; traced runs also write
their spans there.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

# One CPU for the benchmark and every command it spawns, taken before numpy
# starts its BLAS threads: commands and yardstick then see the same CPU's
# speed, and no BLAS thread waits on a CPU that another tenant holds.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_COMMANDS = 3  # a run takes the median of at least this many commands
MAX_RUN_S = 150.0  # stop starting commands after this, whatever --seconds says
COMMAND_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "throughput": "items/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "pmean" / "__init__.py").is_file():
        print(f"perfbench: no pmean sources under {SRC}; run from a pmean checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 64

    env_before = host_probe()
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, work, args.size)
        if args.trace:
            record = measure_traced(wl, args.seconds)
        else:
            record = measure_commands(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment(env_before, host_probe())
    record.update(workload=args.workload, seed=args.seed, size=args.size,
                  inputs=wl.inputs, rows_used_share=wl.rows_used_share)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(spans, separators=(",", ":")))
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    units = record["units"]
    attempted, failed = record["attempted"], record["failed"]
    for error in record["errors"]:
        print(f"FAILED: {error}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"commands={attempted} failed={failed}")
    for name, value in record["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, value in record.get("unscaled", {}).items():
        print(f"  {'unscaled ' + name:<36} {value:>14.6g} s")
    print(f"  {'fail_ratio':<36} {failed / attempted:>14.6g} ratio")
    for target in record.get("absent", []):
        print(f"  absent wrap target: {target}")
    for hook, calls in record.get("hook_errors", {}).items():
        print(f"  counting hook {hook} failed on {calls} calls")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


# --- end to end ---------------------------------------------------------------


def spawn(argv: list[str], log: Path) -> dict:
    """Run ``python -m pmean argv`` to completion; time it and read its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pmean", *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0, "exit": proc.returncode}


def measure_commands(wl, seconds: float) -> dict:
    """Alternate ``pmean --version`` and the workload command for ``seconds``.

    An untimed first command compiles bytecode, warms the page cache and the
    CPU clock, and gets the full output check. The yardstick runs before the
    first pair of commands and after each one; a pair's times are scaled by
    ``yardstick.NOMINAL_S`` over the mean of the yardstick times on either
    side of it, which takes the host's speed at that moment out of them.
    """
    log = wl.outputs[0].parent / "stderr.log"
    warm = spawn(wl.argv, log)
    error, reference = _verify(wl, warm["exit"], None, log)
    errors = [error] if error else []
    setups, samples = [], []
    sticks = [yardstick.measure()]
    start = time.perf_counter()
    while True:
        setup = spawn(["--version"], log)
        setups.append(setup)
        if setup["exit"] != 0:
            errors.append(f"pmean --version exited {setup['exit']}: {_tail(log)}")
        for path in wl.outputs:
            path.unlink(missing_ok=True)
        sample = spawn(wl.argv, log)
        error, reference = _verify(wl, sample["exit"], reference, log)
        sample["ok"] = error is None
        samples.append(sample)
        if error:
            errors.append(error)
        sticks.append(yardstick.measure())
        if finished(time.perf_counter() - start, len(samples), seconds, MIN_COMMANDS):
            break

    for i, (setup, sample) in enumerate(zip(setups, samples)):
        scale = yardstick.NOMINAL_S / ((sticks[i] + sticks[i + 1]) / 2)
        setup["scaled_wall_s"] = setup["wall_s"] * scale
        sample["scaled_wall_s"] = sample["wall_s"] * scale
        sample["scaled_cpu_s"] = sample["cpu_s"] * scale
    timed = [s for s in samples if s["ok"]] or samples
    wall = statistics.median(s["scaled_wall_s"] for s in timed)
    metrics = {
        "wall_s": wall,
        "throughput": wl.items / wall,
        "cpu_s": statistics.median(s["scaled_cpu_s"] for s in timed),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "setup_s": statistics.median(s["scaled_wall_s"] for s in setups),
    }
    unscaled = {
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "cpu_s": statistics.median(s["cpu_s"] for s in timed),
        "setup_s": statistics.median(s["wall_s"] for s in setups),
        "yardstick_s": statistics.median(sticks),
    }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "unscaled": unscaled,
        "attempted": 1 + len(samples) + len(setups),
        "failed": len(errors),
        "errors": errors,
        "warmup": warm,
        "samples": samples,
        "setup_samples": setups,
        "yardstick_s": sticks,
        "items": wl.items,
        "output_sha256": reference,
        "command": ["python", "-m", "pmean", *wl.argv],
    }


def finished(elapsed: float, cycles: int, seconds: float, min_cycles: int) -> bool:
    """Whether to stop: ending now is nearer to ``seconds`` than one more cycle."""
    if elapsed >= MAX_RUN_S:
        return True
    return cycles >= min_cycles and elapsed + 0.5 * elapsed / cycles >= seconds


def _verify(wl, exit_code: int, reference, log: Path):
    """Check one command's outputs; returns (error or None, output hashes).

    The first good command gets the full check. Every later one must write
    byte-identical outputs, which also checks the CLI's determinism.
    """
    if exit_code != 0:
        return f"pmean exited {exit_code}: {_tail(log)}", reference
    try:
        hashes = {p.name: workloads.sha256_of(p) for p in wl.outputs}
    except OSError as exc:
        return f"missing output: {exc}", reference
    if reference is None:
        try:
            wl.check()
        except workloads.CheckFailed as exc:
            return f"output check failed: {exc}", None
        return None, hashes
    if hashes != reference:
        changed = sorted(k for k in hashes if hashes[k] != reference[k])
        return f"outputs differ from the first command's: {changed}", reference
    return None, reference


def _tail(log: Path) -> str:
    try:
        return log.read_text(errors="replace").strip().splitlines()[-1][-300:]
    except (OSError, IndexError):
        return "(no stderr)"


# --- traced -------------------------------------------------------------------


def measure_traced(wl, seconds: float) -> dict:
    """Alternate untraced and traced in-process commands for ``seconds``."""
    import pmean.cli

    tracer = tracing.Tracer()
    plain, traced, per_run, self_times, errors = [], [], [], [], []
    reference = None
    log = wl.outputs[0].parent / "stderr.log"
    start = time.perf_counter()
    while True:
        for trace in (False, True):
            for path in wl.outputs:
                path.unlink(missing_ok=True)
            stderr = io.StringIO()
            if trace:
                tracer.install()
            t0 = time.perf_counter()
            try:
                with redirect_stderr(stderr):
                    if trace:
                        code = tracer.run(pmean.cli.main, wl.argv)
                    else:
                        code = pmean.cli.main(wl.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed command, not a failed benchmark
                stderr.write(traceback.format_exc())
                code = "traceback"
            finally:
                wall = time.perf_counter() - t0
                tracer.uninstall()
            log.write_text(stderr.getvalue())
            error, reference = _verify(wl, code, reference, log)
            if error:
                errors.append(error)
            (traced if trace else plain).append(wall)
            if trace:
                metrics, self_time = tracer.take_metrics()
                per_run.append(metrics)
                self_times.append(self_time)
        # two traced runs at least, so their counts can be compared
        if finished(time.perf_counter() - start, len(traced), seconds, 2):
            break

    counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in per_run]
    if any(c != counts[0] for c in counts):
        errors.append("per-layer counts differ between traced runs of the same inputs")
    metrics = {name: statistics.median(m[name] for m in per_run)
               for name in tracing.METRIC_UNITS if name != "trace.overhead_ratio"}
    metrics.update(counts[0])
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {
        "metrics": {name: metrics[name] for name in tracing.METRIC_UNITS},
        "units": tracing.METRIC_UNITS,
        "attempted": len(plain) + len(traced),
        "failed": len(errors),
        "errors": errors,
        "absent": tracer.absent,
        "hook_errors": dict(tracer.hook_errors),
        "untraced_wall_s": plain,
        "traced_wall_s": traced,
        "per_run": per_run,
        "self_s_by_span": self_times,
        "output_sha256": reference,
        "spans": {"fields": ["name", "start", "end", "parent", "run"], "spans": tracer.spans},
    }


# --- environment --------------------------------------------------------------


def host_probe() -> float:
    """One yardstick time: how fast the host ran at the start or end of the run."""
    return yardstick.measure()


def environment(probe_before: float, probe_after: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "host_probe_s": {"before": probe_before, "after": probe_after},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
