"""Benchmark of the qdelta CLI, driven as a user drives it.

    python3 bench/run.py --workload {verify,scan,sweep,ss} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. One long-lived process calls qdelta.cli.main(argv) on
commands generated from the seed, one at a time (a closed loop with one
client), for S seconds and at least MIN_OPS commands. Every output is checked
against the reference answers in reference.py; a non-zero exit code or a
failed check counts as a failed operation, and any failed operation makes
the run incorrect.

--trace 0 prints the end-to-end metrics. --trace 1 is a separate run that
prints the per-layer metrics: every command runs twice, once with spans
recorded around the program's public functions and once without, in
alternating order, and the difference is the tracing overhead. The spans are
written to .bench_out/spans-<workload>.npz when the run ends.

--smoke runs tiny inputs and one command, to test the benchmark itself.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it record the environment
(core count, Python and numpy versions, git sha, 1-minute load average at
start and end), the sample counts and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import speed
import workloads
from workloads import FULL, ITEM, TINY, WORKLOADS, ss_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# op_tail_ms is this percentile of the command times (linear interpolation),
# fixed per workload so that a parent and a change that makes more commands
# in the same time are compared at the same percentile. ss is cut into blocks
# of BLOCK commands, where p90 has 20 samples beyond it. The other workloads
# make 13 to 27 commands of about a second in a run: there p75 has 3 to 7
# samples beyond it, and p90 only 1 to 3, so that one slow command moved it.
TAIL_PERCENTILE = {"verify": 75, "scan": 75, "sweep": 75, "ss": 90}
MIN_OPS = 10
# A run of many short commands (ss makes thousands) is cut into blocks of
# this many. Throughput and tail are taken per block and the median over the
# blocks is reported, so that a few stalls of a shared machine do not decide
# the figure. In one block of 200 the tail has 20 samples beyond it.
BLOCK = 200

# setup_s: from a fresh interpreter to the first completed small ss command,
# at the machine speed of speed.NOMINAL_S. The child reads the clock when the
# command returns (perf_counter is CLOCK_MONOTONIC, shared by all processes),
# then times the probe of speed.py, so that its own speed rescales its time.
SETUP_RUNS = 11
SETUP_PAIR = (-0.5, 3.0)
SETUP_CODE = """\
import sys, time
from qdelta.cli import main
code = main(sys.argv[2:])
done = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import speed
sys.stderr.write(f"\\n{done!r} {speed.factor()!r}\\n")
sys.exit(code)
"""


class Tally:
    """Attempted and failed commands, with the first few failure messages.

    A failure is a non-zero exit code or an output that fails its check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(problem)
        return False


def block_medians(times: list[float], done: list[int], percentile: float) -> dict:
    """Throughput and tail per block of BLOCK consecutive commands, and the
    median of each over the blocks. A run with fewer than two blocks' worth
    of commands is one block."""
    n = len(times)
    size = BLOCK if n >= 2 * BLOCK else n
    bounds = [(i, i + size) for i in range(0, n - size + 1, size)]
    first_tail = float(np.percentile(times[:size], percentile))
    return {
        "items_per_s": statistics.median(sum(done[a:b]) / sum(times[a:b]) for a, b in bounds),
        "tail_s": statistics.median(float(np.percentile(times[a:b], percentile))
                                    for a, b in bounds),
        "block_size": size,
        "blocks": len(bounds),
        "beyond_tail_first_block": sum(t > first_tail for t in times[:size]),
    }


def git_sha() -> str | None:
    """HEAD of the checkout's own git repository; None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qdelta").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(tally: Tally, runs: int) -> tuple[list[float], list[float]]:
    """Seconds from starting each of `runs` fresh interpreters to the return
    of one small ss command in it, raw and rescaled to the nominal machine
    speed. One untimed run first compiles bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    op = ss_op(*SETUP_PAIR)
    raw, scaled = [], []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent), *op.argv],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        problem = (f"setup command exited {proc.returncode}: {proc.stderr.strip()}"
                   if proc.returncode else op.check(proc.stdout))
        tally.record(problem)
        try:
            done, factor = map(float, proc.stderr.rstrip("\n").rsplit("\n", 1)[-1].split())
        except ValueError:  # the child did not get as far as the command's return
            continue
        if i:
            raw.append(done - t0)
            scaled.append((done - t0) / factor)
    return raw, scaled


def call(cli, op: workloads.Op) -> tuple[str | None, float, int]:
    """Run one command; returns (problem or None, wall seconds, bytes written)."""
    out, err = io.StringIO(), io.StringIO()
    crashed = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception:
        code, crashed = "exception", traceback.format_exc()
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    out.close()
    if crashed:
        sys.stderr.write(crashed)
    n_bytes = len(text) if text.isascii() else len(text.encode())
    command = " ".join(op.argv)
    if code != 0:
        # The error message, or the first failed check of a verify report.
        message = err.getvalue().strip() or next(
            (line for line in text.splitlines() if line.startswith("[FAIL]")), "")
        return f"{command}: exit {code}: {message}", elapsed, n_bytes
    if op.out_file is not None:
        n_bytes += os.path.getsize(op.out_file)
    try:
        problem = op.check(text)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        problem = f"malformed output ({type(exc).__name__}: {exc})"
    return (f"{command}: {problem}" if problem else None), elapsed, n_bytes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single command")
    args = parser.parse_args(argv)

    if not (SRC / "qdelta" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # The program's defaults: scan forks up to one worker per core.
    os.environ.pop("QDELTA_THREADS", None)
    load_start = os.getloadavg()[0]
    tally = Tally()
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(
        tally, 1 if args.smoke else SETUP_RUNS)

    sys.path.insert(0, str(SRC))
    import qdelta
    import qdelta.cli as cli
    if Path(qdelta.__file__).resolve().parent != SRC / "qdelta":
        print(f"error: imported qdelta from {qdelta.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    sizes = TINY if args.smoke else FULL
    make_ops = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    ops = make_ops(rng, sizes, str(OUT_DIR))
    # One small command first, so lazy set-up inside numpy is not timed.
    tally.record(call(cli, next(make_ops(random.Random(-args.seed), TINY, str(OUT_DIR))))[0])

    tracer = spans.Tracer() if args.trace else None
    max_ops = 1 if args.smoke else None
    # Only the timed run needs enough samples for op_tail_ms.
    min_ops = 1 if args.smoke or tracer else MIN_OPS
    times: list[float] = []
    traced_times: list[float] = []
    done: list[int] = []
    bytes_out = 0
    n_ops = 0
    calibration = None if tracer else speed.Calibration(args.workload in workloads.EVERY_CORE)
    deadline = time.perf_counter() + args.seconds
    while n_ops != max_ops and (n_ops < min_ops or time.perf_counter() < deadline):
        op = next(ops)
        # A traced run makes each command twice, alternating which goes first.
        modes = ((False, True) if n_ops % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in modes:
            if traced:
                tracer.install(n_ops)
            try:
                problem, elapsed, n_bytes = call(cli, op)
            finally:
                if traced:
                    tracer.uninstall()
            ok = tally.record(problem)
            (traced_times if traced else times).append(elapsed)
            if calibration:
                calibration.after_command(elapsed)
            if traced:
                bytes_out += n_bytes
            else:
                done.append(op.items if ok else 0)
        n_ops += 1
    load_end = os.getloadavg()[0]

    if tracer:
        summary = tracer.summary()
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in spans.layer_metrics(summary, n_ops).items()}
        metrics["cli.bytes_out"] = {"value": bytes_out / n_ops, "unit": "bytes"}
        metrics["trace.ops"] = {"value": n_ops, "unit": "count"}
        metrics["trace.untraced_op_s"] = {"value": sum(times) / n_ops, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (sum(traced_times) / sum(times) - 1.0), "unit": "%"}
        tracer.write(str(OUT_DIR / f"spans-{args.workload}.npz"))
    else:
        factors = calibration.factors() if calibration else [1.0] * len(times)
        percentile = TAIL_PERCENTILE[args.workload]
        scaled = block_medians([t / f for t, f in zip(times, factors)], done, percentile)
        raw = block_medians(times, done, percentile)
        metrics = {
            "items_per_s": {"value": scaled["items_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(
                t / f for t, f in zip(times, factors)), "unit": "ms"},
            "op_tail_ms": {"value": 1000.0 * scaled["tail_s"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        }

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "QDELTA_THREADS": "unset",
        "loadavg_1m_start": load_start, "loadavg_1m_end": load_end,
    }
    detail = {
        "ops": n_ops, "item": ITEM[args.workload], "items": sum(done),
        "error_rate": tally.failed / tally.attempted,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.messages,
    }
    if tracer:
        detail["spans"] = tracer.span_count
    else:
        detail["op_tail"] = {"percentile": percentile,
                             "samples_per_block": raw["block_size"],
                             "beyond_tail_first_block": raw["beyond_tail_first_block"],
                             "blocks": raw["blocks"]}
        detail["raw"] = {"items_per_s": raw["items_per_s"],
                         "op_p50_ms": 1000.0 * statistics.median(times),
                         "op_tail_ms": 1000.0 * raw["tail_s"]}
        detail["probe"] = {"count": sum(map(len, calibration.groups)),
                           "median_factor": statistics.median(factors)} if calibration else None
        detail["setup_runs_s"] = {"raw": setup_raw, "rescaled": setup_scaled}
    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
