"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 15 --trace 0

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
the per-layer metrics, from spans the benchmark records around crossgen's
functions. The program is imported from `src/` of the checkout this file
sits in. Run files (checkpoints, manifests, outputs, spans, result.json) go
to `perfbench/runs/<workload>-seed<n>-trace<t>/`.
"""

from __future__ import annotations

import time

_T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pretrain", "transfer", "translate")
# one BLAS thread: the model's matrices are small (d=64), and a second thread
# contends with other tenants of a shared machine, which makes runs noisy
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def process_start() -> float:
    """perf_counter() value at this process's start (10 ms resolution), or at
    the start of this script when /proc cannot tell."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return _T_SCRIPT
    age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    now = time.perf_counter()
    return now - age if 0.0 <= age <= now - _T_SCRIPT + 60.0 else _T_SCRIPT


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        build = "unknown"
    return {"numpy": np.__version__, "blas": build, "blas_threads": BLAS_THREADS,
            "python": sys.version.split()[0], "cpus": len(os.sched_getaffinity(0))}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path,
        t_start: float, sizes=None) -> dict:
    """One workload run; returns the result object the benchmark prints."""
    import tracing
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    with workloads.StepClock() as clock:
        state = workloads.Run(clock=clock, tracer=tracer, t_start=t_start)
        if trace:
            tracer.install()
        try:
            workloads.RUNNERS[workload](state, seed, seconds, sizes or workloads.FULL,
                                        str(workdir))
        finally:
            state.stop_tracing()
    if trace:
        metrics = tracing.layer_metrics(tracer)
        tracer.write(workdir / "spans.json.gz")
        (workdir / "self_times.json").write_text(
            json.dumps(tracing.self_time_summary(tracer), indent=1, sort_keys=True))
    else:
        metrics = workloads.end_to_end_metrics(state)
    for problem in state.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not state.problems,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(trace), "wall_s": state.wall_s, "setup_s": state.setup_s,
                 "counts": dict(state.counts),
                 "absent": tracer.absent if tracer is not None else [],
                 **environment()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = process_start()
    if not (ROOT / "src" / "crossgen" / "__init__.py").is_file():
        print(f"error: no crossgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    workdir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, t_start)
    info = result.pop("info")
    (workdir / "result.json").write_text(json.dumps({**result, "info": info}, indent=1))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
