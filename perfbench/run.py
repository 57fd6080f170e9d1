"""rwmm benchmark: run one workload end to end and print its metrics as JSON.

    python3 perfbench/run.py --workload grid-iid --seed 1 --seconds 10 --trace 0

Run from the root of an rwmm checkout; the package is imported from
``src/``. Each workload runs in a fresh single-threaded Python process
(``perfbench/workload.py``). With ``--trace 0`` one process times the set-up
several times, and a second repeats the workload's command sequence until
``--seconds`` have passed; the end-to-end metrics are medians, with times
scaled to a reference machine speed. With ``--trace 1`` it runs the sequence
once untraced and once traced, and reports the per-layer metrics plus
``trace.overhead_s``, the difference of the two scaled wall times; the traced
run's spans are written to ``.perfbench_run/spans/``.

The last line printed is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the machine, versions, seed and sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_run"
BUDGET_S = 170  # every child together; a run must end within 180 s
END_TO_END_UNITS = {
    "sim_samples_per_s": "samples/s",
    "post_samples_per_s": "samples/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_child(args, workdir: Path, deadline: float, *extra: str) -> dict:
    """Run the workload in a fresh process; its last stdout line is its result."""
    command = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), *extra,
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREADED},
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # the child is killed and reaped
        raise BenchError(f"{args.workload} did not finish within {BUDGET_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{args.workload} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rwmm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "sources_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="grid-iid, walk-exact or continuous")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rwmm" / "__init__.py").is_file():
        print(f"perfbench: no rwmm package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
            plain = run_child(args, workdir / "plain", deadline)
            traced = run_child(args, workdir / "traced", deadline, "--spans", str(spans))
            children = [plain, traced]
            metrics = traced["per_layer"]
            metrics["trace.overhead_s"] = {
                "value": traced["wall_s"] - plain["wall_s"],
                "unit": "s",
            }
        else:
            # set-up in its own process, so that peak RSS is the commands' own
            setup = run_child(args, workdir / "setup", deadline, "--setup")
            measured = run_child(args, workdir / "measure", deadline, "--seconds", str(args.seconds))
            children = [setup, measured]
            metrics = {"setup_s": {"value": setup["setup_s"], "unit": "s"}}
            for name, unit in END_TO_END_UNITS.items():
                metrics[name] = {"value": measured[name], "unit": unit}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for child in children for f in child["failures"]]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reps": children[-1]["reps"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": children[-1]["numpy"],
        **source_identity(),
        "sizes": {k: v for child in children for k, v in child["sizes"].items()},
        "stages": {k: v for child in children for k, v in child["stages"].items()},
        "failures": failures,
        "calibration_s": [child["calibration_s"] for child in children],
    }
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(child["attempted"] for child in children),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
