"""compound-bc benchmark runner.

    python3 perfbench/run.py --workload da-envelope --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/,
so nothing is built or installed.  Each workload runs in a fresh worker
process whose environment pins the BLAS/OpenMP thread pools before numpy
loads, so `peak_rss_mb` is that process's own peak.  Set-up is measured
from process start to the first workload call, in SETUP_RUNS processes, and
reported as the median.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1).  Earlier lines report the pinned
environment, the output digest, the pass times and the figures measured on
the outputs.  The exit code is 0 only for a run whose outputs pass every
correctness check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("da-envelope", "ta-brute", "miso-cli", "fme-project")
SETUP_RUNS = 5
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GRACE_S = 120  # allowance on top of --seconds for one worker's set-up


def worker_env():
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, env, extra=()):
    """Start one worker and wait for it; returns (start time, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=args.seconds + GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def recorded_digest(workload, seed):
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def main(argv=None):
    parser = argparse.ArgumentParser(description="compound-bc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not Path("src/compound_bc/cli.py").is_file():
        sys.exit("run from the root of a compound-bc checkout: "
                 "src/compound_bc is missing")

    env = worker_env()
    print(json.dumps({"threads": {v: env[v] for v in THREAD_VARS},
                      "nproc": len(os.sched_getaffinity(0))}))
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            start, rep = run_worker(args, env, ["--setup-only"])
            setups.append(rep["setup_done"] - start)
    start, report = run_worker(args, env)

    recorded = recorded_digest(args.workload, args.seed)
    if recorded is None:
        status = f"no recorded digest for seed {args.seed}"
    elif recorded == report["digest"]:
        status = "matches the recorded digest"
    else:
        status = f"CHANGED from the recorded {recorded}"
    stable = "" if report["digest_stable"] else ", differs between passes"
    print(f"digest {args.workload} seed {args.seed}: {report['digest']} "
          f"({status}{stable})")
    print(json.dumps({"passes": report["passes"], "pass_s": report["pass_s"],
                      "figures": report["figures"]}))
    for error in report["errors"]:
        print(f"check failed: {error}", file=sys.stderr)

    if args.trace:
        metrics = report["per_layer"]
    else:
        setups.append(report["setup_done"] - start)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": report["solve_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
