"""proxident benchmark entry point.

  python3 perfbench/run.py --workload qc-sweep --seed 0 --seconds 25 --trace 0

runs one workload in this process and prints, as its last stdout line, one
JSON object with the keys correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
``--workload all`` (the default) runs every workload, each in its own fresh
child process, and prints one table. See perfbench/README.md.

BLAS is pinned to BLAS_THREADS threads before numpy is imported, so every
number is taken at a known thread count.
"""

import argparse
import json
import os
import subprocess
import sys

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("qc-sweep", "lasso-bundle", "lowrank", "segment-1d")
DEFAULT_SEED = 0  # the baseline seed
HELD_OUT_SEED = 7  # confirms a later claim on inputs it was not tuned on

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"makes every input; {DEFAULT_SEED} is the "
                        f"baseline, {HELD_OUT_SEED} the held-out check")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the harness's own test")
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in a fresh child process; one table at the end."""
    rows = []
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {name}: no result (exit code {proc.returncode})")
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        rows.append((name, result))
    print()
    for name, result in rows:
        attempted, failed = result["attempted"], result["failed"]
        print(f"{name}: correct={result['correct']} attempted={attempted} "
              f"failed={failed} fail_ratio={failed / attempted!r} 1")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']!r} {entry['unit']}")
    return status


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "proxident", "__init__.py")):
        print(f"perfbench: no proxident sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import harness  # noqa: E402  (numpy must load after the BLAS pinning)

    return harness.main(args, blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
