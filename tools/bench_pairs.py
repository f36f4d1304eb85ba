"""Interleaved benchmark pairs of two checkouts, summarised per metric.

Usage (from anywhere):

    python tools/bench_pairs.py BASE CHANGE --workload qc-sweep --seed 0 \
        --pairs 10 [--out BENCH_name.json]

BASE and CHANGE are the roots of two checkouts. Each pair runs
``perfbench/run.py --workload W --seed S`` once in each checkout, at
perfbench's own run length, one after the other, in a fresh process each; the side that runs
first alternates from pair to pair, so a slow spell of the host falls on
both sides alike. For every end-to-end metric the tool prints each side's
median and quartiles over the pairs, the relative change of the medians,
how many pairs the change won (ties count for neither side) and whether
the medians differ by more than the base's interquartile range. It also
prints whether every run was correct and whether the two sides report the
same ``patterns_digest`` and ``solvers.iterations``. A run that was not
correct is printed with its exit code and the note of each
``# CHECK FAILED:`` line perfbench printed; its record keeps both.

With --out, the summary and every run's values are stored in that JSON
file under the key ``<workload>-seed<seed>``; other keys already in the
file are kept, so one file can collect several workloads and seeds.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys

_DIGEST = re.compile(r"^# patterns_digest=(\S+) solvers\.iterations=(\d+)$",
                     re.M)
_CHECK_FAILED = re.compile(r"^# CHECK FAILED: (.*)$", re.M)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    parser.add_argument("base", help="root of the base checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True,
                        help="a workload name; perfbench/run.py checks it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="BENCH_*.json file to update")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_once(root, workload, seed):
    """One perfbench run in checkout root: its record (see parse_run)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    return parse_run(proc.stdout, proc.returncode)


def parse_run(stdout, exit_code):
    """A run's record from its stdout and exit code: the exit code, whether
    it was correct, its metrics, its digest line's values and the note of
    every ``# CHECK FAILED:`` line, which say why a run was not correct."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    match = _DIGEST.search(stdout)
    return {
        "exit_code": exit_code,
        "correct": bool(result.get("correct")) and exit_code == 0,
        "check_failed": _CHECK_FAILED.findall(stdout),
        "metrics": {name: entry["value"]
                    for name, entry in result.get("metrics", {}).items()},
        "patterns_digest": match.group(1) if match else None,
        "iterations": int(match.group(2)) if match else None,
    }


def quartiles(values):
    """(q1, median, q3), quartiles inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def directions(root):
    """metric -> 'lower' or 'higher', from the checkout's BENCHMARK.json."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", [])}


def summarise(pairs, better):
    """Per metric: each side's quartiles, wins and the IQR test."""
    summary = {}
    names = sorted(set(pairs[0]["base"]["metrics"])
                   & set(pairs[0]["change"]["metrics"]))
    for name in names:
        if not all(name in p[side]["metrics"] for p in pairs
                   for side in ("base", "change")):
            continue
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        summary[name] = {
            "better": better.get(name, "lower"),
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "relative_change": (cq[1] / bq[1] - 1.0) if bq[1] else None,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "medians_apart_by_more_than_base_iqr":
                abs(cq[1] - bq[1]) > bq[2] - bq[0],
        }
    return summary


def main(argv=None):
    args = parse_args(argv)
    roots = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    pairs = []
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, args.seed)
        pairs.append(pair)
        print(f"# pair {i}: " + "  ".join(
            f"{side} solve_s={pair[side]['metrics'].get('solve_s')!r} "
            f"correct={pair[side]['correct']}" for side in order),
            flush=True)
        for side in order:
            if not pair[side]["correct"]:
                print(f"#   {side} exit code {pair[side]['exit_code']}"
                      + "".join(f"; check failed: {note}"
                                for note in pair[side]["check_failed"]),
                      flush=True)

    summary = summarise(pairs, directions(roots["change"]))
    all_correct = all(p[s]["correct"] for p in pairs
                      for s in ("base", "change"))
    same = {key: len({p[s][key] for p in pairs
                      for s in ("base", "change")}) == 1
            for key in ("patterns_digest", "iterations")}
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs; "
          f"base -> change")
    print(f"  every run correct: {all_correct}; same patterns_digest: "
          f"{same['patterns_digest']}; same solvers.iterations: "
          f"{same['iterations']}")
    for name, s in summary.items():
        b, c = s["base"], s["change"]
        rel = s["relative_change"]
        rel = "n/a" if rel is None else f"{100.0 * rel:+.1f}%"
        print(f"  {name}: {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
              f" -> {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
              f" ({rel}); wins {s['wins']}/{s['pairs']}, losses "
              f"{s['losses']}; medians apart by more than the base IQR: "
              f"{s['medians_apart_by_more_than_base_iqr']}")

    if args.out:
        try:
            with open(args.out) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {}
        doc.setdefault("env", {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "numpy": importlib.metadata.version("numpy"),
        })
        doc.setdefault("runs", {})[f"{args.workload}-seed{args.seed}"] = {
            "workload": args.workload,
            "seed": args.seed,
            "every_run_correct": all_correct,
            "same_patterns_digest": same["patterns_digest"],
            "same_iterations": same["iterations"],
            "summary": summary,
            "pairs": pairs,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
