"""Record the 1-D prox calls of the segment-1d benchmark and replay them.

Usage (from the root of a checkout):

    python tools/kernel_replay.py [--seed 0] [--replays 5] [--shuffle S]

The tool builds segment-1d's inputs through ``perfbench/workloads.py``
(imported only; it changes nothing there), runs the workload's solver runs
once and records every call of the tv1d and potts1d proxes: the input,
gamma, lam and the output's point, pattern bits and value. It then replays
the recorded stream ``--replays`` times, kind by kind in the order of the
runs (the two kinds keep separate plans, so this is the order each kernel
saw). Before each replay it resets the kernels' module slots, the plans
and the Potts DP's per-length constants, so every replay starts as a
fresh process does. ``--shuffle S`` replays each kind's calls in a
permuted order (seed S), a stream whose consecutive inputs are unrelated.

Per kind it prints the number of calls, the least microseconds per call
over the replays, and how many full computations one replay ran: taut-
string scans for tv1d, dynamic programs for potts1d. It exits 1 when any
replayed output differs in a byte from the recorded one.

Run as a script, it pins BLAS to one thread before numpy is imported, as
the benchmark does; ``--smoke`` uses the benchmark's reduced sizes.
"""

import argparse
import os
import sys
from time import perf_counter
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import proxident.prox as prox  # noqa: E402

KINDS = ("tv1d", "potts1d")
# kind -> (the prox kernel's name, the full computation's name, its label)
KERNELS = {"tv1d": ("prox_tv1d", "_tv1d_segments", "scans"),
           "potts1d": ("prox_potts1d", "_potts_segments", "dps")}
# the module slots the kernels keep between calls
SLOTS = ("_tv1d_plan", "_tv1d_decisions", "_tv1d_input", "_potts_plan",
         "_potts_back", "_potts_consts")


def record(seed, smoke=False):
    """The workload's 1-D prox calls, in order: (kind, u, gamma, lam,
    point bytes, pattern bytes, value)."""
    import workloads  # perfbench/workloads.py, on the path as a script

    workload = workloads.make("segment-1d", smoke=smoke)
    calls = []
    original = prox.Regularizer.prox

    def recording(reg, u, gamma):
        res = original(reg, u, gamma)
        if reg.kind in KINDS:
            calls.append((reg.kind, np.array(u, dtype=float), gamma, reg.lam,
                          res.point.tobytes(), res.pattern.bits.tobytes(),
                          res.value))
        return res

    inputs = list(workload.setup(seed, None))
    with mock.patch.object(prox.Regularizer, "prox", recording):
        workload.solve(inputs, seed, None)
    return calls


def reset_slots():
    for name in SLOTS:
        setattr(prox, name, None)


def replay(calls, kind):
    """(seconds, full computations, indices of the calls whose output
    differs) of one replay of kind's calls, from reset slots."""
    kernel_name, full_name, _ = KERNELS[kind]
    kernel = getattr(prox, kernel_name)
    full = getattr(prox, full_name)
    count = [0]

    def counting(*args):
        count[0] += 1
        return full(*args)

    reset_slots()
    results = []
    with mock.patch.object(prox, full_name, counting):
        start = perf_counter()
        for _, u, gamma, lam, *_ in calls:
            results.append(kernel(u, gamma, lam))
        seconds = perf_counter() - start
    differs = [i for i, (res, call) in enumerate(zip(results, calls))
               if (res.point.tobytes(), res.pattern.bits.tobytes(),
                   res.value) != call[4:]]
    return seconds, count[0], differs


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="tools/kernel_replay.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replays", type=int, default=5)
    parser.add_argument("--shuffle", type=int, default=None, metavar="S",
                        help="replay each kind's calls permuted by seed S")
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's reduced input sizes")
    args = parser.parse_args(argv)
    if args.replays < 1:
        parser.error("--replays must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    calls = record(args.seed, args.smoke)
    order = ("" if args.shuffle is None
             else f", shuffled by seed {args.shuffle}")
    print(f"segment-1d seed {args.seed}: {len(calls)} recorded 1-D prox "
          f"calls; {args.replays} replays{order}")
    status = 0
    for kind in KINDS:
        stream = [call for call in calls if call[0] == kind]
        if args.shuffle is not None:
            rng = np.random.default_rng(args.shuffle)
            stream = [stream[i] for i in rng.permutation(len(stream))]
        if not stream:
            continue
        best, counts = np.inf, set()
        for i in range(args.replays):
            seconds, count, differs = replay(stream, kind)
            best = min(best, seconds)
            counts.add(count)
            if differs:
                status = 1
                print(f"# REPLAY DIFFERS: {kind} replay {i}, {len(differs)} "
                      f"calls, the first at {differs[0]}")
        per_call = 1e6 * best / len(stream)
        print(f"{kind}: calls {len(stream)}, min {per_call:.1f} us/call, "
              f"{KERNELS[kind][2]} {'/'.join(map(str, sorted(counts)))}")
    return status


if __name__ == "__main__":
    sys.exit(main())
