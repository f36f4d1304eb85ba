"""A fixed reference kernel, timed between solver runs, to take the host's
speed out of the reported times.

On a shared host the same code runs at different speeds from one minute to
the next: a pure-Python loop and a proxident pg run both ran 1.55x slower
for tens of seconds and then fast again, while the ratio of their times
over 5 s windows stayed within 2.5%. A run's times are therefore reported
in *yardstick seconds*: measured seconds times ``REF_S / ref``, where
``ref`` is the median time of this kernel in the samples taken around that
time (``Window.scale``) and ``REF_S`` its median time on the machine the
baseline was taken on. The measured numbers are printed next to them.

The host's slow spells do not slow every kind of work alike: in one, the
mixed kernel ran 1.5x slower while lasso-bundle's short solver runs ran
1.15x slower. So there are two kernels, and each workload names the one
shaped like its own hot loop: ``mixed`` (interpreter work, small numpy
calls, a small LAPACK call: qc-sweep, lowrank, segment-1d) and ``gram``
(proximal-gradient steps through a 400x400 Gram matrix, as lasso-bundle's
solvers take them). Both use numpy only, never proxident, so no change to
the package moves them.
"""

from time import perf_counter

import numpy as np

NEAR_S = 0.5  # a time is scaled by the samples this close to it ...
MIN_NEAR = 10  # ... and at least this many
FOLLOW_SHARE = 0.1  # samples after a timed step: this share of its time

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((30, 20))
_B = _rng.standard_normal(30)
_STEP = 1.0 / float(np.linalg.norm(_A, 2) ** 2)
_M = _rng.standard_normal((20, 20))
_G = _rng.standard_normal((200, 400))
_V = _rng.standard_normal(400)
_svd = np.linalg.svd  # bound now: a traced pass counts calls to np.linalg.svd
_W = _rng.standard_normal((200, 400))
_WB = _rng.standard_normal(200)
_GRAM = _W.T @ _W
_WTB = _W.T @ _WB
_GRAM_STEP = 1.0 / float(np.linalg.norm(_GRAM, 2))


def mixed():
    """An l1 proximal-gradient loop at n=20, a Python loop, an SVD, dense
    matrix-vector products. Deterministic; returns a checksum so nothing is
    skipped."""
    x = np.zeros(_A.shape[1])
    for _ in range(60):
        u = x - _STEP * (_A.T @ (_A @ x - _B))
        x = np.sign(u) * np.maximum(np.abs(u) - 0.1 * _STEP, 0.0)
    acc = 0
    for i in range(3000):
        acc += i * i
    v = _V
    for _ in range(4):
        v = _G.T @ (_G @ v) / 400.0
    return (float(x.sum()) + acc + float(v[0])
            + float(_svd(_M, compute_uv=False)[0]))


def gram():
    """l1 proximal-gradient steps at n=400 through a dense Gram matrix, each
    with the least-squares value; returns the last value."""
    x = np.zeros(400)
    value = 0.0
    for _ in range(12):
        u = x - _GRAM_STEP * (_GRAM @ x - _WTB)
        x = np.sign(u) * np.maximum(np.abs(u) - 0.5 * _GRAM_STEP, 0.0)
        r = _W @ x - _WB
        value = 0.5 * float(r @ r)
    return value


# kernel, and REF_S: its median time on a 2-core Intel Xeon (2.1 GHz) host,
# Python 3.11, numpy 2.4 with scipy-openblas at 1 thread (mixed: in the
# host's fast spells; 1.1 to 1.2 ms in its slow ones; gram: 1.0 ms measured
# in a slow spell, an arbitrary but fixed unit)
KERNELS = {"mixed": (mixed, 0.7e-3), "gram": (gram, 1.0e-3)}


class Yardstick:
    """Timed samples of the kernel; ``spent`` is the time the samples took,
    so the harness can leave it out of the pass's own times."""

    def __init__(self, kind):
        self.kernel, self.ref_s = KERNELS[kind]
        self.at = []  # end of each sample (perf_counter)
        self.took = []
        self.spent = 0.0

    def sample(self, times=1):
        start = perf_counter()
        for _ in range(times):
            t = perf_counter()
            self.kernel()
            end = perf_counter()
            self.at.append(end)
            self.took.append(end - t)
        self.spent += perf_counter() - start

    def follow(self, seconds):
        """Samples after a step that took ``seconds``: for FOLLOW_SHARE of
        that time, and at least one."""
        start = perf_counter()
        self.sample()
        while perf_counter() - start < FOLLOW_SHARE * seconds:
            self.sample()

    def window(self):
        """The samples since the last call, as a Window; and clear."""
        window = Window(np.array(self.at), np.array(self.took), self.ref_s)
        self.at, self.took = [], []
        return window


class Window:
    """The samples of one pass."""

    def __init__(self, at, took, ref_s):
        self.at = at
        self.took = took
        self.ref_s = ref_s

    def scale(self, start=None, end=None):
        """REF_S over the median sample within NEAR_S of [start, end] (at
        least MIN_NEAR samples: the nearest, if the window holds fewer);
        over the median of the pass when no interval is given."""
        if start is None:
            return self.ref_s / float(np.median(self.took))
        dist = np.maximum(np.maximum(start - self.at, self.at - end), 0.0)
        near = self.took[dist <= NEAR_S]
        if near.size < MIN_NEAR:
            near = self.took[np.argsort(dist)[:MIN_NEAR]]
        return self.ref_s / float(np.median(near))
