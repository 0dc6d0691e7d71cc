"""A fixed CPU kernel that measures how fast the machine runs right now.

On a shared virtual machine the same sweep can run at half speed for
seconds or minutes while other guests are busy, and process time slows as
much as wall time.  The benchmark therefore brackets every timed sweep and
every set-up with a short run of this kernel and scales the time it took to
``NOMINAL_RATE``: the figures read as they would on the machine running the
kernel at that rate.  Raw figures and kernel rates are kept in the run's
details file.

A sweep on N pool workers runs on N processors, so its speed is measured
with N copies of the kernel running at once: this process runs one and
helper processes, started once, run the others.

The kernel mixes the two kinds of work fdhbf does: numpy calls on 2x4 and
4x4 complex matrices, as in the routing search, and a gather-and-sum over a
16384x4 index block, as in the beam search.  It is part of the benchmark's
definition: change it, or ``NOMINAL_RATE``, only together with a new
baseline.
"""

import subprocess
import sys
import time

import numpy as np

NOMINAL_RATE = 500.0  # kernel passes per second
SLICE_S = 0.05         # length of one calibration run


class Calibration:
    """The kernel's data, and helper processes for concurrent copies.

    Use as a context manager, so that the helpers are stopped."""

    def __init__(self, copies: int = 1):
        rng = np.random.default_rng(20200226)
        self.si = [rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
                   for _ in range(10)]
        self.dl = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.gain = rng.random((4, 16))
        self.index = rng.integers(0, 16, (16384, 4))
        self.chains = np.arange(4)[None, :]
        self._helpers = [
            subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
            for _ in range(copies - 1)
        ]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for helper in self._helpers:
            helper.stdin.close()  # the helper exits at end of input
        for helper in self._helpers:
            helper.wait(timeout=30)

    def _pass(self) -> float:
        total = 0.0
        for m in self.si:
            basis = np.linalg.svd(m)[2].conj().T[:, 1:]
            g = np.sort(np.linalg.svd(self.dl @ basis, compute_uv=False) ** 2)[::-1]
            inv = 1.0 / g
            level = (1.0 + np.cumsum(inv)) / np.arange(1, g.size + 1)
            p = np.maximum(level[-1] - inv, 0.0)
            leak = np.sum(np.abs(m @ basis * np.sqrt(p)) ** 2, axis=1)
            total += bool(np.all(leak <= 1.0))
            c = np.linalg.cholesky(np.eye(2) + m @ m.conj().T)
            total += float(np.sum(np.log2(np.real(np.diag(c)))))
        num = self.gain[self.chains, self.index].sum(axis=1)
        return total + float(np.max(num / (1.0 + num)))

    def _own_rate(self, seconds: float) -> float:
        passes = 0
        start = time.perf_counter()
        end = start + seconds
        while True:
            self._pass()
            passes += 1
            now = time.perf_counter()
            if now >= end:
                return passes / (now - start)

    def rate(self, seconds: float = SLICE_S) -> float:
        """Kernel passes per second over at least `seconds`, averaged over
        the concurrent copies."""
        for helper in self._helpers:
            helper.stdin.write(f"{seconds}\n")
            helper.stdin.flush()
        rates = [self._own_rate(seconds)]
        rates += [float(helper.stdout.readline()) for helper in self._helpers]
        return sum(rates) / len(rates)


def speed(before: float, after: float) -> float:
    """Machine speed during a timed interval, as a share of nominal, from
    the kernel rates measured just before and just after it."""
    return float(np.sqrt(before * after)) / NOMINAL_RATE


if __name__ == "__main__":
    # Helper process: one calibration run per line of input, until it ends.
    calibration = Calibration()
    for line in sys.stdin:
        print(calibration._own_rate(float(line)), flush=True)
