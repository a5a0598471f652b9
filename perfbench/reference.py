"""Host speed, measured with a fixed reference kernel, and rescaled times.

The benchmark's hosts switch between speed states that differ by up to
1.6x, for seconds to minutes, whatever the measured process does; a
process's CPU time stretches with its wall time.  So the workers sample
a short fixed kernel throughout every timed operation and every set-up,
and the benchmark reports times rescaled to a fixed host speed:

    rescaled = measured * REFERENCE_S / (mean kernel seconds meanwhile)

The kernel mixes what ``cho`` spends its time on: an interpreted Python
loop, small ``numpy`` vector operations, ``scipy.sparse.bmat`` and a
SuperLU factorization and solve of a small 2D block system.  It uses
nothing from ``cho``, so a change to ``cho`` cannot change its time.
"""

import signal
import time

import numpy as np
import scipy.sparse as sp
# Bound at import, before a tracer patches scipy.sparse, so that kernel
# calls never show up in a traced run's spans.
from scipy.sparse import bmat
from scipy.sparse.linalg import splu

# Seconds of one kernel call at the speed rescaled times refer to (the
# median on a 2-vCPU Xeon host); a constant, so that rescaled times of
# different runs and commits compare.
REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.1    # kernel period while an operation runs


def _laplacian(n):
    d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(eye, d) + sp.kron(d, eye)).tocsr()


_N = 10
_K = _laplacian(_N)
_M = sp.identity(_N * _N, format="csr") * (1.0 / _N**2)
_RHS = np.linspace(0.0, 1.0, 2 * _N * _N)


def kernel():
    """One call of the reference kernel; returns a checksum."""
    acc = 0.0
    table = {}
    for i in range(2000):
        acc += (i % 7) * 0.5 - (i % 3)
        table[i & 63] = acc
    x = np.linspace(-1.0, 1.0, 256)
    for _ in range(30):
        x = np.clip(x * 0.9 + 0.05 * np.tanh(x), -1.0, 1.0)
    B = bmat([[_M, _K], [_K, -_M]], format="csc")
    return acc + float(x.sum()) + float(splu(B).solve(_RHS)[0]) + len(table)


def _call():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the kernel before, during and after a timed block.

    While the block runs, a SIGALRM handler calls the kernel every
    ``SAMPLE_EVERY_S`` seconds (between bytecodes; no thread).  ``spent``
    is the time the handler took, for the caller to subtract from the
    block's time; ``kernel_s`` is the mean kernel time over the block.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_call())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        if self.enabled:
            self.samples.append(_call())
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self.samples.append(_call())

    @property
    def kernel_s(self):
        return sum(self.samples) / len(self.samples) if self.samples else float("nan")
