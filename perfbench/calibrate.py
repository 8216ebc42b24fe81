"""Machine-speed calibration for the benchmark's time metrics.

The benchmark's machine is shared, and its speed drifts by tens of per
cent over seconds to minutes: the same job runs fast for a while, then
slow.  To keep that drift out of the time metrics, a fixed calibration
kernel runs between the measured jobs, about once per ``PERIOD`` seconds
of job time, so it samples the machine in the same stretches of time as
the jobs.  A measured time is then reported as

    measured time x KERNEL_REF_S / (mean kernel time over the same run)

that is, in seconds of the reference machine described in NOTES.md.  A
single query's latency is scaled by the samples taken just before and
after it instead, so that a burst of slowness that delays a few queries
is corrected where it happened.  Jobs that keep both cores busy (the
campaign's process pool) are calibrated with the kernel running on two
cores at once.
The kernel is benchmark code (a pure-Python loop, small numpy calls and
a small HiGHS LP through scipy), not horofill code, so a change to
horofill cannot move it; a change that makes horofill faster or slower
moves the reported times in full.  The raw times are printed too.
"""

import multiprocessing
import statistics
import time

import numpy as np
from scipy.optimize import linprog

# mean kernel time on the reference machine (2-core x86-64 VM, 2.1 GHz,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1); see NOTES.md.  A query's
# latency is scaled by the LOCAL samples on each side of it.
KERNEL_REF_S = 0.005
PERIOD = 0.05
LEAD = 1.0
LOCAL = 4

_VEC = np.arange(64.0)
_LP = np.random.default_rng(0)
_LP_A = _LP.normal(size=(40, 4))
_LP_B = _LP.uniform(1.0, 2.0, size=40)
_LP_C = _LP.normal(size=4)


def kernel():
    """One calibration sample: the same Python, numpy and LP work each time."""
    d, s = {}, 0
    for i in range(3500):
        d[i & 1023] = d.get(i & 1023, 0) + i
        s += (i * 7) % 13
    a = _VEC
    for _ in range(260):
        s += float(np.dot(a, a) + np.linalg.norm(a[:3]))
        a = a + 0.0
    linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=[(None, None)] * 4, method="highs")
    return s


def _timed(n):
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def _serve(conn):
    """Worker side of a two-core calibrator: run batches until told to stop."""
    kernel()
    while (n := conn.recv()) is not None:
        conn.send(_timed(n))


class Calibrator:
    """Runs the kernel between jobs, one sample per PERIOD s of job time.

    LEAD seconds' worth of samples are taken at once, before the first
    job, so that the first job is bracketed like the later ones.
    With ``cores`` = 2 the kernel runs in two worker processes at the same
    time, for jobs that keep both cores busy: a shared host can slow two
    busy cores when it leaves one busy core alone.  Use it as a context
    manager, so that the workers are stopped and waited for.
    """

    def __init__(self, cores=1):
        self.samples = []
        self._debt = 0.0
        self._workers = []
        if cores > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(cores):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(child,), daemon=True)
                proc.start()
                self._workers.append((proc, conn))
        else:
            kernel()  # untimed: first-call set-up inside numpy and HiGHS
        self.after_job(LEAD)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        for proc, conn in self._workers:
            conn.send(None)
            proc.join()
            conn.close()
        self._workers = []

    def after_job(self, job_seconds):
        self._debt += job_seconds
        n = int(self._debt // PERIOD)
        if n == 0:
            return
        self._debt -= n * PERIOD
        if not self._workers:
            self.samples.extend(_timed(n))
            return
        for _, conn in self._workers:
            conn.send(n)
        for _, conn in self._workers:
            self.samples.extend(conn.recv())

    def factor(self):
        """Multiplier from measured seconds to reference-machine seconds."""
        return KERNEL_REF_S / statistics.fmean(self.samples)

    def local_factor(self, mark):
        """As ``factor``, from the LOCAL samples before and after sample ``mark``."""
        return KERNEL_REF_S / statistics.fmean(self.samples[max(mark - LOCAL, 0) : mark + LOCAL])
