"""A fixed loop that measures how fast the shared host runs right now.

The host's speed drifts by up to 2x over seconds to minutes, in wall and CPU
time alike, so raw op times of one commit spread too widely between runs to
compare two commits. The benchmark times this loop next to the work it
measures and reports that work at reference speed: its wall time times
``CAL_REF_S`` over the loop's time. ``CAL_REF_S`` is about the loop's median
on a 2-core "Intel Xeon Processor" VM (Python 3.11, numpy 2.4, one BLAS thread).
"""

import io
import time

import numpy

CAL_REF_S = 0.004
_MATRICES = [m + m.T for m in numpy.random.default_rng(0).standard_normal((16, 4, 4))]


def calibration_loop():
    """Wall time of a fixed loop of the program's kinds of work: small dense
    eigenproblems, array arithmetic and number formatting. It uses nothing of
    the package, so the package's speed cannot move it."""
    out = io.StringIO()
    t0 = time.perf_counter()
    for i in range(14):
        for m in _MATRICES:
            w = numpy.linalg.eigvalsh(m)
            out.write(f"{i},{w[0]!r},{float(numpy.trace(m @ m))!r}\n")
    return time.perf_counter() - t0


def calibrate(seconds):
    """Times of calibration loops run for at least ``seconds``, and at least one."""
    times = [calibration_loop()]
    while sum(times) < seconds:
        times.append(calibration_loop())
    return times
