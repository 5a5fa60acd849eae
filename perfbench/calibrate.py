"""Machine-speed calibration for timings taken on a shared host.

On a few cores of a shared host, the same pure-Python job runs up to half
again as long when the host's other tenants are busy, in CPU time as well
as wall time, and how busy they are drifts over minutes.  So the timed
worker runs a fixed reference kernel between jobs, and run.py rescales
each job's time by how long the kernel took around it:

    calibrated = measured * REF_MS / (median kernel time around the job)

A calibrated time is the job's time on a machine where the kernel takes
REF_MS, which is about its time on an uncontended core of a 2.1 GHz Intel
Xeon.  The kernel is pure integer arithmetic with no unipavg code, so no
change to the package moves it, and it allocates only ints, which the
garbage collector does not track, so it adds no collections to the jobs.
"""

from __future__ import annotations

import statistics
import time
from math import gcd

# wall (and CPU) milliseconds that one kernel call is scaled to
REF_MS = 4.5

_MOD = (1 << 127) - 1
_STEPS = 6000


def kernel():
    """A fixed amount of big-integer work, about 4.5 ms on a quiet core."""
    buf = list(range(3, 3 + 64 * 977, 977))
    acc = 12345
    g = 0
    for i in range(_STEPS):
        a = buf[i & 63]
        acc = (acc * a + i) % _MOD
        g += gcd(acc, a)
        buf[(i * 7) & 63] = (acc ^ a) & 0xFFFFFFFFFFFF
    return g


def probe(calls):
    """Run the kernel `calls` times; return one [wall s, cpu s] per call."""
    out = []
    for _ in range(calls):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        out.append([time.perf_counter() - w0, time.process_time() - c0])
    return out


def scale(samples, which=0):
    """Factor that turns a time measured while `samples` were taken into a
    calibrated time; `which` is 0 for wall time, 1 for CPU time."""
    return REF_MS / (1000.0 * statistics.median(s[which] for s in samples))
