"""Host-speed calibration: fixed kernels timed next to every measurement.

The benchmark runs on two vCPUs of a shared host whose speed drifts: the same
work takes up to 1.5 times as long from one minute, or one second, to the
next, and ten identical runs spread by 10-26% between their quartiles.  A
kernel that does the same kind of work as a workload slows with it, so the
benchmark times a kernel just before and just after each measurement and
reports

    measured seconds * REF_S[kernel] / mean(kernel time before, after)

that is, the time the measurement would have taken on a host running at the
reference speed, where the kernel takes ``REF_S[kernel]``.  Each kernel time
is the median of ``REPS`` back-to-back runs.

The kernels use their own data and never call belllab, so a change to the
program moves the scaled times exactly as it moves the measured ones.  They
assume the program is idle between commands, as it is when ``cli.run`` has
returned: work the program left running would slow the kernel and make the
program look faster.

- ``python``: a Python loop, then compiling and running forty small function
  definitions, standard library only, the make-up of importing modules; it
  scales set-up and runs before numpy is imported;
- ``interp``: a Python loop and small complex numpy products (``kron``,
  ``@``, ``vdot``), the make-up of the Bell objective, the Jacobi sweeps and
  the CLI;
- ``vector``: uniform draws, ``searchsorted`` over a 4096-entry cumulative
  table, an int8 cast and a sum over 20 000 entries, the make-up of the
  sampler.

Importing this module imports nothing but the standard library; numpy is
imported the first time a numpy kernel runs.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on the reference machine (README); it only sets the unit.
REF_S = {"python": 3.15e-3, "interp": 2.47e-3, "vector": 2.96e-3}
REPS = 3

_data = {}


def _arrays():
    if not _data:
        import numpy as np

        rng = np.random.default_rng(0)
        table = np.cumsum(rng.random(4096))
        _data.update(
            np=np,
            m=rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
            v=rng.standard_normal(8) + 1j * rng.standard_normal(8),
            table=table / table[-1],
        )
    return _data


# forty small function definitions, compiled and run by the "python" kernel
_SOURCE = "".join(f"def f{i}(a, b=1):\n    return [a + b * k for k in range(3)]\n" for i in range(40))


def _python():
    s = 0
    for i in range(10000):
        s += i * i
    exec(compile(_SOURCE, "<calib>", "exec"), {})
    return s


def _interp():
    a = _arrays()
    np, m, v = a["np"], a["m"], a["v"]
    s = 0
    for i in range(5000):
        s += i * i
    for _ in range(60):
        np.vdot(v, np.kron(m[:2, :2], m) @ v)
    return s


def _vector():
    a = _arrays()
    np = a["np"]
    draws = np.random.default_rng(1).random(20_000)
    return int(np.searchsorted(a["table"], draws).astype(np.int8).sum())


KERNELS = {"python": _python, "interp": _interp, "vector": _vector}


def kernel_s(name: str) -> float:
    """Seconds one run of the named kernel takes now: the median of REPS runs."""
    fn = KERNELS[name]
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Scale:
    """Factors that turn measured seconds into reference seconds.

    ``begin()`` times the kernel before the first measurement; each
    ``factor()`` times it again and returns ``REF_S`` over the mean of that
    time and the one before, for the measurement made in between.
    """

    def __init__(self, name: str):
        self.name = name
        self.ref = REF_S[name]
        self.last = None

    def begin(self):
        self.last = kernel_s(self.name)

    def factor(self) -> float:
        now = kernel_s(self.name)
        out = self.ref / ((self.last + now) / 2.0)
        self.last = now
        return out
