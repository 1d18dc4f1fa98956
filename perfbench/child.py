"""Run one parityshield CLI command in this fresh interpreter and time it.

Usage: child.py SIDECAR TRACE -- CLI-ARGS...

The parent notes the monotonic clock just before spawning this process;
this process notes it again once imports are done, so the difference is
the set-up a CLI user waits for (interpreter start plus imports).  SIDECAR
receives a JSON record once the command has returned: the instants at
which ``cli.main`` was entered and left, its exit code, the numpy version,
the host-speed samples described below, and with TRACE=1 the spans and
counters of ``tracer.Tracer``.

Host speed.  Other tenants of a shared host slow every instruction of a run
by up to 2x, for seconds to minutes at a time, so wall times alone drift
with the host.  This process therefore times a fixed calibration pass
(``calibration_pass``: the same kinds of work parityshield does, in code of
the benchmark's own) ``PRE_PASSES`` times right after imports and, in
untraced runs, once every ``SAMPLE_INTERVAL_S`` during ``cli.main`` from a
SIGALRM handler.  ``run.py`` divides each wall time by the slowdown of the
pass against its time on a quiet host to get host-speed-normalised times;
the handler's own time is recorded so that it can be taken out of the
run's wall time.
"""

import cmath
import json
import signal
import sys
import time
from dataclasses import dataclass

PRE_PASSES = 20
SAMPLE_INTERVAL_S = 0.1


@dataclass(frozen=True)
class _Pulse:
    tau: float
    n: int

    def phase(self, t: float) -> complex:
        return cmath.exp(-1j * self.tau * t) * (t % self.tau)


def calibration_pass(numpy) -> None:
    """A fixed mix of the kinds of work parityshield does, in code of the
    benchmark's own: complex closed forms on frozen dataclasses with a memo
    dict, and numpy calls on small arrays."""
    memo = {}
    acc = 0j
    for i in range(250):
        pulse = _Pulse(0.1 + (i % 13) * 0.01, i % 7)
        key = (pulse, i % 50)
        value = memo.get(key)
        if value is None:
            value = memo[key] = pulse.phase(i * 1e-3)
        acc += value * cmath.sqrt(complex(pulse.tau, 1.0))
    grid = numpy.linspace(0.0, 1.0, 513)
    for k in range(60):
        acc += float(numpy.trapezoid(grid[: 2 + 8 * k], dx=0.01))
        a = numpy.asarray([k * 0.1, 1.0, 2.0, 3.0])
        acc += float(numpy.exp(-a).sum())


class HostSpeed:
    """Calibration pass times, before the run and sampled during it."""

    def __init__(self, numpy):
        self.numpy = numpy
        self.pre: list[float] = []
        self.during: list[float] = []
        self.handler_s = 0.0

    def timed_pass(self) -> float:
        t0 = time.perf_counter()
        calibration_pass(self.numpy)
        return time.perf_counter() - t0

    def calibrate(self) -> None:
        self.pre = [self.timed_pass() for _ in range(PRE_PASSES)]

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.during.append(self.timed_pass())
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    sidecar, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    import numpy
    from parityshield import cli

    entry = cli.main
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        entry = tracer.span("cli.main", cli.main)
    # time.monotonic is CLOCK_MONOTONIC, shared with the parent process
    t_ready = time.monotonic()
    host = HostSpeed(numpy)
    host.calibrate()
    if not trace:
        # traced runs are not sampled: their spans must add up to their
        # wall time, and their times are not normalised
        host.start()
    t_enter = time.monotonic()
    try:
        rc = entry(argv)
    finally:
        host.stop()
    t_exit = time.monotonic()
    sys.stdout.flush()
    record = {"t_ready": t_ready, "t_enter": t_enter, "t_exit": t_exit,
              "rc": rc, "numpy": numpy.__version__,
              "cal_pre": host.pre, "cal_during": host.during,
              "handler_s": host.handler_s}
    if tracer is not None:
        record.update(tracer.record())
    with open(sidecar, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
