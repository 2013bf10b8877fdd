"""Host-speed correction for timings taken on a machine whose speed drifts.

The speed of one CPU of a shared host can change by a factor of two or more
within a fraction of a second, and the change hits the library and any other
pure-Python work alike.  So every timing here is paired with a reference
computation: a fixed slice of plain ``fractions``/``dict`` arithmetic that
uses no library code.  A ``HostClock`` runs it at every query boundary and,
through ``SIGALRM``, every ``TICK_S`` seconds while a query runs.  Each
stretch of work between two samples is rescaled by ``NOMINAL_REF_S`` over
the mean of the two samples around it, so a time is reported as it would
read on a host on which the reference takes exactly ``NOMINAL_REF_S``.
Reference time is never counted as work.  Work done in child processes is
timed with a ``ChildClock`` instead, whose reference runs in a fresh
interpreter too.  ``spawn`` runs a child on the caller's CPU.
"""

from __future__ import annotations

import gc
import os
import select
import signal
import statistics
import sys
import time
from fractions import Fraction
from typing import NamedTuple

# Nominal durations of the two references (see HostClock and ChildClock).
# Changing one rescales every figure corrected with it; they are part of the
# benchmark's definition and stay fixed.
NOMINAL_REF_S = 0.0005
NOMINAL_CHILD_REF_S = 0.1
TICK_S = 0.02
REF_STEPS = 40


def reference() -> int:
    """The reference computation: Gaussian-rational multiply-adds in a dict."""
    acc: dict[int, Fraction] = {}
    re, im = Fraction(1), Fraction(0)
    for k in range(REF_STEPS):
        a = Fraction(k % 7 + 1, k % 5 + 2)
        re, im = re * a - im, re + im * a
        if re.denominator > 10 ** 12:
            re, im = Fraction(re.numerator % 1009, 3), Fraction(im.numerator % 1013, 5)
        acc[k % 13] = acc.get(k % 13, 0) + re
    return len(acc)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that the reference
    samples the CPU the measured work runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostClock:
    """Reference samples over a run, and corrected durations between them.

    ``samples`` holds (start, duration) of every reference run, in order.
    ``ref_spent`` is their total, so ``work_time()`` is a clock that stops
    while the reference runs.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.ref_spent = 0.0
        self._ticking = False

    def sample(self) -> int:
        """Run the reference once; returns the index of the new sample."""
        # A collection triggered inside the reference would be charged to
        # the host; it belongs to the work that allocated the garbage.
        gc.disable()
        t = time.perf_counter()
        reference()
        d = time.perf_counter() - t
        gc.enable()
        self.samples.append((t, d))
        self.ref_spent += d
        return len(self.samples) - 1

    def work_time(self) -> float:
        return time.perf_counter() - self.ref_spent

    def _on_tick(self, signum, frame):
        self.sample()

    def start_ticks(self):
        if not self._ticking:
            signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            self._ticking = True

    def stop_ticks(self):
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._ticking = False

    def between(self, i: int, j: int) -> tuple[float, float]:
        """(raw, corrected) work seconds from the end of sample i to the
        start of sample j, reference runs in between excluded."""
        raw = corrected = 0.0
        for k in range(i, j):
            t0, d0 = self.samples[k]
            t1, d1 = self.samples[k + 1]
            gap = t1 - (t0 + d0)
            raw += gap
            corrected += gap * NOMINAL_REF_S / ((d0 + d1) / 2)
        return raw, corrected

    def timed(self, fn):
        """Run fn between two samples; returns (result, raw_s, corrected_s)."""
        i = self.sample()
        result = fn()
        j = self.sample()
        raw, corrected = self.between(i, j)
        return result, raw, corrected

    def median_ref_ms(self) -> float:
        return statistics.median(d for _, d in self.samples) * 1e3


class ChildRun(NamedTuple):
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def spawn(argv: list[str], env: dict, out_dir: str, timeout: float = 150.0) -> ChildRun:
    """Run argv to completion with its output in files under out_dir.  The
    child shares the caller's CPU; a child still running after ``timeout``
    seconds is killed."""
    out_path = os.path.join(out_dir, f"child-of-{os.getpid()}.stdout")
    err_path = os.path.join(out_dir, f"child-of-{os.getpid()}.stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(argv[0], argv, env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                       (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                                       (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)])
    fd = os.pidfd_open(pid)
    ready = []
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.close(fd)
        _, status, usage = os.wait4(pid, 0)
    if not ready:
        raise TimeoutError(f"{argv[1:]} ran longer than {timeout} s")
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    os.unlink(out_path)
    os.unlink(err_path)
    return ChildRun(os.waitstatus_to_exitcode(status), stdout, stderr, usage.ru_maxrss)


class ChildClock:
    """Corrected durations of work done in child processes.

    Interpreter start-up and imports do not slow down by the same factor as
    arithmetic in a running process, so here the reference is a fresh
    interpreter that runs ``reference()`` ten times (``python hostclock.py``),
    sampled once before the first piece of work and after every piece.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.samples: list[float] = []
        self.sample()

    def sample(self):
        t = time.perf_counter()
        spawn([sys.executable, os.path.abspath(__file__)], dict(os.environ), self.out_dir)
        self.samples.append(time.perf_counter() - t)

    def timed(self, fn):
        """Run fn, then sample; returns (result, raw_s, corrected_s)."""
        t = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t
        self.sample()
        reference_s = (self.samples[-2] + self.samples[-1]) / 2
        return result, raw, raw * NOMINAL_CHILD_REF_S / reference_s

    def median_ref_ms(self) -> float:
        return statistics.median(self.samples) * 1e3


def process_age() -> float:
    """Seconds since this process was started (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


if __name__ == "__main__":
    for _ in range(10):
        reference()
