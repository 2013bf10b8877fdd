"""Layer reference figures: the ROADMAP Baseline table, measured again.

    python3 perfbench/baseline.py            # layer figures and line count
    python3 perfbench/baseline.py --tier1    # also the tier-1 test suite's wall time

Each timing is the median of several repetitions, printed raw and corrected
to the nominal host speed of ``hostclock``.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import hostclock  # noqa: E402


def measure(clock, fn, reps):
    """Median (raw, corrected) seconds of fn over reps runs."""
    runs = [clock.timed(fn)[1:] for _ in range(reps)]
    return statistics.median(r for r, _ in runs), statistics.median(c for _, c in runs)


def random_element(rng, terms, degree):
    from weylkit.elements import WeylElement
    from weylkit.scalars import Scalar
    out = {}
    while len(out) < terms:
        i = rng.randint(0, degree)
        out[(i, rng.randint(0, degree - i))] = Scalar(rng.randint(-9, 9) or 1, rng.randint(-9, 9))
    return WeylElement(out)


def random_matrix(rng, n):
    from weylkit.scalars import Scalar
    return [[Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-2, 2))
             for _ in range(n)] for _ in range(n)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true", help="also time the tier-1 test suite")
    args = parser.parse_args()

    hostclock.pin_to_one_cpu()
    clock = hostclock.HostClock()
    clock.start_ticks()
    rows = []
    try:
        from sympy.polys.domains import QQ_I
        from sympy.polys.matrices import DomainMatrix
        from weylkit import linalg
        from weylkit.elements import bracket
        from weylkit.morphisms import compose, phi, phi_prime
        from weylkit.scalars import Scalar

        rng = random.Random(0)
        a, b = Scalar(Fraction(3, 7), Fraction(-5, 11)), Scalar(Fraction(-2, 9), Fraction(4, 13))
        fa, fb = Fraction(3, 7), Fraction(-2, 9)
        n = 20000
        raw, cor = measure(clock, lambda: [a * b for _ in range(n)], 5)
        rows.append(("multiply: Scalar", raw / n * 1e6, cor / n * 1e6, "us"))
        raw, cor = measure(clock, lambda: [fa * fb for _ in range(n)], 5)
        rows.append(("multiply: bare Fraction", raw / n * 1e6, cor / n * 1e6, "us"))

        pairs = [(random_element(rng, 8, 6), random_element(rng, 8, 6)) for _ in range(5)]
        raw_p, cor_p = measure(clock, lambda: [x * y for x, y in pairs], 3)
        raw_b, cor_b = measure(clock, lambda: [bracket(x, y) for x, y in pairs], 3)
        rows.append(("product: 8 terms, degree 6", raw_p / 5 * 1e3, cor_p / 5 * 1e3, "ms"))
        rows.append(("bracket / product", raw_b / raw_p, cor_b / cor_p, "ratio"))

        m = random_matrix(rng, 12)
        dm = DomainMatrix([[QQ_I.from_sympy(linalg._to_sympy(c)) for c in row] for row in m],
                          (12, 12), QQ_I)
        for name, fn in (("12x12 rref: linalg", lambda: linalg.rref(m)),
                         ("12x12 rref: DomainMatrix", lambda: dm.rref()),
                         ("12x12 charpoly: linalg", lambda: linalg.charpoly(m)),
                         ("12x12 charpoly: DomainMatrix", lambda: dm.charpoly())):
            raw, cor = measure(clock, fn, 3)
            rows.append((name, raw * 1e3, cor * 1e3, "ms"))

        units = [Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1)]

        def chains():
            for _ in range(8):
                m = None
                for k in range(4):
                    g = (phi if k % 2 else phi_prime)(rng.choice([1, 2]), rng.choice(units))
                    m = g if m is None else compose(g, m)
        raw, cor = measure(clock, chains, 1)
        rows.append(("8 chains of 4 compose calls", raw, cor, "s"))

        if args.tier1:
            env = dict(os.environ, PYTHONPATH=SRC)
            cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                   "-p", "no:cacheprovider"]
            _, raw, cor = clock.timed(lambda: subprocess.run(cmd, cwd=ROOT, env=env,
                                                              capture_output=True, check=False))
            rows.append(("tier-1 suite", raw, cor, "s"))
    finally:
        clock.stop_ticks()

    lines = 0
    pkg = os.path.join(SRC, "weylkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    rows.append(("src/weylkit/*.py lines", lines, lines, "lines"))

    print(f"reference median {clock.median_ref_ms():.4f} ms (nominal {hostclock.NOMINAL_REF_S * 1e3} ms)")
    print(f"{'what':32s} {'corrected':>12s} {'raw':>12s}  unit")
    for name, raw, cor, unit in rows:
        print(f"{name:32s} {cor:12.4f} {raw:12.4f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
