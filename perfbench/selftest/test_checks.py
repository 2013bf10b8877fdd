"""Each correctness check of the benchmark rejects a deliberately wrong answer.

    python3 -m pytest perfbench/selftest -q
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import hostclock  # noqa: E402
import oracle as o  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402

from weylkit.elements import bracket, p, parse_element, q  # noqa: E402
from weylkit.liestruct import CatalogTag  # noqa: E402
from weylkit.scalars import Scalar  # noqa: E402


def lib(text):
    return o.from_library(parse_element(text))


def query(queries, prefix):
    return next(x for x in queries if x.label.startswith(prefix))


# -- the differential-operator representation -------------------------------------------


def test_product_and_bracket_reject_a_wrong_answer():
    a, b = parse_element("p^2*q - 1/2*q + (1+2i)*p^3"), parse_element("q^3*p + 3*p")
    A, B = o.from_library(a), o.from_library(b)
    assert o.product_holds(A, B, o.from_library(a * b))
    assert not o.product_holds(A, B, o.from_library(b * a))
    assert o.bracket_holds(A, B, o.from_library(bracket(a, b)))
    assert not o.bracket_holds(A, B, o.from_library(bracket(a, b) + p))


def test_eigen_triplet_and_casimir_reject_wrong_answers():
    x, y, h = lib("-1/2*q^2"), lib("1/2*p^2"), lib("p*q - 1/2")
    assert o.eigen_holds(h, x, 2) and not o.eigen_holds(h, x, 1)
    assert o.triplet_holds(x, y, h) and not o.triplet_holds(y, x, h)
    assert o.casimir_value(x, y, h) == (-o.Fraction(3, 8), 0)
    assert o.casimir_value(lib("q^2"), y, h) is None


def test_substitution_and_closedness_reject_wrong_answers():
    chain = [o.phi_images(1, (0, 1)), o.phi_prime_images(2, (1, 0))]
    x = lib("p*q + q")
    # phi(1, i) then phi'(2, 1): p -> p + q^2, q -> q + i(p + q^2)
    pp, qq = p + q * q, q + (p + q * q).scale(Scalar(0, 1))
    right = o.from_library(pp * qq + qq)
    assert o.substitution_holds(chain, x, right)
    assert not o.substitution_holds(chain, x, o.from_library(pp * qq))
    assert o.span_is_closed([lib("p^2"), lib("q^2"), lib("p*q - 1/2")])
    assert not o.span_is_closed([lib("p^2"), lib("q^2"), lib("p*q")])
    assert not o.span_is_closed([lib("p^2"), lib("q")])


def test_rank_and_closed_form_dimension():
    assert o.rank([lib("p"), lib("q"), lib("p + q")]) == 2
    assert o.eigenspace_dim(1, 0, 2) == 2      # 1 and p*q
    assert o.eigenspace_dim(2, 2, 3) == 2      # q and p*q^2
    assert o.f2_casimir((1, 0)) == (o.Fraction(3, 2), 0)


# -- workload checks --------------------------------------------------------------------


def test_roundtrip_check_rejects_wrong_tag_dimension_and_conjugate():
    queries = workloads.roundtrip(random.Random(3))
    qr = query(queries, "roundtrip Sl2xC")
    conj, closed, tag = qr.run()
    qr.check((conj, closed, tag))
    with pytest.raises(CheckFailed):
        qr.check((conj, closed, CatalogTag("Sl2")))
    other = query(queries, "roundtrip Sl2SemidirectH3").run()
    with pytest.raises(CheckFailed):
        qr.check((conj, other[1], tag))
    with pytest.raises(CheckFailed):
        qr.check(([x + p for x in conj], closed, tag))


def test_spectra_checks_reject_wrong_eigenspaces_and_patterns():
    queries = workloads.spectra(random.Random(3))
    qe = query(queries, "eigvecs fI 0")
    basis = qe.run()
    qe.check(basis)
    with pytest.raises(CheckFailed):
        qe.check(basis[1:])
    with pytest.raises(CheckFailed):
        qe.check(basis[:-1] + [basis[-1] + p])
    qs = query(queries, "s11 fI")
    report = qs.run()
    qs.check(report)
    wrong = report._replace(plus=report.plus._replace(eigen_dim=report.plus.eigen_dim + 1))
    with pytest.raises(CheckFailed):
        qs.check(wrong)
    qx = query(queries, "s11 exotic")
    report = qx.run()
    qx.check(report)
    with pytest.raises(CheckFailed):
        qx.check(report._replace(plus=report.plus._replace(matches=False)))
    qw = query(queries, "weights Sl2xC")
    spaces = qw.run()
    qw.check(spaces)
    with pytest.raises(CheckFailed):
        qw.check({lam + 1: vs for lam, vs in spaces.items()})
    with pytest.raises(CheckFailed):
        qw.check({lam: vs[:1] for lam, vs in spaces.items()})


def test_orbits_checks_reject_changed_casimir_and_moved_isotropy():
    queries = workloads.orbits(random.Random(3))
    qa = query(queries, "act fII")
    moved, value = qa.run()
    qa.check((moved, value))
    with pytest.raises(CheckFailed):
        qa.check((moved, value + 1))
    with pytest.raises(CheckFailed):
        qa.check((moved._replace(X=moved.Y), value))
    qi = query(queries, "isotropy fI")
    qi.check(qi.run())
    with pytest.raises(CheckFailed):
        qi.check(False)


def _fake_cli(argv):
    from weylkit import cli
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return hostclock.ChildRun(code, out.getvalue(), err.getvalue(), 0)


def test_cli_checks_reject_wrong_exit_codes_and_outputs():
    queries = workloads.cli(random.Random(3), _fake_cli)
    results = [x.run() for x in queries]
    for x, r in zip(queries, results):
        x.check(r)
    by_label = dict(zip((x.label for x in queries), zip(queries, results)))
    qj, rj = by_label["cli mul --json"]
    with pytest.raises(CheckFailed):
        qj.check(rj._replace(code=1))
    wrong = rj.stdout.replace('"i": 0', '"i": 7', 1)
    assert wrong != rj.stdout
    with pytest.raises(CheckFailed):
        qj.check(rj._replace(stdout=wrong))
    qt, rt = by_label["cli mul"]
    qj.check(rj)
    with pytest.raises(CheckFailed):
        qt.check(rt._replace(stdout=rt.stdout + "extra\n"))
    qs, rs = by_label["cli syntax --json"]
    with pytest.raises(CheckFailed):
        qs.check(rs._replace(code=1))


# -- the host-speed correction ----------------------------------------------------------


def test_work_between_samples_is_rescaled_by_the_reference():
    clock = hostclock.HostClock()
    nominal = hostclock.NOMINAL_REF_S
    # work 1 s at nominal speed, then 1 s with the reference twice as slow
    clock.samples = [(0.0, nominal), (1.0 + nominal, nominal), (2.0 + 2 * nominal, 2 * nominal)]
    raw, corrected = clock.between(0, 2)
    assert raw == pytest.approx(2.0)
    assert corrected == pytest.approx(1.0 + 1.0 / 1.5)
