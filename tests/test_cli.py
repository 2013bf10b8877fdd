"""End-to-end command tests: output text, JSON payloads and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit
from weylkit import Scalar, WeylElement, elements
from weylkit.cli import main
from weylkit.elements import format_element, parse_element, zero


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_bracket_of_the_generators(capsys):
    code, out, _ = run(capsys, "bracket", "p", "q")
    assert code == 0 and out == "1\n"


def test_mul_normal_orders(capsys):
    code, out, _ = run(capsys, "mul", "q^2", "p^2")
    assert code == 0 and out.splitlines()[0] == "p^2*q^2 - 4*p*q + 2"


def test_classify_semisimple_element(capsys):
    code, out, _ = run(capsys, "classify", "p*q + 7")
    assert code == 0 and out.splitlines()[0] == "Delta3"


def test_classify_too_high_degree_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classify", "p^3")
    assert code == 2 and "degree" in err


def test_closure_hits_the_dimension_bound(capsys):
    code, _, err = run(capsys, "closure", "--max-dim", "8", "p^3", "q^2")
    assert code == 3 and "8" in err


def test_zero_generators_are_a_usage_error(capsys):
    # they would close to the zero algebra, which no catalog tag names
    for cmd in ("recognize", "closure"):
        code, out, err = run(capsys, cmd, "0", "0")
        assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("ftest", "p", "q", "--max-iter", "-1"),
    ("expmap", "p*q^2+q", "--max-iter", "0"),
    ("eigvecs", "p*q", "0", "--degree", "-1"),
    ("s11", "fI", "--degree", "-1"),
    ("closure", "p", "q", "--max-dim", "0"),
], ids=" ".join)
def test_nonsensical_budgets_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_closure_of_a_finite_pair(capsys):
    code, out, _ = run(capsys, "closure", "p^3", "q")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "dimension 5"
    assert lines[1:] == ["p^3", "q", "p^2", "p", "1"]


def test_ftest_negative_answer_exits_one(capsys):
    code, out, _ = run(capsys, "ftest", "--max-iter", "12", "p*q^2 + q", "q")
    assert code == 1 and out.startswith("NotStabilized")


def test_ftest_positive_answer(capsys):
    code, out, _ = run(capsys, "ftest", "p^2", "q")
    assert code == 0 and out.startswith("Stabilized")


def test_eigvecs_with_negative_eigenvalue(capsys):
    code, out, _ = run(capsys, "eigvecs", "p*q", "--degree", "4", "--", "-2")
    lines = out.splitlines()
    assert code == 0 and lines[0].startswith("dimension 2")
    assert set(lines[1:]) == {"p^3*q", "p^2"}


def test_powrel_prints_the_identity(capsys):
    code, out, _ = run(capsys, "powrel", "p*q", "p^2", "p^3")
    assert code == 0
    assert "X1^3 = 1 * X2^2" in out


def test_powrel_preconditions_are_usage_errors(capsys):
    code, _, err = run(capsys, "powrel", "p*q", "p^2", "q^3")
    assert code == 2 and "commute" in err
    code, _, err = run(capsys, "powrel", "p*q", "p^2", "1")
    assert code == 2 and "sign" in err


def test_recognize_catalog_family(capsys):
    code, out, _ = run(capsys, "recognize", "p", "p*q", "p^2")
    assert code == 0 and out == "R(1,2)\n"


def test_invariants_lines(capsys):
    code, out, _ = run(capsys, "invariants", "q", "p^2")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "dimension 4"
    assert lines[3] == "centre dimension 1"
    assert lines[4] == "solvable: yes; nilpotent: yes"


def test_filiform_chain(capsys):
    code, out, _ = run(capsys, "filiform", "q", "p^2")
    assert code == 0
    assert out.splitlines()[0].startswith("X0 = ")


def test_filiform_rejects_non_nilpotent(capsys):
    code, _, err = run(capsys, "filiform", "p*q", "p")
    assert code == 1 and "nilpotent" in err


def test_weights_decomposition(capsys):
    code, out, _ = run(capsys, "weights", "p*q", "p^2", "q^2")
    assert code == 0
    assert out.splitlines() == ["-2: p^2", "0: p*q; 1", "2: q^2"]
    # the weights are those of ad(h), not of ad(h) over h's leading coefficient
    code, out, _ = run(capsys, "weights", "--", "-3*p*q", "p", "q")
    assert code == 0
    assert out.splitlines() == ["-3: q", "0: p*q; 1", "3: p"]


def test_weights_not_diagonalisable_exits_one(capsys):
    code, _, err = run(capsys, "weights", "q", "p")
    assert code == 1 and "eigenspaces" in err


def test_triplet_valid_and_invalid(capsys):
    code, out, _ = run(capsys, "triplet", "--",
                       "-1/2*q^2", "1/2*p^2", "p*q - 1/2")
    assert code == 0 and out == "valid\n"
    code, out, _ = run(capsys, "triplet", "q", "p", "1")
    assert code == 1 and out.startswith("invalid")


def test_casimir_literals(capsys):
    assert run(capsys, "casimir", "fI")[1] == "-3/8\n"
    assert run(capsys, "casimir", "fII(1)")[1] == "3/2\n"
    assert run(capsys, "casimir", "exotic")[1] == "3/2\n"
    code, out, _ = run(capsys, "casimir", "--",
                       "-1/2*q^2", "1/2*p^2", "p*q - 1/2")
    assert code == 0 and out == "-3/8\n"


def test_casimir_rejects_unknown_literal(capsys):
    code, _, err = run(capsys, "casimir", "fIII")
    assert code == 2 and "realisation" in err


def test_act_transports_a_realisation(capsys):
    code, out, _ = run(capsys, "act", "alpha1(1,1,0,1)", "1", "1", "0", "1", "fI")
    assert code == 0
    assert out.splitlines() == ["X = -1/2*q^2", "Y = 1/2*p^2", "H = p*q - 1/2"]


def test_isotropy_fixed_and_moved(capsys):
    assert run(capsys, "isotropy", "alpha1(0,1,-1,0)",
               "0", "1", "--", "-1", "0", "fI")[0] == 0
    code, out, _ = run(capsys, "isotropy", "id", "1", "1", "0", "1", "fI")
    assert code == 1 and out == "moved\n"


def test_isotropy_beta_literal(capsys):
    code, out, _ = run(capsys, "isotropy", "beta(2,0)", "2", "0", "0", "1/2",
                       "fII(1)")
    assert code == 0 and out == "fixed\n"


def test_exotic_report_lines(capsys):
    code, out, _ = run(capsys, "exotic")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "X = p*q^2 + q"
    assert "X matches printed form: yes" in lines
    assert "H == -4*p^2*q^4 + 2*p*q + 1: yes" in lines
    assert "H == -4*p^4*q^2 + 2*p*q + 1: no" in lines


def test_s11_exotic_in_pattern(capsys):
    code, out, _ = run(capsys, "s11", "exotic")
    assert code == 0 and out.splitlines()[-1] == "InS11Pattern"


def test_s11_diagonal_family_misses_the_pattern(capsys):
    code, out, _ = run(capsys, "s11", "fII(1)")
    assert code == 1
    assert "witness: p*q^2" in out
    assert out.splitlines()[-1] == "NotInS11Pattern"


def test_apply_composed_morphism(capsys):
    code, out, _ = run(capsys, "apply", "phi(2,1); scale(3)", "q")
    assert code == 0 and out == "1/9*p^2 + 3*q\n"


def test_apply_rejects_unknown_literal(capsys):
    code, _, err = run(capsys, "apply", "nosuch(1)", "p")
    assert code == 2 and "unknown morphism literal" in err


@pytest.mark.parametrize("chain, position", [
    ("phi(1,2); scale(x)", 16),
    ("phi(1, 2) ;  scale( 1 ,  y)", 25),
    (" phi(1, 2 x) ", 10),
    ("id; translate(1, 2/0)", 20),
])
def test_apply_reports_argument_positions_in_the_whole_chain(capsys, chain, position):
    code, out, err = run(capsys, "apply", chain, "p")
    assert code == 2 and out == ""
    assert err.endswith(f"(at position {position})\n")


@pytest.mark.parametrize("argv", [
    ("eigvecs", "--degree", "61", "p*q", "2"),
    ("s11", "--degree", "61", "exotic"),
    ("eigvecs", "--degree", "10000000000", "p*q", "2"),
], ids=" ".join)
def test_degree_windows_past_the_budget_are_resource_bounds(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("bound hit:") and "1891" in err


def test_expmap_verdicts(capsys):
    assert run(capsys, "expmap", "p^3")[0] == 0
    code, out, _ = run(capsys, "expmap", "--max-iter", "12", "p*q^2 + q")
    assert code == 1 and out.splitlines()[0] == "no_evidence"


def test_element_parse_errors_exit_two(capsys):
    for bad in ("p q", "(p+q)", ""):
        code, _, err = run(capsys, "mul", bad, "p")
        assert code == 2 and err.startswith("error:")


# -- JSON ------------------------------------------------------------------------------


def test_json_payloads_carry_schema(capsys):
    cases = [
        (["mul", "--json", "p", "q"], "weyl/mul/v1"),
        (["classify", "--json", "p*q"], "weyl/classify/v1"),
        (["closure", "--json", "p^3", "q"], "weyl/closure/v1"),
        (["casimir", "--json", "fI"], "weyl/casimir/v1"),
        (["exotic", "--json"], "weyl/exotic/v1"),
    ]
    for argv, schema in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["schema"] == schema


def test_json_element_records(capsys):
    _, out, _ = run(capsys, "mul", "--json", "q", "p")
    payload = json.loads(out)
    assert payload["product"]["text"] == "p*q - 1"
    assert payload["product"]["terms"] == [
        {"i": 1, "j": 1, "re_num": 1, "re_den": 1, "im_num": 0, "im_den": 1},
        {"i": 0, "j": 0, "re_num": -1, "re_den": 1, "im_num": 0, "im_den": 1},
    ]


def test_json_is_byte_stable(capsys):
    first = run(capsys, "s11", "--json", "fII(1)")
    second = run(capsys, "s11", "--json", "fII(1)")
    assert first == second
    assert first[0] == 1 and json.loads(first[1])["verdict"] == "NotInS11Pattern"


# --json stdout and exit code of closure, recognition, invariants, filiform
# chains, weights, eigenvectors, ftest and s11, recorded from the code as it
# was before all row reduction moved onto linalg.Echelon.
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_json_output_matches_the_recorded_golden(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def test_json_negative_results_still_emit_payloads(capsys):
    code, out, _ = run(capsys, "ftest", "--json", "--max-iter", "6",
                       "p*q^2 + q", "q")
    assert code == 1
    assert json.loads(out)["verdict"] == "NotStabilized"


# -- round trip ------------------------------------------------------------------------


def _random_element(rng) -> WeylElement:
    x = zero
    for _ in range(rng.randint(0, 5)):
        c = Scalar(rng.randint(-9, 9), rng.randint(-9, 9))
        if not c:
            continue
        x = x + WeylElement.monomial(rng.randint(0, 6), rng.randint(0, 6),
                                     coeff=c)
    return x


def test_round_trip_two_hundred_random_elements(capsys):
    rng = random.Random(2024)
    for _ in range(200):
        x = _random_element(rng)
        text = format_element(x)
        code, out, _ = run(capsys, "mul", "--", text, "1")
        assert code == 0 and out == text + "\n"
        assert parse_element(text) == x


def test_integers_too_long_to_print_are_a_resource_bound(capsys):
    # the product has coefficients beyond Python's int-to-text digit limit
    for argv in (["mul", "q^2400", "p^2400"], ["mul", "--json", "q^2400", "p^2400"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("bound hit:") and "4300 digits" in err


def test_products_past_the_budget_are_refused_before_any_kernel_work(capsys, monkeypatch):
    class KernelRan(Exception):
        pass

    def no_kernel(*args):
        raise KernelRan

    monkeypatch.setattr(elements, "_accumulate", no_kernel)
    for command in ("mul", "bracket"):
        with pytest.raises(KernelRan):  # the largest accepted product
            run(capsys, command, "q^2400", "p^2400")
        for a, b in (("q^2400", "p^2401"), ("q^3600", "p^3600"), ("q^20000", "p^20000"),
                     ("q^2400 + q^2399", "p^2400")):
            code, out, err = run(capsys, command, a, b)
            assert code == 3 and out == ""
            assert err.startswith("bound hit:") and "product budget" in err


def test_products_inside_an_argument_are_refused_before_any_kernel_work(capsys, monkeypatch):
    class KernelRan(Exception):
        pass

    def no_kernel(*args):
        raise KernelRan

    monkeypatch.setattr(elements, "_accumulate", no_kernel)
    with pytest.raises(KernelRan):  # the largest accepted product
        run(capsys, "mul", "q^2400*p^2400", "1")
    for argv in (("mul", "q^3600*p^3600", "1"), ("mul", "1", "q^2401*p^2400"),
                 ("classify", "2 + q^20000*p^20000")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("bound hit:") and "product budget" in err


def test_a_product_past_the_budget_in_one_argument_exits_promptly():
    src = str(Path(weylkit.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "weylkit.cli", "mul", "q^3600*p^3600", "1"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 3 and done.stdout == ""
    assert "product budget" in done.stderr


_NO_SYMPY_CHECK = """
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
if loaded:
    raise SystemExit(f"sympy loaded: {loaded[:5]}")
"""


def _run_without_sympy(script):
    src = str(Path(weylkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script + _NO_SYMPY_CHECK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr + done.stdout


def test_commands_run_without_loading_sympy():
    # sympy is imported only to factorise a characteristic polynomial whose
    # eigenvalue search is over the norm budget
    _run_without_sympy("""
import contextlib, io, sys
import weylkit, weylkit.cli
from weylkit.linalg import eigenvalues
from weylkit.scalars import ONE, ZERO, Scalar
commands = [
    (["mul", "q^2", "p^2"], 0), (["bracket", "p", "q"], 0),
    (["apply", "phi(2,1); scale(3)", "q"], 0), (["closure", "p^3", "q"], 0),
    (["recognize", "p^2", "q^2"], 0), (["casimir", "fII(1)"], 0),
    (["s11", "fII(1)"], 1), (["exotic"], 0),
    (["act", "alpha1(1,1,0,1)", "1", "1", "0", "1", "fI"], 0),
    (["triplet", "p", "q", "1"], 1),
    (["weights", "--", "p*q - 1/2", "-1/2*q^2", "1/2*p^2"], 0),
    (["recognize", "p*q", "p", "p^3"], 0),
]
for argv, want in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = weylkit.cli.main(argv)
    if code != want:
        raise SystemExit(f"{argv}: exit {code}, expected {want}")
if eigenvalues([[ZERO, -ONE], [ONE, ZERO]]) != [(Scalar(0, -1), 1), (Scalar(0, 1), 1)]:
    raise SystemExit("wrong eigenvalues of the rotation matrix")
""")


def test_benchmark_weight_spaces_and_recognition_run_without_loading_sympy():
    # the weight classes and R index sets of the spectra benchmark workload,
    # and recognition of every catalog class (the roundtrip workload's)
    _run_without_sympy("""
import sys
from weylkit.liestruct import CatalogTag, catalog, normalize_tag, recognize, weight_spaces
weights = [("Sl2", None, 2), ("Sl2xC", None, 3), ("Sl2SemidirectH3", None, 5),
           ("LTilde", 3, 0)]
weights += [("R", idx, 0) for idx in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]]
for kind, param, h in weights:
    spaces = weight_spaces(catalog(CatalogTag(kind, param)).realization, h)
    if sum(len(v) for v in spaces.values()) != catalog(CatalogTag(kind, param)).algebra.dim:
        raise SystemExit(f"{kind}{param}: weight spaces do not span")
tags = [("Abelian", 2), ("Heisenberg3", None), ("Sl2", None), ("Sl2xC", None),
        ("Sl2SemidirectH3", None), ("Sl2SemidirectC2", None), ("L", 3), ("L", 4),
        ("LTilde", 2), ("LTilde", 3), ("LTildeModC", 3), ("R", (1,)), ("R", (1, 3)),
        ("R", (2, 4)), ("R", (0, 1, 3)), ("R", (1, 2)), ("R", (3, 4))]
for kind, param in tags:
    tag = CatalogTag(kind, param)
    if recognize(catalog(tag).algebra) != normalize_tag(tag):
        raise SystemExit(f"{tag} recognised as {recognize(catalog(tag).algebra)}")
""")
