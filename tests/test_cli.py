"""End-to-end command tests: output text, JSON payloads and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import weylkit
from weylkit import Scalar, WeylElement, elements, errors, sl2orbits
from weylkit.cli import main
from weylkit.elements import format_element, parse_element, zero

from .test_liestruct import _NON_UNIT_CHAIN


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


def test_classify_refuses_high_degree_before_any_symmetrisation(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("symmetrize reached")

    monkeypatch.setattr(elements, "symmetrize", counted)
    for text in ("p^3", "p^12*q^12", "1 + q^40*p^40"):
        code, out, err = run(capsys, "classify", text)
        assert code == 2 and out == "" and "degree" in err
    assert calls == []


def test_classify_of_a_high_degree_element_exits_promptly():
    # the δ image of p^12 q^12 once took every distinct ordering of a 24-letter word
    src = str(Path(weylkit.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "weylkit.cli", "classify", "p^12*q^12"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert "degree" in done.stderr


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


def test_weights_of_the_zero_element_is_a_usage_error(capsys):
    code, out, err = run(capsys, "weights", "0", "p")
    assert code == 2 and out == "" and "nonzero" in err


def test_weights_not_diagonalisable_exits_one(capsys):
    code, _, err = run(capsys, "weights", "q", "p")
    assert code == 1 and "eigenspaces" in err


def test_triplet_valid_and_invalid(capsys):
    code, out, _ = run(capsys, "triplet", "--",
                       "-1/2*q^2", "1/2*p^2", "p*q - 1/2")
    assert code == 0 and out == "valid\n"
    code, out, _ = run(capsys, "triplet", "q", "p", "1")
    assert code == 1 and out.startswith("invalid")


@pytest.mark.parametrize("argv, out, err", [
    (["triplet", "p", "q", "1"], "invalid: [H,X] = 2X\n", ""),
    (["triplet", "--json", "p", "q", "1"],
     '{"schema": "weyl/triplet/v1", "valid": false, "reason": "[H,X] = 2X"}\n', ""),
    (["triplet", "0", "p", "q"], "invalid: triplet members must be nonzero\n", ""),
    (["casimir", "p", "q", "1"], "", "no: [H,X] = 2X\n"),
    (["act", "alpha1(1,0,0,1)", "1", "0", "0", "1", "p", "q", "1"], "", "no: [H,X] = 2X\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_sl2_refusals_keep_their_bytes(capsys, argv, out, err):
    # a non-triplet X Y H is refused by the realisation type, with the failing
    # relation on stdout for `triplet` and on stderr for the commands reading one
    assert run(capsys, *argv) == (1, out, err)


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


def test_casimir_rejects_two_elements(capsys):
    # one literal or three elements X Y H; two elements are neither
    code, out, err = run(capsys, "casimir", "p", "q")
    assert code == 2 and out == "" and "a realisation is fI, fII(b), exotic" in err


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


def test_casimir_reports_a_literal_position_in_the_whole_argument(capsys):
    code, out, err = run(capsys, "casimir", "fII(1+x)")
    assert code == 2 and out == ""
    assert err == "error: expected ',' or ')' (at position 5)\n"


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


# stdout, stderr and exit code of `weyl --help`, bare `weyl`, `weyl nosuch` and
# of every subcommand given `--help` and given no arguments, recorded at 80
# columns (under Python 3.11's argparse layout) before the subcommands moved
# onto the `_command` registry; then an extra argument, an unknown option, and
# `-h` and `--json` before the command, recorded while the parser still held
# every subcommand.
SURFACE = json.loads((Path(__file__).parent / "golden_cli_surface.json").read_text())


@pytest.mark.parametrize("case", SURFACE, ids=lambda case: " ".join(["weyl", *case["argv"]]))
def test_help_and_usage_match_the_recorded_surface(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


_NEGATIVE = {"NoProportionality", "NotNilpotent", "NotInA1Form", "NotDiagonalisable",
             "IrrationalSpectrum", "RelationFailed", "NonScalarCasimir"}
_RESOURCE = {"NotLocallyNilpotent", "DimensionExceeded", "BudgetExceeded"}


@pytest.mark.parametrize("name", errors.__all__)
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, name):
    args = {"NotLocallyNilpotent": ("p", 4), "DimensionExceeded": (8,)}.get(name, ("boom",))
    exc = getattr(errors, name)(*args)

    def raiser(*args):
        raise exc
    monkeypatch.setattr(sl2orbits, "casimir", raiser)
    prefix, want = (("no:", 1) if name in _NEGATIVE else
                    ("bound hit:", 3) if name in _RESOURCE else ("error:", 2))
    code, out, err = run(capsys, "casimir", "fI")
    assert (code, out) == (want, "") and err == f"{prefix} {exc}\n"


def test_a_value_error_other_than_the_digit_limit_propagates(capsys, monkeypatch):
    # only Python's int-to-text digit cap is a resource bound; any other
    # ValueError from a handler is a fault and leaves main uncaught
    def raiser(*args):
        raise ValueError("boom")
    monkeypatch.setattr(sl2orbits, "casimir", raiser)
    with pytest.raises(ValueError, match="^boom$"):
        run(capsys, "casimir", "fI")


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
from weylkit.scalars import ONE, Scalar, _clear
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
# the columns of [[0, -1], [1, 0]], cleared over one lcm
if eigenvalues(*_clear({1: ONE}, {0: -ONE})) != [(Scalar(0, -1), 1), (Scalar(0, 1), 1)]:
    raise SystemExit("wrong eigenvalues of the rotation matrix")
""")


_CORE = {"weylkit", "weylkit.cli", "weylkit.elements", "weylkit.errors", "weylkit.scalars"}
_SL2 = {"weylkit.sl2orbits"}
_STRUCT = {"weylkit.liestruct", "weylkit.linalg"}


@pytest.mark.parametrize("argv, extra", [
    (["mul", "q^2", "p^2"], set()), (["bracket", "p", "q"], set()), (["mul", "p^", "q"], set()),
    (["apply", "phi(2,1); scale(3)", "q"], {"weylkit.morphisms"}),
    (["closure", "p^3", "q"], _STRUCT), (["recognize", "p^2", "q^2"], _STRUCT),
    (["casimir", "fII(1)"], _SL2), (["exotic"], _SL2), (["triplet", "p", "q", "1"], _SL2),
    (["s11", "fII(1)", "--degree", "6"], _SL2 | {"weylkit.dixmier", "weylkit.linalg"}),
    (["act", "alpha1(1,1,0,1)", "1", "1", "0", "1", "fI"], _SL2 | {"weylkit.morphisms"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, extra):
    # a fresh interpreter compiles every module it imports, so a command
    # imports the library modules of its own handler and no others: a span
    # loads linalg, the s11 side dixmier, a morphism morphisms; the text form
    # does not load json
    _run_without_sympy(f"""
import contextlib, io, sys
import weylkit.cli
had_json = "json" in sys.modules
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    weylkit.cli.main({argv!r})
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "weylkit")
if loaded != {sorted(_CORE | extra)!r}:
    raise SystemExit(f"loaded {{loaded}}")
if "json" in sys.modules and not had_json:
    raise SystemExit("the text form loaded json")
""")


@pytest.mark.parametrize("index", [(0, 1, 3), (1, 3), (2, 4)])
def test_recognition_after_a_non_unit_chain_runs_without_loading_sympy(index):
    # ad(h) on these closures is triangular, so its spectrum is read off the
    # diagonal and the factoriser past the norm budget, sympy's, never runs
    chain = [(make.__name__, n, lam.a, lam.b, lam.d) for make, n, lam in _NON_UNIT_CHAIN]
    _run_without_sympy(f"""
import sys
from fractions import Fraction
from weylkit import morphisms
from weylkit.liestruct import CatalogTag, catalog, lie_closure, normalize_tag, recognize
from weylkit.scalars import Scalar
tag = CatalogTag("R", {index!r})
m = None
for name, n, a, b, d in {chain!r}:
    step = getattr(morphisms, name)(n, Scalar(Fraction(a, d), Fraction(b, d)))
    m = step if m is None else morphisms.compose(step, m)
real = lie_closure([m(x) for x in catalog(tag).realization.images])
if recognize(real.algebra) != normalize_tag(tag):
    raise SystemExit(f"{{tag}} recognised as {{recognize(real.algebra)}}")
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
