"""Command-line front end: `weyl <command> ...`.

Every command prints a human-readable result by default and a stable JSON
object with `--json`.  Exit codes separate four situations:

* 0 — the computation succeeded and the answer is positive/neutral,
* 1 — the computation succeeded but the mathematical answer is negative
  (a relation fails, a span does not stabilise, a pattern is missed),
* 2 — the input is malformed or violates a documented precondition,
* 3 — a resource bound was hit: ``--max-iter``, ``--max-dim``, ``--degree``
  past its ceiling, a ``mul`` or ``bracket`` past the product budget, or an
  integer too long to print in decimal.

Element arguments use the expression syntax of :func:`weylkit.parse_element`;
arguments that begin with a minus sign must be preceded by ``--`` so the
option parser does not mistake them for flags.

Each subcommand is declared once, by the ``_command`` decorator on its
handler; the parser is built from that registry, and ``main`` stamps the JSON
schema ``weyl/<command>/v1`` on the fields the handler returns.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .elements import WeylElement, _check_product, bracket, format_element, parse_element
from .errors import (BudgetExceeded, DimensionExceeded, ExprSyntaxError, IrrationalSpectrum,
                     NoProportionality, NonScalarCasimir, NotDiagonalisable, NotInA1Form,
                     NotLocallyNilpotent, NotNilpotent, RelationFailed, WeylError, ZeroElement)
from .scalars import Scalar, _ScalarScanner, format_scalar, parse_scalar

_NEGATIVE = (RelationFailed, NoProportionality, NotNilpotent, NotInA1Form,
             NotDiagonalisable, IrrationalSpectrum, NonScalarCasimir)
_RESOURCE = (NotLocallyNilpotent, DimensionExceeded, BudgetExceeded)

# The one budget option a subcommand may take: flag, default and help text.
_BUDGETS = {
    "max_iter": ("--max-iter", 64, "iteration budget (default 64)"),
    "max_dim": ("--max-dim", 64, "dimension cap for closures (default 64)"),
    "degree": ("--degree", 8, "truncation degree (default 8)"),
}
# (name, help, positionals, budget, handler) per subcommand, in `--help` order.
_COMMANDS: list[tuple] = []


def _command(name: str, help_: str, *positionals, budget: Optional[str] = None):
    """Register the decorated handler as `weyl <name>`.  A positional is a name,
    or a (name, help) pair; a trailing `+` takes one or more values.  The
    handler returns (JSON fields, human-readable lines, exit code)."""
    def register(handler):
        _COMMANDS.append((name, help_, positionals, budget, handler))
        return handler
    return register


# -- serialisation helpers -----------------------------------------------------------


def _scalar_json(s: Scalar) -> dict:
    re_num, re_den, im_num, im_den = s.as_tuple()
    return {"text": format_scalar(s), "re_num": re_num, "re_den": re_den,
            "im_num": im_num, "im_den": im_den}


def _element_json(x: WeylElement) -> dict:
    return {"text": format_element(x), "terms": x.as_records()}


def _parse_realization(texts: list[str]):
    """A literal `fI`, `fII(b)`, `exotic`, or three explicit elements X Y H."""
    from .sl2orbits import Sl2Realization, exotic_g, f_I, f_II
    if len(texts) == 3:
        return Sl2Realization(*(parse_element(t) for t in texts))
    if len(texts) != 1:
        raise ExprSyntaxError(
            "a realisation is fI, fII(b), exotic, or three elements X Y H")
    sc = _ScalarScanner(texts[0])
    realization = sc.take_call({"fI": (0, f_I), "fII": (1, f_II), "exotic": (0, exotic_g)},
                               "realisation")
    sc.end("realisation")
    return realization


# -- element arithmetic --------------------------------------------------------------


def _operands(args, commutator: bool) -> tuple[WeylElement, WeylElement]:
    """The two elements, refused before any product work past the product budget."""
    x, y = parse_element(args.a), parse_element(args.b)
    _check_product(x, y, commutator)
    return x, y


@_command("mul", "normal-ordered product of two elements", "a", "b")
def _cmd_mul(args) -> tuple[dict, list[str], int]:
    a, b = _operands(args, False)
    x = a * b
    return {"product": _element_json(x)}, [format_element(x)], 0


@_command("bracket", "commutator [a, b]", "a", "b")
def _cmd_bracket(args) -> tuple[dict, list[str], int]:
    x = bracket(*_operands(args, True))
    return {"bracket": _element_json(x)}, [format_element(x)], 0


@_command("apply", "apply a morphism expression to an element", "morphism", "element")
def _cmd_apply(args) -> tuple[dict, list[str], int]:
    from .morphisms import parse_morphism
    m = parse_morphism(args.morphism)
    x = m(parse_element(args.element))
    return {"image": _element_json(x)}, [format_element(x)], 0


# -- the low-degree partition and locally nilpotent probes ---------------------------


@_command("classify", "partition class of an element of total degree <= 2", "element")
def _cmd_classify(args) -> tuple[dict, list[str], int]:
    from .dixmier import classify_low_degree
    verdict = classify_low_degree(parse_element(args.element))
    cert = None
    lines = [verdict.tag]
    if verdict.certificate is not None:
        matrix = verdict.certificate["matrix"]
        det = verdict.certificate["det"]
        cert = {"matrix": [[_scalar_json(c) for c in row] for row in matrix],
                "det": _scalar_json(det)}
        lines.append("action on span{p, q}: "
                     + "; ".join(", ".join(format_scalar(c) for c in row)
                                 for row in matrix))
        lines.append(f"det = {format_scalar(det)}")
    return {"tag": verdict.tag, "certificate": cert}, lines, 0


@_command("ftest", "grow span{ad(z)^k a} until it stabilises or the budget ends",
          "z", "a", budget="max_iter")
def _cmd_ftest(args) -> tuple[dict, list[str], int]:
    from .dixmier import f_test
    result = f_test(parse_element(args.z), parse_element(args.a), max_iter=args.max_iter)
    verdict = "Stabilized" if result.stabilized else "NotStabilized"
    line = (f"{verdict}: span dimension {result.dim} "
            f"after {result.iterations} iterations")
    return ({"verdict": verdict, "stabilized": result.stabilized,
             "dim": result.dim, "iterations": result.iterations},
            [line], 0 if result.stabilized else 1)


@_command("eigvecs", "exact ad-eigenvectors up to a truncation degree",
          "element", "eigenvalue", budget="degree")
def _cmd_eigvecs(args) -> tuple[dict, list[str], int]:
    from .dixmier import eigenvectors_truncated
    lam = parse_scalar(args.eigenvalue)
    basis = eigenvectors_truncated(parse_element(args.element), lam, args.degree)
    lines = [f"dimension {len(basis)} at eigenvalue {format_scalar(lam)} "
             f"(degree <= {args.degree})"]
    lines.extend(format_element(v) for v in basis)
    return ({"eigenvalue": _scalar_json(lam), "max_degree": args.degree,
             "dim": len(basis), "basis": [_element_json(v) for v in basis]},
            lines, 0)


@_command("powrel", "forced power relation between commuting ad(h)-eigenvectors",
          "h", "x1", "x2")
def _cmd_powrel(args) -> tuple[dict, list[str], int]:
    from .dixmier import power_relation
    n1, n2, a = power_relation(parse_element(args.h), parse_element(args.x1),
                               parse_element(args.x2))
    identity = f"X1^{abs(n2)} = {format_scalar(a)} * X2^{abs(n1)}"
    return ({"lambda1": n1, "lambda2": n2, "coeff": _scalar_json(a),
             "identity": identity},
            [f"eigenvalues {n1}, {n2}", identity], 0)


@_command("expmap", "decide or probe whether ad of the element exponentiates",
          "element", budget="max_iter")
def _cmd_expmap(args) -> tuple[dict, list[str], int]:
    from .dixmier import is_exponentiable
    report = is_exponentiable(parse_element(args.element), max_iter=args.max_iter)
    lines = [report.verdict]
    fields = {"verdict": report.verdict, "max_iter": report.max_iter}
    if report.dixmier is not None:
        fields["tag"] = report.dixmier.tag
        lines.append(f"low-degree class: {report.dixmier.tag}")
    if report.witness is not None:
        fields["witness"] = _element_json(report.witness)
        lines.append(f"witness of unbounded orbit: "
                     f"{format_element(report.witness)}")
    return fields, lines, 0 if report.verdict == "yes" else 1


# -- finite-dimensional subalgebras --------------------------------------------------


def _closure(args, first=()):
    """The closure of `first` and the parsed generators, under ``--max-dim``."""
    from .liestruct import lie_closure
    return lie_closure([*first, *(parse_element(t) for t in args.generators)],
                       max_dim=args.max_dim)


@_command("closure", "close generators under brackets; echelon basis",
          "generators+", budget="max_dim")
def _cmd_closure(args) -> tuple[dict, list[str], int]:
    real = _closure(args)
    lines = [f"dimension {real.algebra.dim}"]
    lines.extend(format_element(x) for x in real.images)
    return ({"dim": real.algebra.dim,
             "basis": [_element_json(x) for x in real.images]}, lines, 0)


def _tag_json(tag) -> dict:
    param = list(tag.param) if isinstance(tag.param, tuple) else tag.param
    return {"text": str(tag), "kind": tag.kind, "param": param}


@_command("recognize", "catalog tag of the subalgebra generated by the arguments",
          "generators+", budget="max_dim")
def _cmd_recognize(args) -> tuple[dict, list[str], int]:
    from .liestruct import recognize
    real = _closure(args)
    tag = recognize(real.algebra)
    return {"dim": real.algebra.dim, "tag": _tag_json(tag)}, [str(tag)], 0


@_command("invariants", "derived/lower-central profiles, centre, solvability flags",
          "generators+", budget="max_dim")
def _cmd_invariants(args) -> tuple[dict, list[str], int]:
    from .liestruct import invariants
    real = _closure(args)
    inv = invariants(real.algebra)
    lines = [
        f"dimension {real.algebra.dim}",
        "derived series dims: " + ", ".join(map(str, inv.derived_series_dims)),
        "lower central dims: " + ", ".join(map(str, inv.lower_central_dims)),
        f"centre dimension {inv.center_dim}",
        f"solvable: {'yes' if inv.solvable else 'no'}; "
        f"nilpotent: {'yes' if inv.nilpotent else 'no'}",
    ]
    return ({"dim": real.algebra.dim,
             "derived_series_dims": inv.derived_series_dims,
             "lower_central_dims": inv.lower_central_dims,
             "center_dim": inv.center_dim, "solvable": inv.solvable,
             "nilpotent": inv.nilpotent}, lines, 0)


@_command("filiform", "normal chain basis X0..Xn with [X0, Xk] = X(k+1)",
          "generators+", budget="max_dim")
def _cmd_filiform(args) -> tuple[dict, list[str], int]:
    from .liestruct import filiform_normal_basis
    chain = filiform_normal_basis(_closure(args))
    lines = [f"X{k} = {format_element(x)}" for k, x in enumerate(chain)]
    return ({"length": len(chain), "basis": [_element_json(x) for x in chain]},
            lines, 0)


@_command("weights", "eigenspace decomposition of ad(h) on the generated subalgebra",
          "h", "generators+", budget="max_dim")
def _cmd_weights(args) -> tuple[dict, list[str], int]:
    from .liestruct import weight_spaces
    h = parse_element(args.h)
    if h.is_zero():
        raise ZeroElement("the weight element h must be nonzero")
    real = _closure(args, [h])
    # basis row 0 is h over its leading coefficient c, so ad(h) has weights c·λ
    c = h.coeff(*h.leading_monomial())
    spaces = weight_spaces(real, 0)
    items = sorted(((c * lam, vecs) for lam, vecs in spaces.items()),
                   key=lambda kv: kv[0].sort_key())
    lines = []
    weights = []
    for lam, vecs in items:
        lines.append(f"{format_scalar(lam)}: "
                     + "; ".join(format_element(v) for v in vecs))
        weights.append({"eigenvalue": _scalar_json(lam),
                        "elements": [_element_json(v) for v in vecs]})
    return {"dim": real.algebra.dim, "weights": weights}, lines, 0


# -- canonical triplets and the group action -----------------------------------------


def _realization_json(r) -> dict:
    return {"x": _element_json(r.X), "y": _element_json(r.Y),
            "h": _element_json(r.H)}


def _realization_lines(r) -> list[str]:
    return [f"X = {format_element(r.X)}", f"Y = {format_element(r.Y)}",
            f"H = {format_element(r.H)}"]


@_command("triplet", "verify the three sl2 bracket relations", "x", "y", "h")
def _cmd_triplet(args) -> tuple[dict, list[str], int]:
    from .sl2orbits import Sl2Realization
    try:
        Sl2Realization(*(parse_element(t) for t in (args.x, args.y, args.h)))
    except RelationFailed as exc:
        return {"valid": False, "reason": str(exc)}, [f"invalid: {exc}"], 1
    return {"valid": True, "reason": None}, ["valid"], 0


@_command("casimir", "scalar value of the Casimir element of a realisation",
          ("realization+", "fI | fII(b) | exotic | X Y H"))
def _cmd_casimir(args) -> tuple[dict, list[str], int]:
    from .sl2orbits import casimir
    value = casimir(_parse_realization(args.realization))
    return {"value": _scalar_json(value)}, [format_scalar(value)], 0


# the positionals of `act` and `isotropy`: a morphism, the entries of an SL2
# group element and a realisation
_ACTION = ("morphism", "a1", "a2", "a3", "a4", "realization+")


def _action(args) -> tuple:
    """The morphism, group element and realisation of `act` and `isotropy`."""
    from .morphisms import SL2Element, parse_morphism
    m = parse_morphism(args.morphism)
    g = SL2Element(*(parse_scalar(t) for t in (args.a1, args.a2, args.a3, args.a4)))
    return m, g, _parse_realization(args.realization)


@_command("act", "transport a realisation by (morphism, group element)", *_ACTION)
def _cmd_act(args) -> tuple[dict, list[str], int]:
    from .sl2orbits import group_act
    out = group_act(*_action(args))
    return {"realization": _realization_json(out)}, _realization_lines(out), 0


@_command("isotropy", "does the pair (morphism, group element) fix the realisation?",
          *_ACTION)
def _cmd_isotropy(args) -> tuple[dict, list[str], int]:
    from .sl2orbits import isotropy_check
    m, g, r = _action(args)
    fixed = isotropy_check(r, m, g)
    return {"fixed": fixed}, ["fixed" if fixed else "moved"], 0 if fixed else 1


@_command("exotic", "compute the substituted triplet and compare printed forms")
def _cmd_exotic(args) -> tuple[dict, list[str], int]:
    from .sl2orbits import exotic_report
    report = exotic_report()
    lines = _realization_lines(report.realization)
    lines.append(f"X matches printed form: {'yes' if report.x_matches else 'no'}")
    lines.append(f"Y matches printed form: {'yes' if report.y_matches else 'no'}")
    for cand, hit in zip(report.h_candidates, report.h_matches):
        lines.append(f"H == {format_element(cand)}: {'yes' if hit else 'no'}")
    return ({"realization": _realization_json(report.realization),
             "x_matches": report.x_matches, "y_matches": report.y_matches,
             "h_candidates": [_element_json(c) for c in report.h_candidates],
             "h_matches": list(report.h_matches)}, lines, 0)


@_command("s11", "compare weight ±2 eigenspaces against the X·C[H] / Y·C[H] pattern",
          "realization+", budget="degree")
def _cmd_s11(args) -> tuple[dict, list[str], int]:
    from .sl2orbits import s11_test
    report = s11_test(_parse_realization(args.realization), args.degree)
    lines = []
    sides = {}
    for name, side in (("+2", report.plus), ("-2", report.minus)):
        status = "matches" if side.matches else "differs from"
        lines.append(f"weight {name}: eigenspace dim {side.eigen_dim} "
                     f"{status} pattern dim {side.pattern_dim}")
        witness = None
        if side.witness is not None:
            witness = _element_json(side.witness)
            lines.append(f"  witness: {format_element(side.witness)}")
        sides[name] = {"matches": side.matches, "eigen_dim": side.eigen_dim,
                       "pattern_dim": side.pattern_dim, "witness": witness}
    verdict = "InS11Pattern" if report.in_pattern else "NotInS11Pattern"
    lines.append(verdict)
    return ({"verdict": verdict, "in_pattern": report.in_pattern,
             "max_degree": args.degree, "plus": sides["+2"],
             "minus": sides["-2"]}, lines, 0 if report.in_pattern else 1)


# -- parser assembly -----------------------------------------------------------------


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The `weyl` parser; only the subparser of `argv[0]` if that names a command."""
    parser = argparse.ArgumentParser(
        prog="weyl",
        description="Exact computations with differential operators: "
                    "products, brackets, finite-dimensional subalgebras and "
                    "canonical sl2 triplets.",
        epilog="Prefix element arguments that start with '-' by '--', "
               "e.g.  weyl eigvecs 'p*q' --degree 4 -- -2")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, help_, positionals, budget, handler in (
            [c for c in _COMMANDS if c[0] in argv[:1]] or _COMMANDS):
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("--json", action="store_true",
                         help="emit a stable JSON object instead of text")
        if budget:
            flag, default, text = _BUDGETS[budget]
            cmd.add_argument(flag, type=int, default=default, help=text)
        for spec in positionals:
            arg, text = spec if isinstance(spec, tuple) else (spec, None)
            cmd.add_argument(arg.rstrip("+"), help=text,
                             nargs="+" if arg.endswith("+") else None)
        cmd.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    try:
        fields, lines, code = args.handler(args)
        if args.json:
            import json
            lines = [json.dumps({"schema": f"weyl/{args.command}/v1", **fields})]
    except _NEGATIVE as exc:
        print(f"no: {exc}", file=sys.stderr)
        return 1
    except _RESOURCE as exc:
        print(f"bound hit: {exc}", file=sys.stderr)
        return 3
    except WeylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Python's cap on the digits of an int read from or written as text
        # (sys.get_int_max_str_digits) bounds the size of what can be printed.
        if "integer string conversion" not in str(exc):
            raise
        print(f"bound hit: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
