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
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from .dixmier import (classify_low_degree, eigenvectors_truncated, f_test,
                      is_exponentiable, power_relation)
from .elements import WeylElement, _check_product, bracket, format_element, parse_element
from .errors import (BudgetExceeded, DimensionExceeded, ExprSyntaxError,
                     IrrationalSpectrum, NoProportionality, NonScalarCasimir,
                     NotDiagonalisable, NotInA1Form, NotLocallyNilpotent,
                     NotNilpotent, RelationFailed, WeylError, ZeroElement)
from .liestruct import (filiform_normal_basis, invariants, lie_closure,
                        recognize, weight_spaces)
from .morphisms import SL2Element, apply, parse_morphism
from .scalars import Scalar, format_scalar, parse_scalar
from .sl2orbits import (Sl2Realization, casimir, exotic_g,
                        exotic_report, f_I, f_II, group_act,
                        isotropy_check, s11_test, triplet_check)

# A handler returns (json payload, human-readable lines, exit code).
Handler = Callable[[argparse.Namespace], tuple[dict, list[str], int]]

_NEGATIVE = (RelationFailed, NoProportionality, NotNilpotent, NotInA1Form,
             NotDiagonalisable, IrrationalSpectrum, NonScalarCasimir)
_RESOURCE = (NotLocallyNilpotent, DimensionExceeded, BudgetExceeded)


# -- serialisation helpers -----------------------------------------------------------


def _scalar_json(s: Scalar) -> dict:
    re_num, re_den, im_num, im_den = s.as_tuple()
    return {"text": format_scalar(s), "re_num": re_num, "re_den": re_den,
            "im_num": im_num, "im_den": im_den}


def _element_json(x: WeylElement) -> dict:
    return {"text": format_element(x), "terms": x.as_records()}


def _payload(command: str, **fields) -> dict:
    out = {"schema": f"weyl/{command}/v1"}
    out.update(fields)
    return out


def _parse_group_element(texts: list[str]) -> SL2Element:
    return SL2Element(*(parse_scalar(t) for t in texts))


def _parse_realization(texts: list[str]) -> Sl2Realization:
    """A literal `fI`, `fII(b)`, `exotic`, or three explicit elements X Y H."""
    if len(texts) == 3:
        return triplet_check(*(parse_element(t) for t in texts))
    if len(texts) != 1:
        raise ExprSyntaxError(
            "a realisation is fI, fII(b), exotic, or three elements X Y H")
    text = texts[0].strip()
    if text == "fI":
        return f_I()
    if text == "exotic":
        return exotic_g()
    if text.startswith("fII(") and text.endswith(")"):
        return f_II(parse_scalar(text[4:-1]))
    raise ExprSyntaxError(f"unknown realisation literal {text!r}")


# -- element arithmetic --------------------------------------------------------------


def _operands(args, commutator: bool) -> tuple[WeylElement, WeylElement]:
    """The two elements, refused before any product work past the product budget."""
    x, y = parse_element(args.a), parse_element(args.b)
    _check_product(x, y, commutator)
    return x, y


def _cmd_mul(args) -> tuple[dict, list[str], int]:
    a, b = _operands(args, False)
    x = a * b
    return (_payload("mul", product=_element_json(x)), [format_element(x)], 0)


def _cmd_bracket(args) -> tuple[dict, list[str], int]:
    x = bracket(*_operands(args, True))
    return (_payload("bracket", bracket=_element_json(x)),
            [format_element(x)], 0)


def _cmd_apply(args) -> tuple[dict, list[str], int]:
    m = parse_morphism(args.morphism)
    x = apply(m, parse_element(args.element))
    return (_payload("apply", image=_element_json(x)), [format_element(x)], 0)


# -- the low-degree partition and locally nilpotent probes ---------------------------


def _cmd_classify(args) -> tuple[dict, list[str], int]:
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
    return (_payload("classify", tag=verdict.tag, certificate=cert), lines, 0)


def _cmd_ftest(args) -> tuple[dict, list[str], int]:
    result = f_test(parse_element(args.z), parse_element(args.a),
                    max_iter=args.max_iter)
    verdict = "Stabilized" if result.stabilized else "NotStabilized"
    line = (f"{verdict}: span dimension {result.dim} "
            f"after {result.iterations} iterations")
    return (_payload("ftest", verdict=verdict, stabilized=result.stabilized,
                     dim=result.dim, iterations=result.iterations),
            [line], 0 if result.stabilized else 1)


def _cmd_eigvecs(args) -> tuple[dict, list[str], int]:
    lam = parse_scalar(args.eigenvalue)
    basis = eigenvectors_truncated(parse_element(args.element), lam,
                                   args.degree)
    lines = [f"dimension {len(basis)} at eigenvalue {format_scalar(lam)} "
             f"(degree <= {args.degree})"]
    lines.extend(format_element(v) for v in basis)
    return (_payload("eigvecs", eigenvalue=_scalar_json(lam),
                     max_degree=args.degree, dim=len(basis),
                     basis=[_element_json(v) for v in basis]), lines, 0)


def _cmd_powrel(args) -> tuple[dict, list[str], int]:
    n1, n2, a = power_relation(parse_element(args.h), parse_element(args.x1),
                               parse_element(args.x2))
    identity = f"X1^{abs(n2)} = {format_scalar(a)} * X2^{abs(n1)}"
    return (_payload("powrel", lambda1=n1, lambda2=n2,
                     coeff=_scalar_json(a), identity=identity),
            [f"eigenvalues {n1}, {n2}", identity], 0)


def _cmd_expmap(args) -> tuple[dict, list[str], int]:
    report = is_exponentiable(parse_element(args.element),
                              max_iter=args.max_iter)
    lines = [report.verdict]
    payload = _payload("expmap", verdict=report.verdict,
                       max_iter=report.max_iter)
    if report.dixmier is not None:
        payload["tag"] = report.dixmier.tag
        lines.append(f"low-degree class: {report.dixmier.tag}")
    if report.witness is not None:
        payload["witness"] = _element_json(report.witness)
        lines.append(f"witness of unbounded orbit: "
                     f"{format_element(report.witness)}")
    return (payload, lines, 0 if report.verdict == "yes" else 1)


# -- finite-dimensional subalgebras --------------------------------------------------


def _parse_generators(texts: list[str]) -> list[WeylElement]:
    return [parse_element(t) for t in texts]


def _cmd_closure(args) -> tuple[dict, list[str], int]:
    real = lie_closure(_parse_generators(args.generators),
                       max_dim=args.max_dim)
    lines = [f"dimension {real.algebra.dim}"]
    lines.extend(format_element(x) for x in real.images)
    return (_payload("closure", dim=real.algebra.dim,
                     basis=[_element_json(x) for x in real.images]),
            lines, 0)


def _tag_json(tag) -> dict:
    param = list(tag.param) if isinstance(tag.param, tuple) else tag.param
    return {"text": str(tag), "kind": tag.kind, "param": param}


def _cmd_recognize(args) -> tuple[dict, list[str], int]:
    real = lie_closure(_parse_generators(args.generators),
                       max_dim=args.max_dim)
    tag = recognize(real.algebra)
    return (_payload("recognize", dim=real.algebra.dim, tag=_tag_json(tag)),
            [str(tag)], 0)


def _cmd_invariants(args) -> tuple[dict, list[str], int]:
    real = lie_closure(_parse_generators(args.generators),
                       max_dim=args.max_dim)
    inv = invariants(real.algebra)
    lines = [
        f"dimension {real.algebra.dim}",
        "derived series dims: " + ", ".join(map(str, inv.derived_series_dims)),
        "lower central dims: " + ", ".join(map(str, inv.lower_central_dims)),
        f"centre dimension {inv.center_dim}",
        f"solvable: {'yes' if inv.solvable else 'no'}; "
        f"nilpotent: {'yes' if inv.nilpotent else 'no'}",
    ]
    return (_payload("invariants", dim=real.algebra.dim,
                     derived_series_dims=inv.derived_series_dims,
                     lower_central_dims=inv.lower_central_dims,
                     center_dim=inv.center_dim, solvable=inv.solvable,
                     nilpotent=inv.nilpotent), lines, 0)


def _cmd_filiform(args) -> tuple[dict, list[str], int]:
    real = lie_closure(_parse_generators(args.generators),
                       max_dim=args.max_dim)
    chain = filiform_normal_basis(real)
    lines = [f"X{k} = {format_element(x)}" for k, x in enumerate(chain)]
    return (_payload("filiform", length=len(chain),
                     basis=[_element_json(x) for x in chain]), lines, 0)


def _cmd_weights(args) -> tuple[dict, list[str], int]:
    h = parse_element(args.h)
    if h.is_zero():
        raise ZeroElement("the weight element h must be nonzero")
    real = lie_closure([h] + _parse_generators(args.generators),
                       max_dim=args.max_dim)
    # basis row 0 is h over its leading coefficient c, so ad(h) has weights c·λ
    c = h.terms[h.leading_monomial()]
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
    return (_payload("weights", dim=real.algebra.dim, weights=weights),
            lines, 0)


# -- canonical triplets and the group action -----------------------------------------


def _realization_json(r: Sl2Realization) -> dict:
    return {"x": _element_json(r.X), "y": _element_json(r.Y),
            "h": _element_json(r.H)}


def _realization_lines(r: Sl2Realization) -> list[str]:
    return [f"X = {format_element(r.X)}", f"Y = {format_element(r.Y)}",
            f"H = {format_element(r.H)}"]


def _cmd_triplet(args) -> tuple[dict, list[str], int]:
    try:
        triplet_check(parse_element(args.x), parse_element(args.y),
                      parse_element(args.h))
    except RelationFailed as exc:
        return (_payload("triplet", valid=False, reason=str(exc)),
                [f"invalid: {exc}"], 1)
    return (_payload("triplet", valid=True, reason=None), ["valid"], 0)


def _cmd_casimir(args) -> tuple[dict, list[str], int]:
    value = casimir(_parse_realization(args.realization))
    return (_payload("casimir", value=_scalar_json(value)),
            [format_scalar(value)], 0)


def _cmd_act(args) -> tuple[dict, list[str], int]:
    m = parse_morphism(args.morphism)
    g = _parse_group_element([args.a1, args.a2, args.a3, args.a4])
    out = group_act(m, g, _parse_realization(args.realization))
    return (_payload("act", realization=_realization_json(out)),
            _realization_lines(out), 0)


def _cmd_isotropy(args) -> tuple[dict, list[str], int]:
    m = parse_morphism(args.morphism)
    g = _parse_group_element([args.a1, args.a2, args.a3, args.a4])
    fixed = isotropy_check(_parse_realization(args.realization), m, g)
    return (_payload("isotropy", fixed=fixed),
            ["fixed" if fixed else "moved"], 0 if fixed else 1)


def _cmd_exotic(args) -> tuple[dict, list[str], int]:
    report = exotic_report()
    lines = _realization_lines(report.realization)
    lines.append(f"X matches printed form: {'yes' if report.x_matches else 'no'}")
    lines.append(f"Y matches printed form: {'yes' if report.y_matches else 'no'}")
    for cand, hit in zip(report.h_candidates, report.h_matches):
        lines.append(f"H == {format_element(cand)}: {'yes' if hit else 'no'}")
    payload = _payload(
        "exotic", realization=_realization_json(report.realization),
        x_matches=report.x_matches, y_matches=report.y_matches,
        h_candidates=[_element_json(c) for c in report.h_candidates],
        h_matches=list(report.h_matches))
    return (payload, lines, 0)


def _cmd_s11(args) -> tuple[dict, list[str], int]:
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
    payload = _payload("s11", verdict=verdict, in_pattern=report.in_pattern,
                       max_degree=args.degree, plus=sides["+2"],
                       minus=sides["-2"])
    return (payload, lines, 0 if report.in_pattern else 1)


# -- parser assembly -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyl",
        description="Exact computations with differential operators: "
                    "products, brackets, finite-dimensional subalgebras and "
                    "canonical sl2 triplets.",
        epilog="Prefix element arguments that start with '-' by '--', "
               "e.g.  weyl eigvecs 'p*q' --degree 4 -- -2")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def add(name: str, handler: Handler, help_: str,
            **flags) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("--json", action="store_true",
                         help="emit a stable JSON object instead of text")
        if flags.get("max_iter"):
            cmd.add_argument("--max-iter", type=int, default=64,
                             help="iteration budget (default 64)")
        if flags.get("max_dim"):
            cmd.add_argument("--max-dim", type=int, default=64,
                             help="dimension cap for closures (default 64)")
        if flags.get("degree"):
            cmd.add_argument("--degree", type=int, default=8,
                             help="truncation degree (default 8)")
        cmd.set_defaults(handler=handler)
        return cmd

    c = add("mul", _cmd_mul, "normal-ordered product of two elements")
    c.add_argument("a"), c.add_argument("b")
    c = add("bracket", _cmd_bracket, "commutator [a, b]")
    c.add_argument("a"), c.add_argument("b")
    c = add("apply", _cmd_apply, "apply a morphism expression to an element")
    c.add_argument("morphism"), c.add_argument("element")

    c = add("classify", _cmd_classify,
            "partition class of an element of total degree <= 2")
    c.add_argument("element")
    c = add("ftest", _cmd_ftest,
            "grow span{ad(z)^k a} until it stabilises or the budget ends",
            max_iter=True)
    c.add_argument("z"), c.add_argument("a")
    c = add("eigvecs", _cmd_eigvecs,
            "exact ad-eigenvectors up to a truncation degree", degree=True)
    c.add_argument("element"), c.add_argument("eigenvalue")
    c = add("powrel", _cmd_powrel,
            "forced power relation between commuting ad(h)-eigenvectors")
    c.add_argument("h"), c.add_argument("x1"), c.add_argument("x2")
    c = add("expmap", _cmd_expmap,
            "decide or probe whether ad of the element exponentiates",
            max_iter=True)
    c.add_argument("element")

    c = add("closure", _cmd_closure,
            "close generators under brackets; echelon basis", max_dim=True)
    c.add_argument("generators", nargs="+")
    c = add("recognize", _cmd_recognize,
            "catalog tag of the subalgebra generated by the arguments",
            max_dim=True)
    c.add_argument("generators", nargs="+")
    c = add("invariants", _cmd_invariants,
            "derived/lower-central profiles, centre, solvability flags",
            max_dim=True)
    c.add_argument("generators", nargs="+")
    c = add("filiform", _cmd_filiform,
            "normal chain basis X0..Xn with [X0, Xk] = X(k+1)", max_dim=True)
    c.add_argument("generators", nargs="+")
    c = add("weights", _cmd_weights,
            "eigenspace decomposition of ad(h) on the generated subalgebra",
            max_dim=True)
    c.add_argument("h"), c.add_argument("generators", nargs="+")

    c = add("triplet", _cmd_triplet, "verify the three sl2 bracket relations")
    c.add_argument("x"), c.add_argument("y"), c.add_argument("h")
    c = add("casimir", _cmd_casimir,
            "scalar value of the Casimir element of a realisation")
    c.add_argument("realization", nargs="+",
                   help="fI | fII(b) | exotic | X Y H")
    c = add("act", _cmd_act,
            "transport a realisation by (morphism, group element)")
    c.add_argument("morphism")
    c.add_argument("a1"), c.add_argument("a2")
    c.add_argument("a3"), c.add_argument("a4")
    c.add_argument("realization", nargs="+")
    c = add("isotropy", _cmd_isotropy,
            "does the pair (morphism, group element) fix the realisation?")
    c.add_argument("morphism")
    c.add_argument("a1"), c.add_argument("a2")
    c.add_argument("a3"), c.add_argument("a4")
    c.add_argument("realization", nargs="+")
    c = add("exotic", _cmd_exotic,
            "compute the substituted triplet and compare printed forms")
    c = add("s11", _cmd_s11,
            "compare weight ±2 eigenspaces against the X·C[H] / Y·C[H] "
            "pattern", degree=True)
    c.add_argument("realization", nargs="+")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, lines, code = args.handler(args)
        if args.json:
            lines = [json.dumps(payload)]
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
