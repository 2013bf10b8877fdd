"""The workloads: seeded inputs, the queries of one round, and their checks.

A workload function takes a ``random.Random`` and returns the list of
queries that make up one round.  Every random draw happens there; a query's
``run`` uses only what was fixed then, so every round repeats the same work.  A
query's ``check`` compares the answer against ``oracle`` (no library code) or
against a closed form, and raises ``CheckFailed``.

The seed only picks among inputs of the same shape and size (unit
coefficients, equal degrees, equal chain lengths), because the cost of an
exact computation depends on the size of its coefficients: the same catalog
class under two arbitrary conjugations can take 0.67 s and 11.5 s to close.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import hostclock
import oracle as o
from oracle import require

UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
HALVES = [(1, 0), (-1, 0), (0, 1), (0, -1), ("1/2", 0), ("-1/2", 0), (0, "1/2"), (0, "-1/2")]


class Query(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _scalar(v):
    from weylkit.scalars import Scalar
    v = o.gq(v)
    return Scalar(v[0], v[1])


def _sl2_entries(v, x) -> tuple:
    """The unimodular matrix (v, x, i/x, (1+i)/v) for units v and x."""
    v, x = o.gq(v), o.gq(x)
    return v, x, o.g_div((0, 1), x), o.g_div((1, 1), v)


# -- roundtrip: catalog -> conjugate -> closure -> recognise ----------------------------

# (kind, parameter, dimension of the class: a closed form per family)
ROUNDTRIP_CLASSES = [
    ("Heisenberg3", None, 3), ("Sl2", None, 3), ("Sl2xC", None, 4),
    ("Sl2SemidirectH3", None, 6), ("L", 2, 3), ("L", 3, 4), ("L", 4, 5),
    ("LTilde", 2, 4), ("LTilde", 3, 5), ("R", (1,), 2), ("R", (1, 3), 3),
    ("R", (2, 4), 3), ("R", (0, 1, 3), 4),
]
# The conjugating chain applies phi(1, λ₁), then phi'(2, λ₂), then phi(1, λ₃),
# with λ₃ = ±iλ₁: λ₃ = -λ₁ partly undoes the first step and λ₃ = λ₁ also
# changes the cost of Sl2SemidirectH3, so either would make a seed's round
# cheaper than another's.
CHAIN_SHAPE = [("phi", 1), ("phi_prime", 2), ("phi", 1)]


def _chain_units(rng) -> list:
    l1, l2 = o.gq(rng.choice(UNITS)), o.gq(rng.choice(UNITS))
    return [l1, l2, o.g_mul(l1, rng.choice([(0, 1), (0, -1)]))]


def _chain_images(steps) -> list:
    makers = {"phi": o.phi_images, "phi_prime": o.phi_prime_images}
    return [makers[kind](n, lam) for kind, n, lam in steps]


def _inverse_steps(steps) -> list:
    """phi(n, λ) and phi'(n, λ) are undone by the same map with -λ."""
    return [(kind, n, o.g_sub(o.ZERO, lam)) for kind, n, lam in reversed(steps)]


def roundtrip(rng) -> list[Query]:
    from weylkit import liestruct as ls, morphisms as mo
    makers = {"phi": mo.phi, "phi_prime": mo.phi_prime}

    queries = []
    for kind, param, dim in ROUNDTRIP_CLASSES:
        tag = ls.CatalogTag(kind, param)
        images = ls.catalog(tag).realization.images
        steps = [(k, n, lam) for (k, n), lam in zip(CHAIN_SHAPE, _chain_units(rng))]
        m = None
        for k, n, lam in steps:
            g = makers[k](n, _scalar(lam))
            m = g if m is None else mo.compose(g, m)

        def run(images=images, m=m):
            conj = [m(x) for x in images]
            closed = ls.lie_closure(conj)
            return conj, closed, ls.recognize(closed.algebra)

        def check(out, tag=tag, dim=dim, images=images, steps=steps):
            conj, closed, got = out
            require(got == ls.normalize_tag(tag), f"{tag} recognised as {got}")
            require(closed.algebra.dim == dim, f"{tag}: closure dimension {closed.algebra.dim}")
            src = [o.from_library(x) for x in images]
            moved = [o.from_library(x) for x in conj]
            forward, back = _chain_images(steps), _chain_images(_inverse_steps(steps))
            for x, y in zip(src, moved):
                require(o.substitution_holds(forward, x, y), f"{tag}: wrong conjugate")
                require(o.substitution_holds(back, y, x), f"{tag}: the inverse does not bring it back")
            check_structure(closed, moved, f"{tag}")

        queries.append(Query(f"roundtrip {tag}", run, check))
    rng.shuffle(queries)
    return queries


def check_structure(closed, generators, what: str):
    """The closure basis is independent, spans the generators, and its
    brackets are the structure constants it reports."""
    basis = [o.from_library(x) for x in closed.images]
    dim = len(basis)
    require(closed.algebra.dim == dim and o.rank(basis) == dim, f"{what}: basis is dependent")
    require(o.rank(basis + list(generators)) == dim, f"{what}: generators outside the span")
    for a in range(dim):
        for b in range(a + 1, dim):
            expected: dict = {}
            for k, c in closed.algebra.c.get((a, b), {}).items():
                for m, v in basis[k].items():
                    expected[m] = o.g_add(expected.get(m, o.ZERO), o.g_mul(o.gq(c), v))
            require(o.bracket_holds(basis[a], basis[b], o.element(expected)),
                    f"{what}: structure constant ({a},{b})")


# -- spectra: truncated eigenspaces, the ±2 pattern, weight spaces ----------------------

EIG_DEGREE = 6
S11_DEGREE = 6
# (kind, parameter, index of the weight element in the standard realisation)
WEIGHT_CLASSES = [("Sl2", None, 2), ("Sl2xC", None, 3), ("Sl2SemidirectH3", None, 5),
                  ("LTilde", 3, 0)]
R_INDEX_SETS = [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]


def pattern_count(factor: dict, h: dict, d: int) -> int:
    """dim of factor·C[H] up to degree d; degrees add in the Weyl algebra."""
    return len(range(o.degree(factor), d + 1, o.degree(h))) if o.degree(factor) <= d else 0


def _check_eigvecs(vectors, h, lam, c, d, what):
    vs = [o.from_library(v) for v in vectors]
    expected = o.eigenspace_dim(c, lam, d)
    require(len(vs) == expected, f"{what}: {len(vs)} eigenvectors, closed form {expected}")
    require(o.rank(vs) == len(vs), f"{what}: eigenvectors are dependent")
    for v in vs:
        require(o.degree(v) <= d and o.eigen_holds(h, v, lam), f"{what}: not an eigenvector")


def check_s11(report, r, c, d, what):
    """For H diagonal on monomials (c = 1 or 2): the eigenspace dimension is
    the closed form, and since X·C[H] lies in it, the sides match exactly
    when the dimensions agree."""
    x, y, h = (o.from_library(v) for v in r)
    for side, lam, factor in ((report.plus, 2, x), (report.minus, -2, y)):
        eig, pat = o.eigenspace_dim(c, lam, d), pattern_count(factor, h, d)
        require(side.eigen_dim == eig, f"{what}: weight {lam} eigenspace dim {side.eigen_dim} != {eig}")
        require(side.pattern_dim == pat, f"{what}: weight {lam} pattern dim {side.pattern_dim} != {pat}")
        require(side.matches == (eig == pat), f"{what}: weight {lam} verdict")
        require((side.witness is None) == side.matches, f"{what}: weight {lam} witness")


def check_exotic_s11(report, r, d):
    x, y, h = (o.from_library(v) for v in r)
    require(o.triplet_holds(x, y, h), "exotic: not a triplet")
    require(report.in_pattern, "exotic: not in the pattern")
    for side, factor in ((report.plus, x), (report.minus, y)):
        require(side.eigen_dim == side.pattern_dim == pattern_count(factor, h, d),
                "exotic: pattern dimension")


def check_weights(spaces, real, h_index, what):
    imgs = [o.from_library(x) for x in real.images]
    h = imgs[h_index]
    vecs = []
    for lam, vs in spaces.items():
        for v in vs:
            v = o.from_library(v)
            require(o.eigen_holds(h, v, lam), f"{what}: not a weight vector of weight {lam}")
            vecs.append(v)
    require(len(vecs) == len(imgs) == o.rank(vecs) == o.rank(imgs + vecs),
            f"{what}: weight vectors do not form a basis")


def spectra(rng) -> list[Query]:
    from weylkit import dixmier as dx, liestruct as ls, sl2orbits as so

    b = rng.choice(HALVES)
    f1, f2, ex = so.f_I(), so.f_II(_scalar(b)), so.exotic_g()
    queries = []
    for r, c, lams, name in ((f1, 1, range(-3, 4), "fI"),
                             (f2, 2, range(-4, 5, 2), f"fII({_scalar_text(b)})")):
        h = o.from_library(r.H)
        for lam in lams:
            what = f"eigvecs {name} {lam}"
            queries.append(Query(
                what, lambda H=r.H, lam=lam: dx.eigenvectors_truncated(H, lam, EIG_DEGREE),
                lambda out, h=h, lam=lam, c=c, what=what:
                    _check_eigvecs(out, h, lam, c, EIG_DEGREE, what)))
    for r, c, name in ((f1, 1, "fI"), (f2, 2, f"fII({_scalar_text(b)})")):
        queries.append(Query(f"s11 {name}", lambda r=r: so.s11_test(r, S11_DEGREE),
                             lambda out, r=r, c=c, name=name:
                                 check_s11(out, r, c, S11_DEGREE, f"s11 {name}")))
    queries.append(Query("s11 exotic", lambda: so.s11_test(ex, S11_DEGREE),
                         lambda out: check_exotic_s11(out, ex, S11_DEGREE)))
    classes = WEIGHT_CLASSES + [("R", rng.choice(R_INDEX_SETS), 0)]
    for kind, param, h_index in classes:
        tag = ls.CatalogTag(kind, param)
        real = ls.catalog(tag).realization
        queries.append(Query(f"weights {tag}", lambda real=real, k=h_index: ls.weight_spaces(real, k),
                             lambda out, real=real, k=h_index, tag=tag:
                                 check_weights(out, real, k, f"weights {tag}")))
    rng.shuffle(queries)
    return queries


# -- orbits: the Aut(A1) x Aut(sl2) action ---------------------------------------------


def orbits(rng) -> list[Query]:
    from weylkit import morphisms as mo, sl2orbits as so

    def sl2(entries):
        return so.SL2Element(*(_scalar(v) for v in entries))

    def unit(avoid=None):
        return _scalar(rng.choice([t for t in UNITS if t != avoid]))

    f1, ex = so.f_I(), so.exotic_g()
    cas_f1 = o.casimir_value(*(o.from_library(v) for v in f1))
    cas_ex = o.casimir_value(*(o.from_library(v) for v in ex))
    queries = []

    # The chains start with phi(1, u) and the matrices are (v, x, i/x, (1+i)/v).
    # x = v/u makes coefficients cancel and the query about 25% cheaper, and
    # so does a last factor phi(1, -u) on the long chain; both are avoided so
    # that every seed gets queries of the same size.
    def general_position():
        u, v = rng.choice(UNITS), rng.choice(UNITS)
        x = rng.choice([t for t in UNITS if t != o.g_div(v, u)])
        return _scalar(u), sl2(_sl2_entries(v, x))

    def act_query(what, r, expected_casimir, g, build_alpha):
        def run():
            out = so.group_act(build_alpha(), g, r)
            return out, so.casimir(out)

        def check(out):
            moved, value = out
            moved = [o.from_library(v) for v in moved]
            require(o.triplet_holds(*moved), f"{what}: result is not a triplet")
            require(o.gq(value) == expected_casimir, f"{what}: casimir {value} changed")
            require(o.casimir_value(*moved) == expected_casimir, f"{what}: casimir of the image")
        queries.append(Query(what, run, check))

    i = _scalar((0, 1))
    for k in range(3):
        u, g = general_position()
        act_query(f"act fI {k}", f1, cas_f1, g,
                  lambda u=u: mo.compose(mo.phi_prime(1, i / u), mo.phi(1, u)))
    for k in range(3):
        b = o.gq(rng.choice(HALVES))
        u, g = general_position()
        act_query(f"act fII({_scalar_text(b)}) {k}", so.f_II(_scalar(b)), o.f2_casimir(b), g,
                  lambda u=u: mo.compose(mo.phi_prime(1, i / u), mo.phi(1, u)))
    u, g = general_position()
    w = unit(avoid=o.gq(-u))
    act_query("act fI long", f1, cas_f1, g,
              lambda u=u, w=w:
                  mo.compose(mo.phi(1, w), mo.compose(mo.phi_prime(2, i / u), mo.phi(1, u))))
    for k in range(2):
        u1, u2 = unit(), unit()
        act_query(f"act exotic {k}", ex, cas_ex, sl2(_sl2_entries(*rng.sample(UNITS, 2))),
                  lambda u1=u1, u2=u2: mo.compose(mo.scale(u2), mo.scale(u1)))
    for k in range(3):
        g = sl2(_sl2_entries(rng.choice(UNITS), rng.choice(UNITS)))
        queries.append(Query(f"isotropy fI {k}",
                             lambda g=g: so.isotropy_check(f1, so.alpha1_hat(g), g),
                             lambda out, k=k: require(out is True, f"isotropy fI {k}: moved")))
    f21 = so.f_II(1)
    for k in range(3):
        a1, a3 = o.gq(rng.choice(UNITS)), o.gq(rng.choice(UNITS))
        g = sl2((a1, o.ZERO, a3, o.g_div(o.ONE, a1)))
        queries.append(Query(f"isotropy fII(1) {k}",
                             lambda g=g: so.isotropy_check(f21, so.beta_hat(g), g),
                             lambda out, k=k: require(out is True, f"isotropy fII(1) {k}: moved")))
    rng.shuffle(queries)
    return queries


# -- cli: `python -m weylkit.cli` subprocesses ------------------------------------------


def spawn_cli(argv: list[str], out_dir: str, src_dir: str) -> hostclock.ChildRun:
    """``python -m weylkit.cli argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    return hostclock.spawn([sys.executable, "-m", "weylkit.cli"] + argv, env, out_dir)


def _element_text(rng) -> tuple[dict, str]:
    monomials = [(i, j) for i in range(4) for j in range(4 - i)]
    picks = rng.sample(monomials, 3)
    x = o.element({m: rng.choice(UNITS) for m in picks})
    return x, o.to_text(x)


def _scalar_text(v) -> str:
    re, im = o.gq(v)
    if not im:
        return str(re)
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}i" if re else f"{im}i"


def cli_commands(rng) -> list[tuple[str, list[str], int, Callable]]:
    """(label, argv, expected exit code, check of the JSON payload)."""
    a, a_text = _element_text(rng)
    b, b_text = _element_text(rng)
    lam, mu = o.gq(rng.choice(UNITS)), o.gq(rng.choice(UNITS))
    chain = [o.phi_images(1, lam), o.phi_prime_images(2, mu)]
    c = o.gq(rng.choice(UNITS))
    c1, c2 = o.gq(rng.choice(UNITS)), o.gq(rng.choice(UNITS))
    bb = o.gq(rng.choice(HALVES))
    g = _sl2_entries(rng.choice(UNITS), rng.choice(UNITS))
    f1 = [o.element({(0, 2): (-Fraction(1, 2), 0)}), o.element({(2, 0): (Fraction(1, 2), 0)}),
          o.element({(1, 1): o.ONE, (0, 0): (-Fraction(1, 2), 0)})]
    x3 = o.element({(3, 0): o.ONE})
    cq = o.element({(0, 1): c})

    def realization(payload):
        r = payload["realization"]
        return [o.from_records(r[k]["terms"]) for k in ("x", "y", "h")]

    def check_mul(j):
        require(o.product_holds(a, b, o.from_records(j["product"]["terms"])), "mul: wrong product")

    def check_bracket(j):
        require(o.bracket_holds(a, b, o.from_records(j["bracket"]["terms"])), "bracket: wrong bracket")

    def check_apply(j):
        require(o.substitution_holds(chain, a, o.from_records(j["image"]["terms"])), "apply: wrong image")

    def check_closure(j):
        basis = [o.from_records(e["terms"]) for e in j["basis"]]
        require(j["dim"] == len(basis) == 5 == o.rank(basis) == o.rank(basis + [x3, cq]),
                "closure: basis of span{q, p^3, p^2, p, 1} expected")
        require(o.span_is_closed(basis), "closure: not closed under brackets")

    def check_recognize(j):
        require(j["tag"]["text"] == "Sl2" and j["dim"] == 3, "recognize: span{p^2, q^2} is Sl2")

    def check_casimir(j):
        v = j["value"]
        got = (Fraction(v["re_num"], v["re_den"]), Fraction(v["im_num"], v["im_den"]))
        require(got == o.f2_casimir(bb), "casimir: not b(b/2+1)")

    def check_s11(j):
        require(not j["in_pattern"] and not j["plus"]["matches"] and j["minus"]["matches"]
                and j["plus"]["eigen_dim"] == o.eigenspace_dim(2, 2, 6)
                and j["minus"]["eigen_dim"] == o.eigenspace_dim(2, -2, 6),
                "s11: fII(b) misses the +2 pattern by one dimension at degree 6")

    def check_exotic(j):
        require(o.triplet_holds(*realization(j)), "exotic: not a triplet")
        require(j["x_matches"] and j["y_matches"] and sum(j["h_matches"]) == 1,
                "exotic: printed forms")

    def check_act(j):
        moved = realization(j)
        require(o.triplet_holds(*moved), "act: not a triplet")
        require(o.casimir_value(*moved) == o.casimir_value(*f1), "act: casimir changed")

    def check_triplet(j):
        require(j["valid"] is False, "triplet: p, q, 1 is not an sl2 triplet")

    g_text = [_scalar_text(v) for v in g]
    alpha = f"alpha1({','.join(g_text)})"
    return [
        ("mul", ["mul", a_text, b_text], 0, check_mul),
        ("bracket", ["bracket", a_text, b_text], 0, check_bracket),
        ("apply", ["apply", f"phi(1,{_scalar_text(lam)}); phiP(2,{_scalar_text(mu)})", a_text],
         0, check_apply),
        ("closure", ["closure", "p^3", o.to_text(cq)], 0, check_closure),
        ("recognize", ["recognize", o.to_text(o.element({(2, 0): c1})),
                       o.to_text(o.element({(0, 2): c2}))], 0, check_recognize),
        ("casimir", ["casimir", f"fII({_scalar_text(bb)})"], 0, check_casimir),
        ("s11", ["s11", f"fII({_scalar_text(bb)})", "--degree", "6"], 1, check_s11),
        ("exotic", ["exotic"], 0, check_exotic),
        ("act", ["act", alpha] + ["--"] + g_text + ["fI"], 0, check_act),
        ("triplet", ["triplet", "p", "q", "1"], 1, check_triplet),
        ("syntax", ["mul", "p^", "q"], 2, None),
    ]


def cli(rng, runner) -> list[Query]:
    """Each command in text and in --json form; ``runner(argv)`` -> ChildRun."""
    queries = []
    outputs: dict[str, dict] = {}
    for label, argv, code, check_json in cli_commands(rng):
        def run_json(argv=argv):
            return runner(argv[:1] + ["--json"] + argv[1:])

        def run_text(argv=argv):
            return runner(argv)

        def check_j(out, label=label, code=code, check_json=check_json, argv=argv):
            require(out.code == code, f"cli {label} --json: exit {out.code}, expected {code}")
            if code == 2:
                require(not out.stdout and out.stderr.startswith("error:"),
                        f"cli {label} --json: usage error expected")
                return
            payload = json.loads(out.stdout)
            require(payload["schema"] == f"weyl/{argv[0]}/v1", f"cli {label}: schema")
            check_json(payload)
            outputs[label] = payload

        def check_t(out, label=label, code=code):
            require(out.code == code, f"cli {label}: exit {out.code}, expected {code}")
            if code == 2:
                require(not out.stdout and out.stderr.startswith("error:"),
                        f"cli {label}: usage error expected")
                return
            require(label in outputs, f"cli {label}: its --json form failed its check")
            require(out.stdout.splitlines() == text_lines(label, outputs[label]),
                    f"cli {label}: text output disagrees with the JSON output")

        queries.append(Query(f"cli {label} --json", run_json, check_j))
        queries.append(Query(f"cli {label}", run_text, check_t))
    return queries


def text_lines(label: str, j: dict) -> list[str]:
    """The text output implied by the (checked) JSON output."""
    if label in ("mul", "bracket", "apply"):
        return [j[{"mul": "product", "bracket": "bracket", "apply": "image"}[label]]["text"]]
    if label == "closure":
        return [f"dimension {j['dim']}"] + [e["text"] for e in j["basis"]]
    if label == "recognize":
        return [j["tag"]["text"]]
    if label == "casimir":
        return [j["value"]["text"]]
    if label == "s11":
        lines = []
        for name, key in (("+2", "plus"), ("-2", "minus")):
            side = j[key]
            status = "matches" if side["matches"] else "differs from"
            lines.append(f"weight {name}: eigenspace dim {side['eigen_dim']} "
                         f"{status} pattern dim {side['pattern_dim']}")
            if side["witness"] is not None:
                lines.append(f"  witness: {side['witness']['text']}")
        return lines + [j["verdict"]]
    if label in ("exotic", "act"):
        r = j["realization"]
        lines = [f"{n} = {r[k]['text']}" for n, k in (("X", "x"), ("Y", "y"), ("H", "h"))]
        if label == "exotic":
            yes = {True: "yes", False: "no"}
            lines.append(f"X matches printed form: {yes[j['x_matches']]}")
            lines.append(f"Y matches printed form: {yes[j['y_matches']]}")
            for cand, hit in zip(j["h_candidates"], j["h_matches"]):
                lines.append(f"H == {cand['text']}: {yes[hit]}")
        return lines
    if label == "triplet":
        return [f"invalid: {j['reason']}"]
    raise KeyError(label)


ROUNDS = {"roundtrip": roundtrip, "spectra": spectra, "orbits": orbits}
