"""Command line checks and computations.

Each subcommand runs a batch of exact verifications and prints a run
report, JSON by default or a tab separated table with --format tsv.
Exit status: 0 when every check passed, 1 when at least one failed,
2 for bad arguments or unreadable input.

Identical arguments and seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

from . import dual_complex
from .dual_complex import complex_from_json, unit_h2
from .forms import AffineMap, Superform
from .linalg import rat_str
from .order_map import (Presentation, dolbeault_ladder, ord_vector,
                        require_simplicial)
from .poly import Poly
from .randgen import (rand_affine_map, rand_constant_simplex_form,
                      rand_superform, rand_superform_mixed)
from .report import RunReport
from .simplex import (SimplexContext, SimplexForm, beta_recursion,
                      star_closed_form)

DEFAULT_MAX_DIM = 6


class CliError(Exception):
    """Bad arguments or malformed input; maps to exit status 2."""


def _max_dim() -> int:
    raw = os.environ.get("TROPMONO_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"TROPMONO_MAX_DIM must be an integer, not {raw!r}")
    if value < 1:
        raise CliError("TROPMONO_MAX_DIM must be at least 1")
    return value


def _check_dim(n: int):
    cap = _max_dim()
    if n < 1:
        raise CliError("the dimension must be at least 1")
    if n > cap:
        raise CliError(f"dimension {n} exceeds the cap of {cap}; "
                       "set TROPMONO_MAX_DIM to raise it")


def _load_json(path: str, report: RunReport):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    report.add_input(path, data)
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not utf-8 ({exc})")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _map_obj(phi: AffineMap):
    return {"matrix": phi.matrix.to_json_obj(),
            "translation": [rat_str(x) for x in phi.translation]}


# --- check superform -------------------------------------------------------

def cmd_check_superform(args) -> RunReport:
    n, cases, seed = args.n, args.cases, args.seed
    _check_dim(n)
    if cases < 1:
        raise CliError("--cases must be positive")
    report = RunReport(f"check superform --n {n} --cases {cases} --seed {seed}",
                       seed=seed)

    def run(index: int, name: str, fn):
        rng = random.Random(seed * 1_000_003 + index)
        failure = None
        for case in range(cases):
            witness = fn(rng, case)
            if witness is not None and failure is None:
                failure = witness
        report.add_check(name, failure is None, failure)

    def wedge_commutes(rng, case):
        p1, q1 = rng.randint(0, n), rng.randint(0, n)
        p2, q2 = rng.randint(0, n), rng.randint(0, n)
        a = rand_superform(rng, n, p1, q1)
        b = rand_superform(rng, n, p2, q2)
        sign = (-1) ** ((p1 + q1) * (p2 + q2))
        if a.wedge(b) == b.wedge(a) * sign:
            return None
        return {"case": case, "left": a.to_json_obj(), "right": b.to_json_obj()}

    def wedge_assoc(rng, case):
        forms = [rand_superform_mixed(rng, n, pieces=1) for _ in range(3)]
        a, b, c = forms
        if a.wedge(b).wedge(c) == a.wedge(b.wedge(c)):
            return None
        return {"case": case, "forms": [f.to_json_obj() for f in forms]}

    def d_prime_sq(rng, case):
        a = rand_superform_mixed(rng, n)
        if a.d_prime().d_prime().is_zero():
            return None
        return {"case": case, "form": a.to_json_obj()}

    def d_second_sq(rng, case):
        a = rand_superform_mixed(rng, n)
        if a.d_second().d_second().is_zero():
            return None
        return {"case": case, "form": a.to_json_obj()}

    def d_anticommute(rng, case):
        a = rand_superform_mixed(rng, n)
        if (a.d_prime().d_second() + a.d_second().d_prime()).is_zero():
            return None
        return {"case": case, "form": a.to_json_obj()}

    def leibniz(which):
        def inner(rng, case):
            p1, q1 = rng.randint(0, n), rng.randint(0, n)
            a = rand_superform(rng, n, p1, q1)
            b = rand_superform_mixed(rng, n, pieces=1)
            d = Superform.d_prime if which == "prime" else Superform.d_second
            sign = (-1) ** (p1 + q1)
            if d(a.wedge(b)) == d(a).wedge(b) + a.wedge(d(b)) * sign:
                return None
            return {"case": case, "left": a.to_json_obj(),
                    "right": b.to_json_obj()}
        return inner

    def flip_involution(rng, case):
        a = rand_superform_mixed(rng, n)
        if a.flip().flip() == a:
            return None
        return {"case": case, "form": a.to_json_obj()}

    def flip_exchanges(rng, case):
        a = rand_superform_mixed(rng, n)
        if a.flip().d_prime().flip() == a.d_second():
            return None
        return {"case": case, "form": a.to_json_obj()}

    def monodromy_d_second(rng, case):
        p = rng.randint(1, n)
        a = rand_superform(rng, n, p, rng.randint(0, n))
        if a.d_second().monodromy() == a.monodromy().d_second():
            return None
        return {"case": case, "form": a.to_json_obj()}

    def monodromy_power(rng, case):
        p = rng.randint(1, n)
        a = rand_superform(rng, n, p, 0)
        power = a
        for _ in range(p):
            power = power.monodromy()
        factorial = 1
        for k in range(2, p + 1):
            factorial *= k
        if power == a.flip() * factorial:
            return None
        return {"case": case, "p": p, "form": a.to_json_obj()}

    def monodromy_wedge(rng, case):
        p1 = rng.randint(1, n)
        p2 = rng.randint(max(1, n + 1 - p1), n)
        a = rand_superform(rng, n, p1, rng.randint(0, n - p1))
        b = rand_superform(rng, n, p2, rng.randint(0, n - p2))
        if (a.monodromy().wedge(b) + a.wedge(b.monodromy())).is_zero():
            return None
        return {"case": case, "left": a.to_json_obj(), "right": b.to_json_obj()}

    def pullback_wedge(rng, case):
        m = rng.randint(1, n)
        phi = rand_affine_map(rng, m, n)
        a = rand_superform_mixed(rng, n, pieces=1)
        b = rand_superform_mixed(rng, n, pieces=1)
        if phi.pullback(a.wedge(b)) == phi.pullback(a).wedge(phi.pullback(b)):
            return None
        return {"case": case, "map": _map_obj(phi),
                "left": a.to_json_obj(), "right": b.to_json_obj()}

    def pullback_d(rng, case):
        m = rng.randint(1, n)
        phi = rand_affine_map(rng, m, n, rank_deficient=(case % 3 == 0))
        a = rand_superform_mixed(rng, n)
        ok = (phi.pullback(a.d_prime()) == phi.pullback(a).d_prime()
              and phi.pullback(a.d_second()) == phi.pullback(a).d_second())
        if ok:
            return None
        return {"case": case, "map": _map_obj(phi), "form": a.to_json_obj()}

    def pullback_monodromy(rng, case):
        m = rng.randint(1, n)
        phi = rand_affine_map(rng, m, n, rank_deficient=(case % 3 == 0))
        p = rng.randint(1, n)
        a = rand_superform(rng, n, p, rng.randint(0, n))
        if phi.pullback(a.monodromy()) == phi.pullback(a).monodromy():
            return None
        return {"case": case, "map": _map_obj(phi), "form": a.to_json_obj()}

    battery = [
        ("wedge_graded_commutative", wedge_commutes),
        ("wedge_associative", wedge_assoc),
        ("derivative_prime_squared", d_prime_sq),
        ("derivative_second_squared", d_second_sq),
        ("derivative_anticommute", d_anticommute),
        ("leibniz_prime", leibniz("prime")),
        ("leibniz_second", leibniz("second")),
        ("flip_involution", flip_involution),
        ("flip_exchanges_derivatives", flip_exchanges),
        ("monodromy_second_derivative_commutes", monodromy_d_second),
        ("monodromy_power_equals_flip", monodromy_power),
        ("monodromy_wedge_cancellation", monodromy_wedge),
        ("pullback_wedge", pullback_wedge),
        ("pullback_derivatives", pullback_d),
        ("pullback_monodromy", pullback_monodromy),
    ]
    for index, (name, fn) in enumerate(battery):
        run(index, name, fn)
    report.result = {"n": n, "cases": cases, "checksRun": len(battery)}
    return report


# --- simplex starprop ------------------------------------------------------

def cmd_simplex_starprop(args) -> RunReport:
    n, p, extra, seed = args.n, args.p, args.random, args.seed
    _check_dim(n)
    if not 1 <= p <= n:
        raise CliError("need 1 <= p <= n")
    if extra < 0:
        raise CliError("--random must be nonnegative")
    report = RunReport(
        f"simplex starprop --n {n} --p {p} --random {extra} --seed {seed}",
        seed=seed)
    ctx = SimplexContext(n)
    nvars = n + 1

    betas = []
    for subset in itertools.combinations(range(nvars), p):
        label = "basis:" + ".".join(map(str, subset))
        betas.append((label, SimplexForm.monomial(nvars, subset,
                                                  Poly.const(nvars, 1))))
    rng = random.Random(seed)
    for k in range(extra):
        betas.append((f"random:{k}", rand_constant_simplex_form(rng, nvars, p)))

    rows = 0
    for label, beta in betas:
        chain = beta_recursion(ctx, beta, p)
        stage_fail = None
        for r in range(p):
            for subset in itertools.combinations(range(n + 1), r + 1):
                want = star_closed_form(ctx, beta, p, r, subset)
                got = chain[r][subset]
                if not got.equal_on_simplex(want):
                    stage_fail = stage_fail or {
                        "r": r, "subset": list(subset),
                        "recursion": got.to_json_obj(),
                        "direct": want.to_json_obj()}
        report.add_check(f"stages[{label}]", stage_fail is None, stage_fail)
        for subset in itertools.combinations(range(n + 1), p + 1):
            rows += 1
            want = star_closed_form(ctx, beta, p, p, subset)
            value = chain[p][subset]
            ok = (want.is_constant_on_simplex()
                  and want.constant_value() == value)
            witness = None
            if not ok:
                witness = {"subset": list(subset), "value": rat_str(value),
                           "direct": want.to_json_obj()}
            name = f"match[{label}][" + ".".join(map(str, subset)) + "]"
            report.add_check(name, ok, witness)
    report.result = {"n": n, "p": p, "forms": len(betas), "faceRows": rows}
    return report


# --- ss --------------------------------------------------------------------

def _load_complex(path: str, report: RunReport):
    obj = _load_json(path, report)
    try:
        return complex_from_json(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: bad complex data: {exc}")


def cmd_ss_e2(args) -> RunReport:
    report = RunReport(f"ss e2 --input {args.input}")
    complex_, _ = _load_complex(args.input, report)
    top = complex_.max_level
    for p in range(0, top):
        left = dual_complex.delta_pullback(complex_, p + 1)
        right = dual_complex.delta_pullback(complex_, p)
        composite = left @ right
        report.add_check(f"restriction_squares_to_zero[p={p}]",
                         composite.is_zero(),
                         None if composite.is_zero()
                         else {"composite": composite.to_json_obj()})
    dims = {}
    reps = {}
    for p in range(0, top + 1):
        summary = dual_complex.e2_p0(complex_, p)
        dims[str(p)] = summary.dim
        reps[str(p)] = [[rat_str(x) for x in v] for v in summary.representatives]
    result = {"dims": dims}
    if args.p is not None:
        if not 0 <= args.p <= top:
            raise CliError(f"--p must lie between 0 and {top}")
        result["representatives"] = reps[str(args.p)]
        result["p"] = args.p
    report.result = result
    return report


def cmd_ss_monodromy(args) -> RunReport:
    report = RunReport(f"ss monodromy --input {args.input} --p {args.p}")
    complex_, h2 = _load_complex(args.input, report)
    p = args.p
    if not 1 <= p <= complex_.max_level:
        raise CliError(f"--p must lie between 1 and {complex_.max_level}")
    if h2 is None:
        h2 = unit_h2(complex_, level=p - 1)
    try:
        comparison = dual_complex.corner_monodromy(complex_, h2, p)
    except RuntimeError as exc:
        report.add_check("corner_inside_restriction_kernel", False,
                         {"error": str(exc)})
        return report
    report.add_check("corner_inside_restriction_kernel", True)
    report.result = {
        "p": p,
        "domainDim": comparison.domain_dim,
        "codomainDim": comparison.codomain_dim,
        "injective": comparison.injective,
        "surjective": comparison.surjective,
        "isomorphism": comparison.isomorphism,
        "matrix": comparison.matrix.to_json_obj(),
    }
    return report


def cmd_ss_validate(args) -> RunReport:
    report = RunReport(f"ss validate --input {args.input}"
                       + (f" --p {args.p}" if args.p is not None else ""))
    complex_, h2 = _load_complex(args.input, report)
    if h2 is None:
        raise CliError(f"{args.input}: no h2 data to validate")
    top = complex_.max_level
    if top < 1:
        raise CliError("the complex has no strata beyond level 0")
    if args.p is not None:
        if not 1 <= args.p <= top:
            raise CliError(f"--p must lie between 1 and {top}")
        levels = [args.p]
    else:
        levels = list(range(1, top + 1))
    for p in levels:
        try:
            composite = dual_complex.relation_composite(complex_, h2, p)
        except (KeyError, ValueError) as exc:
            raise CliError(f"{args.input}: incomplete h2 data: {exc}")
        ok = composite.is_zero()
        report.add_check(f"cancellation[p={p}]", ok,
                         None if ok else {"composite": composite.to_json_obj()})
    report.result = {"levels": levels}
    return report


# --- ord -------------------------------------------------------------------

def _load_presentations(path: str, report: RunReport) -> list[Presentation]:
    obj = _load_json(path, report)
    if isinstance(obj, dict):
        obj = obj.get("presentations")
    if not isinstance(obj, list):
        raise CliError(f"{path}: expected a list of presentations")
    try:
        return [Presentation.from_json_obj(entry, f"presentation {k}")
                for k, entry in enumerate(obj)]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: bad presentation data: {exc}")


def cmd_ord(args) -> RunReport:
    report = RunReport(
        f"ord {args.ord_cmd} --complex {args.complex} --pres {args.pres} "
        f"--p {args.p}")
    complex_, h2 = _load_complex(args.complex, report)
    presentations = _load_presentations(args.pres, report)
    top = complex_.max_level
    if not 1 <= args.p <= top:
        raise CliError(f"--p must lie between 1 and {top}")
    try:
        vector = ord_vector(presentations, complex_, args.p)
    except ValueError as exc:
        report.add_check("cover_and_agree", False, {"error": str(exc)})
        return report
    report.add_check("cover_and_agree", True)
    values = {label: rat_str(v) for label, v in vector.values.items()}
    report.result = {"p": args.p, "values": values}
    if args.ord_cmd == "check":
        if h2 is None:
            h2 = unit_h2(complex_, level=args.p - 1)
        pull, push = dual_complex.check_vanishing_vector(
            complex_, h2, args.p, vector.as_sequence(complex_))
        witness = {"values": values}
        report.add_check("restriction_vanishes", pull,
                         None if pull else witness)
        report.add_check("gysin_pushforward_vanishes", push,
                         None if push else witness)
    return report


# --- dolbeault -------------------------------------------------------------

def cmd_dolbeault(args) -> RunReport:
    report = RunReport(
        f"dolbeault --complex {args.complex} --pres {args.pres} --p {args.p}")
    complex_, _ = _load_complex(args.complex, report)
    presentations = _load_presentations(args.pres, report)
    try:
        top = require_simplicial(complex_)
    except ValueError as exc:
        raise CliError(f"{args.complex}: {exc}")
    if not 1 <= args.p <= top:
        raise CliError(f"--p must lie between 1 and {top}")
    try:
        ladder = dolbeault_ladder(presentations, complex_, args.p)
    except ValueError as exc:
        report.add_check("presentations_cover_and_agree", False,
                         {"error": str(exc)})
        return report
    report.add_check("presentations_cover_and_agree", True)
    failing = [
        {"top": top_label, "face": face, "value": rat_str(value),
         "expected": rat_str(expected)}
        for top_label, face, value, expected, ok in ladder.comparisons
        if not ok]
    report.add_check("tower_closes_on_order", ladder.final_check,
                     None if ladder.final_check else {"mismatches": failing})
    report.result = {
        "p": ladder.p,
        "constant": rat_str(ladder.constant),
        "finalCheck": ladder.final_check,
        "ord": {label: rat_str(v) for label, v in ladder.ord_values.items()},
        "comparisons": len(ladder.comparisons),
    }
    return report


# --- plumbing --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropmono",
        description="exact checks for superform calculus and weight "
                    "filtration combinatorics")
    sub = parser.add_subparsers(dest="cmd", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "tsv"), default="json",
                     help="report format (default json)")

    check = sub.add_parser("check", help="algebraic identity batteries")
    check_sub = check.add_subparsers(dest="check_cmd", required=True)
    cf = check_sub.add_parser("superform", parents=[fmt],
                              help="superform identities on random forms")
    cf.add_argument("--n", type=int, required=True, help="ambient dimension")
    cf.add_argument("--cases", type=int, default=20)
    cf.add_argument("--seed", type=int, default=0)
    cf.set_defaults(func=cmd_check_superform)

    simplex = sub.add_parser("simplex", help="simplex tower checks")
    simplex_sub = simplex.add_subparsers(dest="simplex_cmd", required=True)
    sp = simplex_sub.add_parser("starprop", parents=[fmt],
                                help="integration tower against the direct "
                                     "contraction formula")
    sp.add_argument("--n", type=int, required=True, help="simplex dimension")
    sp.add_argument("--p", type=int, required=True, help="form degree")
    sp.add_argument("--random", type=int, default=2,
                    help="extra random forms besides the basis")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_simplex_starprop)

    ss = sub.add_parser("ss", help="dual complex computations")
    ss_sub = ss.add_subparsers(dest="ss_cmd", required=True)
    e2 = ss_sub.add_parser("e2", parents=[fmt],
                           help="second page dimensions in the top row")
    e2.add_argument("--input", required=True, help="complex JSON file")
    e2.add_argument("--p", type=int, default=None)
    e2.set_defaults(func=cmd_ss_e2)
    mono = ss_sub.add_parser("monodromy", parents=[fmt],
                             help="corner comparison map")
    mono.add_argument("--input", required=True)
    mono.add_argument("--p", type=int, required=True)
    mono.set_defaults(func=cmd_ss_monodromy)
    val = ss_sub.add_parser("validate", parents=[fmt],
                            help="pushforward against restriction cancellation")
    val.add_argument("--input", required=True)
    val.add_argument("--p", type=int, default=None)
    val.set_defaults(func=cmd_ss_validate)

    ordp = sub.add_parser("ord", help="order maps from presentations")
    ord_sub = ordp.add_subparsers(dest="ord_cmd", required=True)
    for name, blurb in (("compute", "order values on level-p strata"),
                        ("check", "order values plus kernel membership")):
        oc = ord_sub.add_parser(name, parents=[fmt], help=blurb)
        oc.add_argument("--complex", required=True)
        oc.add_argument("--pres", required=True)
        oc.add_argument("--p", type=int, required=True)
        oc.set_defaults(func=cmd_ord)

    dol = sub.add_parser("dolbeault", parents=[fmt],
                         help="replay the descent tower on a simplicial complex")
    dol.add_argument("--complex", required=True)
    dol.add_argument("--pres", required=True)
    dol.add_argument("--p", type=int, required=True)
    dol.set_defaults(func=cmd_dolbeault)
    return parser


def run(argv=None) -> tuple[int, str]:
    """Parse, execute, and render; returns (exit status, report text)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except CliError as exc:
        return 2, f"error: {exc}\n"
    return report.exit_code, report.render(args.format)


def main(argv=None) -> int:
    code, text = run(argv)
    stream = sys.stderr if code == 2 else sys.stdout
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
