"""Command line checks and computations.

Each subcommand runs a batch of exact verifications and prints a run
report, JSON by default or a tab separated table with --format tsv.
Exit status: 0 when every check passed, 1 when at least one failed,
2 for bad arguments or unreadable input.

Identical arguments and seeds produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import shlex
import sys

from . import dual_complex
from .dual_complex import complex_from_json, unit_h2
from .forms import AffineMap, Superform
from .order_map import (dolbeault_ladder, ord_vector,
                        presentations_from_json, require_simplicial)
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
        # ASCII digits only, as in the input files: int() takes "1_0", " 7 "
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError(raw)
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


def _load(path: str, report: RunReport, read, what: str):
    """The JSON file at path, read by read(obj).  Every fault is a CliError
    naming the file; read's ValueError says the file holds bad `what` data."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    report.add_input(path, data)
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not utf-8 ({exc})")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (RecursionError, ValueError) as exc:
        # nesting too deep to parse, or an integer literal too long to read
        raise CliError(f"{path}: {exc}")
    try:
        return read(obj)
    except ValueError as exc:
        raise CliError(f"{path}: bad {what} data: {exc}")


def _witness(case: int, drawn: dict) -> dict:
    """The failing case and the JSON of each object it drew."""
    def as_json(obj):
        if isinstance(obj, AffineMap):
            return {"matrix": obj.matrix.to_json_obj(),
                    "translation": [str(x) for x in obj.translation]}
        if isinstance(obj, list):
            return [as_json(x) for x in obj]
        return obj if isinstance(obj, int) else obj.to_json_obj()
    return {"case": case, **{key: as_json(obj) for key, obj in drawn.items()}}


# --- check superform -------------------------------------------------------

def cmd_check_superform(args, report: RunReport):
    n, cases, seed = args.n, args.cases, args.seed
    _check_dim(n)
    if cases < 1:
        raise CliError("--cases must be positive")

    # each identity draws its objects from rng and returns (holds, drawn)
    def on_mixed(holds):
        def identity(rng, case):
            a = rand_superform_mixed(rng, n)
            return holds(a), {"form": a}
        return identity

    def wedge_commutes(rng, case):
        p1, q1, p2, q2 = (rng.randint(0, n) for _ in range(4))
        a = rand_superform(rng, n, p1, q1)
        b = rand_superform(rng, n, p2, q2)
        sign = (-1) ** ((p1 + q1) * (p2 + q2))
        return a.wedge(b) == b.wedge(a) * sign, {"left": a, "right": b}

    def wedge_assoc(rng, case):
        a, b, c = forms = [rand_superform_mixed(rng, n, pieces=1)
                           for _ in range(3)]
        return a.wedge(b).wedge(c) == a.wedge(b.wedge(c)), {"forms": forms}

    def leibniz(which):
        def identity(rng, case):
            p1, q1 = rng.randint(0, n), rng.randint(0, n)
            a = rand_superform(rng, n, p1, q1)
            b = rand_superform_mixed(rng, n, pieces=1)
            d = getattr(Superform, which)
            sign = (-1) ** (p1 + q1)
            holds = d(a.wedge(b)) == d(a).wedge(b) + a.wedge(d(b)) * sign
            return holds, {"left": a, "right": b}
        return identity

    def monodromy_d_second(rng, case):
        a = rand_superform(rng, n, rng.randint(1, n), rng.randint(0, n))
        return a.d_second().monodromy() == a.monodromy().d_second(), {"form": a}

    def monodromy_power(rng, case):
        p = rng.randint(1, n)
        a = power = rand_superform(rng, n, p, 0)
        for _ in range(p):
            power = power.monodromy()
        return power == a.flip() * math.factorial(p), {"p": p, "form": a}

    def monodromy_wedge(rng, case):
        p1 = rng.randint(1, n)
        p2 = rng.randint(max(1, n + 1 - p1), n)
        a = rand_superform(rng, n, p1, rng.randint(0, n - p1))
        b = rand_superform(rng, n, p2, rng.randint(0, n - p2))
        holds = (a.monodromy().wedge(b) + a.wedge(b.monodromy())).is_zero()
        return holds, {"left": a, "right": b}

    def pullback_wedge(rng, case):
        phi = rand_affine_map(rng, rng.randint(1, n), n)
        a = rand_superform_mixed(rng, n, pieces=1)
        b = rand_superform_mixed(rng, n, pieces=1)
        pull = phi.pullback
        holds = pull(a.wedge(b)) == pull(a).wedge(pull(b))
        return holds, {"map": phi, "left": a, "right": b}

    def pullback_d(rng, case):
        phi = rand_affine_map(rng, rng.randint(1, n), n,
                              rank_deficient=(case % 3 == 0))
        a = rand_superform_mixed(rng, n)
        pulled = phi.pullback(a)
        holds = (phi.pullback(a.d_prime()) == pulled.d_prime()
                 and phi.pullback(a.d_second()) == pulled.d_second())
        return holds, {"map": phi, "form": a}

    def pullback_monodromy(rng, case):
        phi = rand_affine_map(rng, rng.randint(1, n), n,
                              rank_deficient=(case % 3 == 0))
        a = rand_superform(rng, n, rng.randint(1, n), rng.randint(0, n))
        holds = phi.pullback(a.monodromy()) == phi.pullback(a).monodromy()
        return holds, {"map": phi, "form": a}

    battery = [
        ("wedge_graded_commutative", wedge_commutes),
        ("wedge_associative", wedge_assoc),
        ("derivative_prime_squared",
         on_mixed(lambda a: a.d_prime().d_prime().is_zero())),
        ("derivative_second_squared",
         on_mixed(lambda a: a.d_second().d_second().is_zero())),
        ("derivative_anticommute",
         on_mixed(lambda a: (a.d_prime().d_second()
                             + a.d_second().d_prime()).is_zero())),
        ("leibniz_prime", leibniz("d_prime")),
        ("leibniz_second", leibniz("d_second")),
        ("flip_involution", on_mixed(lambda a: a.flip().flip() == a)),
        ("flip_exchanges_derivatives",
         on_mixed(lambda a: a.flip().d_prime().flip() == a.d_second())),
        ("monodromy_second_derivative_commutes", monodromy_d_second),
        ("monodromy_power_equals_flip", monodromy_power),
        ("monodromy_wedge_cancellation", monodromy_wedge),
        ("pullback_wedge", pullback_wedge),
        ("pullback_derivatives", pullback_d),
        ("pullback_monodromy", pullback_monodromy),
    ]
    for index, (name, identity) in enumerate(battery):
        rng = random.Random(seed * 1_000_003 + index)
        failure = None
        for case in range(cases):
            holds, drawn = identity(rng, case)
            if not holds and failure is None:
                failure = _witness(case, drawn)
        report.add_check(name, failure is None, failure)
    report.result = {"n": n, "cases": cases, "checksRun": len(battery)}


# --- simplex starprop ------------------------------------------------------

def cmd_simplex_starprop(args, report: RunReport):
    n, p, extra, seed = args.n, args.p, args.random, args.seed
    _check_dim(n)
    if not 1 <= p <= n:
        raise CliError("need 1 <= p <= n")
    if extra < 0:
        raise CliError("--random must be nonnegative")
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
            try:
                ok = want.constant_value() == value
            except ValueError:  # not a constant function on the simplex
                ok = False
            witness = None
            if not ok:
                witness = {"subset": list(subset), "value": str(value),
                           "direct": want.to_json_obj()}
            name = f"match[{label}][" + ".".join(map(str, subset)) + "]"
            report.add_check(name, ok, witness)
    report.result = {"n": n, "p": p, "forms": len(betas), "faceRows": rows}


# --- ss --------------------------------------------------------------------

def _require_classes(path: str, complex_, h2, level: int):
    """Refuse to check a map into a level of H2 where every dim is 0."""
    if not any(h2.dim(s.label) for s in complex_.level(level)):
        raise CliError(f"{path}: h2 has no classes at level {level}")


def _check_level(p, low: int, top: int):
    """Refuse a complex with nothing above level 0, then a --p (None when
    not given) outside low..top.  Every level command goes through here."""
    if top < 1:
        raise CliError("the complex has no strata beyond level 0")
    if p is not None and not low <= p <= top:
        raise CliError(f"--p must lie between {low} and {top}")


def cmd_ss_e2(args, report: RunReport):
    complex_, _ = _load(args.input, report, complex_from_json, "complex")
    top = complex_.max_level
    _check_level(args.p, 0, top)
    for p in range(0, top):
        square = dual_complex.restriction_square(complex_, p)
        report.add_check(f"restriction_squares_to_zero[p={p}]", square is None,
                         None if square is None
                         else {"composite": square.to_json_obj()})
    dims = dual_complex.e2_dims(complex_)
    result = {"dims": {str(p): d for p, d in enumerate(dims)}}
    if args.p is not None:
        result["representatives"] = [[str(x) for x in v]
                                     for v in dual_complex.e2_p0(complex_, args.p)]
        result["p"] = args.p
    report.result = result


def cmd_ss_monodromy(args, report: RunReport):
    complex_, h2 = _load(args.input, report, complex_from_json, "complex")
    p = args.p
    _check_level(p, 1, complex_.max_level)
    if h2 is None:
        h2 = unit_h2(complex_, level=p - 1)
    try:
        comparison = dual_complex.corner_monodromy(complex_, h2, p)
    except RuntimeError as exc:
        report.add_check("corner_inside_restriction_kernel", False,
                         {"error": str(exc)})
        return
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


def cmd_ss_validate(args, report: RunReport):
    complex_, h2 = _load(args.input, report, complex_from_json, "complex")
    if h2 is None:
        raise CliError(f"{args.input}: no h2 data to validate")
    top = complex_.max_level
    _check_level(args.p, 1, top)
    levels = list(range(1, top + 1)) if args.p is None else [args.p]
    for p in levels:
        _require_classes(args.input, complex_, h2, p)
        try:
            composite = dual_complex.relation_composite(complex_, h2, p)
        except ValueError as exc:
            raise CliError(f"{args.input}: incomplete h2 data: {exc}")
        ok = composite is None
        report.add_check(f"cancellation[p={p}]", ok,
                         None if ok else {"composite": composite.to_json_obj()})
    report.result = {"levels": levels}


# --- ord -------------------------------------------------------------------

def cmd_ord(args, report: RunReport):
    complex_, h2 = _load(args.complex, report, complex_from_json, "complex")
    presentations = _load(args.pres, report, presentations_from_json, "presentation")
    _check_level(args.p, 1, complex_.max_level)
    if args.ord_cmd == "check" and h2 is not None:
        _require_classes(args.complex, complex_, h2, args.p - 1)
    try:
        values = ord_vector(presentations, complex_, args.p)
    except ValueError as exc:
        report.add_check("cover_and_agree", False, {"error": str(exc)})
        return
    report.add_check("cover_and_agree", True)
    shown = {label: str(v) for label, v in values.items()}
    report.result = {"p": args.p, "values": shown}
    if args.ord_cmd == "check":
        if h2 is None:
            h2 = unit_h2(complex_, level=args.p - 1)
        pull, push = dual_complex.check_vanishing_vector(
            complex_, h2, args.p,
            [values[s.label] for s in complex_.level(args.p)])
        witness = {"values": shown}
        report.add_check("restriction_vanishes", pull,
                         None if pull else witness)
        report.add_check("gysin_pushforward_vanishes", push,
                         None if push else witness)


# --- dolbeault -------------------------------------------------------------

def cmd_dolbeault(args, report: RunReport):
    complex_, _ = _load(args.complex, report, complex_from_json, "complex")
    presentations = _load(args.pres, report, presentations_from_json, "presentation")
    try:
        top = require_simplicial(complex_)
    except ValueError as exc:
        raise CliError(f"{args.complex}: {exc}")
    _check_level(args.p, 1, top)
    try:
        ladder = dolbeault_ladder(presentations, complex_, args.p)
    except ValueError as exc:
        report.add_check("presentations_cover_and_agree", False,
                         {"error": str(exc)})
        return
    report.add_check("presentations_cover_and_agree", True)
    failing = [
        {"top": top_label, "face": face, "value": str(value),
         "expected": str(expected)}
        for top_label, face, value, expected, ok in ladder.comparisons
        if not ok]
    report.add_check("tower_closes_on_order", ladder.final_check,
                     None if ladder.final_check else {"mismatches": failing})
    report.result = {
        "p": args.p,
        "constant": str(ladder.constant),
        "finalCheck": ladder.final_check,
        "ord": {label: str(v) for label, v in ladder.ord_values.items()},
        "comparisons": len(ladder.comparisons),
    }


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
    cf.set_defaults(func="cmd_check_superform")

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
    sp.set_defaults(func="cmd_simplex_starprop")

    ss = sub.add_parser("ss", help="dual complex computations")
    ss_sub = ss.add_subparsers(dest="ss_cmd", required=True)
    e2 = ss_sub.add_parser("e2", parents=[fmt],
                           help="second page dimensions in the top row")
    e2.add_argument("--input", required=True, help="complex JSON file")
    e2.add_argument("--p", type=int, default=None)
    e2.set_defaults(func="cmd_ss_e2")
    mono = ss_sub.add_parser("monodromy", parents=[fmt],
                             help="corner comparison map")
    mono.add_argument("--input", required=True)
    mono.add_argument("--p", type=int, required=True)
    mono.set_defaults(func="cmd_ss_monodromy")
    val = ss_sub.add_parser("validate", parents=[fmt],
                            help="pushforward against restriction cancellation")
    val.add_argument("--input", required=True)
    val.add_argument("--p", type=int, default=None)
    val.set_defaults(func="cmd_ss_validate")

    ordp = sub.add_parser("ord", help="order maps from presentations")
    ord_sub = ordp.add_subparsers(dest="ord_cmd", required=True)
    for name, blurb in (("compute", "order values on level-p strata"),
                        ("check", "order values plus kernel membership")):
        oc = ord_sub.add_parser(name, parents=[fmt], help=blurb)
        oc.add_argument("--complex", required=True)
        oc.add_argument("--pres", required=True)
        oc.add_argument("--p", type=int, required=True)
        oc.set_defaults(func="cmd_ord")

    dol = sub.add_parser("dolbeault", parents=[fmt],
                         help="replay the descent tower on a simplicial complex")
    dol.add_argument("--complex", required=True)
    dol.add_argument("--pres", required=True)
    dol.add_argument("--p", type=int, required=True)
    dol.set_defaults(func="cmd_dolbeault")
    return parser


# Built on first use.  It holds build_parser itself rather than a module
# lookup, so a tracer installed later sees the same calls on every run.
_parser = functools.cache(build_parser)


def run(argv=None) -> tuple[int, str]:
    """Parse, execute, and render; returns (exit status, report text).  The
    report's command is the line that reproduces it: the subcommand's words,
    then each option that has a value, defaults included and --format left
    out, shell-quoted, a value starting with "-" attached by "=", after
    TROPMONO_MAX_DIM=<n> where the run needs it.  The parser names the
    command function, looked up here at call time."""
    leaf = _parser()
    args = leaf.parse_args(argv)
    while leaf._subparsers is not None:  # down to the subcommand's parser
        sub = leaf._subparsers._group_actions[-1]
        leaf = sub.choices[getattr(args, sub.dest)]
    words = leaf.prog.split()[1:]
    for action in leaf._actions:
        value = getattr(args, action.dest, None)
        if value is not None and action.dest != "format":
            option, value = action.option_strings[0], str(value)
            words += ([f"{option}={value}"] if value.startswith("-")
                      else [option, value])
    command = shlex.join(words)
    if getattr(args, "n", 0) > DEFAULT_MAX_DIM:
        command = f"TROPMONO_MAX_DIM={args.n} {command}"
    report = RunReport(command, seed=getattr(args, "seed", None))
    try:
        globals()[args.func](args, report)
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
