import argparse
import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys

import pytest

from conftest import (cycle_presentations, json_digest, replay,
                      single_node_mutations, tsv_field)
from tropmono import cli, dual_complex, linalg, order_map
from tropmono.cli import build_parser, main, run
from tropmono.dual_complex import (SemistableCombinatorics, Stratum,
                                   complex_to_json, relabel_components,
                                   unit_h2)
from tropmono.forms import AffineMap, Superform
from tropmono.library import (all_ones_h2, cycle_complex,
                              cycle_orientation_presentations,
                              cycle_validation_h2, join, point_complex,
                              simplicial_presentations_from_tensors,
                              tetrahedron_complex, torus_complex)
from tropmono.linalg import QMatrix
from tropmono.poly import Poly
from tropmono.simplex import SimplexCochain, SimplexForm, star_closed_form


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_twice(argv):
    code1, text1 = run(argv)
    code2, text2 = run(argv)
    assert (code1, text1) == (code2, text2)
    return code1, text1


def cycle_files(tmp_path, m=5):
    cx = cycle_complex(m)
    complex_path = write_json(tmp_path / "cycle.json", complex_to_json(cx))
    pres = [p.to_json_obj() for p in cycle_orientation_presentations(m)]
    pres_path = write_json(tmp_path / "pres.json", {"presentations": pres})
    return complex_path, pres_path


def test_superform_battery_passes_deterministically():
    code, text = run_twice(["check", "superform", "--n", "2",
                            "--cases", "6", "--seed", "7"])
    assert code == 0
    obj = json.loads(text)
    assert obj["exitCode"] == 0
    assert obj["seed"] == 7
    assert len(obj["checks"]) == 15
    assert all(c["status"] == "pass" for c in obj["checks"])
    assert all("witness" not in c for c in obj["checks"])
    names = [c["name"] for c in obj["checks"]]
    assert "monodromy_wedge_cancellation" in names
    assert "pullback_monodromy" in names


def test_starprop_passes_deterministically():
    code, text = run_twice(["simplex", "starprop", "--n", "3", "--p", "2",
                            "--random", "2", "--seed", "3"])
    assert code == 0
    obj = json.loads(text)
    assert all(c["status"] == "pass" for c in obj["checks"])
    assert obj["result"]["forms"] == 8


def test_ss_e2_reports_dims(tmp_path):
    path = write_json(tmp_path / "tetra.json",
                      complex_to_json(tetrahedron_complex()))
    code, text = run_twice(["ss", "e2", "--input", path, "--p", "2"])
    assert code == 0
    obj = json.loads(text)
    assert obj["result"]["dims"] == {"0": 1, "1": 0, "2": 1}
    assert len(obj["result"]["representatives"]) == 1
    assert obj["inputs"][0]["path"] == path
    assert len(obj["inputs"][0]["sha256"]) == 64


def test_ss_monodromy_unit_default(tmp_path):
    path = write_json(tmp_path / "c5.json", complex_to_json(cycle_complex(5)))
    code, text = run_twice(["ss", "monodromy", "--input", path, "--p", "1"])
    assert code == 0
    obj = json.loads(text)
    assert obj["result"]["isomorphism"] is True
    assert obj["result"]["matrix"] == [["-5"]]
    assert obj["checks"][0]["name"] == "corner_inside_restriction_kernel"


def shuffled_cycle(m, seed):
    images = list(range(1, m + 1))
    random.Random(seed).shuffle(images)
    return relabel_components(cycle_complex(m),
                              dict(zip(range(1, m + 1), images)))


def simplex_boundary(n):
    """Proper faces of the n-simplex on components 1..n+1."""
    def label(subset):
        return "Y%d" % subset[0] if len(subset) == 1 else \
            "Z" + "_".join(map(str, subset))
    strata = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 2), size):
            parents = ({v: label(tuple(w for w in subset if w != v))
                        for v in subset} if size > 1 else {})
            strata.append(Stratum(label(subset), subset, parents))
    return SemistableCombinatorics([f"Y{i}" for i in range(1, n + 2)], strata)


def result_digest(argv):
    code, text = run(argv)
    assert code == 0, text
    return json_digest(json.loads(text)["result"])


# SHA-256 of the canonical JSON result block, recorded with the
# repeated-rank elimination; representatives and matrices must not move.
PINNED_CYCLES = {
    (6, "e2"): "89386a78b7079c5939f92bb14c7d912e14fcc8f44266382308c13499db313021",
    (6, "monodromy"): "8787b1d1518fd44650fceacc24d7e56ca77cf10a5eba1ee83789f6531032ec74",
    (14, "e2"): "c01c7865b9a839fb300a4b0325c4b87cce0929cb252b1e3e00475ff743c17ffe",
    (14, "monodromy"): "4c4c6e21620f5d54a46c783d087e860863c5e4ad9fd056448360f4c6084d286a",
    (40, "e2"): "b2650b3a46ff063d2db68481277fde659b7736ff241cbd09b05b002bff44f664",
    (40, "monodromy"): "a967c5eaa96a92c1de78e3d9dc0f03c74d82d053802ed4fac423c071c1fe5ed4",
}

PINNED_BOUNDARY = {
    ("e2", 1): "dbca4f347570d7835a49323fee32e71445ca75d1012512cd91687b130fd89900",
    ("monodromy", 1): "36b3c7dad9e94c520928a84d0e3e5fb1b6af9adedf18d3d3885bdf98e67f7301",
    ("monodromy", 2): "f32dd1190d84f7b42e65e712bee4bed28a0476a9a47ea420be0573eac4cad7a2",
    ("monodromy", 3): "3a317da50416dcb172550d04862ae8800d1af81ef32ff8080610da87a717512d",
    ("monodromy", 4): "1e3afe2a632232e1c37fe7b6f4c594eb428780ee225d047bed46c8ce83fa7088",
}


@pytest.mark.parametrize("m,sub", sorted(PINNED_CYCLES))
def test_ss_results_pinned_on_shuffled_cycles(tmp_path, m, sub):
    path = write_json(tmp_path / f"c{m}.json",
                      complex_to_json(shuffled_cycle(m, seed=m)))
    digest = result_digest(["ss", sub, "--input", path, "--p", "1"])
    assert digest == PINNED_CYCLES[(m, sub)]


@pytest.mark.parametrize("sub,p", sorted(PINNED_BOUNDARY))
def test_ss_results_pinned_on_the_5_simplex_boundary(tmp_path, sub, p):
    path = write_json(tmp_path / "s5.json",
                      complex_to_json(simplex_boundary(5)))
    digest = result_digest(["ss", sub, "--input", path, "--p", str(p)])
    assert digest == PINNED_BOUNDARY[(sub, p)]

# SHA-256 of the canonical JSON result block, recorded before Poly,
# Superform and SimplexForm shared one sparse-term base.
PINNED_ALGEBRA = {
    ("superform", 2): "a58212e56a5c3f8cbd4a33af5552a6dc90dfa5e91904e3237111ff861c851851",
    ("superform", 3): "500ac81a621655979b04ff4664c6ac14fedabc6032895c5496647b4f2b638f42",
    ("superform", 4): "97e8b9459f6cbda3d912a34e48806329307bdc6353a459765440ada20e4032b7",
    ("superform", 5): "79f7ef41cca892533ee56193bf0c103b4202a9b46d5fc18ffb8a4787e015e2d3",
    ("superform", 6): "11d12b2946391c55e72d5c0aa36d8b47ae4f5155f68a3a0350e0f2dacbcbb88b",
    ("starprop", 1): "fa04707caa0f636b8362277babe0998d8c51215ca1ab7e910ec8fbd6d706f16c",
    ("starprop", 2): "4e031f8c1a04603e88872082e7fdb2216e864fbf1b35750266855897f1bc0709",
    ("starprop", 3): "19b57ccdac17d32119d416d153c600378f9641b781712121f2e24b399c07b81c",
}

PINNED_DOLBEAULT = {
    "cycle5": "adee3f90b162a4bff482860ea6f9761d57f9fccaa39b84ae6f068b641037d976",
    "shared4": "77e059fa9ae25bf206a150290e74d64144ac0479fd539a42f1f9bd1a1436a7b8",
    "tetrahedron": "fc465512f09428d370d4f6434bfa6eb687f11e73198da6875120903d6724371c",
}


# --cases and --seed of the larger batteries, recorded with the wedge-chain
# pullback; the smaller ones run 4 cases at seed 11
SUPERFORM_RUNS = {5: ("2", "519"), 6: ("1", "603")}


@pytest.mark.parametrize("sub,k", sorted(PINNED_ALGEBRA))
def test_algebra_results_pinned(sub, k):
    if sub == "superform":
        cases, seed = SUPERFORM_RUNS.get(k, ("4", "11"))
        argv = ["check", "superform", "--n", str(k), "--cases", cases,
                "--seed", seed]
    else:
        argv = ["simplex", "starprop", "--n", "3", "--p", str(k),
                "--random", "2", "--seed", "11"]
    assert result_digest(argv) == PINNED_ALGEBRA[(sub, k)]


@pytest.mark.parametrize("name", sorted(PINNED_DOLBEAULT))
def test_dolbeault_results_pinned(tmp_path, name):
    if name == "cycle5":
        complex_path, pres_path = cycle_files(tmp_path, 5)
        p = 1
    elif name == "shared4":
        complex_path = write_json(tmp_path / "c.json",
                                  complex_to_json(cycle_complex(4)))
        columns = {(1, 2): [(0, 2)], (2, 3): [(1, -1)], (3, 4): [(0, 5)],
                   (1, 4): [(3, 3)]}
        pres = cycle_presentations(4, ("1/2",), columns)
        pres_path = write_json(tmp_path / "p.json", {
            "presentations": [q.to_json_obj() for q in pres]})
        p = 1
    else:
        cx = tetrahedron_complex()
        complex_path = write_json(tmp_path / "t.json", complex_to_json(cx))
        tensors = {
            "V1_2_3": [((0, 1, 3), (0, -3, -2))],
            "V1_2_4": [((1, 1, 0), (2, 0, 1))],
            "V1_3_4": [((0, 2, 1), (1, 1, -1))],
            "V2_3_4": [((2, 0, 1), (0, 1, 1))],
        }
        pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
        pres_path = write_json(tmp_path / "p.json", {
            "presentations": [q.to_json_obj() for q in pres]})
        p = 2
    digest = result_digest(["dolbeault", "--complex", complex_path,
                            "--pres", pres_path, "--p", str(p)])
    assert digest == PINNED_DOLBEAULT[name]


# SHA-256 over (operator, argv, exit code, report) of the superform battery
# with one operator broken at a time; the failing reports carry the drawn
# forms and maps, so this pins the draws, the witness format and which
# identity catches which fault.  Recorded before the battery became a table.
PINNED_BATTERY_FAULTS = \
    "14a1b8461d5b145957a361d4e043bc8fd7e818f053f36dc5d9c12b57936caad5"


def _doubled(fn, input_of):
    """fn, except that its result doubles whenever its input form has more
    than one term."""
    def broken(obj, *args):
        out = fn(obj, *args)
        return out * 2 if len(input_of(obj, args).terms) > 1 else out
    return broken


def test_superform_battery_under_faults_pinned(monkeypatch):
    digest = hashlib.sha256()
    operators = [(Superform, name) for name in
                 ("flip", "d_prime", "d_second", "monodromy", "wedge")]
    operators.append((AffineMap, "pullback"))
    for owner, name in operators:
        with monkeypatch.context() as patch:
            input_of = ((lambda obj, args: args[0]) if owner is AffineMap
                        else (lambda obj, args: obj))
            patch.setattr(owner, name, _doubled(getattr(owner, name), input_of))
            for n, seed, fmt in itertools.product((2, 3), (1, 7), ("json", "tsv")):
                argv = ["check", "superform", "--n", str(n), "--cases", "3",
                        "--seed", str(seed), "--format", fmt]
                code, text = run(argv)
                digest.update(json.dumps([name, argv, code, text]).encode())
    assert digest.hexdigest() == PINNED_BATTERY_FAULTS


def failed_checks(argv):
    """Exit status 1 and the failing checks' witnesses, by check name."""
    code, text = run(argv)
    assert code == 1
    obj = json.loads(text)
    assert obj["exitCode"] == 1
    return {c["name"]: c["witness"] for c in obj["checks"]
            if c["status"] == "fail"}


def _starprop_stage_fault(ctx, beta, p, r, subset):
    """Below the top, the direct stage doubled."""
    out = star_closed_form(ctx, beta, p, r, subset)
    return out * 2 if r < p else out


def _starprop_face_fault(ctx, beta, p, r, subset):
    """At the top, a face row through vertex 0 that is not constant on the
    simplex, and every other face row off by one."""
    out = star_closed_form(ctx, beta, p, r, subset)
    if r < p:
        return out
    nvars = ctx.n + 1
    extra = Poly.variable(nvars, 1) if subset[0] == 0 else Poly.const(nvars, 1)
    return out + SimplexForm.monomial(nvars, (), extra)


@pytest.mark.parametrize("fault, stages, rows", [
    (_starprop_stage_fault, 5, 0), (_starprop_face_fault, 0, 15)])
def test_starprop_witnesses_under_faults(monkeypatch, fault, stages, rows):
    # five forms (three basis, two random) with three face rows each
    monkeypatch.setattr(cli, "star_closed_form", fault)
    failed = failed_checks(["simplex", "starprop", "--n", "2", "--p", "1"])
    stage = [v for k, v in failed.items() if k.startswith("stages[")]
    row = [v for k, v in failed.items() if k.startswith("match[")]
    assert (len(stage), len(row)) == (stages, rows)
    for witness in stage:
        assert set(witness) == {"r", "subset", "recursion", "direct"}
        assert witness["r"] == 0 and witness["recursion"] != witness["direct"]
    for witness in row:
        assert set(witness) == {"subset", "value", "direct"}
        # a face row through vertex 0 takes the non-constant branch
        assert (witness["subset"][0] == 0) == any(
            set(term["coeff"]) != {"0,0,0"} for term in witness["direct"])


def test_ss_e2_squares_witness_under_a_fault(tmp_path, monkeypatch):
    monkeypatch.setattr(dual_complex, "restriction_square",
                        lambda complex_, p: QMatrix([[p + 1]]))
    path = write_json(tmp_path / "tetra.json",
                      complex_to_json(tetrahedron_complex()))
    failed = failed_checks(["ss", "e2", "--input", path])
    assert failed == {f"restriction_squares_to_zero[p={p}]":
                      {"composite": [[str(p + 1)]]} for p in (0, 1)}


def test_ss_monodromy_corner_refusal_under_a_fault(tmp_path, monkeypatch):
    def refused(complex_, h2, p):
        raise RuntimeError("corner image leaves the restriction kernel")

    monkeypatch.setattr(dual_complex, "corner_monodromy", refused)
    path = write_json(tmp_path / "c5.json", complex_to_json(cycle_complex(5)))
    code, text = run(["ss", "monodromy", "--input", path, "--p", "1"])
    assert code == 1
    obj = json.loads(text)
    assert obj["checks"] == [{
        "name": "corner_inside_restriction_kernel", "status": "fail",
        "witness": {"error": "corner image leaves the restriction kernel"}}]
    assert "result" not in obj


def test_dolbeault_mismatch_list_under_a_fault(tmp_path, monkeypatch):
    real = order_map.tower_top

    def shifted(ctx, beta, p):
        """The top cochain, one off at the first face."""
        top = real(ctx, beta, p)
        first = min(top.values)
        return SimplexCochain(ctx.n, p, lambda J: top.values[J] + (J == first))

    monkeypatch.setattr(order_map, "tower_top", shifted)
    complex_path, pres_path = cycle_files(tmp_path, 5)
    failed = failed_checks(["dolbeault", "--complex", complex_path,
                            "--pres", pres_path, "--p", "1"])
    assert list(failed) == ["tower_closes_on_order"]
    mismatches = failed["tower_closes_on_order"]["mismatches"]
    assert len(mismatches) == 5  # one per top stratum
    for entry in mismatches:
        assert set(entry) == {"top", "face", "value", "expected"}
        assert entry["value"] != entry["expected"]



# SHA-256 of the `ord compute` result block on cycles where the presentations
# of both endpoints cover every edge, recorded before ord_vector indexed the
# flags by member set.
PINNED_ORD_TWO_COVERS = {
    4: "974b450efad631c7b2849c4deadee8ade7e75a02be0fb681730a04f06db73348",
    7: "d0bc3349e7c5451382b85c7d4b8623ad1265cf0e85ec642ab288f6776c5ec9fa",
    12: "c1080db04f69bac6c954060b75d6f6896505a4aaf5f73e5e6b80c6bf7be8d2db",
}


@pytest.mark.parametrize("m", sorted(PINNED_ORD_TWO_COVERS))
def test_ord_compute_pinned_with_two_covers_per_edge(tmp_path, m):
    rng = random.Random(4000 + m)
    weights = ("1",) if m == 4 else ("1/2", "-3")
    columns = {}
    for i in range(1, m + 1):
        edge = tuple(sorted((i, i % m + 1)))
        columns[edge] = [(rng.randint(-4, 4), rng.randint(-4, 4))
                         for _ in weights]
    pres = cycle_presentations(m, weights, columns)
    complex_path = write_json(tmp_path / "c.json",
                              complex_to_json(cycle_complex(m)))
    pres_path = write_json(tmp_path / "p.json", {
        "presentations": [q.to_json_obj() for q in pres]})
    digest = result_digest(["ord", "compute", "--complex", complex_path,
                            "--pres", pres_path, "--p", "1"])
    assert digest == PINNED_ORD_TWO_COVERS[m]

def test_ss_validate_passes_on_consistent_model(tmp_path):
    cx = cycle_complex(4)
    path = write_json(tmp_path / "good.json",
                      complex_to_json(cx, cycle_validation_h2(4)))
    code, text = run_twice(["ss", "validate", "--input", path])
    assert code == 0
    obj = json.loads(text)
    assert obj["checks"][0]["name"] == "cancellation[p=1]"
    assert obj["checks"][0]["status"] == "pass"


def test_ss_validate_flags_inconsistent_model(tmp_path):
    cx = cycle_complex(4)
    path = write_json(tmp_path / "ones.json",
                      complex_to_json(cx, all_ones_h2(cx)))
    code, text = run_twice(["ss", "validate", "--input", path])
    assert code == 1
    obj = json.loads(text)
    assert obj["exitCode"] == 1
    fail = obj["checks"][0]
    assert fail["status"] == "fail"
    assert "composite" in fail["witness"]


def test_ss_e2_needs_a_level_beyond_0(tmp_path):
    # before, a single component passed with zero checks
    path = write_json(tmp_path / "pt.json", complex_to_json(point_complex()))
    code, text = run(["ss", "e2", "--input", path])
    assert code == 2
    assert text == "error: the complex has no strata beyond level 0\n"


@pytest.mark.parametrize("argv", [["ss", "monodromy", "--input"],
                                  ["ord", "compute", "--complex"],
                                  ["ord", "check", "--complex"]])
def test_level_commands_need_a_level_beyond_0(tmp_path, argv):
    # before, these said "--p must lie between 1 and 0"
    path = write_json(tmp_path / "pt.json", complex_to_json(point_complex()))
    pres_path = write_json(tmp_path / "p.json", [])
    extra = ["--pres", pres_path] if argv[0] == "ord" else []
    code, text = run(argv + [path] + extra + ["--p", "1"])
    assert (code, text) == (2, "error: the complex has no strata beyond level 0\n")


@pytest.mark.parametrize("p", ["-1", "2", "9"])
def test_ss_e2_refuses_p_out_of_range_before_any_work(tmp_path, monkeypatch, p):
    # before, every squares check and every E2 level ran first
    path = write_json(tmp_path / "c14.json", complex_to_json(cycle_complex(14)))
    calls = []
    for name in ("restriction_square", "e2_dims", "e2_p0"):
        monkeypatch.setattr(dual_complex, name,
                            lambda *args, name=name: calls.append(name))
    code, text = run(["ss", "e2", "--input", path, "--p", p])
    assert (code, text, calls) == (2, "error: --p must lie between 0 and 1\n", [])


@pytest.mark.parametrize("p", [None, 0, 1, 2])
def test_ss_e2_builds_representatives_only_at_the_level_asked(tmp_path, monkeypatch, p):
    # before, e2_p0 ran at every level and the dims were the counts of its
    # representatives; now they come from e2_dims's ranks
    path = write_json(tmp_path / "tetra.json", complex_to_json(tetrahedron_complex()))
    levels = []
    e2_p0 = dual_complex.e2_p0

    def counted(complex_, level):
        levels.append(level)
        return e2_p0(complex_, level)

    monkeypatch.setattr(dual_complex, "e2_p0", counted)
    code, text = run(["ss", "e2", "--input", path] + ([] if p is None else ["--p", str(p)]))
    result = json.loads(text)["result"]
    assert code == 0 and result["dims"] == {"0": 1, "1": 0, "2": 1}
    assert levels == ([] if p is None else [p])
    if p is not None:
        assert len(result["representatives"]) == result["dims"][str(p)]


def record_walks(monkeypatch):
    """(walks, passes) for the commands run from here on: each (level, map)
    whose restriction map a poset walks, a fill of its kept maps and not a
    lookup, and the rows of each forward pass."""
    walks, passes = [], []
    init, echelon = SemistableCombinatorics.__init__, linalg._echelon

    class Kept(dict):
        def __setitem__(self, p, rows):
            walks.append((p, rows))
            super().__setitem__(p, rows)

    def recording_init(self, *args):
        init(self, *args)
        self._maps = Kept()

    def recording_echelon(rows, stored=()):
        rows = list(rows)
        passes.append(rows)
        return echelon(rows, stored)

    monkeypatch.setattr(SemistableCombinatorics, "__init__", recording_init)
    monkeypatch.setattr(linalg, "_echelon", recording_echelon)
    return walks, passes


def passes_over(passes, rows: dict) -> int:
    """The number of forward passes over the very rows of a kept map."""
    return sum(len(rows_) == len(rows) and all(
        a is b for a, b in zip(rows_, rows.values())) for rows_ in passes)


@pytest.fixture(scope="module")
def level_files(tmp_path_factory):
    """name -> (complex path, complex-with-h2 path, presentations path, top
    level) for the tetrahedron and torus * torus, each written once; the
    presentations cover the top level from one tensor per top stratum."""
    files = {}
    for name, cx in (("tetra", tetrahedron_complex()),
                     ("torus2", join(torus_complex(), torus_complex()))):
        where, top = tmp_path_factory.mktemp(name), cx.max_level
        tensors = {z.label: [tuple(tuple((k + 1) * v % 3 for v in range(top + 1))
                                   for k in range(top))] for z in cx.level(top)}
        pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
        files[name] = (
            write_json(where / "cx.json", complex_to_json(cx)),
            write_json(where / "h2.json", complex_to_json(cx, all_ones_h2(cx))),
            write_json(where / "pres.json",
                       {"presentations": [q.to_json_obj() for q in pres]}),
            top)
    return files


@pytest.mark.parametrize("name,command", [
    (name, command) for name in ("tetra", "torus2")
    for command in ("e2", "e2 --p", "monodromy", "validate", "ord check")])
def test_each_level_map_is_walked_once_per_command(level_files, monkeypatch,
                                                   name, command):
    # before, each reader rebuilt the maps it needed: `ss e2` walked the
    # poset 2 * top + top + 1 times for top + 1 maps (16 for 6 on
    # torus * torus), and `ss monodromy` forward-passed R_p twice
    path, h2_path, pres_path, top = level_files[name]
    k = 1 if name == "tetra" else 2  # below the top, so that R_k has rows
    argv, levels = {
        "e2": (["ss", "e2", "--input", path], range(top + 1)),
        "e2 --p": (["ss", "e2", "--input", path, "--p", str(k)], range(top + 1)),
        "monodromy": (["ss", "monodromy", "--input", path, "--p", str(k)],
                      [k - 1, k]),
        "validate": (["ss", "validate", "--input", h2_path, "--p", str(k)], [k]),
        "ord check": (["ord", "check", "--complex", path, "--pres", pres_path,
                       "--p", str(top)], [top]),
    }[command]
    walks, passes = record_walks(monkeypatch)
    code, text = run(argv)
    assert code in (0, 1) and "result" in json.loads(text)
    assert sorted(p for p, _ in walks) == list(levels)
    maps = dict(walks)
    if command == "e2":
        assert [passes_over(passes, maps[p]) for p in levels] == [1] * (top + 1)
    elif command == "e2 --p":
        # e2_dims and e2_p0 each run R_k's forward pass: its echelon is
        # not kept on the poset
        assert [passes_over(passes, maps[p]) for p in levels] == [
            1 + (p == k) for p in levels]
    elif command == "monodromy":
        assert passes_over(passes, maps[k]) == 1


@pytest.mark.parametrize("sub", ["validate", "ord_check"])
def test_h2_without_classes_exits_2(tmp_path, sub):
    # before, both passed: the checked map lands in a zero space
    obj = complex_to_json(cycle_complex(4))
    obj["h2"] = {s["label"]: {"dim": 0} for s in obj["strata"]}
    path = write_json(tmp_path / "zero.json", obj)
    if sub == "validate":
        argv, level = ["ss", "validate", "--input", path], 1
    else:
        pres = [p.to_json_obj() for p in cycle_orientation_presentations(4)]
        pres_path = write_json(tmp_path / "pres.json", pres)
        argv, level = ["ord", "check", "--complex", path, "--pres", pres_path,
                       "--p", "1"], 0
    code, text = run(argv)
    assert code == 2
    assert text == f"error: {path}: h2 has no classes at level {level}\n"


def test_ss_validate_needs_h2(tmp_path):
    path = write_json(tmp_path / "bare.json", complex_to_json(cycle_complex(3)))
    code, text = run(["ss", "validate", "--input", path])
    assert code == 2
    assert text.startswith("error:")
    assert "no h2 data" in text


def test_ord_compute_frozen_values(tmp_path):
    complex_path, pres_path = cycle_files(tmp_path, 5)
    code, text = run_twice(["ord", "compute", "--complex", complex_path,
                            "--pres", pres_path, "--p", "1"])
    assert code == 0
    obj = json.loads(text)
    assert obj["result"]["values"] == {"E1_2": "1", "E2_3": "1", "E3_4": "1",
                                       "E4_5": "1", "E1_5": "-1"}


def test_ord_check_adds_kernel_checks(tmp_path):
    complex_path, pres_path = cycle_files(tmp_path, 5)
    code, text = run_twice(["ord", "check", "--complex", complex_path,
                            "--pres", pres_path, "--p", "1"])
    assert code == 0
    names = [c["name"] for c in json.loads(text)["checks"]]
    assert names == ["cover_and_agree", "restriction_vanishes",
                     "gysin_pushforward_vanishes"]


def test_ord_missing_cover_exits_1(tmp_path):
    cx = cycle_complex(4)
    complex_path = write_json(tmp_path / "c.json", complex_to_json(cx))
    pres = [p.to_json_obj() for p in cycle_orientation_presentations(4)[1:]]
    pres_path = write_json(tmp_path / "p.json", pres)  # bare list form
    code, text = run(["ord", "compute", "--complex", complex_path,
                      "--pres", pres_path, "--p", "1"])
    assert code == 1
    obj = json.loads(text)
    assert obj["checks"][0]["status"] == "fail"
    assert "no presentation covers" in obj["checks"][0]["witness"]["error"]


@pytest.mark.parametrize("sub", ["compute", "check"])
@pytest.mark.parametrize("p", ["0", "2", "4"])
def test_ord_rejects_p_outside_the_levels(tmp_path, sub, p):
    complex_path, pres_path = cycle_files(tmp_path, 5)
    code, text = run(["ord", sub, "--complex", complex_path,
                      "--pres", pres_path, "--p", p])
    assert code == 2
    assert text == "error: --p must lie between 1 and 1\n"

def test_dolbeault_on_the_cycle(tmp_path):
    complex_path, pres_path = cycle_files(tmp_path, 5)
    code, text = run_twice(["dolbeault", "--complex", complex_path,
                            "--pres", pres_path, "--p", "1"])
    assert code == 0
    obj = json.loads(text)
    assert obj["result"]["finalCheck"] is True
    assert obj["result"]["constant"] == "-1"
    assert obj["result"]["ord"]["E1_5"] == "-1"


def test_dolbeault_on_the_tetrahedron(tmp_path):
    cx = tetrahedron_complex()
    complex_path = write_json(tmp_path / "t.json", complex_to_json(cx))
    tensors = {
        "V1_2_3": [((0, 1, 3), (0, -3, -2))],
        "V1_2_4": [((1, 1, 0), (2, 0, 1))],
        "V1_3_4": [((0, 2, 1), (1, 1, -1))],
        "V2_3_4": [((2, 0, 1), (0, 1, 1))],
    }
    pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
    pres_path = write_json(tmp_path / "p.json",
                           {"presentations": [p.to_json_obj() for p in pres]})
    code, text = run_twice(["dolbeault", "--complex", complex_path,
                            "--pres", pres_path, "--p", "2"])
    assert code == 0
    obj = json.loads(text)
    assert obj["result"]["constant"] == "-1/2"
    assert obj["result"]["finalCheck"] is True
    assert obj["result"]["ord"]["V1_2_3"] == "7"


def test_dolbeault_disagreement_exits_1(tmp_path):
    # edges covered from both endpoints; tampering one side must be caught
    m = 4
    complex_path = write_json(tmp_path / "c.json",
                              complex_to_json(cycle_complex(m)))
    columns = {(1, 2): [(0, 2)], (2, 3): [(1, -1)], (3, 4): [(0, 5)],
               (1, 4): [(3, 3)]}
    shared = cycle_presentations(m, (1,), columns)
    pres = {"presentations": [p.to_json_obj() for p in shared]}
    pres["presentations"][0]["flags"]["1,2"][0][0][0] += 1
    broken = write_json(tmp_path / "broken.json", pres)
    code, text = run(["dolbeault", "--complex", complex_path,
                      "--pres", broken, "--p", "1"])
    assert code == 1
    obj = json.loads(text)
    assert obj["checks"][0]["name"] == "presentations_cover_and_agree"
    assert "disagree" in obj["checks"][0]["witness"]["error"]


def test_dolbeault_rejects_non_simplicial_input(tmp_path):
    path = write_json(tmp_path / "pt.json", complex_to_json(point_complex()))
    pres_path = write_json(tmp_path / "p.json", [])
    code, text = run(["dolbeault", "--complex", path, "--pres", pres_path,
                      "--p", "1"])
    assert code == 2
    assert "beyond level 0" in text


def test_bad_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "components": [1,\n}\n')
    code, text = run(["ss", "e2", "--input", str(bad)])
    assert code == 2
    assert f"{bad}:3:1:" in text


# a nesting the decoder cannot follow, and an integer literal longer than
# Python reads from a string, where no integer would be valid input
DEEP_NESTING = "[" * 100_000 + "]" * 100_000
LONG_INTEGER = '{"components": [], "strata": [{"level": ' + "7" * 5000 + "}]}"


@pytest.mark.parametrize("text", [DEEP_NESTING, LONG_INTEGER],
                         ids=["nested_100000_deep", "integer_of_5000_digits"])
@pytest.mark.parametrize("role", ["complex", "presentations"])
def test_json_beyond_the_decoder_exits_2(tmp_path, text, role):
    # before, these escaped as a RecursionError and a ValueError
    complex_path, pres_path = cycle_files(tmp_path, 3)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if role == "complex":
        complex_path = str(bad)
    else:
        pres_path = str(bad)
    code, out = run(["ord", "compute", "--complex", complex_path,
                     "--pres", pres_path, "--p", "1"])
    assert code == 2
    assert out.startswith(f"error: {bad}:")
    assert "Traceback" not in out


def test_unreadable_file(tmp_path):
    code, text = run(["ss", "e2", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in text


def test_bad_complex_data(tmp_path):
    path = write_json(tmp_path / "nonsense.json", {"components": ["A"],
                                                   "strata": []})
    code, text = run(["ss", "e2", "--input", path])
    assert code == 2
    assert "bad complex data" in text


# Gysin entries that int() would read but as_fraction refuses
GYSIN_LITERALS = {
    "gysin_entry_is_padded": " 1",
    "gysin_entry_has_a_digit_separator": "1_0",
    "gysin_entry_is_not_ascii": "\u0662",
    "gysin_entry_is_a_bare_sign": "-",
    "gysin_entry_is_past_the_digit_limit": "9" * 5000,
}


# what the error names, for the cases whose message is fixed
COMPLEX_FAULTS = {
    "gysin_length_monodromy": "Gysin vector for E1_2 in Y1 has wrong length",
    "h2_unknown_stratum": "h2 GHOST: not a stratum",
    "gysin_unknown_child": "h2 Y1: NOPE is not a child of Y1",
    "gysin_not_a_child": "h2 Y1: E2_3 is not a child of Y1",
    "restrict_unknown_child": "h2 Y2: NOPE is not a child of Y2",
    "no_components": "a complex needs at least one component",
    "gysin_entry_is_true":
        "h2 Y1: gysin E1_2: cannot interpret True as a rational number",
    "gysin_entry_divides_by_zero":
        "h2 Y1: gysin E1_2: cannot interpret '1/0' as a rational number",
    "restrict_entry_divides_by_zero":
        "h2 Y1: restrict E1_2: cannot interpret '1/0' as a rational number",
    "gysin_entry_has_an_exponent":
        "h2 Y1: gysin E1_2: cannot interpret '1e5000' as a rational number",
    **{case: f"h2 Y1: gysin E1_2: cannot interpret {literal!r} as a rational number"
       for case, literal in GYSIN_LITERALS.items()},
    "components_is_a_string": "top level: components must be a list",
    "gysin_is_a_string": "h2 Y1: gysin E1_2 must be a list",
    "restrict_is_ragged": "h2 Y1: restrict E1_2: ragged rows",
    "restrict_is_ragged_with_a_bad_entry":
        "h2 Y1: restrict E1_2: cannot interpret '1/0' as a rational number",
    "restrict_is_narrow_with_a_bad_entry":
        "h2 Y1: restrict E1_2: cannot interpret 'x' as a rational number",
    "parents_key_is_not_a_number":
        "stratum E1_2: parents: invalid literal for int() with base 10: 'x'",
    "parents_key_has_a_leading_zero":
        "stratum E1_2: parents: '02' is not a plain decimal integer",
    "parents_key_is_padded":
        "stratum E1_2: parents: ' 2' is not a plain decimal integer",
    "parents_key_has_a_digit_separator":
        "stratum E1_2: parents: '0_2' is not a plain decimal integer",
    "parents_key_has_a_plus_sign":
        "stratum E1_2: parents: '+2' is not a plain decimal integer",
    "parents_key_is_not_ascii":
        "stratum E1_2: parents: '\u0662' is not a plain decimal integer",
    "dim_is_negative": "h2 Y1: dim must be a nonnegative integer",
    "stratum_is_a_string": "stratum 0 must be an object",
    "parents_is_a_list": "stratum E1_2: parents must be an object",
    "h2_is_a_list": "top level: h2 must be an object",
    "gysin_is_a_list": "h2 Y1: gysin must be an object",
    "h2_entry_is_a_number": "h2 Y1 must be an object",
    "top_level_is_a_list": "top level must be an object",
    "components_missing": "top level: missing key 'components'",
    "label_missing": "stratum 4: missing key 'label'",
    "index_set_missing": "stratum E1_2: missing key 'indexSet'",
    "dim_missing": "h2 Y1: missing key 'dim'",
    "component_is_a_list": "components must be strings",
    "label_is_a_number": "stratum 4: label must be a string",
    "parent_label_is_a_number": "stratum E1_2: parent labels must be strings",
    "strata_missing": "top level: missing key 'strata'",
    "strata_is_an_object": "top level: strata must be a list",
    "restrict_is_a_list": "h2 Y1: restrict must be an object",
}


# spellings of the parents key "2" of E1_2 that int() reads as 2 too
PARENTS_KEYS = {
    "parents_key_has_a_leading_zero": "02",
    "parents_key_is_padded": " 2",
    "parents_key_has_a_digit_separator": "0_2",
    "parents_key_has_a_plus_sign": "+2",
    "parents_key_is_not_ascii": "\u0662",
}


def _malformed_complex(case):
    cx = cycle_complex(4)
    obj = complex_to_json(cx, unit_h2(cx))
    if case in ("gysin_length_monodromy", "gysin_length_ord_check"):
        obj["h2"]["Y1"]["gysin"]["E1_2"] = ["1", "2"]
    elif case == "stratum_is_a_string":
        obj["strata"][0] = "Y1"
    elif case == "parents_is_a_list":
        obj["strata"][4]["parents"] = ["Y2", "Y1"]
    elif case == "h2_unknown_stratum":
        obj["h2"]["GHOST"] = {"dim": 1}
    elif case == "gysin_unknown_child":
        obj["h2"]["Y1"]["gysin"]["NOPE"] = ["1"]
    elif case == "gysin_not_a_child":
        obj["h2"]["Y1"]["gysin"]["E2_3"] = ["1"]
    elif case == "restrict_unknown_child":
        obj["h2"]["Y2"]["restrict"] = {"NOPE": [["1"]]}
    elif case == "no_components":
        obj = {"components": [], "strata": []}
    elif case == "gysin_entry_is_true":
        obj["h2"]["Y1"]["gysin"]["E1_2"] = [True]
    elif case == "gysin_entry_divides_by_zero":
        obj["h2"]["Y1"]["gysin"]["E1_2"] = ["1/0"]
    elif case == "gysin_entry_has_an_exponent":
        obj["h2"]["Y1"]["gysin"]["E1_2"] = ["1e5000"]
    elif case in GYSIN_LITERALS:
        obj["h2"]["Y1"]["gysin"]["E1_2"] = [GYSIN_LITERALS[case]]
    elif case == "restrict_entry_divides_by_zero":
        obj["h2"]["Y1"]["restrict"] = {"E1_2": [["1/0"]]}
    elif case == "components_is_a_string":
        obj["components"] = "ABCD"
    elif case == "gysin_is_a_string":
        obj["h2"]["Y1"]["gysin"]["E1_2"] = "1"
    elif case == "restrict_is_ragged":
        obj["h2"]["Y1"]["restrict"] = {"E1_2": [["1"], ["1", "2"]]}
    elif case == "restrict_is_ragged_with_a_bad_entry":
        obj["h2"]["Y1"]["restrict"] = {"E1_2": [["1"], ["1", "1/0"]]}
    elif case == "restrict_is_narrow_with_a_bad_entry":
        # width 1 where the dim is 2
        obj["h2"]["Y1"] = {"dim": 2, "restrict": {"E1_2": [["x"]]}}
    elif case == "parents_key_is_not_a_number":
        obj["strata"][4]["parents"] = {"x": "Y2", "2": "Y1"}
    elif case in PARENTS_KEYS:
        obj["strata"][4]["parents"] = {"1": "Y2", PARENTS_KEYS[case]: "Y1"}
    elif case == "dim_is_negative":
        obj["h2"]["Y1"]["dim"] = -1
    elif case == "gysin_is_a_list":
        obj["h2"]["Y1"]["gysin"] = [["1"]]
    elif case == "h2_entry_is_a_number":
        obj["h2"]["Y1"] = 1
    elif case == "top_level_is_a_list":
        obj = [obj]
    elif case == "components_missing":
        del obj["components"]
    elif case == "label_missing":
        del obj["strata"][4]["label"]
    elif case == "index_set_missing":
        del obj["strata"][4]["indexSet"]
    elif case == "dim_missing":
        del obj["h2"]["Y1"]["dim"]
    elif case == "component_is_a_list":
        obj["components"][0] = [obj["components"][0]]
    elif case == "label_is_a_number":
        obj["strata"][4]["label"] = 12
    elif case == "parent_label_is_a_number":
        obj["strata"][4]["parents"]["1"] = 1
    elif case == "strata_missing":
        del obj["strata"]
    elif case == "strata_is_an_object":
        obj["strata"] = {}
    elif case == "restrict_is_a_list":
        obj["h2"]["Y1"]["restrict"] = [["1"]]
    else:
        obj["h2"] = [obj["h2"]["Y1"]]
    return obj


@pytest.mark.parametrize("case", [
    "gysin_length_monodromy", "gysin_length_ord_check", "stratum_is_a_string",
    "parents_is_a_list", "h2_is_a_list", "h2_unknown_stratum",
    "gysin_unknown_child", "gysin_not_a_child", "restrict_unknown_child",
    "no_components", "gysin_entry_is_true", "components_is_a_string",
    "gysin_is_a_string", "restrict_is_ragged",
    "restrict_is_ragged_with_a_bad_entry", "restrict_is_narrow_with_a_bad_entry",
    "parents_key_is_not_a_number",
    "dim_is_negative", "gysin_is_a_list", "h2_entry_is_a_number",
    "top_level_is_a_list", "components_missing", "label_missing",
    "index_set_missing", "dim_missing", "component_is_a_list",
    "label_is_a_number", "parent_label_is_a_number",
    "gysin_entry_divides_by_zero", "restrict_entry_divides_by_zero",
    "gysin_entry_has_an_exponent", "strata_missing", "strata_is_an_object",
    "restrict_is_a_list", *PARENTS_KEYS, *GYSIN_LITERALS])
def test_malformed_complex_exits_2(tmp_path, case):
    # before, the unknown labels were kept and `ss monodromy` reported an
    # isomorphism; `ss e2` on the empty complex passed zero checks; a Gysin
    # entry true was read as 1, and an entry "1/0" escaped as a
    # ZeroDivisionError; an entry "1e5000" was read as a number too long
    # to print; the strings "ABCD" and "1" were read as the
    # lists of their characters; the last three named no stratum; a list
    # where an object belongs and a missing key named neither the place nor
    # the rule, and a component ["A"] was named "['A']"; a parents key "02",
    # " 2", "0_2", "+2" or an Arabic-Indic two was read as 2; a Gysin entry
    # in GYSIN_LITERALS is refused by the literal reader's integral path too
    path = write_json(tmp_path / "bad.json", _malformed_complex(case))
    if case == "no_components":
        argv = ["ss", "e2", "--input", path]
    elif case == "gysin_length_ord_check":
        pres = [p.to_json_obj() for p in cycle_orientation_presentations(4)]
        pres_path = write_json(tmp_path / "pres.json", {"presentations": pres})
        argv = ["ord", "check", "--complex", path, "--pres", pres_path,
                "--p", "1"]
    else:
        argv = ["ss", "monodromy", "--input", path, "--p", "1"]
    code, text = run(argv)
    assert code == 2
    assert text.startswith(f"error: {path}: bad complex data:")
    assert COMPLEX_FAULTS.get(case, "") in text
    assert "Traceback" not in text



@pytest.mark.parametrize("field,value,where", [
    ("indexSet", "12", "stratum E1_2: indexSet"),
    ("indexSet", [1, 2.0], "stratum E1_2: indexSet"),
    ("indexSet", [True, 2], "stratum E1_2: indexSet"),
    ("level", 1.5, "stratum E1_2: level"),
    ("level", True, "stratum E1_2: level"),
    ("level", "1", "stratum E1_2: level"),
    ("dim", 1.5, "h2 Y1: dim"),
    ("dim", True, "h2 Y1: dim"),
    ("dim", "1", "h2 Y1: dim"),
])
def test_complex_numbers_must_be_json_integers(tmp_path, field, value, where):
    # before, "12" parsed as the index set (1, 2) and 1.5 was truncated to 1
    cx = cycle_complex(4)
    obj = complex_to_json(cx, unit_h2(cx))
    if field == "dim":
        obj["h2"]["Y1"]["dim"] = value
    else:
        assert obj["strata"][4]["label"] == "E1_2"
        obj["strata"][4][field] = value
    path = write_json(tmp_path / "bad.json", obj)
    code, text = run(["ss", "monodromy", "--input", path, "--p", "1"])
    assert code == 2
    assert text.startswith(f"error: {path}: bad complex data: {where} must be")
    assert "Traceback" not in text


# fields replaced in the first presentation of the 5-cycle
PRESENTATION_EDITS = {
    "weights_is_a_string": {"weights": "12", "flags": {"1,2": [[[1]], [[1]]]}},
    "flag_key_is_not_a_number": {"flags": {"1,x": [[[1]]]}},
    "flag_member_has_a_leading_zero": {"flags": {"1,02": [[[1]]]}},
    "flag_member_is_padded": {"flags": {"1, 2": [[[1]]]}},
    "flag_member_has_a_digit_separator": {"flags": {"1,0_2": [[[1]]]}},
    "flag_member_has_a_plus_sign": {"flags": {"+1,2": [[[1]]]}},
    "flag_member_is_not_ascii": {"flags": {"1,\u0662": [[[1]]]}},
    "flag_spelled_twice": {"flags": {"1,2": [[[1]]], "1,02": [[[5]]]}},
    "flag_has_one_member": {"flags": {"1": [[[]]]}},
    "flag_rooted_elsewhere": {"flags": {"2,3": [[[1]]]}},
    "two_matrices_for_one_weight": {"flags": {"1,2": [[[1]], [[1]]]}},
    "two_columns_for_one_wall": {"flags": {"1,2": [[[1, 2]]]}},
    "weights_is_empty": {"weights": []},
}

# whole presentations files that hold no list of presentations
PRESENTATION_FILES = {
    "file_is_a_number": 5,
    "file_is_a_string": "abc",
    "file_is_an_empty_object": {},
    "wrapper_holds_an_object": {"presentations": {}},
}


@pytest.mark.parametrize("case,message", [
    ("entry_is_a_string", "presentation 0 is not an object"),
    ("entry_is_a_list", "presentation 1 is not an object"),
    ("flags_is_a_list", "presentation 0: flags must be an object"),
    ("exponent_is_a_float", "presentation 0: flag 1,2: exponents must be integers"),
    ("exponent_is_true", "presentation 0: flag 1,2: exponents must be integers"),
    ("exponent_is_a_string", "presentation 0: flag 1,2: exponents must be integers"),
    ("component_is_a_float", "presentation 1: component must be an integer"),
    ("component_is_true", "presentation 1: component must be an integer"),
    ("component_is_a_string", "presentation 1: component must be an integer"),
    ("flag_is_an_integer",
     "presentation 0: flag 1,2: expected a list of exponent matrices"),
    ("weight_is_true",
     "presentation 0: weights: cannot interpret True as a rational number"),
    ("weight_divides_by_zero",
     "presentation 0: weights: cannot interpret '1/0' as a rational number"),
    ("weight_has_an_exponent",
     "presentation 0: weights: cannot interpret '1e5000' as a rational number"),
    ("weights_is_a_string", "presentation 0: weights must be a list"),
    ("flag_key_is_not_a_number",
     "presentation 0: flag 1,x: invalid literal for int() with base 10: 'x'"),
    ("flag_member_has_a_leading_zero",
     "presentation 0: flag 1,02: '02' is not a plain decimal integer"),
    ("flag_member_is_padded",
     "presentation 0: flag 1, 2: ' 2' is not a plain decimal integer"),
    ("flag_member_has_a_digit_separator",
     "presentation 0: flag 1,0_2: '0_2' is not a plain decimal integer"),
    ("flag_member_has_a_plus_sign",
     "presentation 0: flag +1,2: '+1' is not a plain decimal integer"),
    ("flag_member_is_not_ascii",
     "presentation 0: flag 1,\u0662: '\u0662' is not a plain decimal integer"),
    ("flag_spelled_twice",
     "presentation 0: flag 1,02: '02' is not a plain decimal integer"),
    ("flag_has_one_member",
     "presentation 0: flag 1: a flag needs at least one wall"),
    ("flag_rooted_elsewhere", "presentation 0: flag 2,3: flag must be rooted "
     "at the presentation component"),
    ("two_matrices_for_one_weight",
     "presentation 0: flag 1,2: one exponent matrix per weight required"),
    ("two_columns_for_one_wall",
     "presentation 0: flag 1,2: one matrix column per wall required"),
    ("component_missing", "presentation 0: missing key 'component'"),
    ("weights_missing", "presentation 0: missing key 'weights'"),
    ("weights_is_empty", "presentation 0: weights must not be empty"),
    *[(case, "expected a list of presentations") for case in PRESENTATION_FILES],
])
def test_malformed_presentations_exit_2(tmp_path, case, message):
    # before, an exponent 1.5 was truncated to 1, a component 2.7 to 2, a
    # weight true read as 1 and the weights "12" as 1 and 2, and a weight
    # "1/0" escaped as a ZeroDivisionError and a weight "1e5000" as a
    # ValueError from printing the order values; a flag 5 failed
    # with "'int' object is not iterable"; the flag faults named no
    # presentation or flag, and a missing key was named bare; a flag member
    # "02", " 2", "0_2", "+1" or an Arabic-Indic two was read as a plain
    # integer, so the flags "1,2" and "1,02" collapsed into one; empty
    # weights made every order value an empty sum, and a file holding no
    # list was refused without the "bad presentation data" prefix
    complex_path, _ = cycle_files(tmp_path, 5)
    if case in PRESENTATION_FILES:
        pres = PRESENTATION_FILES[case]
    elif case == "entry_is_a_string":
        pres = ["x"]
    elif case == "entry_is_a_list":
        pres = [cycle_orientation_presentations(5)[0].to_json_obj(), [1, 2]]
    elif case == "flags_is_a_list":
        pres = [{"component": 1, "weights": ["1"], "flags": []}]
    elif case in ("flag_is_an_integer", "weight_is_true",
                  "weight_divides_by_zero", "weight_has_an_exponent"):
        pres = [p.to_json_obj() for p in cycle_orientation_presentations(5)]
        if case == "flag_is_an_integer":
            pres[0]["flags"]["1,2"] = 5
        else:
            pres[0]["weights"] = [{"weight_is_true": True,
                                   "weight_divides_by_zero": "1/0",
                                   "weight_has_an_exponent": "1e5000"}[case]]
    elif case in ("component_missing", "weights_missing"):
        pres = [p.to_json_obj() for p in cycle_orientation_presentations(5)]
        del pres[0][case.split("_")[0]]
    elif case in PRESENTATION_EDITS:
        pres = [p.to_json_obj() for p in cycle_orientation_presentations(5)]
        pres[0].update(PRESENTATION_EDITS[case])
    else:
        pres = [p.to_json_obj() for p in cycle_orientation_presentations(5)]
        bad = {"exponent_is_a_float": 1.5, "exponent_is_true": True,
               "exponent_is_a_string": "1", "component_is_a_float": 2.7,
               "component_is_true": True, "component_is_a_string": "2"}[case]
        if case.startswith("exponent"):
            pres[0]["flags"]["1,2"][0][0][0] = bad
        else:
            pres[1]["component"] = bad
    pres_path = write_json(tmp_path / "bad.json", pres)
    code, text = run(["ord", "compute", "--complex", complex_path,
                      "--pres", pres_path, "--p", "1"])
    assert code == 2
    assert text == f"error: {pres_path}: bad presentation data: {message}\n"


def test_single_node_mutations_exit_without_raising(tmp_path):
    # before, "1/0" as a Gysin entry, a restriction entry or a weight
    # escaped `run` as a ZeroDivisionError
    cx = cycle_complex(3)
    good = {"complex": complex_to_json(cx, cycle_validation_h2(3)),
            "pres": [p.to_json_obj() for p in cycle_orientation_presentations(3)]}
    paths = {name: write_json(tmp_path / f"{name}.json", obj)
             for name, obj in good.items()}
    argvs = [["ss", "validate", "--input", paths["complex"]],
             ["ss", "monodromy", "--input", paths["complex"], "--p", "1"],
             ["ord", "check", "--complex", paths["complex"],
              "--pres", paths["pres"], "--p", "1"]]
    assert [run(argv)[0] for argv in argvs] == [0, 0, 0]
    runs = 0
    for name, obj in good.items():
        for mutated in single_node_mutations(obj):
            write_json(tmp_path / f"{name}.json", mutated)
            for argv in argvs:
                try:
                    code, _ = run(argv)
                except Exception as exc:
                    pytest.fail(f"{argv[:2]} on {name} {json.dumps(mutated)} "
                                f"raised {exc!r}")
                assert code in (0, 1, 2)
                runs += 1
        write_json(tmp_path / f"{name}.json", obj)
    assert runs == 3 * (932 + 236)  # mutations of the complex, presentations


def run_under_a_memory_limit(argv):
    """The CLI on argv in a child process under a 1.5 GiB address-space
    limit, so that a run that allocates per declared class fails at once."""
    limit = 1536 * 2 ** 20
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
             "from tropmono.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


def test_validate_refuses_a_huge_dim_under_a_memory_limit(tmp_path):
    # before, ss validate allocated one row per declared class of E1_2
    # before it checked the shape of E1_2's restriction blocks, and died
    # with a MemoryError traceback under this limit (without one, the rows
    # grew until the machine's memory ran out)
    obj = complex_to_json(cycle_complex(4), cycle_validation_h2(4))
    obj["h2"]["E1_2"]["dim"] = 100_000_000_000
    path = write_json(tmp_path / "huge.json", obj)
    done = run_under_a_memory_limit(["ss", "validate", "--input", path])
    assert done.returncode == 2, done.stderr
    assert done.stderr == (f"error: {path}: incomplete h2 data: "
                           "restriction Y2 -> E1_2 has wrong shape\n")


def test_huge_dim_that_no_block_touches_under_a_memory_limit(tmp_path):
    # Y1 declares 10^11 classes, but its edges E1_2 and E1_4 carry none, so
    # no Gysin vector or restriction block touches them; before, both
    # commands allocated one Gysin row per declared class and died with a
    # MemoryError traceback under this limit
    obj = complex_to_json(cycle_complex(4), cycle_validation_h2(4))
    obj["h2"]["Y1"] = {"dim": 100_000_000_000}
    for label in ("E1_2", "E1_4"):
        obj["h2"][label]["dim"] = 0
    for entry in obj["h2"].values():
        for kind in ("gysin", "restrict"):
            for label in ("E1_2", "E1_4"):
                entry.get(kind, {}).pop(label, None)
    path = write_json(tmp_path / "huge.json", obj)
    # the cycle model cancels at the classes of E2_3 and E3_4: exit 0
    done = run_under_a_memory_limit(["ss", "validate", "--input", path])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["checks"] == [
        {"name": "cancellation[p=1]", "status": "pass"}]
    # the corner is spanned by E1_2 and E1_4, which no Gysin vector reaches,
    # and maps onto H^1 of the 4-cycle with rank 1: exit 0, not injective
    done = run_under_a_memory_limit(["ss", "monodromy", "--input", path, "--p", "1"])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["result"] == {
        "p": 1, "domainDim": 2, "codomainDim": 1, "injective": False,
        "surjective": True, "isomorphism": False, "matrix": [["1", "-1"]]}


def test_huge_dim_under_parents_without_classes_under_a_memory_limit(tmp_path):
    # E1_2 declares 10^11 classes, but its parents Y1 and Y2 carry none, so
    # no restriction block or Gysin vector touches them; before, ss validate
    # allocated one H2 restriction row per declared class of E1_2 and died
    # with a MemoryError traceback under this limit
    obj = complex_to_json(cycle_complex(4), cycle_validation_h2(4))
    obj["h2"]["E1_2"]["dim"] = 100_000_000_000
    obj["h2"]["Y1"] = obj["h2"]["Y2"] = {"dim": 0}
    path = write_json(tmp_path / "huge.json", obj)
    pres = [p.to_json_obj() for p in cycle_orientation_presentations(4)]
    pres_path = write_json(tmp_path / "pres.json", pres)
    # the cycle model cancels at the classes of E2_3, E3_4 and E1_4, and no
    # row reaches those of E1_2: exit 0
    done = run_under_a_memory_limit(["ss", "validate", "--input", path])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["checks"] == [
        {"name": "cancellation[p=1]", "status": "pass"}]
    # the corner is spanned by E1_2, which no Gysin vector reaches, and one
    # more kernel vector, and maps onto H^1 of the 4-cycle: exit 0, rank 1
    done = run_under_a_memory_limit(["ss", "monodromy", "--input", path, "--p", "1"])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["result"] == {
        "p": 1, "domainDim": 2, "codomainDim": 1, "injective": False,
        "surjective": True, "isomorphism": False, "matrix": [["1", "-3"]]}
    # the orientation values are closed and pushed forward to zero: exit 0
    done = run_under_a_memory_limit(["ord", "check", "--complex", path,
                                     "--pres", pres_path, "--p", "1"])
    assert (done.returncode, done.stderr) == (0, "")
    assert [c["status"] for c in json.loads(done.stdout)["checks"]] == ["pass"] * 3


def test_missing_arguments_exit_2():
    with pytest.raises(SystemExit) as err:
        run(["check", "superform"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["check", "superform", "--n", "two"])
    assert err.value.code == 2


def test_dimension_cap(monkeypatch):
    monkeypatch.delenv("TROPMONO_MAX_DIM", raising=False)
    code, text = run(["check", "superform", "--n", "7", "--cases", "1"])
    assert code == 2 and "exceeds the cap" in text
    monkeypatch.setenv("TROPMONO_MAX_DIM", "2")
    code, text = run(["check", "superform", "--n", "3", "--cases", "1"])
    assert code == 2 and "exceeds the cap" in text
    code, _ = run(["check", "superform", "--n", "2", "--cases", "1"])
    assert code == 0
    # not an integer, then three spellings that int() reads but the literal
    # reader of the input files refuses
    for raw in ("zero", "1_0", "\u0667", " 7 "):
        monkeypatch.setenv("TROPMONO_MAX_DIM", raw)
        code, text = run(["check", "superform", "--n", "1", "--cases", "1"])
        assert code == 2 and f"must be an integer, not {raw!r}" in text
    monkeypatch.setenv("TROPMONO_MAX_DIM", "0")
    code, text = run(["check", "superform", "--n", "1", "--cases", "1"])
    assert code == 2 and "at least 1" in text
    # above the default cap the command names the cap the run needs, so
    # the report does not depend on the variable, and the line replays
    argv = ["check", "superform", "--n", "7", "--cases", "1", "--seed", "2"]
    reports = set()
    for raw in ("7", "9"):
        monkeypatch.setenv("TROPMONO_MAX_DIM", raw)
        reports.add(run(argv))
    (code, text), = reports
    assert code == 0 and json.loads(text)["command"] == \
        "TROPMONO_MAX_DIM=7 check superform --n 7 --cases 1 --seed 2"
    monkeypatch.delenv("TROPMONO_MAX_DIM")
    assert replay(text, monkeypatch) == (code, text)


def _leaves(parser):
    """Every subcommand parser below parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _leaves(child)
            return
    yield parser


@pytest.mark.parametrize("path, number", [("my dir/it's.json", "3"),
                                          ("-x.json", "-3")])
def test_every_option_round_trips_through_the_command(monkeypatch, path,
                                                      number):
    """Each subcommand, given every option, renders a command line that
    parses back to the same arguments apart from --format.  The command
    functions are stubbed, so only the rendering in run() is exercised."""
    parser = build_parser()
    leaves = list(_leaves(parser))
    assert len(leaves) == 8
    for leaf in leaves:
        argv = leaf.prog.split()[1:]
        for action in leaf._actions:
            if action.dest not in ("help", "format"):
                value = number if action.type is int else path
                argv.append(f"{action.option_strings[0]}={value}")
        args = parser.parse_args(argv + ["--format", "tsv"])
        monkeypatch.setattr(cli, args.func, lambda args, report: None)
        code, text = run(argv + ["--format", "tsv"])
        assert code == 0
        command = text.split("\n", 1)[0].removeprefix("# command\t")
        again = parser.parse_args(shlex.split(command))
        assert vars(again) == {**vars(args), "format": "json"}, command


def test_tsv_format(tmp_path):
    path = write_json(tmp_path / "c3.json", complex_to_json(cycle_complex(3)))
    code, text = run_twice(["ss", "e2", "--input", path, "--format", "tsv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# command\t")
    assert any(line.startswith("# input\t") for line in lines)
    assert "restriction_squares_to_zero[p=0]\tpass" in text


def test_tsv_report_keeps_one_line_per_field(tmp_path, monkeypatch):
    # a newline, a tab, a CR and a backslash in the path: the first line
    # holds the whole command, the second the whole input line
    path = write_json(tmp_path / "c\n3\t\r\\x.json",
                      complex_to_json(cycle_complex(3)))
    argv = ["ss", "e2", "--input", path]
    code, text = run(argv + ["--format", "tsv"])
    assert code == 0
    command, source = (line.split("\t") for line in text.splitlines()[:2])
    assert [tsv_field(field) for field in command] == \
        ["# command", json.loads(run(argv)[1])["command"]]
    assert [tsv_field(field) for field in source[:2]] == ["# input", path]
    assert replay(text, monkeypatch) == (code, text)


def test_main_routes_output(tmp_path, capsys):
    path = write_json(tmp_path / "c3.json", complex_to_json(cycle_complex(3)))
    assert main(["ss", "e2", "--input", path]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("{")
    assert captured.err == ""
    assert main(["ss", "e2", "--input", str(tmp_path / "nope.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
