"""Every refusal that the rest of the suite does not reach.

Library refusals raise ValueError with an exact message; command line
refusals exit 2 with the one line "error: <message>" and no traceback.  The
last two tests reach the failure paths of the corner comparison and of a
battery witness that lists several drawn forms, through injected faults.
"""

import json
import random

import pytest

from tropmono import linalg
from tropmono.cli import run
from tropmono.dual_complex import complex_to_json
from tropmono.forms import AffineMap, Superform
from tropmono.library import (cycle_complex,
                              simplicial_presentations_from_tensors,
                              tetrahedron_complex)
from tropmono.linalg import QMatrix
from tropmono.poly import Poly
from tropmono.randgen import rand_superform, rand_superform_mixed
from tropmono.report import RunReport
from tropmono.simplex import SimplexContext, SimplexForm

TENSORS = {"V1_2_3": [((0, 1, 3), (0, -3, -2))],
           "V1_2_4": [((1, 1, 0), (2, 0, 1))],
           "V1_3_4": [((0, 2, 1), (1, 1, -1))],
           "V2_3_4": [((2, 0, 1), (0, 1, 1))]}
ONE_FORM = SimplexForm.monomial(3, (0,), 1)
FUNCTION = SimplexForm.monomial(3, (), 1)

LIBRARY_REFUSALS = {
    "forms.translation": (lambda: AffineMap(QMatrix([[1]]), [0, 0]),
                          "translation length must match the target dimension"),
    "forms.pullback": (lambda: AffineMap(QMatrix([[1]])).pullback(Superform.zero(2)),
                       "form does not live on the target space"),
    "library.cycle": (lambda: cycle_complex(2),
                      "a cycle needs at least 3 components"),
    "library.sheets": (lambda: simplicial_presentations_from_tensors(
                           tetrahedron_complex(), (1, 1), TENSORS),
                       "one sheet per weight required"),
    "library.vertices": (lambda: simplicial_presentations_from_tensors(
                             tetrahedron_complex(), (1,),
                             {**TENSORS, "V1_2_4": [((1, 1), (2, 0, 1))]}),
                         "one entry per vertex required"),
    "linalg.det": (lambda: linalg.det(QMatrix([[1, 2]])),
                   "determinant of a non-square matrix"),
    "poly.coefficient_ring": (lambda: Superform(2, {((0,), ()): Poly.const(3, 1)}),
                              "coefficient lives in the wrong ring"),
    "poly.mixed": (lambda: Poly.const(2, 1) + Poly.const(3, 1),
                   "mixed variable counts"),
    "poly.exponent_length": (lambda: Poly(2, {(1,): 1}),
                             "exponent tuple has wrong length"),
    "poly.negative_exponent": (lambda: Poly(2, {(1, -1): 1}), "negative exponent"),
    "poly.constant_value": (lambda: Poly.variable(1, 0).constant_value(),
                            "polynomial is not constant"),
    "poly.eval_no_ring": (lambda: Poly.const(0, 1).eval_poly([]),
                          "eval_poly needs a target ring; use constant_value"),
    "poly.eval_rings": (lambda: Poly.variable(2, 0).eval_poly(
                            [Poly.const(1, 1), Poly.const(2, 1)]),
                        "substitutes live in different rings"),
    "poly.eval_point": (lambda: Poly.variable(2, 0).eval_point([1]),
                        "point has wrong length"),
    "poly.integrate": (lambda: Poly.const(0, 1).integrate_last_unit(),
                       "no variable to integrate"),
    "randgen.degree": (lambda: rand_superform(random.Random(0), 2, 3, 0),
                       "block degree exceeds the dimension"),
    "report.format": (lambda: RunReport("x").render("xml"),
                      "unknown format 'xml'"),
    "simplex.barycenter": (lambda: SimplexContext(2).barycenter([]),
                           "barycenter of the empty face"),
    "simplex.contract_length": (lambda: ONE_FORM.contract([1, 0]),
                                "vector has wrong length"),
    "simplex.contract_degree": (lambda: FUNCTION.contract([1, 0, 0]),
                                "cannot contract a degree-0 term"),
    "simplex.ray_length": (lambda: ONE_FORM.ray_integrate([1, 0]),
                           "base point has wrong length"),
    "simplex.ray_degree": (lambda: FUNCTION.ray_integrate([1, 0, 0]),
                           "cannot integrate a degree-0 term"),
    "simplex.empty_face": (lambda: ONE_FORM.reduce_to_face([]), "empty face"),
    "simplex.pivot": (lambda: ONE_FORM.canonical(3),
                      "pivot must belong to the face"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refusals(case):
    call, message = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


CLI_REFUSALS = {
    "dimension": (["check", "superform", "--n", "0"],
                  "the dimension must be at least 1"),
    "cases": (["check", "superform", "--n", "2", "--cases", "0"],
              "--cases must be positive"),
    "p_above_n": (["simplex", "starprop", "--n", "2", "--p", "3"],
                  "need 1 <= p <= n"),
    "p_zero": (["simplex", "starprop", "--n", "2", "--p", "0"],
               "need 1 <= p <= n"),
    "random": (["simplex", "starprop", "--n", "2", "--p", "1", "--random", "-1"],
               "--random must be nonnegative"),
}


@pytest.mark.parametrize("case", sorted(CLI_REFUSALS))
def test_cli_refusals(case):
    argv, message = CLI_REFUSALS[case]
    assert run(argv) == (2, f"error: {message}\n")


def test_cli_refuses_an_input_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{}')
    assert run(["ss", "e2", "--input", str(path)]) == (
        2, f"error: {path}: not utf-8 ('utf-8' codec can't decode byte 0xff "
           "in position 0: invalid start byte)\n")


def test_corner_refuses_a_kernel_outside_the_restriction_kernel(tmp_path,
                                                                monkeypatch):
    # every kernel gains the unit vector of the first stratum, which the
    # level-1 restriction of the tetrahedron does not kill
    real = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda rows, ncols: real(rows, ncols) + [{0: 1}])
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(complex_to_json(tetrahedron_complex())))
    code, text = run(["ss", "monodromy", "--input", str(path), "--p", "1"])
    assert code == 1
    obj = json.loads(text)
    assert obj["checks"] == [{
        "name": "corner_inside_restriction_kernel", "status": "fail",
        "witness": {"error": "corner kernel does not lie in the restriction "
                             "kernel"}}]
    assert "result" not in obj


def test_battery_witness_lists_the_drawn_forms(monkeypatch):
    real = Superform.wedge

    def skewed(a, b):
        """a ^ b scaled by 1 + the top degree of a: associative only while
        the left factor has degree 0."""
        degree = max((len(i) + len(k) for i, k in a.terms), default=0)
        return real(a, b) * (1 + degree)

    monkeypatch.setattr(Superform, "wedge", skewed)
    n, seed, cases = 2, 1, 4
    code, text = run(["check", "superform", "--n", str(n), "--cases",
                      str(cases), "--seed", str(seed)])
    assert code == 1
    witness = {c["name"]: c.get("witness")
               for c in json.loads(text)["checks"]}["wedge_associative"]
    assert set(witness) == {"case", "forms"}
    # replay the draws of wedge_associative, the battery's second identity:
    # the witness is the first triple that breaks associativity
    rng = random.Random(seed * 1_000_003 + 1)
    for case in range(witness["case"] + 1):
        a, b, c = forms = [rand_superform_mixed(rng, n, pieces=1)
                           for _ in range(3)]
        holds = a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        assert holds == (case < witness["case"])
    assert witness["forms"] == [f.to_json_obj() for f in forms]
