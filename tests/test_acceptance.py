"""Acceptance suite.

Five end-to-end criteria, each printing a single pass/fail line with its
runtime.  All comparisons are exact; no tolerances anywhere.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import (dense_pullback, det_cofactor, is_zero, matmul,
                      nerve_cohomology_dims, replay, sort_sign)
from tropmono.cli import run
from tropmono.dual_complex import (H2Model, complex_to_json, corner_monodromy,
                                   e2_p0, relation_composite, restriction_square,
                                   unit_h2)
from tropmono.library import (all_ones_h2, chain_complex, cycle_complex,
                              cycle_orientation_presentations,
                              cycle_validation_h2, point_complex,
                              simplicial_presentations_from_tensors,
                              tetrahedron_complex)
from tropmono.linalg import QMatrix
from tropmono.order_map import Presentation, dolbeault_ladder, ord_vector
from tropmono.poly import Poly
from tropmono.randgen import (rand_constant_simplex_form, rand_fraction,
                              rand_int_matrix, rand_point,
                              rand_poly_simplex_form)
from tropmono.simplex import (SimplexContext, SimplexForm, beta_recursion,
                              star_closed_form)

SEED = 20260814


def report(name: str, ok: bool, started: float, cap=None):
    elapsed = time.monotonic() - started
    if cap is not None:
        ok = ok and elapsed < cap
        note = f"({elapsed:.1f}s, cap {cap:.0f}s)"
    else:
        note = f"({elapsed:.1f}s)"
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {note}")
    assert ok


def test_superform_identities():
    # 15 identity checks x 15 cases x n in 1..4: every check draws fresh
    # forms each case, so each dimension sees well over 200 random forms,
    # and the three pullback checks see 60 affine maps in total, a third
    # of them rank deficient
    started = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        code, text = run(["check", "superform", "--n", str(n),
                          "--cases", "15", "--seed", str(SEED)])
        obj = json.loads(text)
        ok = ok and code == 0
        ok = ok and len(obj["checks"]) == 15
        ok = ok and all(c["status"] == "pass" for c in obj["checks"])
    report("superform identity suite", ok, started, 60.0)


def du(nvars, indices, coeff=1):
    return SimplexForm.monomial(nvars, indices, Poly.const(nvars, coeff))


def test_simplex_tower():
    started = time.monotonic()
    rng = random.Random(SEED)
    ok = True
    for n in (1, 2, 3, 4):
        ctx = SimplexContext(n)
        nvars = n + 1
        origin = [0] * nvars
        for p in range(1, n + 1):
            basis = [du(nvars, I)
                     for I in itertools.combinations(range(nvars), p)]
            # ray integration difference identity, basis x 20 random bases
            for beta in basis:
                for _ in range(20):
                    Q = rand_point(rng, nvars)
                    lhs = (beta.ray_integrate(Q)
                           - beta.ray_integrate(origin))
                    ok = ok and lhs == beta.contract(Q) * Fraction(-1, p)
            # tower: constancy of the stages, agreement with the direct
            # contraction formula, and the face restriction factor
            scale = Fraction((-1) ** (p * (p + 1) // 2))
            for k in range(2, p + 1):
                scale *= k
            forms = basis + [rand_constant_simplex_form(rng, nvars, p)
                             for _ in range(50)]
            for beta in forms:
                chain = beta_recursion(ctx, beta, p)
                for r in range(p + 1):
                    for I in itertools.combinations(range(nvars), r + 1):
                        direct = star_closed_form(ctx, beta, p, r, I)
                        if r == p:
                            ok = ok and (direct.constant_value()
                                         == chain[p][I])
                        else:
                            ok = ok and chain[r][I].is_constant_on_simplex()
                            ok = ok and chain[r][I].equal_on_simplex(direct)
                for I in itertools.combinations(range(nvars), p + 1):
                    want = du(nvars, I[1:], scale * chain[p][I])
                    ok = ok and beta.reduce_to_face(I) == want.reduce_to_face(I)
        # the primitive of a closed polynomial form differentiates back
        P = ctx.barycenter(tuple(range(nvars)))
        for _ in range(10):
            alpha = rand_poly_simplex_form(
                rng, nvars, rng.randint(0, n)).exterior_derivative()
            if alpha.is_zero():
                continue
            ok = ok and alpha.star_integrate(P).exterior_derivative() == alpha
    report("simplex integration tower", ok, started, 120.0)


def test_dual_complex_corner():
    started = time.monotonic()
    ok = True
    complexes = [point_complex(), chain_complex(), tetrahedron_complex()]
    complexes += [cycle_complex(m) for m in range(3, 8)]
    for cx in complexes:
        for p in range(max(cx.max_level - 1, 0)):
            prod = matmul(dense_pullback(cx, p + 1), dense_pullback(cx, p))
            ok = ok and is_zero(prod) and restriction_square(cx, p) is None
        index_sets = [s.index_set
                      for lvl in range(cx.max_level + 1)
                      for s in cx.level(lvl)]
        dims = [len(e2_p0(cx, p)) for p in range(cx.max_level + 1)]
        ok = ok and dims == nerve_cohomology_dims(index_sets)
    for m in range(3, 8):
        cx = cycle_complex(m)
        cm = corner_monodromy(cx, unit_h2(cx), 1)
        ok = ok and (cm.domain_dim, cm.codomain_dim) == (1, 1)
        ok = ok and cm.isomorphism
        negative = corner_monodromy(
            cx, H2Model({s.label: 1 for s in cx.level(0)}), 1)
        ok = ok and not negative.injective
        # cancellation relation: the rank-2 cycle model passes, every
        # single sign flip breaks it, the naive all-ones model is flagged
        # inconsistent, and the plain unit model passes trivially
        base = cycle_validation_h2(m)
        blocks = {key: base.restriction(*key) for key in base.restrict}
        ok = ok and relation_composite(cx, base, 1) is None
        ok = ok and relation_composite(cx, unit_h2(cx), 1) is None
        ok = ok and relation_composite(cx, all_ones_h2(cx), 1) is not None
        for key in sorted(base.gysin):
            for slot in range(2):
                gysin = dict(base.gysin)
                vec = list(gysin[key])
                vec[slot] = -vec[slot]
                gysin[key] = tuple(vec)
                flipped = H2Model(base.dims, gysin, blocks)
                ok = ok and relation_composite(cx, flipped, 1) is not None
        for key in sorted(base.restrict):
            for slot in range(2):
                restrict = dict(blocks)
                row = [restrict[key][0, 0], restrict[key][0, 1]]
                row[slot] = -row[slot]
                restrict[key] = QMatrix([row])
                flipped = H2Model(base.dims, base.gysin, restrict)
                ok = ok and relation_composite(cx, flipped, 1) is not None
    report("dual complex corner suite", ok, started, 10.0)


def test_order_map_and_ladder():
    started = time.monotonic()
    rng = random.Random(SEED)
    ok = True
    # weighted determinants against the cofactor oracle
    for _ in range(120):
        p = rng.randint(1, 4)
        nw = rng.randint(1, 3)
        weights = tuple(rand_fraction(rng) for _ in range(nw))
        mats = tuple(rand_int_matrix(rng, p, p, span=5) for _ in range(nw))
        flag = tuple(range(1, p + 2))
        pres = Presentation(1, weights, {flag: mats})
        want = sum((w * det_cofactor(m) for w, m in zip(weights, mats)),
                   Fraction(0))
        ok = ok and pres.ord_value(flag) == want
    # reordered flags pick up exactly the normalization sign
    for p in (1, 2, 3):
        verts = tuple(range(1, p + 2))
        for _ in range(5):
            tensor = rand_int_matrix(rng, p, p + 1, span=4)
            base = tuple(tuple(row[s] - row[0] for s in range(1, p + 1))
                         for row in tensor)
            base_val = Presentation(1, (1,), {verts: (base,)}) \
                .ord_value(verts)
            for sigma in itertools.permutations(range(p + 1)):
                flag = tuple(verts[s] for s in sigma)
                mat = tuple(tuple(row[s] - row[sigma[0]]
                                  for s in sigma[1:]) for row in tensor)
                value = Presentation(flag[0], (1,), {flag: (mat,)}) \
                    .ord_value(flag)
                ok = ok and value == sort_sign(sigma) * base_val
    # the descent ladder closes with the exact constant
    for m in range(3, 8):
        cx = cycle_complex(m)
        pres = cycle_orientation_presentations(m)
        result = dolbeault_ladder(pres, cx, 1)
        ok = ok and result.final_check and result.constant == -1
        ok = ok and result.ord_values == ord_vector(pres, cx, 1)
    tetra = tetrahedron_complex()
    tensors = {
        "V1_2_3": [((0, 1, 3), (0, -3, -2))],
        "V1_2_4": [((1, 1, 0), (2, 0, 1))],
        "V1_3_4": [((0, 2, 1), (1, 1, -1))],
        "V2_3_4": [((2, 0, 1), (0, 1, 1))],
    }
    result = dolbeault_ladder(
        simplicial_presentations_from_tensors(tetra, (1,), tensors), tetra, 2)
    ok = ok and result.final_check
    ok = ok and result.constant == Fraction(-1, 2)
    ok = ok and result.ord_values["V1_2_3"] == 7
    report("order map and descent ladder", ok, started, 30.0)


def test_determinism(tmp_path, monkeypatch):
    started = time.monotonic()

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    c5 = write("c5.json", complex_to_json(cycle_complex(5)))
    val4 = write("val4.json",
                 complex_to_json(cycle_complex(4), cycle_validation_h2(4)))
    tetra = write("tetra.json", complex_to_json(tetrahedron_complex()))
    pres5 = write("pres5.json", {
        "presentations": [p.to_json_obj()
                          for p in cycle_orientation_presentations(5)]})
    suite = [
        ["check", "superform", "--n", "2", "--cases", "8",
         "--seed", str(SEED)],
        ["check", "superform", "--n", "3", "--cases", "5",
         "--seed", str(SEED), "--format", "tsv"],
        ["simplex", "starprop", "--n", "2", "--p", "2", "--random", "3",
         "--seed", str(SEED)],
        ["ss", "e2", "--input", tetra, "--p", "2"],
        ["ss", "monodromy", "--input", c5, "--p", "1"],
        ["ss", "validate", "--input", val4],
        ["ord", "compute", "--complex", c5, "--pres", pres5, "--p", "1"],
        ["ord", "check", "--complex", c5, "--pres", pres5, "--p", "1",
         "--format", "tsv"],
        ["dolbeault", "--complex", c5, "--pres", pres5, "--p", "1"],
    ]
    first = [(code, text.encode("utf-8")) for code, text in map(run, suite)]
    second = [(code, text.encode("utf-8")) for code, text in map(run, suite)]
    ok = first == second
    ok = ok and all(code == 0 for code, _ in first)
    # each report reruns from its own command line to the same bytes
    ok = ok and all(replay(text.decode("utf-8"), monkeypatch)
                    == (code, text.decode("utf-8")) for code, text in first)
    report("deterministic reports", ok, started)
