import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import cycle_presentations, det_cofactor, json_digest, sort_sign
from tropmono import library, linalg
from tropmono.dual_complex import (SemistableCombinatorics, Stratum,
                                   check_vanishing_vector, unit_h2)
from tropmono.forms import Superform
from tropmono.library import (cycle_complex, cycle_orientation_presentations,
                              point_complex, simplicial_presentations_from_tensors,
                              tetrahedron_complex)
from tropmono.linalg import QMatrix
from tropmono.order_map import (Presentation, _minors, dolbeault_ladder,
                                flag_normalization, ord_vector,
                                presentations_from_json, require_simplicial)
from tropmono.poly import Poly
from tropmono.randgen import (rand_constant_simplex_form, rand_fraction,
                              rand_int_matrix)
from tropmono.simplex import SimplexContext, SimplexForm, beta_recursion


def test_ord_value_matches_weighted_determinants():
    rng = random.Random(60)
    for _ in range(120):
        p = rng.randint(1, 4)
        nw = rng.randint(1, 3)
        weights = tuple(rand_fraction(rng) for _ in range(nw))
        mats = tuple(rand_int_matrix(rng, p, p, span=5) for _ in range(nw))
        flag = tuple(range(1, p + 2))
        pres = Presentation(component=1, weights=weights, flags={flag: mats})
        want = sum((w * det_cofactor(m) for w, m in zip(weights, mats)),
                   Fraction(0))
        assert pres.ord_value(flag) == want


@pytest.mark.parametrize("flag", [(1.9, 2.7), ("1", " 02"), (True, 2)])
def test_ord_value_refuses_members_that_are_not_ints(flag):
    # each of these once read as the recorded flag (1, 2)
    pres = cycle_orientation_presentations(3)[0]
    assert pres.ord_value((1, 2)) == 1
    with pytest.raises(ValueError, match=re.escape(f"flag {flag!r}: members "
                                                   "must be integers")):
        pres.ord_value(flag)


def test_epsilon_sigma_frozen():
    # the reordering sign of a flag, read through flag_normalization
    assert flag_normalization((0, 1))[1] == 1
    assert flag_normalization((1, 0))[1] == -1
    assert flag_normalization((0, 1, 2))[1] == 1
    assert flag_normalization((0, 2, 1))[1] == -1
    assert flag_normalization((1, 2, 0))[1] == 1
    assert flag_normalization((0, 1, 2, 3))[1] == 1


def test_flag_sign_is_the_sort_sign_of_every_ordering():
    # every ordering of every flag with up to 7 distinct members
    rng = random.Random(59)
    for size in range(1, 8):
        members = sorted(rng.sample(range(1, 40), size))
        for flag in itertools.permutations(members):
            assert flag_normalization(flag) == (tuple(members), sort_sign(flag))


def test_flag_normalization_frozen():
    assert flag_normalization((3, 1, 2)) == ((1, 2, 3), 1)
    assert flag_normalization((5, 1)) == ((1, 5), -1)
    assert flag_normalization((1, 2, 3)) == ((1, 2, 3), 1)


def full_subset_complex(m, largest=None):
    """All nonempty subsets of {1..m} with at most ``largest`` members
    (default m) as strata."""
    def label(subset):
        return "S" + "_".join(map(str, subset))

    strata = []
    for size in range(1, (largest or m) + 1):
        for subset in itertools.combinations(range(1, m + 1), size):
            parents = {}
            if size > 1:
                parents = {i: label(tuple(v for v in subset if v != i))
                           for i in subset}
            strata.append(Stratum(label(subset), subset, parents))
    return SemistableCombinatorics([f"Y{i}" for i in range(1, m + 1)], strata)


def presentation_from_tensor(tensor, weights, sigma):
    """Root the flag at vertex sigma[0]; matrix columns are differences of
    the shared tensor columns against the root."""
    verts = tuple(range(1, len(sigma) + 1))
    flag = tuple(verts[s] for s in sigma)
    mats = tuple(
        tuple(tuple(row[s] - row[sigma[0]] for s in sigma[1:]) for row in block)
        for block in tensor)
    return Presentation(component=flag[0], weights=weights, flags={flag: mats})


def test_reordered_flags_transform_by_epsilon():
    # all flag orders built from one shared exponent tensor give the same
    # normalized order value, and the raw values differ exactly by the sign
    rng = random.Random(61)
    for p in (1, 2, 3):
        cx = full_subset_complex(p + 1)
        top = "S" + "_".join(str(i) for i in range(1, p + 2))
        for _ in range(6):
            nw = rng.randint(1, 2)
            weights = tuple(rand_fraction(rng) for _ in range(nw))
            tensor = [rand_int_matrix(rng, p, p + 1, span=4)
                      for _ in range(nw)]
            sigmas = list(itertools.permutations(range(p + 1)))
            pres = {s: presentation_from_tensor(tensor, weights, s)
                    for s in sigmas}
            base = pres[tuple(range(p + 1))]
            base_val = base.ord_value(tuple(range(1, p + 2)))
            for sigma, pr in pres.items():
                flag = next(iter(pr.flags))
                assert pr.ord_value(flag) == sort_sign(sigma) * base_val
            assert ord_vector(list(pres.values()), cx, p)[top] == base_val


def test_ord_vector_rejects_disagreeing_data():
    p = 2
    cx = full_subset_complex(p + 1)
    weights = (Fraction(1),)
    tensor = [((0, 1, 3), (0, -3, -2))]
    good = [presentation_from_tensor(tensor, weights, s)
            for s in itertools.permutations(range(p + 1))]
    assert ord_vector(good, cx, p)["S1_2_3"] == 7
    bad = Presentation(component=1, weights=weights,
                       flags={(1, 2, 3): (((1, 3), (-3, -1)),)})
    with pytest.raises(ValueError, match="disagree"):
        ord_vector(good + [bad], cx, p)


def test_ord_vector_error_paths():
    m = 4
    cx = cycle_complex(m)
    pres = cycle_orientation_presentations(m)
    with pytest.raises(ValueError, match="no presentation covers"):
        ord_vector(pres[1:], cx, 1)
    with pytest.raises(ValueError, match="levels >= 1"):
        ord_vector(pres, cx, 0)
    extra = Presentation(component=2, weights=(1,), flags={(2, 1): (((2,),),)})
    with pytest.raises(ValueError, match="disagree"):
        ord_vector(pres + [extra], cx, 1)



def test_ord_vector_names_the_first_failing_stratum_in_level_order():
    # the 5-cycle lists its edges E1_2, E2_3, E3_4, E4_5, E1_5; the faults
    # below sit on E2_3 and E1_5, so sorting by index set would name E1_5
    m = 5
    cx = cycle_complex(m)
    pres = cycle_orientation_presentations(m)
    with pytest.raises(ValueError) as err:
        ord_vector([pres[0], pres[2], pres[3]], cx, 1)
    assert str(err.value) == "no presentation covers stratum E2_3"
    extra = [Presentation(component=5, weights=(1,), flags={(5, 1): (((2,),),)}),
             Presentation(component=2, weights=(1,), flags={(2, 3): (((3,),),)})]
    with pytest.raises(ValueError) as err:
        ord_vector(pres + extra, cx, 1)
    assert str(err.value) == "presentations disagree on stratum E2_3"
    # a flag whose matrices have more rows than walls fails in ord_value,
    # and only when its stratum is reached
    wide = Presentation(component=3, weights=(1,),
                        flags={(3, 4): (((1,), (1,)),)})
    with pytest.raises(ValueError) as err:
        ord_vector(pres + [wide], cx, 1)
    assert str(err.value) == "order value needs as many walls as rows"
    with pytest.raises(ValueError) as err:
        ord_vector([pres[0], pres[3], wide], cx, 1)
    assert str(err.value) == "no presentation covers stratum E2_3"


def test_ladder_names_the_first_failing_top_in_level_order():
    cx = tetrahedron_complex()
    tensors = {
        "V1_2_3": [((0, 1, 3), (0, -3, -2))],
        "V1_2_4": [((1, 1, 0), (2, 0, 1))],
        "V1_3_4": [((0, 2, 1), (1, 1, -1))],
        "V2_3_4": [((2, 0, 1), (0, 1, 1))],
    }
    pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
    faulty = ((1, 3, 4), (2, 3, 4))

    def rebuilt(keep):
        out = []
        for q in pres:
            flags = {}
            for flag, mats in q.flags.items():
                if tuple(sorted(flag)) in faulty:
                    mats = keep(mats)
                    if mats is None:
                        continue
                flags[flag] = mats
            out.append(Presentation(q.component, q.weights, flags))
        return out

    with pytest.raises(ValueError) as err:
        dolbeault_ladder(rebuilt(lambda mats: None), cx, 2)
    assert str(err.value) == "no presentation covers stratum V1_3_4"
    tampered = rebuilt(lambda mats: tuple(
        tuple(tuple(x + 1 for x in row) for row in mat) for mat in mats))
    with pytest.raises(ValueError) as err:
        dolbeault_ladder(tampered, cx, 2)
    assert str(err.value) == "presentations disagree on stratum V1_3_4"

def test_cycle_order_vector_frozen_and_in_both_kernels():
    for m in range(3, 8):
        cx = cycle_complex(m)
        values = ord_vector(cycle_orientation_presentations(m), cx, 1)
        vec = [values[s.label] for s in cx.level(1)]
        assert check_vanishing_vector(cx, unit_h2(cx), 1, vec) == (True, True)
    values5 = ord_vector(cycle_orientation_presentations(5), cycle_complex(5), 1)
    # in the level's listing order, the 5-cycle's closing edge E1_5 last
    assert list(values5.items()) == [("E1_2", 1), ("E2_3", 1), ("E3_4", 1),
                                     ("E4_5", 1), ("E1_5", -1)]


def tau_pullback(rows, ncols=None):
    """Chart-level pullback of the standard wedge along exponent rows: the
    Superform view of _minors, which the ladder reads directly.  Each row
    lists the exponents of one function in the wall coordinates; the result
    is the sum over column subsets of minor determinants times the wedge of
    first-kind differentials, and more rows than columns give zero."""
    mat = QMatrix(rows, ncols)
    if not mat.nrows and ncols is None:
        raise ValueError("ncols required for an empty exponent matrix")
    return Superform(mat.ncols, {(cols, ()): Poly.const(mat.ncols, value)
                                 for cols, value in _minors(mat.data).items()})


def test_tau_pullback_frozen():
    tau = tau_pullback([[1, 0, 2], [0, 1, 1]])
    want = {((0, 1), ()): 1, ((0, 2), ()): 1, ((1, 2), ()): -2}
    assert {k: f.constant_value() for k, f in tau.terms.items()} == want
    assert {(len(i), len(j)) for i, j in tau.terms} == {(2, 0)}


def test_tau_pullback_degenerate_shapes():
    unit = tau_pullback([], ncols=3)
    assert unit.terms[((), ())].constant_value() == 1
    assert tau_pullback([[1], [2]]).is_zero()
    with pytest.raises(ValueError, match="ncols required"):
        tau_pullback([])
    with pytest.raises(ValueError, match="ragged"):
        tau_pullback([[1, 2], [3]])
    with pytest.raises(ValueError, match="disagrees"):
        tau_pullback([[1, 2]], ncols=3)


def test_tau_pullback_minors_match_oracle():
    rng = random.Random(62)
    for _ in range(60):
        p = rng.randint(1, 3)
        n = rng.randint(p, 5)
        mat = rand_int_matrix(rng, p, n, span=4)
        tau = tau_pullback(mat)
        for subset in itertools.combinations(range(n), p):
            sub = [[row[j] for j in subset] for row in mat]
            want = det_cofactor(sub)
            got = tau.terms.get((subset, ()), Poly.zero(n)).constant_value()
            assert got == want


def test_presentation_validation():
    with pytest.raises(ValueError, match="at least one wall"):
        Presentation(1, (1,), {(1,): (((1,),),)})
    with pytest.raises(ValueError, match="rooted at"):
        Presentation(1, (1,), {(2, 1): (((1,),),)})
    with pytest.raises(ValueError, match="distinct"):
        Presentation(1, (1,), {(1, 1): (((1,),),)})
    with pytest.raises(ValueError, match="per weight"):
        Presentation(1, (1, 2), {(1, 2): (((1,),),)})
    with pytest.raises(ValueError, match="same number of rows"):
        Presentation(1, (1,), {(1, 2): (((1,), (2,)),), (1, 3): (((1,),),)})
    with pytest.raises(ValueError, match="column per wall"):
        Presentation(1, (1,), {(1, 2, 3): (((1,),),)})
    # before, int() truncated these to 1 and 2
    with pytest.raises(ValueError, match="^flag 1,2: exponents must be integers$"):
        Presentation(1, (1,), {(1, 2): (((1.5,),),)})
    with pytest.raises(ValueError, match="^flag 1,2.5: members must be integers$"):
        Presentation(1, (1,), {(1, 2.5): (((1,),),)})
    with pytest.raises(ValueError, match="^component must be an integer$"):
        Presentation(2.0, (1,), {})
    pres = Presentation(1, (1,), {(1, 2): (((3,),),)})
    with pytest.raises(KeyError):
        pres.ord_value((1, 3))
    assert Presentation(1, (1,), {}).degree is None


def test_presentation_refuses_empty_weights():
    # before, every order value was an empty sum, and the ladder on the
    # tetrahedron passed 12 comparisons of 0 against 0
    with pytest.raises(ValueError, match="^weights must not be empty$"):
        Presentation(1, (), {})
    with pytest.raises(ValueError,
                       match="^presentation 0: weights must not be empty$"):
        presentations_from_json([{"component": 1, "weights": [], "flags": {}}])


def test_presentations_from_json_reads_a_list_or_a_wrapper():
    pres = cycle_orientation_presentations(4)
    listed = [p.to_json_obj() for p in pres]
    assert presentations_from_json(listed) == pres
    assert presentations_from_json({"presentations": listed}) == pres
    for obj in (5, "abc", None, {}, {"presentations": {}}):
        with pytest.raises(ValueError, match="^expected a list of presentations$"):
            presentations_from_json(obj)
    with pytest.raises(ValueError, match="^presentation 2 is not an object$"):
        presentations_from_json(listed[:2] + [[]])


def test_presentation_flags_are_frozen_and_hashable():
    # before, flags stayed a plain dict: assignable, and hash() raised
    pres = Presentation(1, (1,), {(1, 2): (((3,),),)})
    with pytest.raises(TypeError):
        pres.flags[(1, 2)] = "junk"
    assert pres.ord_value((1, 2)) == 3
    same = Presentation(1, (Fraction(1),), {(1, 2): [[[3]]]})
    assert same == pres and hash(same) == hash(pres)
    assert {pres, same} == {pres}
    assert hash(Presentation(1, (1,), {(1, 2): (((4,),),)})) != hash(pres)
    assert pres.flags.get((1, 3)) is None and list(pres.flags) == [(1, 2)]
    assert pres.to_json_obj()["flags"] == {"1,2": [[[3]]]}


def test_presentation_json_roundtrip():
    pres = Presentation(
        component=2,
        weights=(Fraction(1, 2), Fraction(-3)),
        flags={(2, 1, 4): (((1, 0), (2, 5)), ((0, 1), (-1, 2))),
               (2, 3, 4): (((1, 1), (0, 2)), ((2, 0), (1, 1)))})
    assert Presentation.from_json_obj(pres.to_json_obj()) == pres


def test_ladder_on_cycles():
    for m in range(3, 8):
        cx = cycle_complex(m)
        pres = cycle_orientation_presentations(m)
        result = dolbeault_ladder(pres, cx, 1)
        assert result.constant == -1
        assert result.final_check
        assert all(ok for *_, ok in result.comparisons)
        assert result.ord_values == ord_vector(pres, cx, 1)


def test_ladder_with_shared_tensor_cover():
    # every edge covered twice; the two induced forms must agree and the
    # tower must still close onto the common order values
    m = 4
    columns = {(1, 2): [(0, 2)], (2, 3): [(1, -1)], (3, 4): [(0, 5)],
               (1, 4): [(3, 3)]}
    pres = cycle_presentations(m, (Fraction(1, 2),), columns)
    cx = cycle_complex(m)
    result = dolbeault_ladder(pres, cx, 1)
    assert result.final_check
    assert result.ord_values == {"E1_2": 1, "E2_3": -1,
                                 "E3_4": Fraction(5, 2), "E1_4": 0}

    tampered = list(pres)
    broken = tampered[0].to_json_obj()
    broken["flags"]["1,2"][0][0][0] += 1
    tampered[0] = Presentation.from_json_obj(broken)
    with pytest.raises(ValueError, match="presentations disagree"):
        dolbeault_ladder(tampered, cx, 1)


def test_ladder_on_the_tetrahedron():
    cx = tetrahedron_complex()
    tensors = {
        "V1_2_3": [((0, 1, 3), (0, -3, -2))],
        "V1_2_4": [((1, 1, 0), (2, 0, 1))],
        "V1_3_4": [((0, 2, 1), (1, 1, -1))],
        "V2_3_4": [((2, 0, 1), (0, 1, 1))],
    }
    pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
    result = dolbeault_ladder(pres, cx, 2)
    assert result.constant == Fraction(-1, 2)
    assert result.final_check
    assert result.ord_values["V1_2_3"] == 7
    for label, tensor in tensors.items():
        block = tensor[0]
        diff = [[row[j] - row[0] for j in (1, 2)] for row in block]
        assert result.ord_values[label] == det_cofactor(diff)


def with_permuted_walls(pres, rng):
    """The presentation with every flag also recorded once more, its walls
    (and matrix columns) in a random other order: the same order data."""
    flags = dict(pres.flags)
    for flag, mats in pres.flags.items():
        order = list(range(len(flag) - 1))
        rng.shuffle(order)
        if order == sorted(order):
            order.reverse()
        flags[(flag[0],) + tuple(flag[1 + k] for k in order)] = tuple(
            tuple(tuple(row[k] for k in order) for row in mat) for mat in mats)
    return Presentation(pres.component, pres.weights, flags)


def candidate_ord_values(presentations, complex_, p):
    """Per level-p face, the value every covering flag of every top over it
    derives: the ladder's per-candidate loop before it read one candidate
    per top.  A flag's matrices get one column per vertex of the top, zero
    at the root, and the face value is the weighted determinant of the
    columns of the face's vertices minus that of its first vertex."""
    out = {}
    for s in complex_.level(p):
        first, rest = s.index_set[0], s.index_set[1:]
        values = []
        for z in complex_.level(complex_.max_level):
            if not set(s.index_set) <= set(z.index_set):
                continue
            for pres in presentations:
                for flag, mats in pres.flags.items():
                    if tuple(sorted(flag)) != z.index_set:
                        continue
                    total = Fraction(0)
                    for w, mat in zip(pres.weights, mats):
                        rows = []
                        for row in mat:
                            col = {flag[0]: 0, **dict(zip(flag[1:], row))}
                            rows.append([col[v] - col[first] for v in rest])
                        total += w * det_cofactor(rows)
                    values.append(total)
        out[s.label] = values
    return out


def test_ladder_reads_one_candidate_per_top():
    # consistent random data, every top covered from each of its vertices
    # and again with permuted walls: the value the ladder reads off each
    # top's first candidate is the value every candidate derives
    rng = random.Random(63)
    for cx in (cycle_complex(5), tetrahedron_complex(),
               full_subset_complex(5, 3), full_subset_complex(5, 4)):
        n_top = cx.max_level
        vertices = range(1, len(cx.components) + 1)
        for p in range(1, n_top + 1):
            for _ in range(2):
                weights = tuple(rand_fraction(rng)
                                for _ in range(rng.randint(1, 2)))
                table = [[{v: rng.randint(-3, 3) for v in vertices}
                          for _ in range(p)] for _ in weights]
                tensors = {z.label: [[[row[v] for v in z.index_set]
                                      for row in sheet] for sheet in table]
                           for z in cx.level(n_top)}
                pres = [with_permuted_walls(q, rng) for q in
                        simplicial_presentations_from_tensors(cx, weights, tensors)]
                result = dolbeault_ladder(pres, cx, p)
                assert result.final_check
                for label, values in candidate_ord_values(pres, cx, p).items():
                    assert len(values) >= 2
                    assert set(values) == {result.ord_values[label]}


def top_candidates(presentations, z, p):
    """Per flag covering the top z, its form tau as {column tuple of vertex
    positions: coefficient} and its face readings {face positions J: the
    weighted determinant of the columns of J's vertices minus that of J's
    first}, every determinant by cofactor expansion."""
    n = len(z.index_set) - 1
    out = []
    for pres in presentations:
        for flag, mats in pres.flags.items():
            if tuple(sorted(flag)) != z.index_set:
                continue
            tau, reading = {}, {}
            for w, mat in zip(pres.weights, mats):
                rows = []
                for row in mat:
                    col = {flag[0]: 0, **dict(zip(flag[1:], row))}
                    rows.append([col[v] for v in z.index_set])
                for K in itertools.combinations(range(n + 1), p):
                    tau[K] = tau.get(K, 0) + w * det_cofactor(
                        [[row[c] for c in K] for row in rows])
                for J in itertools.combinations(range(n + 1), p + 1):
                    reading[J] = reading.get(J, 0) + w * det_cofactor(
                        [[row[c] - row[J[0]] for c in J[1:]] for row in rows])
            out.append((tau, reading))
    return out


def tampered_entry(presentations, rng):
    """The presentations with one exponent of one flag moved by 1."""
    k = rng.randrange(len(presentations))
    pres = presentations[k]
    flag = rng.choice(sorted(pres.flags))
    mats = [[list(row) for row in mat] for mat in pres.flags[flag]]
    row = rng.choice(rng.choice(mats))
    row[rng.randrange(len(row))] += rng.choice((-1, 1))
    tampered = Presentation(pres.component, pres.weights, {**pres.flags, flag: mats})
    return presentations[:k] + [tampered] + presentations[k + 1:]


def test_ladder_refuses_exactly_where_the_normal_forms_differ():
    # the candidates' normal forms, which the ladder compared before it
    # compared face readings, are the oracle; covers from different roots
    # differ as stored forms by multiples of d(sum x), and a tampered entry
    # makes them differ on one face (p at the top level) or on several
    rng = random.Random(2511)
    seen = Counter()
    for cx in (cycle_complex(4), tetrahedron_complex(),
               full_subset_complex(5, 3), full_subset_complex(5, 4)):
        n_top = cx.max_level
        vertices = range(1, len(cx.components) + 1)
        for p in range(1, n_top + 1):
            for _ in range(12):
                weights = tuple(rand_fraction(rng)
                                for _ in range(rng.randint(1, 2)))
                table = [[{v: rng.randint(-3, 3) for v in vertices}
                          for _ in range(p)] for _ in weights]
                tensors = {z.label: [[[row[v] for v in z.index_set]
                                      for row in sheet] for sheet in table]
                           for z in cx.level(n_top)}
                pres = simplicial_presentations_from_tensors(cx, weights, tensors)
                if rng.random() < 0.6:
                    pres = tampered_entry(pres, rng)
                want = None
                for z in cx.level(n_top):
                    candidates = top_candidates(pres, z, p)
                    normal = [SimplexForm(n_top + 1, {
                        K: Poly.const(n_top + 1, c) for K, c in tau.items() if c
                    }).canonical().terms for tau, _ in candidates]
                    faces = sum(len({reading[J] for _, reading in candidates}) > 1
                                for J in candidates[0][1])
                    # constant forms agree on the simplex exactly when they
                    # agree on every face
                    assert (faces > 0) == any(t != normal[0] for t in normal[1:])
                    if faces:
                        want = want or z.label
                        seen["one face" if faces == 1 else "several faces"] += 1
                    elif len({tuple(tau.values()) for tau, _ in candidates}) > 1:
                        seen["stored forms differ"] += 1
                try:
                    dolbeault_ladder(pres, cx, p)
                    got = None
                except ValueError as exc:
                    match = re.fullmatch("presentations disagree on stratum (.+)",
                                         str(exc))
                    got = match and match[1]
                assert got == want
                seen["refused" if want else "accepted"] += 1
    assert seen["accepted"] > 30 and seen["refused"] > 40
    assert seen["one face"] > 15 and seen["several faces"] > 15
    assert seen["stored forms differ"] > 300


def bowtie_complex():
    """Two triangles glued along one edge."""
    strata = [Stratum(f"Y{i}", (i,), {}) for i in range(1, 5)]
    for a, b in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4)):
        strata.append(Stratum(f"E{a}_{b}", (a, b), {a: f"Y{b}", b: f"Y{a}"}))
    strata += [
        Stratum("T1_2_3", (1, 2, 3), {1: "E2_3", 2: "E1_3", 3: "E1_2"}),
        Stratum("T1_2_4", (1, 2, 4), {1: "E2_4", 2: "E1_4", 4: "E1_2"}),
    ]
    return SemistableCombinatorics([f"Y{i}" for i in range(1, 5)], strata)


def test_ladder_requires_consistent_data_across_tops():
    cx = bowtie_complex()
    # shared edge E1_2 gets value 1 from the first triangle, 1 from the
    # second: consistent
    tensors = {"T1_2_3": [((0, 1, 3),)], "T1_2_4": [((2, 3, 0),)]}
    pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
    result = dolbeault_ladder(pres, cx, 1)
    assert result.final_check
    assert result.ord_values["E1_2"] == 1
    # now the second triangle reports 2 on the shared edge
    tensors = {"T1_2_3": [((0, 1, 3),)], "T1_2_4": [((2, 4, 0),)]}
    pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
    with pytest.raises(ValueError, match="inconsistent order data"):
        dolbeault_ladder(pres, cx, 1)


def independent_tensors(complex_, p, rng):
    """One random exponent tensor (one weight, p rows) per top stratum:
    each top's candidates agree, but faces shared by two tops need not.
    Entries are small, so that many shared faces still agree."""
    return {z.label: [[[rng.randint(-1, 1) for _ in z.index_set]
                       for _ in range(p)]]
            for z in complex_.level(complex_.max_level)}


def first_disagreeing_face(complex_, p, tensors):
    """The first level-p stratum in listing order whose tops derive
    different order values: per top, the determinant of the face's columns
    minus the column of its first vertex."""
    for s in complex_.level(p):
        values = set()
        for z in complex_.level(complex_.max_level):
            if set(s.index_set) <= set(z.index_set):
                pos = [z.index_set.index(v) for v in s.index_set]
                values.add(det_cofactor([[row[j] - row[pos[0]] for j in pos[1:]]
                                         for row in tensors[z.label][0]]))
        if len(values) > 1:
            return s.label
    return None


def listed_backwards(complex_):
    """The same complex with its strata listed in reverse order, so that
    listing order and label order differ on every level."""
    strata = [s for lvl in range(complex_.max_level + 1)
              for s in complex_.level(lvl)]
    return SemistableCombinatorics(complex_.components, strata[::-1])


# complexes and degrees below the top level, so that tops share faces
SHARED_FACE_CASES = ((tetrahedron_complex(), 1),
                     (listed_backwards(tetrahedron_complex()), 1),
                     (full_subset_complex(5, 4), 1),
                     (full_subset_complex(5, 4), 2),
                     (listed_backwards(full_subset_complex(5, 4)), 2))


def test_ladder_names_the_first_face_whose_tops_disagree():
    rng = random.Random(64)
    for cx, p in SHARED_FACE_CASES:
        named = []
        while len(named) < 6:
            tensors = independent_tensors(cx, p, rng)
            face = first_disagreeing_face(cx, p, tensors)
            pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
            if face is None:
                assert dolbeault_ladder(pres, cx, p).final_check
                continue
            with pytest.raises(ValueError) as err:
                dolbeault_ladder(pres, cx, p)
            assert str(err.value) == f"inconsistent order data at stratum {face}"
            named.append(face)
        # not always the first stratum listed
        assert set(named) != {cx.level(p)[0].label}


def test_ladder_refuses_a_top_before_the_faces_of_all_tops():
    # the tops disagree on a face, and one candidate of the last top
    # disagrees with the others: the top is named, not the face
    rng = random.Random(65)
    for cx, p in SHARED_FACE_CASES:
        last = cx.level(cx.max_level)[-1]
        tensors = independent_tensors(cx, p, rng)
        while first_disagreeing_face(cx, p, tensors) is None:
            tensors = independent_tensors(cx, p, rng)
        pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
        i, flag = next((i, flag) for i, q in enumerate(pres) for flag in q.flags
                       if tuple(sorted(flag)) == last.index_set)
        (first_row, *rows), = pres[i].flags[flag]
        flags = {**pres[i].flags,
                 flag: (((first_row[0] + 1,) + first_row[1:], *rows),)}
        pres[i] = Presentation(pres[i].component, pres[i].weights, flags)
        with pytest.raises(ValueError) as err:
            dolbeault_ladder(pres, cx, p)
        assert str(err.value) == f"presentations disagree on stratum {last.label}"


def test_ladder_lists_order_values_in_level_order():
    # the 5-cycle lists E1_5 last, which sorting by label would not
    cx = cycle_complex(5)
    result = dolbeault_ladder(cycle_orientation_presentations(5), cx, 1)
    assert list(result.ord_values) == [s.label for s in cx.level(1)]
    assert list(result.ord_values) != sorted(result.ord_values)
    rng = random.Random(66)
    cx = listed_backwards(tetrahedron_complex())
    for p in (1, 2):
        heights = [{v: rng.randint(-3, 3) for v in range(1, 5)}
                   for _ in range(p)]
        tensors = {z.label: [[[row[v] for v in z.index_set] for row in heights]]
                   for z in cx.level(2)}
        pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
        result = dolbeault_ladder(pres, cx, p)
        assert result.final_check
        assert list(result.ord_values) == [s.label for s in cx.level(p)]
        assert list(result.ord_values) != sorted(result.ord_values)


def test_require_simplicial():
    assert require_simplicial(cycle_complex(3)) == 1
    assert require_simplicial(tetrahedron_complex()) == 2
    assert require_simplicial(bowtie_complex()) == 2
    with pytest.raises(ValueError, match="beyond level 0"):
        require_simplicial(point_complex())
    dup = SemistableCombinatorics(
        ["A", "B"],
        [Stratum("Y1", (1,), {}), Stratum("Y2", (2,), {}),
         Stratum("E", (1, 2), {1: "Y2", 2: "Y1"}),
         Stratum("F", (1, 2), {1: "Y2", 2: "Y1"})])
    with pytest.raises(ValueError, match="uniquely"):
        require_simplicial(dup)
    orphan = SemistableCombinatorics(
        ["A", "B", "C"],
        [Stratum("Y1", (1,), {}), Stratum("Y2", (2,), {}),
         Stratum("Y3", (3,), {}),
         Stratum("E", (1, 2), {1: "Y2", 2: "Y1"})])
    with pytest.raises(ValueError, match="not a face"):
        require_simplicial(orphan)
    # Y5's only child is the edge Z4_5, itself under no top: the first
    # stratum under no top, in level order, is Y5
    dangling = library._simplicial(5, [(1, 2, 3), (1, 2, 4), (4, 5)])
    with pytest.raises(ValueError) as err:
        require_simplicial(dangling)
    assert str(err.value) == "stratum Y5 is not a face of any top stratum"


def test_ladder_input_validation():
    cx = cycle_complex(3)
    pres = cycle_orientation_presentations(3)
    with pytest.raises(ValueError, match="top level"):
        dolbeault_ladder(pres, cx, 2)
    deg2 = Presentation(1, (1,), {(1, 2): (((1,), (0,)),)})
    with pytest.raises(ValueError, match="degree disagrees"):
        dolbeault_ladder([deg2] + pres[1:], cx, 1)
    with pytest.raises(ValueError, match="no presentation covers"):
        dolbeault_ladder(pres[1:], cx, 1)



def test_constant_tower_and_ladder_never_substitute(monkeypatch):
    # every stage of the tower is constant, so neither ray integration nor
    # the normal forms may fall back to polynomial substitution; the ladder
    # reads its face values off tau's coefficients, so it computes no
    # determinant either
    def refuse(self, args):
        raise AssertionError("eval_poly reached on constant coefficients")

    def refuse_det(m):
        raise AssertionError("linalg.det reached in the ladder")

    monkeypatch.setattr(Poly, "eval_poly", refuse)
    rng = random.Random(62)
    for n in (1, 2, 3, 4):
        ctx = SimplexContext(n)
        for p in range(1, n + 1):
            betas = [SimplexForm.monomial(n + 1, idx, 1)
                     for idx in itertools.combinations(range(n + 1), p)]
            betas += [rand_constant_simplex_form(rng, n + 1, p)
                      for _ in range(2)]
            for beta in betas:
                beta_recursion(ctx, beta, p)
    cx = tetrahedron_complex()
    height = {1: 0, 2: 1, 3: 3, 4: -2}
    p1 = {z.label: [(tuple(height[v] for v in z.index_set),)]
          for z in cx.level(2)}
    p2 = {
        "V1_2_3": [((0, 1, 3), (0, -3, -2))],
        "V1_2_4": [((1, 1, 0), (2, 0, 1))],
        "V1_3_4": [((0, 2, 1), (1, 1, -1))],
        "V2_3_4": [((2, 0, 1), (0, 1, 1))],
    }
    monkeypatch.setattr(linalg, "det", refuse_det)
    for p, tensors in ((1, p1), (2, p2)):
        pres = simplicial_presentations_from_tensors(cx, (1,), tensors)
        assert dolbeault_ladder(pres, cx, p).final_check

# SHA-256 of the ladder outputs below, recorded before the ladder stopped
# integrating every stage a second time; ord values and comparisons must
# not move.
PINNED_LADDER_OUTPUTS = (
    "ba621835be45b4af136538e93c884fc02601e8e2d6789338cab9832e7010397a")


def test_ladder_outputs_pinned():
    cases = [(cycle_orientation_presentations(m), cycle_complex(m), 1)
             for m in range(3, 8)]
    columns = {(1, 2): [(0, 2)], (2, 3): [(1, -1)], (3, 4): [(0, 5)],
               (1, 4): [(3, 3)]}
    cases.append((cycle_presentations(4, (Fraction(1, 2),), columns),
                  cycle_complex(4), 1))
    tetra = tetrahedron_complex()
    tensors = {
        "V1_2_3": [((0, 1, 3), (0, -3, -2)), ((1, 0, 0), (0, 1, 1))],
        "V1_2_4": [((1, 1, 0), (2, 0, 1)), ((0, 0, 2), (1, 1, 0))],
        "V1_3_4": [((0, 2, 1), (1, 1, -1)), ((3, 0, 1), (0, 0, 1))],
        "V2_3_4": [((2, 0, 1), (0, 1, 1)), ((1, 1, 1), (0, 2, 0))],
    }
    cases.append((simplicial_presentations_from_tensors(
        tetra, (1, Fraction(-2, 3)), tensors), tetra, 2))
    out = []
    for pres, cx, p in cases:
        result = dolbeault_ladder(pres, cx, p)
        out.append({
            "constant": str(result.constant),
            "final": result.final_check,
            "ord": {label: str(v) for label, v in result.ord_values.items()},
            "comparisons": [[top, face, str(value), str(expected), ok]
                            for top, face, value, expected, ok
                            in result.comparisons],
        })
    assert json_digest(out) == PINNED_LADDER_OUTPUTS
