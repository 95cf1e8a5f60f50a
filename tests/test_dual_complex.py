import json
import random
from fractions import Fraction

import pytest

from conftest import nerve_cohomology_dims
from tropmono.dual_complex import (H2Model, SemistableCombinatorics, Stratum,
                                   check_vanishing_vector, complex_from_json,
                                   complex_to_json, corner_monodromy,
                                   delta_pullback, delta_pushforward, e2_p0,
                                   h2_pullback, relabel_components,
                                   relation_composite, removal_sign, unit_h2)
from tropmono.library import (all_ones_h2, chain_complex, cycle_complex,
                              cycle_validation_h2, point_complex,
                              tetrahedron_complex)
from tropmono.linalg import QMatrix


def bundled():
    out = [point_complex(), chain_complex(), tetrahedron_complex()]
    out += [cycle_complex(m) for m in range(3, 8)]
    return out


def two_points_complex():
    return SemistableCombinatorics(
        ["A", "B"], [Stratum("A", (1,), {}), Stratum("B", (2,), {})])


def test_removal_sign_frozen():
    assert removal_sign((1, 2), 1) == 1
    assert removal_sign((1, 2), 2) == -1
    assert removal_sign((1, 3, 5), 5) == 1
    assert removal_sign((2, 4, 6), 4) == -1


def test_chain_restriction_signs_frozen():
    # value on the double stratum is (value on Y2) - (value on Y1)
    mat = delta_pullback(chain_complex(), 0)
    assert (mat.nrows, mat.ncols) == (1, 2)
    assert [mat[0, 0], mat[0, 1]] == [-1, 1]


def test_restriction_squares_to_zero():
    for cx in bundled():
        for p in range(max(cx.max_level - 1, 0)):
            prod = delta_pullback(cx, p + 1) @ delta_pullback(cx, p)
            assert prod.is_zero()


def test_e2_dims_match_brute_force():
    for cx in bundled() + [two_points_complex()]:
        index_sets = [s.index_set
                      for lvl in range(cx.max_level + 1)
                      for s in cx.level(lvl)]
        want = nerve_cohomology_dims(index_sets)
        got = [e2_p0(cx, p).dim for p in range(cx.max_level + 1)]
        assert got == want


def test_e2_dims_frozen():
    assert e2_p0(point_complex(), 0).dim == 1
    assert [e2_p0(chain_complex(), p).dim for p in (0, 1)] == [1, 0]
    assert e2_p0(two_points_complex(), 0).dim == 2
    for m in (3, 5, 7):
        assert [e2_p0(cycle_complex(m), p).dim for p in (0, 1)] == [1, 1]
    tetra = tetrahedron_complex()
    assert [e2_p0(tetra, p).dim for p in (0, 1, 2)] == [1, 0, 1]


def test_e2_representatives_live_in_the_kernel():
    for cx in bundled():
        for p in range(cx.max_level + 1):
            summary = e2_p0(cx, p)
            pull = delta_pullback(cx, p)
            for vec in summary.representatives + summary.image:
                assert all(x == 0 for x in pull.matvec(vec))
            assert summary.dim == len(summary.kernel) - len(summary.image)


def test_corner_monodromy_is_iso_on_cycles():
    for m in range(3, 8):
        cx = cycle_complex(m)
        cm = corner_monodromy(cx, unit_h2(cx), 1)
        assert (cm.domain_dim, cm.codomain_dim) == (1, 1)
        assert cm.isomorphism
    cm5 = corner_monodromy(cycle_complex(5), unit_h2(cycle_complex(5)), 1)
    assert cm5.matrix[0, 0] == -5


def test_e2_and_corner_on_a_60_cycle():
    cx = cycle_complex(60)
    assert [e2_p0(cx, p).dim for p in (0, 1)] == [1, 1]
    comparison = corner_monodromy(cx, unit_h2(cx, level=0), 1)
    assert comparison.isomorphism
    assert comparison.matrix.to_json_obj() == [["-60"]]

def test_corner_monodromy_zero_gysin_is_not_injective():
    for m in (3, 4):
        cx = cycle_complex(m)
        cm = corner_monodromy(
            cx, H2Model({s.label: 1 for s in cx.level(0)}), 1)
        assert cm.domain_dim == m
        assert cm.codomain_dim == 1
        assert not cm.injective
        assert not cm.isomorphism


def test_corner_monodromy_point_complex():
    cx = point_complex()
    cm = corner_monodromy(cx, unit_h2(cx), 0)
    assert (cm.domain_dim, cm.codomain_dim) == (1, 1)
    assert cm.isomorphism
    assert cm.matrix[0, 0] == 1


def test_validation_model_satisfies_the_cancellation():
    for m in range(3, 8):
        cx = cycle_complex(m)
        assert relation_composite(cx, cycle_validation_h2(m), 1).is_zero()


def test_unit_model_passes_trivially():
    # edge spaces are zero dimensional, so the composite lands in nothing
    for m in (3, 5):
        cx = cycle_complex(m)
        assert relation_composite(cx, unit_h2(cx), 1).is_zero()


def flipped_models(m):
    base = cycle_validation_h2(m)
    for key in sorted(base.gysin):
        for slot in range(2):
            gysin = dict(base.gysin)
            vec = list(gysin[key])
            vec[slot] = -vec[slot]
            gysin[key] = tuple(vec)
            yield H2Model(base.dims, gysin, base.restrict)
    for key in sorted(base.restrict):
        for slot in range(2):
            restrict = dict(base.restrict)
            row = [restrict[key][0, 0], restrict[key][0, 1]]
            row[slot] = -row[slot]
            restrict[key] = QMatrix([row])
            yield H2Model(base.dims, base.gysin, restrict)


def test_any_single_sign_flip_breaks_the_cancellation():
    for m in (3, 4, 5):
        cx = cycle_complex(m)
        for h2 in flipped_models(m):
            assert not relation_composite(cx, h2, 1).is_zero()


def test_all_ones_model_is_flagged_inconsistent():
    for m in (3, 4, 5):
        cx = cycle_complex(m)
        h2 = all_ones_h2(cx)
        assert not relation_composite(cx, h2, 1).is_zero()
        composite = relation_composite(cx, h2, 1)
        for i in range(composite.nrows):
            assert composite[i, i] == 2


def test_validate_relation_needs_adjacent_levels():
    cx = cycle_complex(3)
    with pytest.raises(ValueError):
        relation_composite(cx, cycle_validation_h2(3), 0)


def test_relabeling_components_changes_nothing():
    rng = random.Random(50)
    for cx, h2 in [(cycle_complex(5), cycle_validation_h2(5)),
                   (cycle_complex(4), unit_h2(cycle_complex(4))),
                   (tetrahedron_complex(), None)]:
        m = len(cx.components)
        dims = [e2_p0(cx, p).dim for p in range(cx.max_level + 1)]
        for _ in range(5):
            images = list(range(1, m + 1))
            rng.shuffle(images)
            perm = dict(zip(range(1, m + 1), images))
            shuffled = relabel_components(cx, perm)
            got = [e2_p0(shuffled, p).dim for p in range(shuffled.max_level + 1)]
            assert got == dims
            if h2 is not None:
                assert relation_composite(shuffled, h2, 1).is_zero() == \
                    relation_composite(cx, h2, 1).is_zero()
                before = corner_monodromy(cx, h2, 1)
                after = corner_monodromy(shuffled, h2, 1)
                assert after.isomorphism == before.isomorphism


def test_pushforward_frozen_on_the_chain():
    cx = chain_complex()
    h2 = unit_h2(cx)
    mat = delta_pushforward(cx, h2, 1)
    assert (mat.nrows, mat.ncols) == (2, 1)
    assert [mat[0, 0], mat[1, 0]] == [-1, 1]
    empty = delta_pushforward(cx, h2, 0)
    assert (empty.nrows, empty.ncols) == (0, 2)


def test_h2_pullback_frozen_on_the_chain():
    cx = chain_complex()
    mat = h2_pullback(cx, all_ones_h2(cx), 0)
    assert (mat.nrows, mat.ncols) == (1, 2)
    assert [mat[0, 0], mat[0, 1]] == [-1, 1]


def test_check_vanishing_vector_on_the_cycle():
    cx = cycle_complex(4)
    h2 = unit_h2(cx)
    # edge order: E1_2, E2_3, E3_4, E1_4
    assert check_vanishing_vector(cx, h2, 1, (1, 1, 1, -1)) == (True, True)
    assert check_vanishing_vector(cx, h2, 1, (1, 0, 0, 0)) == (True, False)


def test_json_roundtrip():
    cx = cycle_complex(4)
    h2 = cycle_validation_h2(4)
    obj = complex_to_json(cx, h2)
    json.dumps(obj)  # must be serializable as-is
    cx2, h22 = complex_from_json(obj)
    assert complex_to_json(cx2, h22) == obj
    bare_cx, bare_h2 = complex_from_json(complex_to_json(cx))
    assert bare_h2 is None
    assert complex_to_json(bare_cx) == complex_to_json(cx)


def test_json_level_consistency_is_checked():
    obj = complex_to_json(point_complex())
    obj["strata"][0]["level"] = 1
    with pytest.raises(ValueError):
        complex_from_json(obj)


def unit_strata(m):
    return [Stratum(f"Y{i}", (i,), {}) for i in range(1, m + 1)]


def test_construction_validation():
    with pytest.raises(ValueError, match="at least one component"):
        SemistableCombinatorics([], [])
    with pytest.raises(ValueError, match="duplicate component"):
        SemistableCombinatorics(["A", "A"], unit_strata(2))
    with pytest.raises(ValueError, match="duplicate stratum"):
        SemistableCombinatorics(["A"], [Stratum("Y1", (1,), {})] * 2)
    with pytest.raises(ValueError, match="out of range"):
        SemistableCombinatorics(["A"], [Stratum("Y1", (2,), {})])
    with pytest.raises(ValueError, match="increasing"):
        SemistableCombinatorics(
            ["A", "B"], unit_strata(2) + [Stratum("E", (2, 1), {})])
    with pytest.raises(ValueError, match="biject"):
        SemistableCombinatorics(["A", "B"], unit_strata(1))
    with pytest.raises(ValueError, match="contiguous"):
        SemistableCombinatorics(
            ["A", "B", "C"],
            unit_strata(3) + [Stratum("V", (1, 2, 3),
                                      {1: "x", 2: "y", 3: "z"})])
    with pytest.raises(ValueError, match="no parents"):
        SemistableCombinatorics(
            ["A"], [Stratum("Y1", (1,), {1: "Y1"})])
    with pytest.raises(ValueError, match="one parent per"):
        SemistableCombinatorics(
            ["A", "B"], unit_strata(2) + [Stratum("E", (1, 2), {1: "Y2"})])
    with pytest.raises(ValueError, match="unknown parent"):
        SemistableCombinatorics(
            ["A", "B"],
            unit_strata(2) + [Stratum("E", (1, 2), {1: "Q", 2: "Y1"})])
    with pytest.raises(ValueError, match="wrong index set"):
        SemistableCombinatorics(
            ["A", "B"],
            unit_strata(2) + [Stratum("E", (1, 2), {1: "Y1", 2: "Y2"})])


def test_parent_squares_must_close():
    # two copies of the same edge and a vertex whose descent paths pick
    # different copies
    strata = unit_strata(4)
    strata += [Stratum("A", (1, 2), {1: "Y2", 2: "Y1"}),
               Stratum("B", (1, 2), {1: "Y2", 2: "Y1"})]
    for a, b in ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        strata.append(Stratum(f"E{a}_{b}", (a, b), {a: f"Y{b}", b: f"Y{a}"}))
    strata += [
        Stratum("T1", (2, 3, 4), {2: "E3_4", 3: "E2_4", 4: "E2_3"}),
        Stratum("T2", (1, 3, 4), {1: "E3_4", 3: "E1_4", 4: "E1_3"}),
        Stratum("T3", (1, 2, 3), {1: "E2_3", 2: "E1_3", 3: "A"}),
        Stratum("T4", (1, 2, 4), {1: "E2_4", 2: "E1_4", 4: "B"}),
        Stratum("V", (1, 2, 3, 4), {1: "T1", 2: "T2", 3: "T4", 4: "T3"}),
    ]
    with pytest.raises(ValueError, match="squares do not close"):
        SemistableCombinatorics([f"Y{i}" for i in range(1, 5)], strata)


def test_h2_model_validation():
    with pytest.raises(ValueError, match="negative"):
        H2Model({"Y1": -1})
    with pytest.raises(ValueError, match="wrong length"):
        H2Model({"Y1": 2, "E": 1}, {("Y1", "E"): (1,)})
    h2 = H2Model({"Y1": 2, "E": 1}, {("Y1", "E"): (1, 1)},
                 {("Y1", "E"): QMatrix([[1, 2, 3]])})
    with pytest.raises(ValueError, match="wrong shape"):
        h2.restriction("Y1", "E")
    with pytest.raises(ValueError, match="missing restriction"):
        h2.restriction("Y1", "F")
    assert h2.gysin_vector("Y1", "other") == (Fraction(0), Fraction(0))
