import itertools
import json
import random

import pytest

from conftest import json_digest
from tropmono.cli import main, run
from tropmono.dual_complex import (SemistableCombinatorics, Stratum,
                                   complex_to_json, relabel_components,
                                   unit_h2)
from tropmono.library import (all_ones_h2, cycle_complex,
                              cycle_orientation_presentations,
                              cycle_presentations_from_tensor,
                              cycle_validation_h2, point_complex,
                              simplicial_presentations_from_tensors,
                              tetrahedron_complex)


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
    ("starprop", 1): "fa04707caa0f636b8362277babe0998d8c51215ca1ab7e910ec8fbd6d706f16c",
    ("starprop", 2): "4e031f8c1a04603e88872082e7fdb2216e864fbf1b35750266855897f1bc0709",
    ("starprop", 3): "19b57ccdac17d32119d416d153c600378f9641b781712121f2e24b399c07b81c",
}

PINNED_DOLBEAULT = {
    "cycle5": "adee3f90b162a4bff482860ea6f9761d57f9fccaa39b84ae6f068b641037d976",
    "shared4": "77e059fa9ae25bf206a150290e74d64144ac0479fd539a42f1f9bd1a1436a7b8",
    "tetrahedron": "fc465512f09428d370d4f6434bfa6eb687f11e73198da6875120903d6724371c",
}


@pytest.mark.parametrize("sub,k", sorted(PINNED_ALGEBRA))
def test_algebra_results_pinned(sub, k):
    if sub == "superform":
        argv = ["check", "superform", "--n", str(k), "--cases", "4",
                "--seed", "11"]
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
        pres = cycle_presentations_from_tensor(4, ("1/2",), columns)
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
    pres = cycle_presentations_from_tensor(m, weights, columns)
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
    shared = cycle_presentations_from_tensor(m, (1,), columns)
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


# what the error names, for the cases whose message is fixed
COMPLEX_FAULTS = {
    "gysin_length_monodromy": "Gysin vector for E1_2 in Y1 has wrong length",
    "h2_unknown_stratum": "h2 GHOST: not a stratum",
    "gysin_unknown_child": "h2 Y1: NOPE is not a child of Y1",
    "gysin_not_a_child": "h2 Y1: E2_3 is not a child of Y1",
    "restrict_unknown_child": "h2 Y2: NOPE is not a child of Y2",
    "no_components": "a complex needs at least one component",
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
    else:
        obj["h2"] = [obj["h2"]["Y1"]]
    return obj


@pytest.mark.parametrize("case", [
    "gysin_length_monodromy", "gysin_length_ord_check", "stratum_is_a_string",
    "parents_is_a_list", "h2_is_a_list", "h2_unknown_stratum",
    "gysin_unknown_child", "gysin_not_a_child", "restrict_unknown_child",
    "no_components"])
def test_malformed_complex_exits_2(tmp_path, case):
    # before, the unknown labels were kept and `ss monodromy` reported an
    # isomorphism; `ss e2` on the empty complex passed zero checks
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
])
def test_malformed_presentations_exit_2(tmp_path, case, message):
    # before, an exponent 1.5 was truncated to 1 and a component 2.7 to 2
    complex_path, _ = cycle_files(tmp_path, 5)
    if case == "entry_is_a_string":
        pres = ["x"]
    elif case == "entry_is_a_list":
        pres = [cycle_orientation_presentations(5)[0].to_json_obj(), [1, 2]]
    elif case == "flags_is_a_list":
        pres = [{"component": 1, "weights": ["1"], "flags": []}]
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
    monkeypatch.setenv("TROPMONO_MAX_DIM", "zero")
    code, text = run(["check", "superform", "--n", "1", "--cases", "1"])
    assert code == 2 and "must be an integer" in text
    monkeypatch.setenv("TROPMONO_MAX_DIM", "0")
    code, text = run(["check", "superform", "--n", "1", "--cases", "1"])
    assert code == 2 and "at least 1" in text


def test_tsv_format(tmp_path):
    path = write_json(tmp_path / "c3.json", complex_to_json(cycle_complex(3)))
    code, text = run_twice(["ss", "e2", "--input", path, "--format", "tsv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("# command\t")
    assert any(line.startswith("# input\t") for line in lines)
    assert "restriction_squares_to_zero[p=0]\tpass" in text


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
