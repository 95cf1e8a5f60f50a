"""A fixed corpus of command line reports, hashed into one digest.

Every report the corpus produces, in JSON and in TSV, passing or failing,
goes into one SHA-256 over (argv, format, exit status, report bytes).  The
inputs come from the bundled library fixtures and the benchmark's fixture
builders, written under fixed relative names so that the input paths and
hashes inside the reports are fixed too.  A refactor that moves any byte of
any report, a failure witness included, changes the digest.  Every report
is also rerun from its own command line and must come back byte for byte.
"""

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import fixtures  # noqa: E402
from conftest import replay  # noqa: E402
from tropmono.cli import run  # noqa: E402
from tropmono.dual_complex import H2Model, complex_to_json  # noqa: E402
from tropmono.library import (all_ones_h2, cycle_complex,  # noqa: E402
                              cycle_orientation_presentations,
                              simplicial_presentations_from_tensors,
                              tetrahedron_complex)

# recorded when every command line came to be rendered from the parsed
# arguments, which added --p to the command of each `ss e2 --p k` report
CORPUS_DIGEST = "998ee71fb2c3706365c826ff1cd89b8f0165ce65097e9b5ee4c3712885926358"
# the larger ss inputs, recorded while the coboundary products were dense
LARGE_SS_DIGEST = "2adb226f47857ace27cc28463f2397daea253196de7def9bf49363acf8e1d8ed"


class _Corpus:
    """Writes inputs into the working directory under counted names and
    collects the argv of every report."""

    def __init__(self):
        self.files = 0
        self.argvs: list[list[str]] = []

    def write(self, stem: str, obj) -> str:
        self.files += 1
        path = f"{self.files:03d}-{stem}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        return path

    def pres(self, stem: str, presentations) -> str:
        return self.write(stem, {"presentations": [
            p if isinstance(p, dict) else p.to_json_obj()
            for p in presentations]})

    def add(self, *argv):
        self.argvs.append([str(a) for a in argv])


def _cycles(corpus: _Corpus):
    rng = random.Random(7001)
    for m in (3, 4, 5, 7, 9, 12):
        cx = fixtures.shuffled(cycle_complex(m), rng)
        bare = corpus.write(f"cycle{m}", complex_to_json(cx))
        good = corpus.write(f"cycle{m}-h2",
                            complex_to_json(cx, fixtures.validation_h2(cx)))
        ones = corpus.write(f"cycle{m}-ones", complex_to_json(cx, all_ones_h2(cx)))
        corpus.add("ss", "e2", "--input", bare, "--p", 1)
        corpus.add("ss", "e2", "--input", bare)
        corpus.add("ss", "monodromy", "--input", bare, "--p", 1)
        for path in (good, ones):
            corpus.add("ss", "validate", "--input", path)
            corpus.add("ss", "monodromy", "--input", path, "--p", 1)


def _boundaries(corpus: _Corpus):
    rng = random.Random(7002)
    for n in (2, 3, 4, 5):
        cx = fixtures.shuffled(fixtures.simplex_boundary(n), rng)
        path = corpus.write(f"boundary{n}", complex_to_json(cx))
        ones = corpus.write(f"boundary{n}-ones", complex_to_json(cx, all_ones_h2(cx)))
        for p in range(n):
            corpus.add("ss", "e2", "--input", path, "--p", p)
        for p in range(1, n):
            corpus.add("ss", "monodromy", "--input", path, "--p", p)
            corpus.add("ss", "monodromy", "--input", ones, "--p", p)
        corpus.add("ss", "validate", "--input", ones)


def _tampered(pres_objs, rng: random.Random) -> list[dict]:
    """The same presentations with one exponent moved by one."""
    objs = json.loads(json.dumps(pres_objs))
    target = rng.choice([o for o in objs if o["flags"]])
    key = sorted(target["flags"])[0]
    target["flags"][key][0][0][0] += 1
    return objs


def _independent(complex_, p: int, rng: random.Random):
    """One random tensor per top stratum, with no shared global table, so
    faces shared by two tops get different values."""
    tensors = {z.label: [[[rng.randint(-3, 3) for _ in z.index_set]
                          for _ in range(p)]]
               for z in complex_.level(complex_.max_level)}
    return simplicial_presentations_from_tensors(complex_, (1,), tensors)


def _ladders(corpus: _Corpus):
    rng = random.Random(7003)
    complexes = [("tetrahedron", tetrahedron_complex()),
                 ("cycle6", cycle_complex(6)),
                 ("skeleton-5-2", fixtures.simplex_skeleton(5, 2)),
                 ("skeleton-5-3", fixtures.simplex_skeleton(5, 3))]
    for name, cx in complexes:
        path = corpus.write(name, complex_to_json(cx))
        top = cx.max_level
        for p in range(1, top + 1):
            pres, _, _ = fixtures.simplicial_presentations(cx, p, rng)
            good = corpus.pres(f"{name}-p{p}", pres)
            bad = corpus.pres(f"{name}-p{p}-tampered",
                              _tampered([q.to_json_obj() for q in pres], rng))
            mixed = corpus.pres(f"{name}-p{p}-independent",
                                _independent(cx, p, rng))
            for pres_path in (good, bad, mixed):
                corpus.add("dolbeault", "--complex", path, "--pres", pres_path,
                           "--p", p)
                corpus.add("ord", "compute", "--complex", path, "--pres",
                           pres_path, "--p", p)
            corpus.add("ord", "check", "--complex", path, "--pres", good,
                       "--p", p)


def _orders(corpus: _Corpus):
    rng = random.Random(7004)
    for m in (3, 5, 8, 13):
        path = corpus.write(f"ord-cycle{m}", complex_to_json(cycle_complex(m)))
        kernel, _ = fixtures.cycle_kernel_presentations(m, rng)
        oriented = cycle_orientation_presentations(m)
        for stem, pres in (("kernel", kernel), ("oriented", oriented),
                           ("partial", oriented[1:])):
            pres_path = corpus.pres(f"ord-cycle{m}-{stem}", pres)
            for sub in ("compute", "check"):
                corpus.add("ord", sub, "--complex", path, "--pres", pres_path,
                           "--p", 1)
            corpus.add("dolbeault", "--complex", path, "--pres", pres_path,
                       "--p", 1)


def _towers_and_batteries(corpus: _Corpus):
    for n, p, extra, seed in ((1, 1, 2, 3), (2, 1, 2, 5), (2, 2, 1, 8),
                              (3, 1, 0, 13), (3, 2, 1, 21), (3, 3, 1, 34)):
        corpus.add("simplex", "starprop", "--n", n, "--p", p, "--random",
                   extra, "--seed", seed)
    for n, cases, seed in ((1, 3, 1), (2, 3, 2), (3, 2, 3), (4, 1, 414)):
        corpus.add("check", "superform", "--n", n, "--cases", cases,
                   "--seed", seed)


def _edited(h2: H2Model, gysin=None, restrict=None, drop=None) -> H2Model:
    """The model with some Gysin vectors or restrictions replaced, and one
    restriction left out."""
    kept = {key: h2.restriction(*key) for key in h2.restrict if key != drop}
    return H2Model(h2.dims, {**h2.gysin, **(gysin or {})},
                   {**kept, **(restrict or {})})


def _top_model(complex_) -> H2Model:
    """The cycle validation pattern one level up: dim 2 below the top, dim 1
    at the top, Gysin (1, 1) and restriction (1, -1), so the relation
    cancels at the top level and fails below it."""
    top = complex_.max_level
    dims = {s.label: 2 for s in complex_.level(top - 1)}
    dims.update({s.label: 1 for s in complex_.level(top)})
    gysin, restrict = {}, {}
    for z in complex_.level(top):
        for parent in z.parents.values():
            gysin[parent, z.label] = (Fraction(1), Fraction(1))
            restrict[parent, z.label] = [[1, -1]]
    return H2Model(dims, gysin, restrict)


def _large_validate(corpus: _Corpus):
    rng = random.Random(7005)
    cases = [(f"cycle{m}", fixtures.shuffled(cycle_complex(m), rng))
             for m in (14, 16, 40)]
    for cx in (fixtures.simplex_skeleton(5, 2), fixtures.simplex_boundary(4)):
        cases.append((f"skeleton{len(cx.components)}-{cx.max_level}",
                      fixtures.shuffled(cx, rng)))
    for name, cx in cases:
        good = fixtures.validation_h2(cx) if cx.max_level == 1 else _top_model(cx)
        key = sorted(good.gysin)[rng.randrange(len(good.gysin))]
        flipped = (good.gysin[key][0], -good.gysin[key][1])
        rational = (Fraction(1, 3), Fraction(-5, 2))
        rkey = sorted(good.restrict)[rng.randrange(len(good.restrict))]
        models = {"good": good,
                  "flipped": _edited(good, gysin={key: flipped}),
                  "rational": _edited(good, gysin={key: rational}),
                  "restrict-flipped": _edited(good, restrict={rkey: [[1, 1]]}),
                  "no-restrict": _edited(good, drop=rkey),
                  "wrong-shape": _edited(good, restrict={rkey: [[1, -1], [0, 1]]}),
                  # the restriction is still required where the Gysin
                  # vector is zero, and the first fault in walk order wins
                  "zero-gysin-no-restrict": _edited(
                      good, gysin={rkey: (0, 0)}, drop=rkey),
                  "two-faults": _edited(
                      good, restrict={key: [[1, -1], [1, -1]]}, drop=rkey),
                  "ones": all_ones_h2(cx)}
        top = cx.max_level
        for stem, h2 in models.items():
            path = corpus.write(f"{name}-{stem}", complex_to_json(cx, h2))
            corpus.add("ss", "validate", "--input", path)
            if top > 1:
                corpus.add("ss", "validate", "--input", path, "--p", top)


def _large_orders(corpus: _Corpus):
    rng = random.Random(7006)
    for m in (30, 40):
        cx = cycle_complex(m)
        kernel, _ = fixtures.cycle_kernel_presentations(m, rng)
        units = {s.label: 1 for s in cx.level(0)}
        gysin = {(parent, z.label): (Fraction(1),)
                 for z in cx.level(1) for parent in z.parents.values()}
        edge = cx.level(1)[rng.randrange(m)]
        skewed = dict(gysin)
        skewed[edge.parents[edge.index_set[0]], edge.label] = (Fraction(3, 2),)
        bare = corpus.write(f"ord-cycle{m}", complex_to_json(cx))
        skew = corpus.write(f"ord-cycle{m}-skewed",
                            complex_to_json(cx, H2Model(units, skewed)))
        for stem, pres in (("kernel", kernel),
                           ("oriented", cycle_orientation_presentations(m))):
            pres_path = corpus.pres(f"ord-cycle{m}-{stem}", pres)
            for path in (bare, skew):
                corpus.add("ord", "check", "--complex", path, "--pres",
                           pres_path, "--p", 1)


def corpus_digest(parts) -> tuple[str, list]:
    """(SHA-256 over every report, every (argv, format, exit status, report
    text)); writes its inputs into the working directory."""
    corpus = _Corpus()
    for part in parts:
        part(corpus)
    digest = hashlib.sha256()
    reports = []
    for argv in corpus.argvs:
        for fmt in ("json", "tsv"):
            code, text = run(argv + ["--format", fmt])
            head = json.dumps([argv, fmt, code]).encode("utf-8")
            digest.update(head + b"\0" + text.encode("utf-8") + b"\0")
            reports.append((argv, fmt, code, text))
    return digest.hexdigest(), reports


def _run_corpus(tmp_path_factory, parts):
    """(working directory, digest, reports) of one corpus, run once for the
    digest test and the replay test alike."""
    workdir = tmp_path_factory.mktemp("corpus")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        return (workdir, *corpus_digest(parts))


@pytest.fixture(scope="module")
def report_corpus(tmp_path_factory):
    return _run_corpus(tmp_path_factory, (_cycles, _boundaries, _ladders,
                                          _orders, _towers_and_batteries))


@pytest.fixture(scope="module")
def large_ss_corpus(tmp_path_factory):
    return _run_corpus(tmp_path_factory, (_large_validate, _large_orders))


def test_report_corpus_is_unchanged(report_corpus):
    _, digest, reports = report_corpus
    assert len(reports) == 364
    assert digest == CORPUS_DIGEST


def test_large_ss_corpus_is_unchanged(large_ss_corpus):
    _, digest, reports = large_ss_corpus
    assert len(reports) == 142
    assert digest == LARGE_SS_DIGEST


@pytest.mark.parametrize("name, replayed", [("report_corpus", 364),
                                            ("large_ss_corpus", 78)])
def test_every_report_replays_from_its_command(request, monkeypatch, name,
                                                replayed):
    workdir, _, reports = request.getfixturevalue(name)
    monkeypatch.chdir(workdir)
    # exit status 2 prints an error, not a report, so it names no command
    runs = [(argv, fmt, code, text) for argv, fmt, code, text in reports
            if code != 2]
    assert len(runs) == replayed
    for argv, fmt, code, text in runs:
        assert replay(text, monkeypatch) == (code, text), (argv, fmt)
