"""Acceptance suite: every numbered criterion as one timed, exact test.

Each test prints a single PASS line (visible with pytest -s or -v on
failure); every assertion is exact integer or rational equality, with the
stated wall-clock budget asserted at the end of the test.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from clifflab import linalg
from clifflab.blades import AlgebraSignature, CliffordElement
from clifflab.classify import (
    case1_n8,
    check_conditions,
    exclusion_scan,
    scal_formula,
    table2_rows,
    table3_rows,
    tables_json,
)
from clifflab.cli import main as cli_main
from clifflab.curvature import (
    build_model,
    centralizer_dim,
    lambda2_spectrum,
    verify_cc_normalization,
    verify_parallel_identities,
)
from clifflab.reps import (
    UnsupportedRankError,
    build_even_rep,
    evaluate,
    j_family,
    n0,
    n_irr,
    triality_map,
)
from clifflab.structure import (
    EvenCliffordStructure,
    ExtensionRejected,
    extend_hodge,
    split_rank4,
    universal_extension,
    verify_orthogonality,
    verify_relations,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(number: int, label: str, elapsed: float, budget: float):
    print(f"ACCEPTANCE {number}: PASS - {label} ({elapsed:.3f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.3f}s"


def test_criterion_01_dimension_tables():
    t0 = time.perf_counter()
    assert n0(5) == 8
    assert n0(6) == 8
    assert (n_irr(9), n_irr(10), n_irr(12), n_irr(16)) == (32, 64, 128, 256)
    assert (n0(9), n0(10), n0(12), n0(16)) == (16, 32, 64, 128)
    elapsed = time.perf_counter() - t0
    _report(1, "dimension tables", elapsed, 0.001)


def test_criterion_02_relation_suite_all_ranks():
    t0 = time.perf_counter()
    for r in range(2, 17):
        rep = build_even_rep(r, 1, 0) if r % 4 == 0 else build_even_rep(r)
        s = EvenCliffordStructure.from_rep(rep)
        rel = verify_relations(s)
        assert rel.passed and rel.failures == [], (r, rel.failures[:3])
        if r != 4:
            ort = verify_orthogonality(s)
            assert ort.passed and ort.failures == [], (r, ort.failures[:3])
    plus_block = EvenCliffordStructure.from_rep(build_even_rep(4, 1, 0))
    minus_block = EvenCliffordStructure.from_rep(build_even_rep(4, 0, 1))
    assert verify_orthogonality(plus_block).data["pairings"]["(1,2),(3,4)"] == "4"
    assert verify_orthogonality(minus_block).data["pairings"]["(1,2),(3,4)"] == "-4"
    elapsed = time.perf_counter() - t0
    _report(2, "relation and orthogonality sweep r=2..16", elapsed, 10.0)


def test_criterion_03_rank4_splitting():
    t0 = time.perf_counter()
    s = EvenCliffordStructure.from_rep(build_even_rep(4, 1, 1))
    result = split_rank4(s)
    assert result.report.passed, [f.to_dict() for f in result.report.failures]
    # the three closed-form plus operators pairwise anticommute on the
    # minus eigenspace
    f1, f2, f3 = result.frames_plus
    for a in (f1, f2, f3):
        for b in (f1, f2, f3):
            if a is not b:
                anti = (a @ b + b @ a) @ result.p_minus
                assert all(Fraction(x) == 0 for x in anti.reshape(-1))
    # degenerate case: one factor is a point
    degenerate = split_rank4(EvenCliffordStructure.from_rep(build_even_rep(4, 1, 0)))
    assert degenerate.report.passed
    assert all(
        all(Fraction(x) == 0 for x in m.reshape(-1)) for m in degenerate.j_plus.values()
    )
    elapsed = time.perf_counter() - t0
    _report(3, "rank 4 splitting with closed forms and cross commutation", elapsed, 1.0)


def test_criterion_04_hodge_extension():
    t0 = time.perf_counter()
    for r in (3, 7):
        s = EvenCliffordStructure.from_rep(build_even_rep(r))
        ks = extend_hodge(s)
        ident = linalg.eye(s.n)
        for a, ka in enumerate(ks):
            assert np.array_equal(ka.T, -ka)
            for b, kb in enumerate(ks):
                want = -2 * ident if a == b else linalg.zeros(s.n)
                assert np.array_equal(ka @ kb + kb @ ka, want)
    for r in (5, 6):
        with pytest.raises(UnsupportedRankError):
            extend_hodge(EvenCliffordStructure.from_rep(build_even_rep(r)))
    elapsed = time.perf_counter() - t0
    _report(4, "Hodge extension for r=3,7; rejection for r=5,6", elapsed, 1.0)


def test_criterion_05_universality():
    t0 = time.perf_counter()
    for r in (2, 3, 5, 6, 7, 8):
        rep = build_even_rep(r, 1, 1) if r % 4 == 0 else build_even_rep(r)
        ext = universal_extension(j_family(rep).mats, r, rep.dim)
        sig = AlgebraSignature(r)
        for mask in range(1 << r):
            if bin(mask).count("1") % 2:
                continue
            indices = tuple(i + 1 for i in range(r) if mask >> i & 1)
            elem = CliffordElement.blade(sig, indices)
            assert np.array_equal(ext(elem), evaluate(rep, elem)), indices
    scaled = dict(j_family(build_even_rep(3)).mats)
    scaled[(1, 2)] = 2 * scaled[(1, 2)]
    with pytest.raises(ExtensionRejected) as err:
        universal_extension(scaled, 3, 4)
    assert err.value.witness == (1, 2, 2)
    elapsed = time.perf_counter() - t0
    _report(5, "universal extension round trips and rejection witness", elapsed, 5.0)


def test_criterion_06_triality():
    t0 = time.perf_counter()
    cert = triality_map()
    # the map inverts the halves of the spin family: map (cols / 2) = I
    fam = cert.spin_family
    cols = np.stack([linalg.skew_to_coords(fam.mats[p]) for p in fam.pairs()], axis=1)
    assert np.array_equal(linalg.imatmul(cert.map_num, cols), 2 * cert.map_den * linalg.eye(28))
    assert cert.brackets_checked == 378
    assert cert.brackets_exact
    pulled = EvenCliffordStructure(8, 8, cert.pulled_back)
    rel = verify_relations(pulled)
    assert rel.passed and rel.failures == []
    ort = verify_orthogonality(pulled)
    assert ort.passed
    elapsed = time.perf_counter() - t0
    _report(6, "triality: 378 exact brackets, pulled-back family verified", elapsed, 5.0)


def test_criterion_07_model_curvature_n8():
    t0 = time.perf_counter()
    s8 = build_model("s8")
    rhat, den = s8.operator.rhat_matrix()
    assert np.array_equal(rhat, 4 * den * linalg.eye(28))
    assert s8.operator.scalar() == 224

    cp4 = build_model("cp4")
    assert cp4.operator.scalar() == 160
    ric = cp4.operator.ricci()
    assert all(ric[i][j] == (20 if i == j else 0) for i in range(8) for j in range(8))
    assert lambda2_spectrum(cp4.operator, cp4.spectrum_candidates) == [
        (Fraction(0), 12),
        (Fraction(4), 15),
        (Fraction(20), 1),
    ]

    hp2 = build_model("hp2")
    assert hp2.operator.scalar() == 128
    ric = hp2.operator.ricci()
    assert all(ric[i][j] == (16 if i == j else 0) for i in range(8) for j in range(8))
    # scale 4 on the 10-dimensional family span, 0 on the 15-dimensional
    # complement of the two commuting subalgebras
    for p in hp2.structure.pairs():
        jmat = hp2.structure.family.mats[p]
        applied, den = hp2.operator.rhat_apply(jmat)
        assert np.array_equal(applied, 4 * den * jmat)
    spec = lambda2_spectrum(hp2.operator, hp2.spectrum_candidates)
    assert (Fraction(0), 15) in spec and (Fraction(4), 10) in spec
    # the remaining eigenvalue is asserted only through the trace identity
    assert hp2.operator.rhat_trace() == 64
    elapsed = time.perf_counter() - t0
    _report(7, "model curvature on dimension 8 (sphere, complex, quaternionic)", elapsed, 30.0)


def test_criterion_08_op2_isotropy_model():
    t0 = time.perf_counter()
    model = build_model("op2")
    assert model.operator.symmetry_violations() == []
    ric = model.operator.ricci()
    assert all(ric[i][j] == (36 if i == j else 0) for i in range(16) for j in range(16))
    assert model.operator.scalar() == 576 == 2**6 * 3**2
    report = verify_cc_normalization(model.operator, model.structure)
    assert report.passed, [f.to_dict() for f in report.failures]
    elapsed = time.perf_counter() - t0
    _report(8, "16-dimensional isotropy model: Einstein 36, scal 576, Bianchi", elapsed, 120.0)


def test_criterion_09_curvature_identities_all_models():
    t0 = time.perf_counter()
    for name in ("s8", "cp4", "hp2", "op2"):
        model = build_model(name)
        report = verify_parallel_identities(model.operator, model.structure, 2)
        assert report.passed and report.failures == [], (name, report.failures[:2])
        cc = verify_cc_normalization(model.operator, model.structure)
        assert cc.passed and cc.failures == [], (name, cc.failures[:2])
    elapsed = time.perf_counter() - t0
    _report(9, "curvature identity suites, scale 2, zero residual on all models", elapsed, 60.0)


def test_criterion_10_centralizers():
    t0 = time.perf_counter()
    dims = {}
    for r, expected in ((5, 3), (6, 1), (7, 0)):
        fam = j_family(build_even_rep(r))
        gens = [fam.j(1, j) for j in range(2, r + 1)]
        dim, _ = centralizer_dim(linalg.OperatorStack.of(gens, fam.n))
        dims[r] = dim
        assert dim == expected
    elapsed = time.perf_counter() - t0
    _report(10, f"centralizer dimensions {tuple(dims.values())}", elapsed, 1.0)


def test_criterion_11_classification_tables():
    t0 = time.perf_counter()
    assert tables_json().encode() == (FIXTURES / "tables.json").read_bytes()
    printed = {r["rank"]: r["scal_value"] for r in table3_rows() if r["scal_value"]}
    assert printed == {9: 576, 10: 1536, 12: 4608, 16: 15360}
    for row in table3_rows():
        if row["scal_value"]:
            assert scal_formula(int(row["dim_base"]), row["rank"]) == row["scal_value"]
    scan = exclusion_scan()
    assert scan["case1_all_fail"]
    assert scan["case2"]["witness"]["dim"] == 5
    assert scan["case5"]["witness"]["dim"] == 12
    assert scan["case6"]["witness"]["dim"] == 20
    assert scan["case9_su4"]["witness"]["dim"] == 15
    assert scan["case9_so_all_fail"]
    for q in (1, 2, 8, 32):
        assert check_conditions(7, {"p": 2, "q": q}).admissible
        assert check_conditions(3, {"p": 4, "q": q}).admissible
        assert check_conditions(4, {"p": 8, "q": q}).admissible
    for row in table2_rows():
        if row["rank"] >= 5 and row["dim"].isdigit():
            assert int(row["dim"]) % n0(row["rank"]) == 0
    assert case1_n8(5)["centralizer_dim"] == 3
    elapsed = time.perf_counter() - t0
    _report(11, "tables byte-match fixtures; exclusions match witnesses", elapsed, 1.0)


def test_criterion_12_determinism_and_total_runtime(tmp_path):
    t0 = time.perf_counter()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["verify-all", "--seed", "0", "--out", str(a)]) == 0
    assert cli_main(["verify-all", "--seed", "0", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["passed"] and report["schema"] == 2
    elapsed = time.perf_counter() - t0
    _report(12, "verify-all twice, byte-identical reports", elapsed, 300.0)
