import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifflab import curvature, linalg
from clifflab.curvature import (
    MODEL_NAMES,
    CalibrationError,
    CurvatureError,
    CurvatureOperator,
    build_model,
    cc_ricci,
    cc_scal,
    centralizer_dim,
    isotropy_projection_op,
    lambda2_spectrum,
    verify_cc_normalization,
    verify_parallel_identities,
)
from clifflab.reps import JFamily, build_even_rep, irreducible_even_rep, j_family, quaternion_units
from clifflab.structure import EvenCliffordStructure, Failure, verify_orthogonality, volume_endomorphism


def scatter(rhat, n):
    """Oracle: the (4,0) tensor of a pair matrix, R(a,b,c,d) = -R^[ab,cd]
    for a < b, c < d, extended by both antisymmetries (the scatter the
    library used when it stored the tensor)."""
    num = np.zeros((n, n, n, n), dtype=rhat.dtype)
    a, b = np.triu_indices(n, 1)
    ap, bp, aq, bq = a[:, None], b[:, None], a[None, :], b[None, :]
    num[ap, bp, aq, bq] = -rhat
    num[bp, ap, aq, bq] = rhat
    num[ap, bp, bq, aq] = rhat
    num[bp, ap, bq, aq] = -rhat
    return num


def gather(t):
    """Oracle: the pair matrix -t[a,b,c,d], a < b, c < d, of a tensor."""
    a, b = np.triu_indices(t.shape[0], 1)
    return -t[a[:, None], b[:, None], a[None, :], b[None, :]]


def tensor_violations(r, den):
    """Oracle: the four dense symmetry scans of a (4,0) tensor, as the
    library ran them when it stored the tensor."""
    out = []
    if (r + r.transpose(1, 0, 2, 3)).any():
        out.append("not antisymmetric in the first two slots")
    if (r + r.transpose(0, 1, 3, 2)).any():
        out.append("not antisymmetric in the last two slots")
    if (r - r.transpose(2, 3, 0, 1)).any():
        out.append("pair symmetry fails")
    bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)
    if bianchi.any():
        out.append(f"first Bianchi identity fails, max residual {Fraction(int(np.abs(bianchi).max()), den)}")
    return out


def independent_ricci(op):
    """Oracle: direct contraction of the 4-tensor without the fast path."""
    n = op.n
    out = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[x][y] = sum(op.entry(x, a, a, y) for a in range(n))
    return out


def textbook_op(n, c, structures=()):
    """Oracle: the closed-form tensor c T with T(X,Y,Z,W) =
    g(Y,Z) g(X,W) - g(X,Z) g(Y,W), plus for each complex structure J the
    terms g(JY,Z) g(JX,W) - g(JX,Z) g(JY,W) - 2 g(JX,Y) g(JZ,W).

    No structure: constant curvature c.  One Kahler form: Fubini-Study with
    holomorphic sectional curvature 4c.  A quaternion triple: quaternionic
    projective space with maximal sectional curvature 4c.
    """
    ident = linalg.eye(n)
    t = np.einsum("bc,ad->abcd", ident, ident) - np.einsum("ac,bd->abcd", ident, ident)
    for j in structures:
        t = t + (
            np.einsum("cb,da->abcd", j, j)
            - np.einsum("ca,db->abcd", j, j)
            - 2 * np.einsum("ba,dc->abcd", j, j)
        )
    assert tensor_violations(t, 1) == []
    c = Fraction(c)
    return CurvatureOperator(n, c.numerator * gather(t), c.denominator)


def same_rhat(op, ref):
    """Whether two operators have the same pair matrix R^, in lowest terms."""
    (num, den), (want, want_den) = op.rhat_matrix(), ref.rhat_matrix()
    return np.array_equal(num, want) and den == want_den


EPS = linalg.intmat([[0, -1], [1, 0]])


def standard_kahler(m):
    return np.kron(linalg.eye(m), EPS)


def so_basis(n):
    return [linalg.coords_to_skew(e, n) for e in linalg.eye(n * (n - 1) // 2)]


def constant_curvature(n, c):
    """Constant curvature c: the isotropy projection at c on all of so(n)."""
    return isotropy_projection_op([so_basis(n)], [c])


def rank_spectrum(op, candidates):
    """Oracle: the multiplicity of c is the kernel dimension m - rank(R^ - c)."""
    rhat, den = op.rhat_matrix()
    m = rhat.shape[0]
    out = []
    for c in sorted({Fraction(c) for c in candidates}):
        mult = m - linalg.rank(c.denominator * rhat - c.numerator * den * linalg.eye(m))
        if mult:
            out.append((c, mult))
    return out


def elimination_projection(basis):
    """Oracle: B (B^T B)^-1 B^T for the coordinate columns B, by elimination."""
    b = np.stack([linalg.skew_to_coords(g) for g in basis], axis=1)
    inv_num, inv_den = linalg.inverse(linalg.imatmul(b.T, b))
    return linalg.normalize(linalg.imatmul(linalg.imatmul(b, inv_num), b.T), inv_den)


def model_ideals(name):
    """The family span and the commutant that build_model projects onto."""
    s = build_model(name).structure
    return [s.family.mats[p] for p in s.pairs()], centralizer_dim(s.rep.stack)[1]


def family_inputs(name):
    """The structure, the ideals after the family's and the scales that
    build_model projects with, or those of the E6 plane for "e6"."""
    if name == "e6":
        rep = irreducible_even_rep(10)
        s = EvenCliffordStructure.from_rep(rep)
        return s, [centralizer_dim(rep.stack)[1]], [16, 48]
    m = build_model(name)
    s = m.structure
    commutant = centralizer_dim(s.rep.stack)[1]
    if not commutant:
        return s, [], [m.scale]
    return s, [commutant], [m.scale, (m.expected_scal / 2 - m.scale * len(s.pairs())) / len(commutant)]


def record_brackets(monkeypatch):
    """Every call of OperatorStack.bracket_coords, as (batch length, number
    of columns), in a list that fills as they come."""
    calls = []
    gather = linalg.OperatorStack.bracket_coords

    def record(self, v):
        calls.append((len(self), np.shape(v)[1]))
        return gather(self, v)

    monkeypatch.setattr(linalg.OperatorStack, "bracket_coords", record)
    return calls


class TestConstantCurvature:
    def test_rhat_is_scalar(self):
        op = constant_curvature(8, 4)
        rhat, den = op.rhat_matrix()
        assert np.array_equal(rhat, 4 * den * linalg.eye(28))
        assert op.scalar() == 224

    def test_zero_operator(self):
        op = constant_curvature(5, 0)
        assert not op.num.any()
        assert op.scalar() == 0
        assert all(x == 0 for row in op.ricci() for x in row)

    def test_unit_sphere_ricci(self):
        op = constant_curvature(4, 1)
        ric = op.ricci()
        assert all(ric[i][j] == (3 if i == j else 0) for i in range(4) for j in range(4))

    def test_ricci_matches_oracle(self):
        op = constant_curvature(6, Fraction(3, 2))
        ric = op.ricci()
        oracle = independent_ricci(op)
        assert all(ric[i][j] == oracle[i][j] for i in range(6) for j in range(6))

    def test_symmetries_hold(self):
        assert constant_curvature(5, 7).symmetry_violations() == []

    def test_trace_identity(self):
        op = constant_curvature(7, Fraction(2, 3))
        assert op.rhat_trace() == op.scalar() / 2


class TestFubiniStudy:
    def test_cp1_degenerates_to_sphere(self):
        op = textbook_op(2, Fraction(5, 4), [standard_kahler(1)])
        rhat, den = op.rhat_matrix()
        assert rhat.shape == (1, 1)
        assert Fraction(int(rhat[0, 0]), den) == 5

    def test_scalar_linear_in_scale(self):
        op1 = textbook_op(8, Fraction(1, 4), [standard_kahler(4)])
        assert op1.scalar() == 20
        op8 = textbook_op(8, 2, [standard_kahler(4)])
        assert op8.scalar() == 160

    def test_kahler_form_is_top_eigenvector(self):
        op = build_model("cp4").operator
        (j,) = model_ideals("cp4")[1]
        applied, den = op.rhat_apply(j)
        assert np.array_equal(applied, 20 * den * j)

    def test_bianchi_holds(self):
        op = textbook_op(6, Fraction(5, 8), [standard_kahler(3)])
        assert op.symmetry_violations() == []

    def test_cp4_model_is_the_textbook_tensor(self):
        # holomorphic sectional curvature 8 for the Kahler form of the family
        m = build_model("cp4")
        kahler, _ = volume_endomorphism(m.structure)
        ref = textbook_op(8, 2, [kahler])
        assert same_rhat(m.operator, ref)


class TestQuaternionic:
    def test_hp1_is_constant_curvature(self):
        op = textbook_op(4, 1, quaternion_units(1))
        ref = constant_curvature(4, 4)
        assert same_rhat(op, ref)

    def test_hp2_einstein(self):
        op = build_model("hp2").operator
        ric = op.ricci()
        assert all(ric[i][j] == (16 if i == j else 0) for i in range(8) for j in range(8))
        assert op.scalar() == 128

    def test_block_eigenvalues(self):
        op = build_model("hp2").operator
        for t in quaternion_units(2):
            applied, den = op.rhat_apply(t)
            assert np.array_equal(applied, 8 * den * t)

    def test_sp2_span_gets_scale(self):
        op = build_model("hp2").operator
        fam = j_family(build_even_rep(5))
        for p in fam.pairs():
            applied, den = op.rhat_apply(fam.mats[p])
            assert np.array_equal(applied, 4 * den * fam.mats[p])

    def test_hp2_model_is_the_textbook_tensor(self):
        op = build_model("hp2").operator
        ref = textbook_op(8, 1, quaternion_units(2))
        assert same_rhat(op, ref)


class TestIsotropyProjection:
    def test_full_rotation_algebra_is_constant_curvature(self):
        n = 4
        op = isotropy_projection_op([so_basis(n)], [3])
        ref = textbook_op(n, 3)
        assert same_rhat(op, ref)

    def test_sp2_alone_fails_bianchi(self):
        fam = j_family(build_even_rep(5))
        ideal = [fam.mats[p] for p in fam.pairs()]
        with pytest.raises(CalibrationError):
            isotropy_projection_op([ideal], [4])

    def test_not_closed_under_brackets(self):
        # [J_12, J_13] = 2 J_23 falls outside the span of the two generators
        fam = j_family(build_even_rep(5))
        with pytest.raises(CurvatureError):
            isotropy_projection_op([[fam.mats[(1, 2)], fam.mats[(1, 3)]]], [1])

    def test_hp2_as_two_ideal_projection(self):
        # sp(2) at 4 and sp(1) at 8 rebuild the quaternionic model exactly
        fam = j_family(build_even_rep(5))
        sp2 = [fam.mats[p] for p in fam.pairs()]
        sp1 = list(quaternion_units(2))
        op = isotropy_projection_op([sp2, sp1], [4, 8])
        ref = textbook_op(8, 1, quaternion_units(2))
        assert same_rhat(op, ref)

    def test_unequal_norms_give_the_elimination_projection(self):
        # two copies of the Cl0_5 module: the commutant basis has squared
        # norms 4 and 8, and span{J_ij} + commutant at equal scales is the
        # quaternionic Grassmannian Sp(4)/Sp(2)Sp(2)
        rep = build_even_rep(5, 2)
        fam = j_family(rep)
        family = [fam.mats[p] for p in fam.pairs()]
        _, commutant = centralizer_dim(rep.stack)
        norms = linalg.orthogonal_gram(np.stack([linalg.skew_to_coords(g) for g in commutant], axis=1))
        assert set(norms) == {4, 8}
        op = isotropy_projection_op([family, commutant], [1, 1])
        (pj, dj), (pc, dc) = elimination_projection(family), elimination_projection(commutant)
        want = linalg.rational_combination([(Fraction(1, dj), pj), (Fraction(1, dc), pc)], len(pj))
        rhat, den = op.rhat_matrix()
        assert np.array_equal(rhat, want[0]) and den == want[1]

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(1, 2), (1, 2)], "columns 0 and 1 are not orthogonal"),
            ([(1, 2), "sum"], "columns 0 and 1 are not orthogonal"),
            ([(1, 2), "zero"], "column 1 is zero"),
        ],
        ids=["repeated", "J_12 and J_12 + J_13", "zero matrix"],
    )
    def test_non_orthogonal_basis_raises(self, pairs, message):
        fam = j_family(build_even_rep(5))
        extra = {"sum": fam.mats[(1, 2)] + fam.mats[(1, 3)], "zero": linalg.zeros(8)}
        ideal = [extra[p] if isinstance(p, str) else fam.mats[p] for p in pairs]
        with pytest.raises(CurvatureError, match=message):
            isotropy_projection_op([ideal], [1])

    def test_an_ideal_given_as_an_array_is_judged_by_its_length(self):
        fam = j_family(build_even_rep(5))
        sp2 = [fam.mats[p] for p in fam.pairs()]
        sp1 = list(quaternion_units(2))
        want = isotropy_projection_op([sp2, sp1], [4, 8])
        got = isotropy_projection_op([np.stack(sp2), np.stack(sp1)], [4, 8])
        assert same_rhat(got, want)

    @pytest.mark.parametrize(
        "ideals",
        [
            lambda sp2: [sp2, []],
            lambda sp2: [sp2, np.zeros((0, 8, 8), dtype=np.int64)],
            lambda sp2: [np.zeros((0, 8, 8), dtype=np.int64), sp2],
            lambda sp2: [JFamily(8, 1, {}), sp2],
        ],
        ids=["empty list second", "empty array second", "empty array first", "rank-1 family first"],
    )
    def test_an_empty_ideal_is_refused(self, ideals):
        fam = j_family(build_even_rep(5))
        with pytest.raises(CurvatureError, match="nonempty basis"):
            isotropy_projection_op(ideals([fam.mats[p] for p in fam.pairs()]), [4, 8])

    @pytest.mark.parametrize("name", [*MODEL_NAMES, "e6"])
    def test_a_family_ideal_gives_the_factors_of_its_matrices(self, name):
        s, rest, scales = family_inputs(name)
        got = isotropy_projection_op([s.family, *rest], scales)
        want = isotropy_projection_op([[s.family.mats[p] for p in s.pairs()], *rest], scales)
        assert np.array_equal(got.basis, want.basis) and got.basis.dtype == want.basis.dtype
        assert np.array_equal(got.num, want.num) and got.num.dtype == want.num.dtype
        assert got.den == want.den and got.norms == want.norms

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_a_certified_family_brackets_only_its_generators(self, name, monkeypatch):
        # span{J_ij} is closed by the certificate, and the commutant C is
        # bracketed with J_12 .. J_1r alone, in one order; C's own closure
        # is the one other gather
        s, rest, scales = family_inputs(name)
        calls = record_brackets(monkeypatch)
        isotropy_projection_op([s.family, *rest], scales)
        k = sum(map(len, rest))
        assert calls == ([(s.r - 1, k), (k, k)] if rest else [])

    def test_a_family_that_fails_the_certificate_is_checked_for_closure(self):
        # J_12 and J_13 of the rank-5 family, with J_45 in the (2, 3) slot:
        # skew and trace-orthogonal, but [J_12, J_13] = 2 J_23 is outside
        f5 = j_family(build_even_rep(5))
        fam = JFamily(8, 3, {(1, 2): f5.mats[(1, 2)], (1, 3): f5.mats[(1, 3)], (2, 3): f5.mats[(4, 5)]})
        assert not curvature._generators_certified(fam)
        with pytest.raises(CurvatureError, match="not closed under brackets"):
            isotropy_projection_op([fam], [1])

    def test_a_family_that_is_not_skew_is_refused(self):
        mats = dict(j_family(build_even_rep(5)).mats)
        mats[(2, 3)] = np.abs(mats[(2, 3)])
        with pytest.raises(CurvatureError, match="must be skew"):
            isotropy_projection_op([JFamily(8, 5, mats)], [1])

    @pytest.mark.parametrize("family_first", [True, False], ids=["family first", "family second"])
    def test_a_certified_family_must_commute_with_the_other_ideals(self, family_first):
        # a 2-form trace-orthogonal to span{J_ij} that does not commute with
        # some J_1j: only the generators' brackets are gathered, and they
        # see it
        s = build_model("hp2").structure
        kernel = linalg.nullspace(linalg.skew_to_coords(s.family.stack.matrix()))
        x = next(
            linalg.coords_to_skew(v, 8)
            for v in kernel
            if any(linalg.commutator(linalg.coords_to_skew(v, 8), s.j(1, j)).any() for j in range(2, 6))
        )
        ideals = [s.family, [x]] if family_first else [[x], s.family]
        with pytest.raises(CurvatureError, match="ideals do not commute"):
            isotropy_projection_op(ideals, [4, 1])

    def test_s8_model_is_constant_curvature_4(self):
        op = build_model("s8").operator
        ref = textbook_op(8, 4)
        assert same_rhat(op, ref)


class TestSpectrum:
    def test_cp4_spectrum(self):
        m = build_model("cp4")
        spec = lambda2_spectrum(m.operator, m.spectrum_candidates)
        assert spec == [(Fraction(0), 12), (Fraction(4), 15), (Fraction(20), 1)]

    def test_hp2_spectrum(self):
        m = build_model("hp2")
        spec = lambda2_spectrum(m.operator, m.spectrum_candidates)
        assert spec == [(Fraction(0), 15), (Fraction(4), 10), (Fraction(8), 3)]

    def test_incomplete_candidates_rejected(self):
        m = build_model("cp4")
        with pytest.raises(CurvatureError, match="spectrum incomplete$"):
            lambda2_spectrum(m.operator, [0, 4])

    def test_zero_off_the_basis_must_be_a_candidate(self):
        # cp4 stores R^ on h = 16 of the m = 28 pair directions: the h x h
        # product vanishes over 4 and 20, and the 12 zeros are not candidates
        m = build_model("cp4")
        with pytest.raises(CurvatureError, match="spectrum incomplete$"):
            lambda2_spectrum(m.operator, [4, 20])

    @pytest.mark.parametrize("name", ["s8", "cp4", "hp2", "op2"])
    def test_a_built_model_is_decided_on_h(self, name, monkeypatch):
        m = build_model(name)
        want = rank_spectrum(m.operator, m.spectrum_candidates)

        def refuse(self):
            raise AssertionError("the m x m view was formed")

        monkeypatch.setattr(CurvatureOperator, "rhat_matrix", refuse)
        assert lambda2_spectrum(m.operator, m.spectrum_candidates) == want

    @pytest.mark.parametrize(
        "case",
        [
            "s8",
            "cp4",
            "hp2",
            "op2",
            "constant curvature",
            "Fubini-Study",
            "quaternionic",
        ],
    )
    def test_multiplicities_are_kernel_dimensions(self, case):
        if case in MODEL_NAMES:
            m = build_model(case)
            op, candidates = m.operator, m.spectrum_candidates
        else:
            op, candidates = {
                "constant curvature": (constant_curvature(5, Fraction(3, 2)), [Fraction(3, 2)]),
                "Fubini-Study": (textbook_op(6, Fraction(5, 8), [standard_kahler(3)]), [0, Fraction(5, 4), 5]),
                "quaternionic": (textbook_op(8, Fraction(1, 2), quaternion_units(2)), [0, 2, 4]),
            }[case]
        # padded with values that are not eigenvalues, which must be dropped
        padded = [*candidates, -1, Fraction(1, 3), 7]
        want = rank_spectrum(op, padded)
        assert lambda2_spectrum(op, padded) == want
        assert sum(mult for _, mult in want) == op.n * (op.n - 1) // 2

    @pytest.mark.parametrize("candidates", [[0], [0, 1], [-1, 0, 2]])
    def test_jordan_block_is_refused(self, candidates):
        # R^ sends the (0, 2) pair to the (0, 1) pair and is nilpotent: its
        # only eigenvalue 0 is a candidate, but R^ is not diagonalisable
        num = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        with pytest.raises(CurvatureError, match="^pair symmetry fails$"):
            CurvatureOperator(3, num)
        op = CurvatureOperator(3, num, check=False)
        with pytest.raises(CurvatureError, match="spectrum incomplete$"):
            lambda2_spectrum(op, candidates)


class TestParallelIdentities:
    def test_s8_passes_at_kappa_2(self):
        m = build_model("s8")
        report = verify_parallel_identities(m.operator, m.structure, 2)
        assert report.passed, [f.to_dict() for f in report.failures]

    def test_cp4_passes(self):
        m = build_model("cp4")
        report = verify_parallel_identities(m.operator, m.structure, 2)
        assert report.passed

    def test_s8_fails_at_kappa_1_with_half_residual(self):
        m = build_model("s8")
        report = verify_parallel_identities(m.operator, m.structure, 1)
        assert not report.passed
        eig = [f for f in report.failures if f.identity == "two_form_eigenvalue"]
        assert eig
        # residual of the eigenvalue identity is (n kappa / 4) J = half the
        # checked value: entries of R^(J) are 4, the kappa=1 target is 2
        assert eig[0].residual == "2"

    def test_kappa_linearity(self):
        m = build_model("hp2")
        good = verify_parallel_identities(m.operator, m.structure, 2)
        bad = verify_parallel_identities(m.operator, m.structure, Fraction(1, 2))
        assert good.passed and not bad.passed


def reports_agree(op, s, kappa):
    """The suite's report, which equals the direct suite's, as a dict."""
    got = verify_parallel_identities(op, s, kappa).to_dict()
    assert got == curvature._direct_parallel_identities(op, s, kappa).to_dict()
    return got


def refuse_direct_suite(monkeypatch):
    def refuse(*args):
        raise AssertionError("the direct suite ran")

    monkeypatch.setattr(curvature, "_direct_parallel_identities", refuse)


@pytest.mark.parametrize("kappa", [2**58, 2**61], ids=["2^58", "2^61"])
def test_a_large_kappa_fails_with_its_exact_residual(kappa):
    # n kappa den reaches 2^63: R^ = 4 on s8 against the target 2 kappa,
    # Ric = 28 against 14 kappa, each residual exact
    m = build_model("s8")
    report = verify_parallel_identities(m.operator, m.structure, kappa)
    got = {(f.identity, f.indices): f.residual for f in report.failures}
    kinds = {f.identity for f in report.failures}
    assert kinds == {"two_form_eigenvalue", "curvature_action", "einstein", "ricci_system"}
    assert all(got[("two_form_eigenvalue", p)] == str(2 * kappa - 4) for p in m.structure.pairs())
    assert got[("einstein", ())] == str(14 * kappa - 28)


def test_a_tiny_kappa_on_the_flat_operator_fails_with_its_exact_residual():
    # 4 kappa.denominator = 2^63 against Ric = 0: R^ = 0 against the target
    # 2 kappa, Ric = 0 against 14 kappa
    s = build_model("s8").structure
    kappa = Fraction(1, 2**61)
    report = verify_parallel_identities(CurvatureOperator(8, linalg.zeros(28)), s, kappa)
    got = {(f.identity, f.indices): f.residual for f in report.failures}
    assert got[("two_form_eigenvalue", (1, 2))] == str(2 * kappa)
    assert got[("einstein", ())] == str(14 * kappa)


class TestCertifiedIdentities:
    @pytest.mark.parametrize("kappa", [2, 1, Fraction(3, 2)])
    @pytest.mark.parametrize("name", ["s8", "cp4", "hp2", "op2"])
    def test_models_agree_with_the_direct_suite(self, name, kappa):
        m = build_model(name)
        assert reports_agree(m.operator, m.structure, kappa)["passed"] == (kappa == 2)

    @pytest.mark.parametrize("name", ["s8", "cp4", "hp2", "op2"])
    def test_a_passing_model_never_runs_the_direct_suite(self, name, monkeypatch):
        m = build_model(name)
        refuse_direct_suite(monkeypatch)
        assert verify_parallel_identities(m.operator, m.structure, 2).passed
        assert verify_cc_normalization(m.operator, m.structure).passed

    @pytest.mark.parametrize(
        "name, op",
        [
            ("s8", lambda s: textbook_op(8, 4)),
            ("cp4", lambda s: textbook_op(8, 2, [volume_endomorphism(s)[0]])),
            ("hp2", lambda s: textbook_op(8, 1, quaternion_units(2))),
        ],
        ids=["constant curvature", "Fubini-Study", "quaternionic"],
    )
    def test_textbook_operators_are_decided_on_all_of_lambda2(self, name, op, monkeypatch):
        s = build_model(name).structure
        op = op(s)
        assert np.array_equal(op.basis, linalg.eye(28)) and op.norms == [1] * 28
        for kappa in (2, 1):
            assert reports_agree(op, s, kappa)["passed"] == (kappa == 2)
        refuse_direct_suite(monkeypatch)
        assert verify_parallel_identities(op, s, 2).passed

    @pytest.mark.parametrize("name", ["s8", "cp4", "hp2"])
    def test_a_basis_that_misses_a_form_is_not_certified(self, name, monkeypatch):
        # the model's factors without the column of J_12: R^ vanishes on
        # J_12, and F Q = F refuses it before Einstein (whose Ricci would
        # also differ) is reached; the direct suite decides (and fails)
        m = build_model(name)
        op, s = m.operator, m.structure
        f = linalg.skew_to_coords(s.j(1, 2))
        (t,) = np.flatnonzero(linalg.imatmul(f[None, :], op.basis)[0])
        keep = np.arange(op.basis.shape[1]) != t
        cut = CurvatureOperator(op.n, op.num[np.ix_(keep, keep)], op.den, check=False, basis=op.basis[:, keep])
        with monkeypatch.context() as patch:
            patch.setattr(CurvatureOperator, "ricci_num", lambda self: pytest.fail("Einstein was reached"))
            assert not curvature._certified_pass(cut, s, Fraction(2))
        report = reports_agree(cut, s, 2)
        assert ["two_form_eigenvalue", [1, 2]] in [[x["identity"], x["indices"]] for x in report["failures"]]

    def test_a_family_that_is_not_skew_takes_the_direct_suite(self):
        m = build_model("s8")
        mats = dict(m.structure.family.mats)
        flipped = mats[(1, 2)].copy()
        c = int(np.flatnonzero(flipped[:, 0])[0])
        flipped[c, 0] = -flipped[c, 0]
        mats[(1, 2)] = flipped
        s = EvenCliffordStructure.from_matrices(8, 8, mats)
        assert s.family.stack.form == "columns" and not linalg.is_skew(flipped)
        assert not curvature._certified_pass(m.operator, s, Fraction(2))
        assert not reports_agree(m.operator, s, 2)["passed"]

    @pytest.mark.parametrize("name, pair", [("s8", (1, 2)), ("s8", (7, 8)), ("op2", (8, 9))])
    def test_a_negated_form_fails_the_action_identity_alone(self, name, pair):
        # -J_ij is skew with square -1, and R^ (a multiple of the identity on
        # the span of the family) keeps the eigenvalue identity: only the
        # action identity sees the change.  On s8 the gather takes two pairs
        # per block, and the first, (1, 2) and (1, 3), involves no J_78
        m = build_model(name)
        mats = dict(m.structure.family.mats)
        mats[pair] = -mats[pair]
        s = EvenCliffordStructure.from_matrices(m.n, m.r, mats)
        report = reports_agree(m.operator, s, 2)
        assert {f["identity"] for f in report["failures"]} == {"curvature_action"}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_the_certified_pass_gathers_the_generators_only(name, monkeypatch):
    # the action identity at the r - 1 pairs (1, j) decides every (i, j)
    m = build_model(name)
    calls = record_brackets(monkeypatch)
    assert curvature._certified_pass(m.operator, m.structure, Fraction(2))
    assert sum(rows for rows, _ in calls) == m.r - 1


@pytest.mark.parametrize("kappa", [2, 1])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_without_the_certificate_the_direct_suite_decides(name, kappa, monkeypatch):
    m = build_model(name)
    want = verify_parallel_identities(m.operator, m.structure, kappa).to_dict()
    ran = []
    direct = curvature._direct_parallel_identities
    monkeypatch.setattr(curvature, "_generators_certified", lambda fam: False)
    monkeypatch.setattr(curvature, "_direct_parallel_identities", lambda *args: ran.append(args) or direct(*args))
    assert verify_parallel_identities(m.operator, m.structure, kappa).to_dict() == want
    assert len(ran) == 1


def e6_plane():
    """The E6 plane E6/Spin(10)U(1): the Cl0_10 module (n = 32) with its
    u(1) commutant, at the scales 16 = n/2 and 48."""
    s, (commutant,), scales = family_inputs("e6")
    assert len(commutant) == 1
    return s, isotropy_projection_op([[s.family.mats[p] for p in s.pairs()], commutant], scales)


def test_e6_plane(monkeypatch):
    s, op = e6_plane()
    assert op.basis.shape == (496, 46)
    assert reports_agree(op, s, 2)["passed"]
    assert op.scalar() == 1536  # Table 3
    assert lambda2_spectrum(op, [0, 16, 48]) == [(Fraction(0), 450), (Fraction(16), 45), (Fraction(48), 1)]
    refuse_direct_suite(monkeypatch)
    report = verify_cc_normalization(op, s)
    assert report.passed and report.data["scal"] == "1536"


def test_e7_plane(monkeypatch):
    # E7/Spin(12)Sp(1): the Cl0_12 module (n = 64) with its sp(1)
    # commutant, at the scales 32 = n/2 and 64; m = 2016, h = 69
    rep = irreducible_even_rep(12)
    s = EvenCliffordStructure.from_rep(rep)
    _, commutant = centralizer_dim(rep.stack)
    assert len(commutant) == 3
    op = isotropy_projection_op([[s.family.mats[p] for p in s.pairs()], commutant], [32, 64])
    assert op.basis.shape == (2016, 69)
    assert lambda2_spectrum(op, [0, 32, 64]) == [(Fraction(0), 1947), (Fraction(32), 66), (Fraction(64), 3)]
    refuse_direct_suite(monkeypatch)
    report = verify_cc_normalization(op, s)
    assert report.passed and report.data["scal"] == "4608"  # Table 3


def rhat_by_loop(t):
    """The pair-basis matrix of R^ of a tensor entry by entry, as it was
    first written."""
    idx = linalg.pair_basis(t.shape[0])
    out = np.empty((len(idx), len(idx)), dtype=np.int64)
    for p, (a, b) in enumerate(idx):
        for q, (c, d) in enumerate(idx):
            out[p, q] = -t[a, b, c, d]
    return out


@pytest.mark.parametrize("name", ["s8", "cp4", "hp2", "op2"])
def test_rhat_gather_matches_the_loop(name):
    # every view of the pair matrix against the tensor the oracle scatters:
    # R^ read back entry by entry, Ricci, the curvature matrices, entries
    op = build_model(name).operator
    rhat, den = op.rhat_matrix()
    n, t = op.n, scatter(rhat, op.n)
    want = rhat_by_loop(t)
    assert rhat.dtype == want.dtype and np.array_equal(rhat, want)
    assert np.array_equal(op.ricci_num(), np.einsum("xaay->xy", t))
    for a in range(n):
        for b in range(n):
            assert np.array_equal(op.curvature_matrix(a, b), t[a, b].T)
    for a, b, c, d in [(0, 1, 0, 1), (1, 0, 2, 3), (3, 2, 1, 0), (0, 0, 1, 2), (n - 1, 2, 5, n - 2)]:
        assert op.entry(a, b, c, d) == Fraction(int(t[a, b, c, d]), den)


class TestPairMatrixFormat:
    def test_a_tensor_is_refused(self):
        with pytest.raises(CurvatureError, match="does not match n=4"):
            CurvatureOperator(4, np.zeros((4, 4, 4, 4), dtype=np.int64))

    def test_entries_past_int64_stay_exact(self):
        # R^ = (2^63 / 3) I on n = 3 is constant curvature 2^63 / 3, and 3
        # does not divide 2^63, so nothing is reduced back into int64
        big = 2**63
        op = CurvatureOperator(3, np.eye(3, dtype=np.int64).astype(object) * big, 3)
        assert op.num.dtype == object and op.den == 3
        assert op.scalar() == Fraction(2 * 3 * big, 3)
        assert op.rhat_trace() == op.scalar() / 2

    @pytest.mark.parametrize(
        "basis, message",
        [
            ([[1, 1], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0]], "columns 0 and 1 are not orthogonal"),
            ([[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]], "column 1 is zero"),
            ([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]], "does not have m=6 rows"),
            ([[1, 0], [0, 0.5], [0, 0], [0, 0], [0, 0], [0, 0]], "is not an integer"),
        ],
        ids=["not orthogonal", "zero column", "five rows", "a float"],
    )
    def test_a_bad_basis_is_refused(self, basis, message):
        with pytest.raises(CurvatureError, match=message):
            CurvatureOperator(4, linalg.eye(2), basis=basis)

    def test_a_basis_holds_the_factors(self):
        # two orthogonal 2-forms of norms 8 and 1 (no curvature tensor, so
        # unchecked): R^ = B W B^T / den, and the view is in lowest terms
        basis = np.zeros((6, 2), dtype=np.int64)
        basis[[0, 5], 0] = 2  # 2 (X_0 ^ X_1 + X_2 ^ X_3)
        basis[1, 1] = 1  # X_0 ^ X_2
        op = CurvatureOperator(4, [[1, 0], [0, 2]], 4, check=False, basis=basis)
        assert op.norms == [8, 1] and op.den == 4
        rhat, den = op.rhat_matrix()
        want = np.zeros((6, 6), dtype=np.int64)
        want[np.ix_([0, 5], [0, 5])] = 2
        want[1, 1] = 1
        assert np.array_equal(rhat, want) and den == 2
        assert lambda2_spectrum(op, [0, 2, Fraction(1, 2)]) == [(Fraction(0), 4), (Fraction(1, 2), 1), (Fraction(2), 1)]

    @pytest.mark.parametrize("num", [np.eye(3) / 2, np.eye(3), np.eye(3, dtype=bool)], ids=["halves", "float ones", "bools"])
    def test_a_non_integer_matrix_is_refused(self, num):
        with pytest.raises(CurvatureError, match="is not an integer"):
            CurvatureOperator(3, num)


def kulkarni_nomizu(h, k):
    """Oracle: the pair matrix of the Kulkarni-Nomizu product of two
    symmetric bilinear forms, an algebraic curvature tensor."""
    t = (
        np.einsum("ad,bc->abcd", h, k)
        + np.einsum("bc,ad->abcd", h, k)
        - np.einsum("ac,bd->abcd", h, k)
        - np.einsum("bd,ac->abcd", h, k)
    )
    return gather(t)


def four_form(n, values):
    """The pair matrix w[ab,cd] of the 4-form with the given values on the
    quadruples a < b < c < d: an element of S^2(Lambda^2) whose Bianchi sum
    is 3 w."""
    w = np.zeros((n, n, n, n), dtype=np.int64)
    for value, quad in zip(values, itertools.combinations(range(n), 4)):
        for perm in itertools.permutations(range(4)):
            inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
            w[tuple(quad[i] for i in perm)] = (-1) ** inversions * value
    return -gather(w)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pair_matrix_checks_agree_with_the_tensor_scans(data):
    n = data.draw(st.integers(4, 7), label="n")
    m = n * (n - 1) // 2
    small = st.integers(-3, 3)

    def matrix(rows, cols):
        return np.array(data.draw(st.lists(small, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)

    if data.draw(st.booleans(), label="curvature tensor"):
        h, k = matrix(n, n), matrix(n, n)
        base = kulkarni_nomizu(h + h.T, k + k.T)
        assert CurvatureOperator(n, base).symmetry_violations() == []
    else:
        a = matrix(m, m)
        base = a + a.T
    num = base
    if data.draw(st.booleans(), label="plus a 4-form"):
        num = num + four_form(n, data.draw(st.lists(small, min_size=math.comb(n, 4), max_size=math.comb(n, 4))))
    op = CurvatureOperator(n, num, data.draw(st.integers(1, 6), label="den"), check=False)
    assert op.symmetry_violations() == tensor_violations(scatter(op.num, n), op.den)
    skew = matrix(m, m)
    if (skew != skew.T).any():
        broken = CurvatureOperator(n, num + skew, check=False)
        assert broken.symmetry_violations() == ["pair symmetry fails"]


class TestCcNormalization:
    @pytest.mark.parametrize("name", ["s8", "cp4", "hp2"])
    def test_models_pass(self, name):
        m = build_model(name)
        report = verify_cc_normalization(m.operator, m.structure)
        assert report.passed, [f.to_dict() for f in report.failures]
        assert report.data["scal"] == str(m.expected_scal)

    def test_op2_passes(self):
        m = build_model("op2")
        assert m.operator.scalar() == 576
        ric = m.operator.ricci()
        assert all(ric[i][j] == (36 if i == j else 0) for i in range(16) for j in range(16))
        report = verify_cc_normalization(m.operator, m.structure)
        assert report.passed, [f.to_dict() for f in report.failures]

    def test_wrongly_scaled_cp4_fails_scalar_check(self):
        m = build_model("cp4")
        op = isotropy_projection_op(model_ideals("cp4"), [2, 10])  # halved: scal 80
        report = verify_cc_normalization(op, m.structure)
        assert not report.passed
        kinds = {f.identity for f in report.failures}
        assert "scalar_curvature" in kinds

    def test_form_orthogonality_doubles_the_orthogonality_residual(self):
        # J_13 replaced by J_12: the one pair (1,2),(1,3) is not orthogonal
        mats = dict(j_family(build_even_rep(3)).mats)
        mats[(1, 3)] = mats[(1, 2)]
        s = EvenCliffordStructure.from_matrices(4, 3, mats)
        assert verify_orthogonality(s).failures == [
            Failure("shared_index_orthogonality", (1, 2, 1, 3), "-4")
        ]
        report = verify_cc_normalization(constant_curvature(4, 2), s)
        got = [f for f in report.failures if f.identity == "form_orthogonality"]
        assert got == [Failure("form_orthogonality", (1, 2, 1, 3), "-8")]


class TestRank4FormTransformation:
    def test_split_curvature_forms_at_operator_level(self):
        # with the normalised forms w_ij = 2 J_ij on the rank 4 structure
        # and w+-_ab = 4 J+-_ab on the split factors, the transformation is
        #   w+_12 = +(w_14 + w_23)   w+_31 = +(w_13 - w_24)   w+_23 = +(w_12 + w_34)
        #   w-_12 = -(w_14 - w_23)   w-_31 = -(w_13 + w_24)   w-_23 = -(w_12 - w_34)
        from clifflab.structure import EvenCliffordStructure, split_rank4

        s = EvenCliffordStructure.from_rep(build_even_rep(4, 1, 1))
        result = split_rank4(s)

        def w(i, j):
            return 2 * np.array(
                [[Fraction(int(x)) for x in row] for row in s.j(i, j)], dtype=object
            )

        for sign, fam in ((1, result.j_plus), (-1, result.j_minus)):
            w_split = {key: 4 * m for key, m in fam.items()}
            assert np.array_equal(w_split[(1, 2)], sign * (w(1, 4) + sign * w(2, 3)))
            assert np.array_equal(w_split[(3, 1)], sign * (w(1, 3) - sign * w(2, 4)))
            assert np.array_equal(w_split[(2, 3)], sign * (w(1, 2) + sign * w(3, 4)))


class TestCentralizers:
    @pytest.mark.parametrize("r,expected", [(5, 3), (6, 1), (7, 0)])
    def test_dimensions_in_so8(self, r, expected):
        fam = j_family(build_even_rep(r))
        gens = [fam.j(1, j) for j in range(2, r + 1)]
        dim, basis = centralizer_dim(linalg.OperatorStack.of(gens, fam.n))
        assert dim == expected
        for b in basis:
            assert linalg.is_skew(b)
            for g in gens:
                assert not linalg.commutator(b, g).any()

    def test_rank5_centralizer_is_quaternionic(self):
        fam = j_family(build_even_rep(5))
        gens = [fam.j(1, j) for j in range(2, 6)]
        _, basis = centralizer_dim(linalg.OperatorStack.of(gens, fam.n))
        # the centralizer contains the standard right quaternion units:
        # adjoining one to the basis leaves the rank unchanged
        span = np.stack([linalg.skew_to_coords(b) for b in basis])
        assert linalg.rank(span) == 3
        for unit in quaternion_units(2):
            assert linalg.rank(np.vstack([span, linalg.skew_to_coords(unit)])) == 3

    @pytest.mark.parametrize(
        "args, expected",
        [((5, 2), 10), ((6, 2), 4), ((3, 3), 21), ((10,), 1), ((12, 1, 0), 3)],
        ids=["sp(2)", "u(2)", "sp(3)", "u(1) at r=10", "sp(1) at r=12"],
    )
    def test_commutant_type_table(self, args, expected):
        # k copies of the irreducible module of type R, C, H: o(k), u(k), sp(k)
        rep = build_even_rep(*args)
        dim, basis = centralizer_dim(rep.stack)
        assert dim == expected
        for b in basis:
            assert linalg.is_skew(b)
            for g in rep.generators:
                assert not linalg.commutator(b, g).any()

    @pytest.mark.parametrize(
        "gens",
        [
            [],
            [2 * EPS],
            [EPS + linalg.eye(2)],
            [EPS.astype(object)],
        ],
        ids=["no generators", "doubled", "not a permutation", "object entries"],
    )
    def test_rejects_other_input(self, gens):
        # a stack holds matrices of one size, so two sizes cannot be given
        with pytest.raises(CurvatureError):
            centralizer_dim(linalg.OperatorStack.of(gens, 2))


def bareiss_commutant(gens):
    """Oracle: the kernel of the stacked commutator system [E_p, G] over the
    pair-coordinate space, by exact elimination."""
    n = gens[0].shape[0]
    m = n * (n - 1) // 2
    basis = np.stack([linalg.coords_to_skew(e, n) for e in linalg.eye(m)])
    stacked = np.concatenate([linalg.skew_to_coords(linalg.commutator(basis, g)).T for g in gens])
    return linalg.nullspace(stacked)


# (rank, multiplicities) of every even representation with n <= 8
SMALL_EVEN_REPS = [
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1, 0), (4, 0, 1), (4, 2, 0),
    (4, 1, 1), (4, 0, 2), (5, 1), (6, 1), (7, 1), (8, 1, 0), (8, 0, 1),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commutant_matches_the_elimination_oracle(data):
    rep = build_even_rep(*data.draw(st.sampled_from(SMALL_EVEN_REPS), label="rep"))
    n = rep.dim
    q = np.zeros((n, n), dtype=np.int64)
    q[data.draw(st.permutations(range(n))), range(n)] = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    )
    chosen = data.draw(st.sets(st.sampled_from(range(len(rep.generators))), min_size=1), label="generators")
    gens = [q @ rep.generators[i] @ q.T for i in sorted(chosen)]
    dim, basis = centralizer_dim(linalg.OperatorStack.of(gens, n))
    kernel = bareiss_commutant(gens)
    assert dim == len(kernel)
    if dim:
        coords = np.stack([linalg.skew_to_coords(b) for b in basis])
        assert linalg.rank(coords) == dim == linalg.rank(np.vstack([coords, kernel]))


class TestModelBookkeeping:
    @pytest.mark.parametrize("name", ["s8", "cp4", "hp2", "op2"])
    def test_einstein_consistency(self, name):
        m = build_model(name)
        assert m.expected_scal == m.n * m.expected_ricci
        assert m.expected_ricci == cc_ricci(m.n, m.r)
        assert m.expected_scal == cc_scal(m.n, m.r)
        assert m.operator.rhat_trace() == m.operator.scalar() / 2

    def test_unknown_model(self):
        with pytest.raises(CurvatureError):
            build_model("cp2")

    def test_cc_scal_is_the_closed_form(self):
        for n in range(1, 257):
            for r in range(2, 33):
                assert cc_scal(n, r) == 2 * n * (Fraction(n, 4) + 2 * r - 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.integers(2, 128), st.integers(1, 400))
def test_blocks_cover_the_batch_once_and_as_large_as_the_bound(count, n, h):
    m = n * (n - 1) // 2
    limit = max(1, max(m * n * n, 2**14) // (m * h))
    blocks = [range(count)[rows] for rows in curvature._blocks(count, n, h)]
    assert [t for rows in blocks for t in rows] == list(range(count))
    assert all(len(rows) <= limit for rows in blocks)
    # only the last block may be short
    assert all(len(rows) == limit for rows in blocks[:-1])


def test_the_n8_models_are_not_cut_into_blocks_of_two():
    # s8: 28 forms against 28 columns, where the (m, n, n) bound alone,
    # n^2 / h operators, gives blocks of 2
    assert [len(range(28)[rows]) for rows in curvature._blocks(28, 8, 28)] == [20, 8]
    # from n = 16 on the (m, n, n) bound is the larger one
    assert [len(range(36)[rows]) for rows in curvature._blocks(36, 16, 36)] == [7] * 5 + [1]
