from fractions import Fraction

import numpy as np
import pytest

from clifflab import linalg
from clifflab.curvature import (
    CalibrationError,
    CurvatureError,
    CurvatureOperator,
    build_model,
    cc_ricci,
    cc_scal,
    centralizer_dim,
    constant_curvature_op,
    fubini_study_op,
    isotropy_projection_op,
    lambda2_spectrum,
    quaternionic_op,
    verify_cc_normalization,
    verify_parallel_identities,
)
from clifflab.reps import build_even_rep, j_family, quaternion_units
from clifflab.structure import EvenCliffordStructure


def independent_ricci(op):
    """Oracle: direct contraction of the 4-tensor without the fast path."""
    n = op.n
    out = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[x][y] = sum(op.entry(x, a, a, y) for a in range(n))
    return out


class TestConstantCurvature:
    def test_rhat_is_scalar(self):
        op = constant_curvature_op(8, 4)
        rhat, den = op.rhat_matrix()
        assert np.array_equal(rhat, 4 * den * linalg.eye(28))
        assert op.scalar() == 224

    def test_zero_operator(self):
        op = constant_curvature_op(5, 0)
        assert not op.num.any()
        assert op.scalar() == 0
        assert all(x == 0 for row in op.ricci() for x in row)

    def test_unit_sphere_ricci(self):
        op = constant_curvature_op(4, 1)
        ric = op.ricci()
        assert all(ric[i][j] == (3 if i == j else 0) for i in range(4) for j in range(4))

    def test_ricci_matches_oracle(self):
        op = constant_curvature_op(6, Fraction(3, 2))
        ric = op.ricci()
        oracle = independent_ricci(op)
        assert all(ric[i][j] == oracle[i][j] for i in range(6) for j in range(6))

    def test_symmetries_hold(self):
        assert constant_curvature_op(5, 7).symmetry_violations() == []

    def test_trace_identity(self):
        op = constant_curvature_op(7, Fraction(2, 3))
        assert op.rhat_trace() == op.scalar() / 2


class TestFubiniStudy:
    def test_cp1_degenerates_to_sphere(self):
        op, _ = fubini_study_op(1, 5)
        rhat, den = op.rhat_matrix()
        assert rhat.shape == (1, 1)
        assert Fraction(int(rhat[0, 0]), den) == 5

    def test_scalar_linear_in_scale(self):
        op1, _ = fubini_study_op(4, 1)
        assert op1.scalar() == 20
        op8, _ = fubini_study_op(4, 8)
        assert op8.scalar() == 160

    def test_kahler_form_is_top_eigenvector(self):
        op, j = fubini_study_op(4, 8)
        applied, den = op.rhat_apply(j)
        assert np.array_equal(applied, 20 * den * j)

    def test_bianchi_holds(self):
        op, _ = fubini_study_op(3, Fraction(5, 2))
        assert op.symmetry_violations() == []

    def test_rejects_non_complex_structure(self):
        with pytest.raises(CurvatureError):
            fubini_study_op(2, 1, kahler=linalg.eye(4))


class TestQuaternionic:
    def test_hp1_is_constant_curvature(self):
        op, _ = quaternionic_op(1, 4)
        ref = constant_curvature_op(4, 4)
        assert np.array_equal(op.num, ref.num) and op.den == ref.den

    def test_hp2_einstein(self):
        op, _ = quaternionic_op(2, 4)
        ric = op.ricci()
        assert all(ric[i][j] == (16 if i == j else 0) for i in range(8) for j in range(8))
        assert op.scalar() == 128

    def test_block_eigenvalues(self):
        op, triple = quaternionic_op(2, 4)
        for t in triple:
            applied, den = op.rhat_apply(t)
            assert np.array_equal(applied, 8 * den * t)

    def test_sp2_span_gets_scale(self):
        op, _ = quaternionic_op(2, 4)
        fam = j_family(build_even_rep(5))
        for p in fam.pairs():
            applied, den = op.rhat_apply(fam.mats[p])
            assert np.array_equal(applied, 4 * den * fam.mats[p])


class TestIsotropyProjection:
    def test_full_rotation_algebra_is_constant_curvature(self):
        n = 4
        basis = [linalg.coords_to_skew(e, n) for e in np.eye(6, dtype=np.int64)]
        op = isotropy_projection_op([basis], [3])
        ref = constant_curvature_op(n, 3)
        assert np.array_equal(op.num, ref.num) and op.den == ref.den

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
        ref, _ = quaternionic_op(2, 4)
        assert np.array_equal(op.num, ref.num) and op.den == ref.den


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
        with pytest.raises(CurvatureError):
            lambda2_spectrum(m.operator, [0, 4])


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
        op, _ = fubini_study_op(4, 4)  # scal 80, half the normalised value
        report = verify_cc_normalization(op, m.structure)
        assert not report.passed
        kinds = {f.identity for f in report.failures}
        assert "scalar_curvature" in kinds


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
        dim, basis = centralizer_dim(gens)
        assert dim == expected
        for b in basis:
            assert linalg.is_skew(b)
            for g in gens:
                assert not linalg.commutator(b, g).any()

    def test_rank5_centralizer_is_quaternionic(self):
        fam = j_family(build_even_rep(5))
        gens = [fam.j(1, j) for j in range(2, 6)]
        _, basis = centralizer_dim(gens)
        # the centralizer contains the standard right quaternion units:
        # adjoining one to the basis leaves the rank unchanged
        span = np.stack([linalg.skew_to_coords(b) for b in basis])
        assert linalg.rank(span) == 3
        for unit in quaternion_units(2):
            assert linalg.rank(np.vstack([span, linalg.skew_to_coords(unit)])) == 3


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
