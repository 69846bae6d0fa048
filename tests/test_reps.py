import itertools
import json
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifflab import cli, linalg, reps
from clifflab.blades import AlgebraSignature, CliffordElement, volume_element
from clifflab.reps import (
    MatrixRep,
    ParityError,
    RepresentationError,
    UnsupportedRankError,
    build_clifford_rep,
    build_even_rep,
    evaluate,
    j_family,
    n0,
    n_irr,
    triality_map,
)


def span_dimension(fam):
    """Dimension of the span of the J_ij: the rank of their stacked coordinates."""
    return linalg.rank(np.stack([linalg.skew_to_coords(fam.mats[p]) for p in fam.pairs()]))


def rand_even_element(rng, sig, n_terms=3):
    out = CliffordElement.zero(sig)
    for _ in range(n_terms):
        k = 2 * rng.randint(0, sig.rank // 2)
        indices = sorted(rng.sample(range(1, sig.rank + 1), k))
        out = out + CliffordElement.blade(sig, indices, Fraction(rng.randint(-4, 4)))
    return out


class TestDimensionTables:
    def test_base_values(self):
        assert [n_irr(r) for r in range(1, 9)] == [2, 4, 4, 8, 8, 8, 8, 16]

    def test_periodicity(self):
        for r in range(1, 9):
            assert n_irr(r + 8) == 16 * n_irr(r)

    def test_even_dimensions_quoted_cases(self):
        assert n0(5) == 8
        assert n0(6) == 8
        assert [n_irr(r) for r in (9, 10, 12, 16)] == [32, 64, 128, 256]
        assert [n0(r) for r in (9, 10, 12, 16)] == [16, 32, 64, 128]

    def test_n0_is_shifted_n_irr(self):
        for r in range(2, 25):
            assert n0(r) == n_irr(r - 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            n_irr(0)
        with pytest.raises(ValueError):
            n0(1)


class TestFullRepresentations:
    def test_rank1_base_case(self):
        rep = build_clifford_rep(1, 1)
        assert rep.dim == 2
        assert np.array_equal(rep.generators[0], np.array([[0, -1], [1, 0]]))

    def test_rank2_anticommuting_signed_permutations(self):
        rep = build_clifford_rep(2, 1)
        g1, g2 = rep.generators
        assert rep.dim == 4
        assert np.array_equal(g1 @ g2, -(g2 @ g1))
        for g in (g1, g2):
            assert linalg.signed_perm_columns(g) is not None
            assert np.array_equal(g @ g, -linalg.eye(4))

    def test_rank8_volume_is_involution(self):
        rep = build_clifford_rep(8, 1)
        assert rep.dim == 16
        vol = evaluate(rep, volume_element(AlgebraSignature(8)))
        assert np.array_equal(vol @ vol, linalg.eye(16))
        # eigenvalues +-1 with equal multiplicity: trace zero
        assert int(np.trace(vol)) == 0

    @pytest.mark.parametrize("r", range(1, 17))
    def test_invariants_all_ranks(self, r):
        rep = build_clifford_rep(r)
        assert rep.dim == n_irr(r)
        assert rep.validate() == []

    def test_copies(self):
        rep = build_clifford_rep(3, 2)
        assert rep.dim == 2 * n_irr(3)
        assert rep.validate() == []

    def test_rank_cap(self):
        with pytest.raises(UnsupportedRankError):
            build_clifford_rep(17)

    def test_rank_cap_override(self, monkeypatch):
        monkeypatch.setenv("CLIFFLAB_MAX_RANK", "17")
        rep = build_clifford_rep(17)
        assert rep.dim == n_irr(17) == 512
        monkeypatch.setenv("CLIFFLAB_MAX_RANK", "99")
        with pytest.raises(UnsupportedRankError):
            build_clifford_rep(25)

    def test_determinism(self):
        a = build_clifford_rep(6)
        b = build_clifford_rep(6)
        for x, y in zip(a.generators, b.generators):
            assert np.array_equal(x, y)

    def test_json_round_trip(self):
        rep = build_even_rep(4, 1, 1)
        back = MatrixRep.from_json(rep.to_json())
        assert back.rank == rep.rank and back.kind == rep.kind
        assert back.volume_split == (1, 1)
        for x, y in zip(rep.generators, back.generators):
            assert np.array_equal(x, y)


# -- the dense construction, as the generators were first built -------------

_EPS = linalg.intmat([[0, -1], [1, 0]])
_TAU = linalg.intmat([[1, 0], [0, -1]])
_SIG = linalg.intmat([[0, 1], [1, 0]])
_I2 = linalg.eye(2)


def _kron(*ms):
    return reduce(np.kron, ms)


_QUAT_B = _kron(_EPS, _I2)
_QUAT_C = _kron(_TAU, _EPS)
_QUAT_D = _kron(_SIG, _EPS)


def _base_generators(r):
    if r <= 3:
        gens = [_kron(_EPS, _TAU), _kron(_EPS, _SIG), _kron(_I2, _EPS)]
        if r == 1:
            return [_EPS.copy()]
        return gens[:r]
    if r <= 7:
        a1, a2, a3 = _base_generators(3)
        gens = [
            _kron(a1, _TAU),
            _kron(a2, _TAU),
            _kron(a3, _TAU),
            _kron(linalg.eye(4), _EPS),
            _kron(_QUAT_B, _SIG),
            _kron(_QUAT_C, _SIG),
            _kron(_QUAT_D, _SIG),
        ]
        return gens[:r]
    if r == 8:
        prev = _base_generators(7)
        return [_kron(g, _TAU) for g in prev] + [_kron(linalg.eye(8), _EPS)]
    gamma = _base_generators(8)
    omega = reduce(np.matmul, gamma)
    prev = _base_generators(r - 8)
    n_prev = prev[0].shape[0]
    return [_kron(g, omega) for g in prev] + [_kron(linalg.eye(n_prev), g) for g in gamma]


def _generators_with_volume_sign(r, sign):
    gens = _base_generators(r)
    vol = reduce(np.matmul, gens)
    if np.array_equal(vol, sign * linalg.eye(len(vol))):
        return gens
    assert np.array_equal(vol, -sign * linalg.eye(len(vol)))
    return gens[:-1] + [-gens[-1]]


def _block_diag(mats):
    if len(mats) == 1:
        return mats[0]
    n = sum(m.shape[0] for m in mats)
    out = linalg.zeros(n)
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at : at + k, at : at + k] = m
        at += k
    return out


def dense_generators(kind, r, m_plus=1, m_minus=None):
    """The generators of build_clifford_rep(r, m_plus) or of
    build_even_rep(r, m_plus, m_minus), built densely."""
    if kind == "full":
        return [_block_diag([g] * m_plus) for g in _base_generators(r)]
    q = r - 1
    if r % 4 != 0:
        return [_block_diag([g] * m_plus) for g in _base_generators(q)]
    plus_family = _generators_with_volume_sign(q, reps._even_volume_factor_sign(r))
    minus_family = plus_family[:-1] + [-plus_family[-1]]
    return [_block_diag([plus_family[i]] * m_plus + [minus_family[i]] * m_minus) for i in range(q)]


SPLITS = [(1, 1), (2, 0), (0, 2), (1, 2), (3, 1), (1, 0)]


def build_cases(kind, r):
    """(m_plus, m_minus) of every build checked against the dense construction."""
    if kind == "even" and r % 4 == 0:
        return SPLITS
    return [(copies, None) for copies in (1, 2, 3)]


def build(kind, r, m_plus, m_minus):
    return build_clifford_rep(r, m_plus) if kind == "full" else build_even_rep(r, m_plus, m_minus)


@pytest.mark.parametrize("kind, r", [("full", r) for r in range(1, 17)] + [("even", r) for r in range(2, 17)])
def test_generators_equal_the_dense_construction(kind, r):
    for m_plus, m_minus in build_cases(kind, r):
        rep = build(kind, r, m_plus, m_minus)
        assert rep.stack.form == "columns"
        want = dense_generators(kind, r, m_plus, m_minus)
        assert len(rep.generators) == len(want)
        for t, g in enumerate(want):
            assert np.array_equal(rep.stack.matrix(t), g), (m_plus, m_minus, t)


@pytest.mark.parametrize("kind, r", [("full", r) for r in range(1, 11)] + [("even", r) for r in range(2, 11)])
def test_repgen_writes_the_dense_construction(kind, r, tmp_path):
    out = tmp_path / "rep.json"
    for m_plus, m_minus in build_cases(kind, r):
        argv = ["repgen", "--rank", str(r), "--kind", kind, "--out", str(out), "--m-plus", str(m_plus)]
        if kind == "full":
            argv[-2:] = ["--copies", str(m_plus)]
        if m_minus is not None:
            argv += ["--m-minus", str(m_minus)]
        assert cli.main(argv) == 0
        gens = dense_generators(kind, r, m_plus, m_minus)
        split = [m_plus, m_minus] if m_minus is not None else None
        want = {
            "schema": 1,
            "rank": r,
            "dim": len(gens[0]),
            "kind": kind,
            "volume_split": split,
            "generators": [g.reshape(-1).tolist() for g in gens],
        }
        assert out.read_text() == json.dumps(want, indent=2), (m_plus, m_minus)


class TestEvenRepresentations:
    def test_rank3_quaternionic(self):
        rep = build_even_rep(3)
        assert rep.dim == 4
        assert rep.validate() == []

    def test_rank4_volume_split(self):
        rep = build_even_rep(4, 1, 1)
        assert rep.dim == 8
        v = evaluate(rep, volume_element(AlgebraSignature(4)))
        assert np.array_equal(v, np.diag([1, 1, 1, 1, -1, -1, -1, -1]))
        assert int(np.trace(v)) == 0
        assert np.array_equal(v @ v, linalg.eye(8))

    def test_rank4_unbalanced_split(self):
        rep = build_even_rep(4, 1, 0)
        assert rep.dim == 4
        v = evaluate(rep, volume_element(AlgebraSignature(4)))
        assert np.array_equal(v, linalg.eye(4))

    def test_rank5_span_dimension(self):
        fam = j_family(build_even_rep(5))
        assert fam.n == 8
        assert span_dimension(fam) == 10

    def test_multiplicity_collapse_for_rank_not_div_4(self):
        rep = build_even_rep(5, 1, 1)
        assert rep.dim == 8
        with pytest.raises(RepresentationError):
            build_even_rep(5, 1, 2)

    @pytest.mark.parametrize("r", range(2, 17))
    def test_invariants_all_ranks(self, r):
        rep = build_even_rep(r, 1, 1) if r % 4 == 0 else build_even_rep(r)
        assert rep.validate() == []
        assert rep.dim == n0(r) * (2 if r % 4 == 0 else 1)

    def test_volume_split_blocks_all_multiples_of_four(self):
        for r in (4, 8, 12, 16):
            rep = build_even_rep(r, 2, 1)
            v = evaluate(rep, volume_element(AlgebraSignature(r)))
            k = n0(r)
            expect = np.diag([1] * (2 * k) + [-1] * k).astype(np.int64)
            assert np.array_equal(v, expect)


class TestEvaluate:
    def test_unit(self):
        rep = build_even_rep(3)
        one = CliffordElement.scalar(AlgebraSignature(3), 1)
        assert np.array_equal(evaluate(rep, one), linalg.eye(4))

    def test_j12_squares(self):
        rep = build_even_rep(3)
        e12 = CliffordElement.blade(AlgebraSignature(3), (1, 2))
        m = evaluate(rep, e12)
        assert np.array_equal(m @ m, -linalg.eye(4))

    def test_parity_error(self):
        rep = build_even_rep(3)
        with pytest.raises(ParityError):
            evaluate(rep, CliffordElement.generator(AlgebraSignature(3), 1))

    def test_rank_mismatch(self):
        rep = build_even_rep(3)
        with pytest.raises(RepresentationError):
            evaluate(rep, CliffordElement.scalar(AlgebraSignature(4), 1))

    def test_multiplicative_random(self):
        rng = random.Random(11)
        for r in range(2, 10):
            sig = AlgebraSignature(r)
            rep = build_even_rep(r, 1, 1) if r % 4 == 0 else build_even_rep(r)
            for _ in range(500):
                a = rand_even_element(rng, sig)
                b = rand_even_element(rng, sig)
                left = linalg.imatmul(evaluate(rep, a), evaluate(rep, b))
                right = evaluate(rep, a * b)
                assert np.array_equal(left, right)

    def test_multiplicative_full_rep(self):
        rng = random.Random(12)
        sig = AlgebraSignature(5)
        rep = build_clifford_rep(5)
        for _ in range(50):
            a = CliffordElement.blade(
                sig, sorted(rng.sample(range(1, 6), rng.randint(0, 5)))
            )
            b = CliffordElement.blade(
                sig, sorted(rng.sample(range(1, 6), rng.randint(0, 5)))
            )
            assert np.array_equal(
                evaluate(rep, a) @ evaluate(rep, b), evaluate(rep, a * b)
            )

    def test_fraction_coefficients(self):
        rep = build_even_rep(3)
        sig = AlgebraSignature(3)
        x = CliffordElement.blade(sig, (1, 2), Fraction(1, 2))
        m = evaluate(rep, x)
        twice = m + m
        assert np.array_equal(
            np.array([[int(v) for v in row] for row in twice]),
            evaluate(rep, CliffordElement.blade(sig, (1, 2))),
        )


def generator_word_by_products(x):
    """The even element x of Cl_r in the generators f_i = e_1 e_{i+1}, as a
    product of the images of its index pairs, as it was first written."""
    low = AlgebraSignature(x.signature.rank - 1)
    out = CliffordElement.zero(low)
    for indices, coeff in x.items():
        term = CliffordElement.scalar(low, coeff)
        for k in range(0, len(indices), 2):
            a, b = indices[k], indices[k + 1]
            pair = (b - 1,) if a == 1 else (a - 1, b - 1)
            term = term * CliffordElement.blade(low, pair)
        out = out + term
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_index_shift_matches_the_product_rewrite(data):
    r = data.draw(st.integers(2, 10), label="r")
    sig = AlgebraSignature(r)
    x = CliffordElement.zero(sig)
    for _ in range(data.draw(st.integers(0, 6), label="terms")):
        k = 2 * data.draw(st.integers(0, r // 2))
        indices = sorted(data.draw(st.lists(st.integers(1, r), min_size=k, max_size=k, unique=True)))
        coeff = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4)))
        x = x + CliffordElement.blade(sig, indices, coeff)
    assert reps._even_to_generator_word(x) == generator_word_by_products(x)


def dense_family(rep):
    """J_ij as dense products of the generators, as j_family first built them."""
    g, r = rep.generators, rep.rank
    if rep.kind == "full":
        return {(i, j): g[i - 1] @ g[j - 1] for i in range(1, r + 1) for j in range(i + 1, r + 1)}
    mats = {(1, j): g[j - 2] for j in range(2, r + 1)}
    mats.update({(i, j): g[i - 2] @ g[j - 2] for i in range(2, r + 1) for j in range(i + 1, r + 1)})
    return mats


class TestJFamily:
    @pytest.mark.parametrize("r", range(2, 17))
    def test_columns_are_stored_and_mats_are_the_dense_products(self, r):
        rep = build_even_rep(r)
        fam = j_family(rep)
        assert fam.stack.form == "columns" and fam.stack.shape == (r * (r - 1) // 2,)
        want = dense_family(rep)
        assert list(fam.mats) == fam.pairs() == sorted(want)
        for key, m in fam.mats.items():
            assert m.dtype == np.int64 and np.array_equal(m, want[key]), key
        assert fam.mats is fam.mats

    @pytest.mark.parametrize("r", [2, 5, 8])
    def test_full_rep_family(self, r):
        rep = build_clifford_rep(r)
        fam = j_family(rep)
        assert fam.stack.form == "columns"
        want = dense_family(rep)
        assert all(np.array_equal(fam.mats[k], want[k]) for k in want)

    def test_uncertified_matrices_keep_dense_storage(self):
        mats = dict(j_family(build_even_rep(3)).mats)
        assert reps.JFamily(4, 3, mats).stack.form == "columns"
        mats[(1, 2)] = 2 * mats[(1, 2)]
        fam = reps.JFamily(4, 3, mats)
        assert fam.stack.form == "dense" and fam.mats is mats

    def test_uncertified_generators_give_a_dense_family(self):
        rep = build_even_rep(5)
        doubled = MatrixRep(5, rep.dim, "even", (2 * rep.generators[0],) + rep.generators[1:])
        fam = j_family(doubled)
        assert fam.stack.form == "dense"
        want = dense_family(doubled)
        assert all(np.array_equal(fam.mats[k], want[k]) for k in want)

    def test_rank2_single_complex_structure(self):
        fam = j_family(build_even_rep(2))
        assert fam.pairs() == [(1, 2)]
        j12 = fam.j(1, 2)
        assert np.array_equal(j12 @ j12, -linalg.eye(fam.n))

    def test_rank3_quaternion_relations(self):
        fam = j_family(build_even_rep(3))
        i, j, k = fam.j(1, 2), fam.j(2, 3), fam.j(3, 1)
        assert np.array_equal(i @ j, k)
        assert np.array_equal(j @ k, i)
        assert np.array_equal(k @ i, j)
        assert np.array_equal(i @ j @ k, -linalg.eye(4))

    def test_rank5_disjoint_traces_vanish(self):
        fam = j_family(build_even_rep(5))
        for (i, j) in fam.pairs():
            for (k, l) in fam.pairs():
                if len({i, j, k, l}) == 4:
                    assert np.trace(fam.j(i, j) @ fam.j(k, l)) == 0

    def test_extension_conventions(self):
        fam = j_family(build_even_rep(4, 1, 1))
        assert np.array_equal(fam.j(2, 1), -fam.j(1, 2))
        assert np.array_equal(fam.j(3, 3), -linalg.eye(8))

    @pytest.mark.parametrize("r", [2, 3, 5, 6, 7, 8, 9])
    def test_span_dimension_full_rank(self, r):
        fam = j_family(build_even_rep(r))
        assert span_dimension(fam) == r * (r - 1) // 2

    def test_rank4_block_span_collapses(self):
        # on one irreducible block the six J_ij span strictly fewer than
        # six dimensions (the volume ties opposite pairs together)
        fam = j_family(build_even_rep(4, 1, 0))
        assert span_dimension(fam) < 6
        assert span_dimension(fam) == 3


class TestTriality:
    def test_certificate(self):
        cert = triality_map()
        # the map inverts the halves of the spin family: map (cols / 2) = I
        fam = cert.spin_family
        cols = np.stack([linalg.skew_to_coords(fam.mats[p]) for p in fam.pairs()], axis=1)
        assert np.array_equal(linalg.imatmul(cert.map_num, cols), 2 * cert.map_den * linalg.eye(28))
        assert cert.brackets_checked == 378
        assert cert.brackets_exact

    def test_defining_property(self):
        cert = triality_map()
        half = cert.spin_family.j(1, 2) / 2
        image = cert.apply(cert.spin_family.j(1, 2))
        expected = linalg.elementary_rotation(0, 1, 8)
        # phi(J+_12) = 2 * elementary rotation, so phi(J+_12 / 2) is elementary
        assert np.array_equal(
            np.array([[Fraction(x) for x in row] for row in image], dtype=object),
            np.array([[2 * Fraction(int(x)) for x in row] for row in expected], dtype=object),
        )

    def test_pulled_back_family_satisfies_relations(self):
        fam = triality_map().pulled_back
        n = fam.n
        ident = linalg.eye(n)
        for (i, j) in fam.pairs():
            m = fam.j(i, j)
            assert m.dtype == np.int64
            assert linalg.signed_perm_columns(m) is not None
            assert np.array_equal(m.T, -m)
            assert np.array_equal(m @ m, -ident)
        for (i, j, k) in itertools.permutations(range(1, 9), 3):
            assert np.array_equal(fam.j(i, j) @ fam.j(i, k), fam.j(j, k))
        for (i, j) in fam.pairs():
            for (k, l) in fam.pairs():
                if len({i, j, k, l}) == 4:
                    a, b = fam.j(i, j), fam.j(k, l)
                    assert np.array_equal(a @ b, b @ a)

    def test_pulled_back_family_is_not_the_spin_family(self):
        cert = triality_map()
        same = all(
            np.array_equal(cert.pulled_back.j(i, j), cert.spin_family.j(i, j))
            for (i, j) in cert.pulled_back.pairs()
        )
        assert not same
