import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifflab import linalg, structure
from clifflab.blades import AlgebraSignature, CliffordElement, hodge_dual_element, hodge_dual_vector
from clifflab.reps import (
    MatrixRep,
    UnsupportedRankError,
    build_clifford_rep,
    build_even_rep,
    evaluate,
    j_family,
    triality_map,
)
from clifflab.structure import (
    EvenCliffordStructure,
    ExtensionRejected,
    Failure,
    StructureError,
    VolumeError,
    extend_hodge,
    format_residual,
    split_rank4,
    universal_extension,
    verify_hodge,
    verify_orthogonality,
    verify_relations,
    verify_universality,
    volume_endomorphism,
)


def structure_for(r, plus=1, minus=None):
    if r % 4 == 0 and minus is None:
        minus = 1
    rep = build_even_rep(r, plus, minus)
    return EvenCliffordStructure.from_rep(rep)


class TestVerifyRelations:
    def test_built_family_passes(self):
        report = verify_relations(structure_for(6))
        assert report.passed
        assert report.failures == []

    def test_rank2_only_low_relations_apply(self):
        report = verify_relations(structure_for(2))
        assert report.passed

    def test_overwritten_family_fails_composition(self):
        rep = build_even_rep(3)
        fam = j_family(rep)
        mats = dict(fam.mats)
        mats[(1, 3)] = mats[(1, 2)]
        broken = EvenCliffordStructure.from_matrices(4, 3, mats)
        report = verify_relations(broken)
        assert not report.passed
        kinds = {f.identity for f in report.failures}
        assert "shared_index_composition" in kinds
        first = [f for f in report.failures if f.identity == "shared_index_composition"][0]
        assert first.indices == (1, 2, 3)

    def test_dimension_mismatch(self):
        rep = build_even_rep(3)
        fam = j_family(rep)
        with pytest.raises(StructureError):
            EvenCliffordStructure.from_matrices(5, 3, dict(fam.mats))

    def test_missing_pair(self):
        rep = build_even_rep(3)
        fam = j_family(rep)
        mats = dict(fam.mats)
        del mats[(2, 3)]
        with pytest.raises(StructureError):
            EvenCliffordStructure.from_matrices(4, 3, mats)

    @pytest.mark.parametrize("r", range(2, 10))
    def test_doubled_matrix_fails_unit_square_with_residual_3(self, r):
        # no longer a signed permutation, so the dense path judges it:
        # (2J)^2 + 1 = -3
        fam = j_family(build_even_rep(r))
        mats = dict(fam.mats)
        key = fam.pairs()[-1]
        mats[key] = 2 * mats[key]
        report = verify_relations(EvenCliffordStructure.from_matrices(fam.n, r, mats))
        assert not report.passed
        assert ("unit_square", key, "3") in [(f.identity, f.indices, f.residual) for f in report.failures]

    def test_entries_near_2_40_are_judged_exactly(self):
        # float64 loses these products and int64 wraps them
        fam = j_family(build_even_rep(3))
        big = 2**40
        scaled = {p: big * m for p, m in fam.mats.items()}
        report = verify_relations(EvenCliffordStructure.from_matrices(4, 3, scaled))
        squares = {f.indices: f.residual for f in report.failures if f.identity == "unit_square"}
        assert squares == {p: str(big * big - 1) for p in fam.pairs()}
        # a valid family conjugated by the unipotent I + N E_01 keeps every
        # composition identity and loses only skewness
        n = 2**20
        p = linalg.eye(4)
        p[0, 1] = n
        p_inv = linalg.eye(4)
        p_inv[0, 1] = -n
        conj = {k: p @ m @ p_inv for k, m in fam.mats.items()}
        assert max(int(abs(m).max()) for m in conj.values()) >= 2**40
        report = verify_relations(EvenCliffordStructure.from_matrices(4, 3, conj))
        assert {f.identity for f in report.failures} == {"skew_symmetry"}

    def test_int64_min_entry_is_judged_exactly(self):
        # -J and J^2 of an entry -2^63 leave int64: the skew residual is
        # 2^64 and the unit square 2^126 + 1, with no cast warning
        mats = {(1, 2): np.array([[0, -(2**63)], [-(2**63), 0]], dtype=np.int64)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_relations(EvenCliffordStructure.from_matrices(2, 2, mats))
        residuals = {f.identity: f.residual for f in report.failures}
        assert residuals == {"skew_symmetry": str(2**64), "unit_square": str(2**126 + 1)}

    def test_non_integer_matrix_rejected(self):
        fam = j_family(build_even_rep(2))
        with pytest.raises(StructureError):
            EvenCliffordStructure.from_matrices(2, 2, {(1, 2): fam.mats[(1, 2)] / 2})


class TestVerifyOrthogonality:
    def test_rank5_all_disjoint_traces_vanish(self):
        report = verify_orthogonality(structure_for(5))
        assert report.passed

    def test_rank6_all_disjoint_traces_vanish(self):
        report = verify_orthogonality(structure_for(6))
        assert report.passed

    def test_rank4_irreducible_block_reports_pairing(self):
        s = EvenCliffordStructure.from_rep(build_even_rep(4, 1, 0))
        report = verify_orthogonality(s)
        assert report.passed
        assert report.data["pairings"]["(1,2),(3,4)"] == "4"

    def test_rank4_other_block_reports_minus_four(self):
        s = EvenCliffordStructure.from_rep(build_even_rep(4, 0, 1))
        report = verify_orthogonality(s)
        assert report.data["pairings"]["(1,2),(3,4)"] == "-4"


class TestVolume:
    def test_rank2_volume_is_j12(self):
        s = structure_for(2)
        v, rep = volume_endomorphism(s)
        assert np.array_equal(v, s.j(1, 2))
        assert rep["square_sign"] == -1
        assert rep["square_matches"]

    def test_rank4_trace_and_multiplicities(self):
        s = structure_for(4)
        v, rep = volume_endomorphism(s)
        assert rep["square_sign"] == 1
        assert rep["square_matches"]
        n = s.n
        assert int(np.trace(v)) == 0
        mult_plus = (n + int(np.trace(v))) // 2
        assert mult_plus == 4

    def test_rank5_full_backing_gives_complex_structure(self):
        s = EvenCliffordStructure.from_rep(build_clifford_rep(5))
        v, rep = volume_endomorphism(s)
        assert rep["square_sign"] == -1
        assert rep["square_matches"]
        assert rep["commutes_with_family"]
        assert rep["generator_commutation_sign"] == 1
        assert rep["generator_commutation_matches"]

    def test_rank5_even_backing_refuses(self):
        with pytest.raises(VolumeError):
            volume_endomorphism(structure_for(5))


class TestSplitRank4:
    def test_balanced_split(self):
        s = structure_for(4)
        result = split_rank4(s)
        assert result.report.passed, [f.to_dict() for f in result.report.failures]
        for p in (result.p_plus, result.p_minus):
            assert np.array_equal(p @ p, p)
            tr = sum(Fraction(p[i, i]) for i in range(8))
            assert tr == 4
        total = result.p_plus + result.p_minus
        assert all(Fraction(x) == (1 if i == j else 0) for (i, j), x in np.ndenumerate(total))

    def test_restricted_minus_family_is_quaternion_algebra(self):
        s = structure_for(4)
        result = split_rank4(s)
        # the minus family acts on the plus eigenspace (first 4 coordinates)
        blocks = {}
        for key, m in result.j_minus.items():
            blocks[key] = np.array(
                [[int(Fraction(m[i, j])) for j in range(4)] for i in range(4)]
            )
        i_m, j_m, k_m = blocks[(1, 2)], blocks[(2, 3)], blocks[(3, 1)]
        ident = np.eye(4, dtype=np.int64)
        assert np.array_equal(i_m @ i_m, -ident)
        assert np.array_equal(i_m @ j_m, k_m)
        assert np.array_equal(j_m @ k_m, i_m)
        # span of {id, i, j, k} is 4-dimensional: the regular quaternion algebra
        rows = [ident.reshape(-1), i_m.reshape(-1), j_m.reshape(-1), k_m.reshape(-1)]
        assert linalg.rank(np.array(rows)) == 4

    def test_pure_plus_block_kills_plus_family(self):
        s = EvenCliffordStructure.from_rep(build_even_rep(4, 1, 0))
        result = split_rank4(s)
        assert result.report.passed
        assert all(_all_zero(m) for m in result.j_plus.values())
        assert _all_zero(result.p_minus)

    def test_plus_frames_anticommute_on_minus_eigenspace(self):
        s = structure_for(4)
        result = split_rank4(s)
        f1, f2, f3 = result.frames_plus
        for a in (f1, f2, f3):
            for b in (f1, f2, f3):
                if a is b:
                    continue
                anti = (a @ b + b @ a) @ result.p_minus
                assert _all_zero(anti)

    def test_wrong_rank(self):
        with pytest.raises(StructureError):
            split_rank4(structure_for(5))


def _all_zero(m):
    return all(Fraction(x) == 0 for x in np.asarray(m).reshape(-1))


class TestExtendHodge:
    def test_rank3(self):
        s = structure_for(3)
        ks = extend_hodge(s)
        assert np.array_equal(ks[0], s.j(2, 3))
        assert np.array_equal(ks[1], -s.j(1, 3))
        assert np.array_equal(ks[2], s.j(1, 2))

    def test_rank7_octonionic_family(self):
        s = structure_for(7)
        ks = extend_hodge(s)
        assert len(ks) == 7
        ident = linalg.eye(8)
        for a, ka in enumerate(ks):
            assert np.array_equal(ka @ ka, -ident)
            for kb in ks[a + 1 :]:
                assert np.array_equal(ka @ kb, -(kb @ ka))

    def test_extension_volume_is_central(self):
        for r in (3, 7):
            s = structure_for(r)
            ks = extend_hodge(s)
            vol = ks[0]
            for k in ks[1:]:
                vol = vol @ k
            for k in ks:
                assert np.array_equal(vol @ k, k @ vol)

    @pytest.mark.parametrize("r", [3, 7, 11])
    def test_explicit_family_extends_like_the_representation(self, r):
        backed = structure_for(r)
        explicit = EvenCliffordStructure.from_matrices(backed.n, r, backed.family.mats)
        assert explicit.rep is None
        for k_explicit, k_backed in zip(extend_hodge(explicit), extend_hodge(backed)):
            assert np.array_equal(k_explicit, k_backed)
        # and both agree with the image of the Hodge dual under the representation
        sig = AlgebraSignature(r)
        for i, k in enumerate(extend_hodge(explicit), start=1):
            assert np.array_equal(k, evaluate(backed.rep, hodge_dual_element(i, sig)))

    @pytest.mark.parametrize("r", [5, 6])
    def test_other_ranks_rejected(self, r):
        with pytest.raises(UnsupportedRankError):
            extend_hodge(structure_for(r))


class TestUniversalExtension:
    @pytest.mark.parametrize("r", list(range(2, 10)))
    def test_round_trip_on_even_blades(self, r):
        rep = build_even_rep(r, 1, 1) if r % 4 == 0 else build_even_rep(r)
        ext = universal_extension(j_family(rep).mats, r, rep.dim)
        sig = AlgebraSignature(r)
        for mask in range(1 << r):
            if bin(mask).count("1") % 2:
                continue
            indices = tuple(i + 1 for i in range(r) if mask >> i & 1)
            elem = CliffordElement.blade(sig, indices)
            assert np.array_equal(ext(elem), evaluate(rep, elem)), indices

    def test_scaled_map_rejected_with_witness(self):
        rep = build_even_rep(3)
        phi = dict(j_family(rep).mats)
        phi[(1, 2)] = 2 * phi[(1, 2)]
        with pytest.raises(ExtensionRejected) as err:
            universal_extension(phi, 3, rep.dim)
        assert err.value.witness == (1, 2, 2)

    def test_k2_any_complex_structure_accepted(self):
        j = np.array([[0, -1], [1, 0]], dtype=np.int64)
        ext = universal_extension({(1, 2): j}, 2, 2)
        sig = AlgebraSignature(2)
        out = ext(CliffordElement.blade(sig, (1, 2)))
        assert np.array_equal(out, j)
        # unit maps to the identity
        assert np.array_equal(ext(CliffordElement.scalar(sig, 1)), linalg.eye(2))

    def test_on_blade_takes_any_index_order(self):
        # sigma_ji = -sigma_ij and sigma_ii = -1, on the column and dense routes
        fam = j_family(build_even_rep(4, 1, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "signed_perm_columns", lambda a: None)
            dense = structure.JFamily(8, 4, fam.mats)
        assert (fam.stack.form, dense.stack.form) == ("columns", "dense")
        for ext in (universal_extension(fam, 4), universal_extension(dense, 4)):
            assert np.array_equal(ext.on_blade((3, 1)), -fam.j(1, 3))
            assert np.array_equal(ext.on_blade((2, 2, 4, 1)), fam.j(1, 4))

    def test_degenerate_low_rank_gives_unit_morphism(self):
        ext = universal_extension({}, 1, 3)
        sig = AlgebraSignature(1)
        assert np.array_equal(ext(CliffordElement.scalar(sig, 2)), 2 * linalg.eye(3))

    def test_accepted_extension_is_multiplicative(self):
        # rejection soundness: anything the criterion accepts multiplies
        # correctly on 250 random even pairs, at every rank r <= 7 with an
        # irreducible module of one volume type
        rng = random.Random(23)
        checked = 0
        for r in (2, 3, 5, 6, 7):
            rep = build_even_rep(r)
            ext = universal_extension(j_family(rep).mats, r, rep.dim)
            sig = AlgebraSignature(r)
            for _ in range(50):
                a = _rand_even(rng, sig)
                b = _rand_even(rng, sig)
                left = ext(a * b)
                right = _to_obj(ext(a)) @ _to_obj(ext(b))
                assert np.array_equal(_to_obj(left), right)
                checked += 1
        assert checked == 250


def _rand_even(rng, sig):
    out = CliffordElement.zero(sig)
    for _ in range(3):
        k = 2 * rng.randint(0, sig.rank // 2)
        indices = sorted(rng.sample(range(1, sig.rank + 1), k))
        out = out + CliffordElement.blade(sig, indices, Fraction(rng.randint(-3, 3)))
    return out


def _to_obj(m):
    if m.dtype == object:
        return m
    return np.array([[Fraction(int(x)) for x in row] for row in m], dtype=object)


class TestChecks:
    def test_hodge_check_extends_fails_or_skips(self):
        assert verify_hodge(structure_for(7)).to_dict() == {
            "suite": "hodge",
            "passed": True,
            "failures": [],
            "data": {"extension_rank": 7},
        }
        refused = verify_hodge(structure_for(5))
        assert not refused.passed
        assert [f.identity for f in refused.failures] == ["hodge_extension"]
        skipped = verify_hodge(structure_for(5), skip_other_ranks=True)
        assert skipped.passed and "skipped" in skipped.data

    def test_universality_check_names_the_blade_that_disagrees(self):
        # the family of one volume block against the representation of the
        # other: the criterion accepts, the volume blade disagrees
        s = structure_for(4, 1, 1)
        s.rep = build_even_rep(4, 2, 0)
        report = verify_universality(s)
        assert not report.passed
        assert ("blade_round_trip", (1, 2, 3, 4)) in [(f.identity, f.indices) for f in report.failures]

    def test_universality_check_reports_the_rejection_witness(self):
        mats = dict(j_family(build_even_rep(3)).mats)
        mats[(1, 2)] = 2 * mats[(1, 2)]
        report = verify_universality(EvenCliffordStructure.from_matrices(4, 3, mats))
        assert [(f.identity, f.indices) for f in report.failures] == [("extension_criterion", (1, 2, 2))]


def _relation_oracle(n, r, mats):
    """(identity, indices) of every violated relation, judged on Python ints."""
    m = {key: mat.astype(object) for key, mat in mats.items()}

    def j(a, b):
        return m[(a, b)] if a < b else -m[(b, a)]

    minus_one = -np.eye(n, dtype=int).astype(object)
    pairs = sorted(m)
    out = set()
    for key in pairs:
        if (m[key] + m[key].T).any():
            out.add(("skew_symmetry", key))
        if not np.array_equal(m[key].dot(m[key]), minus_one):
            out.add(("unit_square", key))
    for i in range(1, r + 1):
        for a in range(1, r + 1):
            for b in range(1, r + 1):
                if len({i, a, b}) == 3 and not np.array_equal(j(i, a).dot(j(i, b)), j(a, b)):
                    out.add(("shared_index_composition", (i, a, b)))
    for x in pairs:
        for y in pairs:
            if x < y and len(set(x + y)) == 4 and not np.array_equal(m[x].dot(m[y]), m[y].dot(m[x])):
                out.add(("disjoint_commutation", x + y))
    return out


def _conjugated_family(data, r):
    """The family of build_even_rep(r) conjugated by a drawn signed permutation."""
    fam = j_family(build_even_rep(r))
    n = fam.n
    q = np.zeros((n, n), dtype=np.int64)
    q[data.draw(st.permutations(range(n))), range(n)] = data.draw(
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    )
    return n, {key: q @ m @ q.T for key, m in fam.mats.items()}


# The dense relation suite as it stood before the operator stack: the oracle
# for the order of the failures and for their residual strings.
def _verify_relations_dense(s: EvenCliffordStructure) -> list[Failure]:
    """Batched dense products, one certified ``imatmul`` per batch; every
    residual is a product plus at most one more exact term."""
    n, r = s.n, s.r
    pairs = s.pairs()
    order = [(i, j) for i in range(1, r + 1) for j in range(1, r + 1) if i != j]
    pos = {p: t for t, p in enumerate(order)}
    stack = np.stack([s.j(i, j) for (i, j) in order])
    ident = linalg.eye(n)
    failures = []

    sub = stack[[pos[p] for p in pairs]]
    squares = linalg.imatmul(sub, sub) + ident
    for t, (i, j) in enumerate(pairs):
        res = sub[t] + sub[t].T
        if res.any():
            failures.append(Failure("skew_symmetry", (i, j), format_residual(res)))
        if squares[t].any():
            failures.append(Failure("unit_square", (i, j), format_residual(squares[t])))

    for i in range(1, r + 1):
        js = [j for j in range(1, r + 1) if j != i]
        f = stack[[pos[(i, j)] for j in js]]
        prod = linalg.imatmul(f[:, None], f[None, :])
        for a, j in enumerate(js):
            for b, k in enumerate(js):
                if j == k:
                    continue
                res = prod[a, b] - stack[pos[(j, k)]]
                if res.any():
                    failures.append(Failure("shared_index_composition", (i, j, k), format_residual(res)))

    for t, (i, j) in enumerate(pairs):
        others = [u for u, (k, l) in enumerate(pairs) if u > t and len({i, j, k, l}) == 4]
        if not others:
            continue
        rest = sub[others]
        diff = linalg.imatmul(sub[t], rest) - linalg.imatmul(rest, sub[t])
        for slot, u in enumerate(others):
            if diff[slot].any():
                failures.append(
                    Failure("disjoint_commutation", (i, j) + pairs[u], format_residual(diff[slot]))
                )
    return failures


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relation_verdicts_match_python_int_oracle(data):
    r = data.draw(st.integers(2, 8), label="r")
    n, mats = _conjugated_family(data, r)
    s = EvenCliffordStructure.from_matrices(n, r, mats)
    assert verify_relations(s).passed and verify_orthogonality(s).passed
    assert _relation_oracle(n, r, mats) == set()

    key = data.draw(st.sampled_from(sorted(mats)), label="pair")
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    mats[key] = mats[key].copy()
    mats[key][a, b] += data.draw(st.integers(-3, 3).filter(bool), label="delta")
    report = verify_relations(EvenCliffordStructure.from_matrices(n, r, mats))
    assert report.to_dict()["passed"] is False
    got = {(f.identity, f.indices) for f in report.failures}
    assert ("skew_symmetry", key) in got
    assert got == _relation_oracle(n, r, mats)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fast_kernels_match_the_dense_oracle(data):
    # the column-form kernels against the dense products, on valid families
    # and on families with one J_ij changed but still a signed permutation
    r = data.draw(st.integers(2, 9), label="r")
    n, mats = _conjugated_family(data, r)
    change = data.draw(st.sampled_from(["none", "flip one entry", "swap two columns"]), label="change")
    if change != "none":
        key = data.draw(st.sampled_from(sorted(mats)), label="pair")
        m = mats[key].copy()
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="columns")
        if change == "flip one entry":
            m[:, a] *= -1
        else:
            m[:, [a, b]] = m[:, [b, a]]
        mats[key] = m
    s = EvenCliffordStructure.from_matrices(n, r, mats)
    assert s.family.stack.form == "columns"
    fast = verify_relations(s).failures
    assert [f.to_dict() for f in fast] == [f.to_dict() for f in _verify_relations_dense(s)]
    assert (fast == []) == (change == "none")
    pairs = s.pairs()
    dense = [int(np.trace(mats[p] @ mats[q])) for x, p in enumerate(pairs) for q in pairs[x + 1 :]]
    assert s.family.stack.pair_traces() == dense


def test_built_families_take_the_fast_paths(monkeypatch):
    # a silent fall-back to the dense products would pass every other test
    spin = triality_map()
    families = [EvenCliffordStructure.from_rep(build_even_rep(r)) for r in range(2, 13)]
    families += [EvenCliffordStructure(8, 8, fam) for fam in (spin.spin_family, spin.pulled_back)]

    def refuse(*args):
        raise RuntimeError("dense fallback taken")

    monkeypatch.setattr(linalg, "imatmul", refuse)
    monkeypatch.setattr(linalg, "signed_perm_matrix", refuse)
    for s in families:
        assert s.family.stack.form == "columns", (s.n, s.r)
        assert verify_relations(s).passed and verify_orthogonality(s).passed, (s.n, s.r)


_CERTIFICATE_VARIANTS = {
    2: ["valid", "generator signs", "one entry changed", "one matrix doubled", "unipotent conjugate"],
    3: ["valid", "generator signs", "J_ab negated", "two swapped", "one entry changed", "one matrix doubled",
        "unipotent conjugate", "index doubled"],
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generator_certificate_agrees_with_the_direct_scans(data):
    # with the certificate refused every identity is checked directly; the
    # reports must not change, byte for byte, on either stack form
    r = data.draw(st.integers(2, 10), label="r")
    form = data.draw(st.sampled_from(["columns", "dense"]), label="form")
    variant = data.draw(st.sampled_from(_CERTIFICATE_VARIANTS[min(r, 3)]), label="variant")
    n, mats = _conjugated_family(data, r)
    key = data.draw(st.sampled_from(sorted(mats)), label="pair")
    if variant == "generator signs":
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=r, max_size=r), label="signs")
        mats = {(i, j): signs[i - 1] * signs[j - 1] * m for (i, j), m in mats.items()}
    elif variant == "J_ab negated":
        # still skew with square -1: of the certificate, only J_1a J_1b = J_ab fails
        key = data.draw(st.sampled_from([p for p in sorted(mats) if p[0] >= 2]), label="pair a, b >= 2")
        mats[key] = -mats[key]
    elif variant == "two swapped":
        other = data.draw(st.sampled_from([p for p in sorted(mats) if p != key]), label="other pair")
        mats[key], mats[other] = mats[other], mats[key]
    elif variant == "one entry changed":
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        mats[key] = mats[key].copy()
        mats[key][a, b] += data.draw(st.integers(-3, 3).filter(bool), label="delta")
    elif variant == "one matrix doubled":
        mats[key] = 2 * mats[key]
    elif variant == "index doubled":
        # every J with the index j >= 2 doubled: the products J_1j J_1l = J_jl
        # still hold, and of the certificate only J_1j^2 = -1 fails
        j = data.draw(st.integers(2, r), label="j")
        mats = {k: 2 * m if j in k else m for k, m in mats.items()}
    elif variant == "unipotent conjugate":
        # P J P^-1 with P = I + c E_ab keeps every product and loses skewness
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="a, b")
        c = data.draw(st.integers(-3, 3).filter(bool), label="c")
        p, p_inv = linalg.eye(n), linalg.eye(n)
        p[a, b], p_inv[a, b] = c, -c
        mats = {k: p @ m @ p_inv for k, m in mats.items()}
    with pytest.MonkeyPatch.context() as mp:
        if form == "dense":
            mp.setattr(linalg, "signed_perm_columns", lambda a: None)
        s = EvenCliffordStructure.from_matrices(n, r, mats)
    if form == "dense" or variant in ("one matrix doubled", "unipotent conjugate", "index doubled"):
        assert s.family.stack.form == "dense"
    elif variant != "one entry changed":
        assert s.family.stack.form == "columns"

    got = _reports(s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_generators_certified", lambda fam: False)
        assert _reports(s) == got
    failures = verify_relations(s).failures
    assert [f.to_dict() for f in failures] == [f.to_dict() for f in _verify_relations_dense(s)]
    if n <= 8:
        assert {(f.identity, f.indices) for f in failures} == _relation_oracle(n, r, mats)
    assert structure._generators_certified(s.family) == (failures == [])
    if variant in ("valid", "generator signs"):
        assert all(report["passed"] for report in json.loads(got))
    if variant == "unipotent conjugate":
        # the extension criterion does not ask for skewness
        assert {f.identity for f in failures} == {"skew_symmetry"}
        assert json.loads(got)[2]["passed"]
    if variant == "J_ab negated":
        assert {f.identity for f in failures} >= {"shared_index_composition"}
        assert not {f.identity for f in failures} & {"skew_symmetry", "unit_square"}


def test_passing_families_are_decided_by_the_generator_certificate(monkeypatch):
    # on a pass no direct scan runs: neither the squares, the all-i frame
    # scan, the disjoint commutations nor the trace pairings
    spin = triality_map()
    families = [EvenCliffordStructure.from_rep(build_even_rep(r)) for r in range(5, 17)]
    families += [EvenCliffordStructure(8, 8, fam) for fam in (spin.spin_family, spin.pulled_back)]
    rank4 = EvenCliffordStructure.from_rep(build_even_rep(4, 1, 0))
    frame_triples, pair_traces = structure._frame_triples, linalg.OperatorStack.pair_traces

    def refuse(*args):
        raise RuntimeError("a direct scan was taken")

    def first_row_only(fam, diagonal, rows=None):
        if rows is None:
            raise RuntimeError("the all-i frame scan was taken")
        return frame_triples(fam, diagonal, rows)

    monkeypatch.setattr(structure, "_frame_triples", first_row_only)
    monkeypatch.setattr(structure, "_square_failures", refuse)
    monkeypatch.setattr(structure, "_disjoint_failures", refuse)
    monkeypatch.setattr(linalg.OperatorStack, "pair_traces", refuse)
    for s in families:
        assert verify_relations(s).passed and verify_orthogonality(s).passed, (s.n, s.r)
        assert universal_extension(s.family, s.r).k == s.r
    # at r = 4 the disjoint pairings are data, read from the traces
    traced = []
    monkeypatch.setattr(linalg.OperatorStack, "pair_traces", lambda stack: traced.append(stack) or pair_traces(stack))
    report = verify_orthogonality(rank4)
    assert report.passed and len(traced) == 1
    assert report.data["pairings"] == {"(1,2),(3,4)": "4", "(1,3),(2,4)": "-4", "(1,4),(2,3)": "4"}


@pytest.mark.parametrize("r", range(2, 13))
def test_built_families_are_stored_and_checked_in_column_form(monkeypatch, r):
    # the generators are built as column forms, so building, validate and
    # from_rep certify nothing and never densify a matrix; relations,
    # orthogonality, the blade round trip and (at r = 3 mod 4) the Hodge
    # extension read the stored column forms and densify nothing on a pass
    def refuse_certificate(*args):
        raise RuntimeError("a matrix was certified")

    def refuse(*args):
        raise RuntimeError("a column form was densified")

    monkeypatch.setattr(linalg, "signed_perm_columns", refuse_certificate)
    monkeypatch.setattr(linalg, "signed_perm_matrix", refuse)
    monkeypatch.setattr(linalg, "imatmul", refuse)
    rep = build_even_rep(r)
    assert rep.validate() == []
    s = EvenCliffordStructure.from_rep(rep)
    assert s.family.stack.form == "columns" and rep.stack.form == "columns"
    checks = [verify_relations, verify_orthogonality, verify_universality]
    if r % 4 == 3:
        checks.append(verify_hodge)
    for check in checks:
        assert check(s).passed, check.__name__


def _reports(s):
    return json.dumps([check(s).to_dict() for check in (verify_relations, verify_orthogonality, verify_universality)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_and_dense_routes_report_the_same_bytes(data):
    # the same family and backing rep, once certified and once with the
    # certificate refused, so that every check takes its dense path
    r = data.draw(st.integers(2, 7), label="r")
    variant = data.draw(st.sampled_from(["conjugated", "generator signs", "flipped", "doubled"]), label="variant")
    seed = data.draw(st.integers(0, 2**16), label="seed")

    def build():
        rng = random.Random(seed)
        built = build_even_rep(r)
        # given as matrices, so that a refused certificate keeps them dense
        rep = MatrixRep(r, built.dim, "even", [built.stack.matrix(t) for t in range(r - 1)], built.volume_split)
        mats = dict(j_family(rep).mats)
        n, pairs = rep.dim, sorted(mats)
        key = rng.choice(pairs)
        if variant == "conjugated":
            q = np.zeros((n, n), dtype=np.int64)
            q[rng.sample(range(n), n), range(n)] = [rng.choice((-1, 1)) for _ in range(n)]
            mats = {p: q @ m @ q.T for p, m in mats.items()}
        elif variant == "generator signs":
            signs = [rng.choice((-1, 1)) for _ in range(r)]
            mats = {(i, j): signs[i - 1] * signs[j - 1] * m for (i, j), m in mats.items()}
        elif variant == "flipped":
            a, b = rng.choice(list(zip(*np.nonzero(mats[key]))))
            mats[key] = mats[key].copy()
            mats[key][a, b] *= -1
        else:
            mats[key] = 2 * mats[key]
        return EvenCliffordStructure(n, r, structure.JFamily(n, r, mats), rep)

    s = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "signed_perm_columns", lambda a: None)
        dense = build()
        assert dense.family.stack.form == "dense" and dense.rep.stack.form == "dense"
        want = _reports(dense)
    assert (s.family.stack.form == "dense") == (variant == "doubled")
    assert _reports(s) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_accepted_maps_satisfy_the_polarized_identities(data):
    # generator sign flips keep a valid family; one more flipped or doubled
    # pair is usually rejected, but whatever the criterion accepts must satisfy
    #   sigma(u,v) + sigma(v,u) = -2<u,v> id,
    #   sigma(v,u) sigma(u,w) = -<u,u> sigma(v,w)
    # on arbitrary integer vectors
    r = data.draw(st.integers(2, 7), label="r")
    fam = j_family(build_even_rep(r))
    n = fam.n
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=r, max_size=r))
    phi = {(i, j): signs[i - 1] * signs[j - 1] * m for (i, j), m in fam.mats.items()}
    factor = data.draw(st.sampled_from([1, -1, 2]), label="factor on one pair")
    key = data.draw(st.sampled_from(sorted(phi)))
    phi[key] = factor * phi[key]
    try:
        universal_extension(phi, r, n)
    except ExtensionRejected:
        return
    ident = linalg.eye(n)

    def sigma(u, v):
        out = -int(np.dot(u, v)) * ident
        for (i, j), m in phi.items():
            out = out + (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]) * m
        return out

    vec = st.lists(st.integers(-6, 6), min_size=r, max_size=r)
    u, v, w = data.draw(vec), data.draw(vec), data.draw(vec)
    assert not (sigma(u, v) + sigma(v, u) + 2 * int(np.dot(u, v)) * ident).any()
    assert not (sigma(v, u) @ sigma(u, w) + int(np.dot(u, u)) * sigma(v, w)).any()


# -- validate and extend_hodge against a Python-int oracle ----------------------
#
# Matrices of the oracle are lists of rows {column: entry} over Python ints,
# zero entries left out; the generators drawn below have one or two nonzero
# entries per row, so every product is cheap.


def _rows(m):
    return [{c: x for c, x in enumerate(row) if x} for row in np.asarray(m).tolist()]


def _mul(a, b):
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for c, y in b[k].items():
                acc[c] = acc.get(c, 0) + x * y
        out.append({c: x for c, x in acc.items() if x})
    return out


def _add(a, b):
    out = []
    for x, y in zip(a, b):
        acc = dict(x)
        for c, v in y.items():
            acc[c] = acc.get(c, 0) + v
        out.append({c: v for c, v in acc.items() if v})
    return out


def _scale(a, s):
    return [{c: s * x for c, x in row.items()} for row in a]


def _transpose(a):
    out = [{} for _ in a]
    for i, row in enumerate(a):
        for c, x in row.items():
            out[c][i] = x
    return out


def _anticommutation_oracle(mats):
    """(a, b) of every pair with m_a m_b + m_b m_a != -2 delta_ab, in order."""
    n = len(mats[0])
    minus_two, zero = [{c: -2} for c in range(n)], [{} for _ in range(n)]
    return [
        (a, b)
        for a, ma in enumerate(mats)
        for b, mb in enumerate(mats)
        if _add(_mul(ma, mb), _mul(mb, ma)) != (minus_two if a == b else zero)
    ]


def _validate_oracle(gens):
    n = len(gens[0])
    eye = [{c: 1} for c in range(n)]
    problems = []
    for idx, g in enumerate(gens):
        entries = [next(iter(row.items()), (None, 0)) for row in g]
        columns = sorted(c for c, _ in entries if c is not None)
        if not (all(len(row) == 1 for row in g) and all(abs(x) == 1 for _, x in entries) and columns == list(range(n))):
            problems.append(f"generator {idx} is not a signed permutation")
        if _transpose(g) != _scale(g, -1):
            problems.append(f"generator {idx} is not skew-symmetric")
        if _mul(_transpose(g), g) != eye:
            problems.append(f"generator {idx} is not orthogonal")
    problems += [f"anticommutation fails at ({a}, {b})" for a, b in _anticommutation_oracle(gens)]
    return problems


def _hodge_oracle(gens, r):
    """The K_i of the even family of ``gens`` as dense lists, or the message
    of the first failure."""
    n = len(gens[0])
    j = {(1, b): gens[b - 2] for b in range(2, r + 1)}
    j.update({(a, b): _mul(gens[a - 2], gens[b - 2]) for a in range(2, r + 1) for b in range(a + 1, r + 1)})
    sig = AlgebraSignature(r)
    ks = []
    for i in range(1, r + 1):
        dual = hodge_dual_vector(i, sig)
        rest = dual.index_set
        k = _scale(j[(rest[0], rest[1])], dual.sign)
        for t in range(2, len(rest), 2):
            k = _mul(k, j[(rest[t], rest[t + 1])])
        ks.append(k)
    failing = set(_anticommutation_oracle(ks))
    for a, k in enumerate(ks):
        if _transpose(k) != _scale(k, -1):
            return f"Hodge dual image {a + 1} is not skew"
        for b in range(r):
            if (a, b) in failing:
                return f"extension fails anticommutation at ({a + 1}, {b + 1})"
    return [[[row.get(c, 0) for c in range(n)] for row in k] for k in ks]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_validate_and_hodge_agree_on_both_routes_and_with_python_ints(data):
    # the same generators, once stored as the certificate decides and once
    # forced dense; at r = 3 mod 4 the Hodge extension of their family too
    r = data.draw(st.integers(2, 11), label="r")
    rep = build_even_rep(r)
    n, gens = rep.dim, [g.copy() for g in rep.generators]
    variant = data.draw(st.sampled_from(["valid", "column sign flipped", "columns swapped", "doubled"]), label="variant")
    t = data.draw(st.integers(0, len(gens) - 1), label="generator")
    if variant == "column sign flipped":
        gens[t][:, data.draw(st.integers(0, n - 1), label="column")] *= -1
    elif variant == "columns swapped":
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="columns")
        gens[t][:, [a, b]] = gens[t][:, [b, a]]
    elif variant == "doubled":
        gens[t] = 2 * gens[t]

    def route():
        broken = MatrixRep(r, n, "even", tuple(gens), rep.volume_split)
        hodge = None
        if r % 4 == 3:
            try:
                hodge = [k.tolist() for k in extend_hodge(EvenCliffordStructure.from_rep(broken))]
            except StructureError as err:
                hodge = str(err)
        return broken.stack.form, broken.validate(), hodge

    form, problems, hodge = route()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.OperatorStack, "of", classmethod(lambda cls, mats, n: cls(n, dense=np.stack(list(mats)))))
        dense_form, dense_problems, dense_hodge = route()
    assert (form, dense_form) == ("dense" if variant == "doubled" else "columns", "dense")
    oracle = [_rows(g) for g in gens]
    assert problems == dense_problems == _validate_oracle(oracle)
    assert (problems == []) == (variant == "valid")
    assert hodge == dense_hodge == (_hodge_oracle(oracle, r) if r % 4 == 3 else None)
