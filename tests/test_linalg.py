import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifflab import cli, linalg


# -- Fraction Gaussian elimination: the oracle for the integer routines -----


def oracle_rref(a):
    m = [[Fraction(x) for x in row] for row in a]
    n_rows, n_cols = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def oracle_nullspace(a):
    red, pivots = oracle_rref(a)
    n_cols = len(a[0])
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r_i, pc in enumerate(pivots):
            v[pc] = -red[r_i][fc]
        basis.append(v)
    return basis


def oracle_inverse(a):
    n = len(a)
    red, pivots = oracle_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def as_fractions(num, den=1):
    return [[Fraction(int(x), den) for x in row] for row in np.atleast_2d(num)]


# -- examples ----------------------------------------------------------------


def test_rref_identity():
    num, den, pivots = linalg.rref(np.eye(2, dtype=np.int64))
    assert pivots == [0, 1]
    assert np.array_equal(num, den * linalg.eye(2))


def test_rank_and_nullspace():
    a = linalg.intmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(a) == 2
    basis = linalg.nullspace(a)
    assert basis.shape == (1, 3)
    assert not linalg.imatmul(a, basis.T).any()
    # primitive, with a positive entry in the free column
    assert basis.tolist() == [[-1, -1, 1]]


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 6)
        while True:
            a = linalg.intmat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if linalg.rank(a) == n:
                break
        num, den = linalg.inverse(a)
        assert den > 0
        assert np.array_equal(linalg.imatmul(a, num), den * linalg.eye(n))


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.inverse(linalg.intmat([[1, 1], [1, 1]]))


def test_orthogonal_gram_certifies_diagonal_norms():
    b = linalg.intmat([[1, 1, 0], [1, -1, 0], [0, 0, 2]])
    assert linalg.orthogonal_gram(b) == [2, 2, 4]
    # Python-int input keeps exact norms past 2^63
    big = np.array([[2**40, 0], [0, -(2**70)]], dtype=object)
    assert linalg.orthogonal_gram(big) == [2**80, 2**140]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "columns 0 and 1 are not orthogonal (inner product 1)"),
        ([[1, 0, 0], [0, 1, 1], [0, 1, 1]], "columns 1 and 2 are not orthogonal (inner product 2)"),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 3]], "column 1 is zero"),
    ],
    ids=["first pair", "later pair", "zero column"],
)
def test_orthogonal_gram_names_the_failure(rows, message):
    with pytest.raises(ValueError) as err:
        linalg.orthogonal_gram(linalg.intmat(rows))
    assert str(err.value) == message


def test_max_abs_takes_int64_min_exactly():
    a = np.array([[0, -(2**63)], [3, 0]], dtype=np.int64)
    assert linalg.max_abs(a) == 2**63
    assert linalg.max_abs(np.array([], dtype=np.int64)) == 0
    assert linalg.max_abs(np.array([-(2**70), 5], dtype=object)) == 2**70
    assert linalg.as_integer(a).dtype == object


def test_rank_mod_p_matches_rational_rank_on_small_ints():
    rng = random.Random(5)
    for _ in range(20):
        a = np.array(
            [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)], dtype=np.int64
        )
        assert linalg.rank_mod_p(a) == linalg.rank(a)


def test_signed_permutation_predicate():
    assert linalg.signed_perm_columns(np.array([[0, -1], [1, 0]], dtype=np.int64)) is not None
    assert linalg.signed_perm_columns(np.array([[1, 1], [0, 1]], dtype=np.int64)) is None


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0, 0], [1, 0, 0], [0, 0, -1]],
        [[0, 1, 0], [1, 0, 0], [0, 1, -1]],
        [[0, 2, 0], [1, 0, 0], [0, 0, 1]],
        [[0, -2, 0], [1, 0, 0], [0, 0, 1]],
        [[0, -(2**63), 0], [1, 0, 0], [0, 0, 1]],
        [[0, -(2**63), 0], [0, 0, 0], [0, 0, 1]],
    ],
    ids=["repeated row", "extra nonzero", "entry 2", "entry -2", "int64 min", "int64 min, empty row"],
)
def test_signed_perm_columns_rejects(rows):
    assert linalg.signed_perm_columns(np.array(rows, dtype=np.int64)) is None


def test_signed_perm_columns_refuses_object_arrays():
    a = np.array([[0, -1], [1, 0]], dtype=object)
    assert linalg.signed_perm_columns(a) is None
    assert linalg.signed_perm_columns(np.array([[0, -(2**64)], [1, 0]], dtype=object)) is None


def test_signed_perm_columns_identity():
    perm, sign = linalg.signed_perm_columns(linalg.eye(5))
    assert perm.tolist() == list(range(5)) and sign.tolist() == [1] * 5


def test_signed_perm_columns_round_trip():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 64):
        perm, sign = rng.permutation(n), rng.choice([-1, 1], n)
        a = linalg.zeros(n)
        a[perm, np.arange(n)] = sign
        got = linalg.signed_perm_columns(a)
        assert got is not None
        assert np.array_equal(got[0], perm) and np.array_equal(got[1], sign)
        assert np.array_equal(linalg.signed_perm_matrix(*got), a)
        # the column form of a product is the composition of the forms
        stack = linalg.OperatorStack.of([a], n)
        assert stack.form == "columns"
        assert np.array_equal((stack @ stack).matrix(0), a @ a)


def test_trace_product():
    a = np.array([[0, -1], [1, 0]], dtype=np.int64)
    assert linalg.OperatorStack.of([a, a], 2).pair_traces() == [-2]


# -- the certificate ladder ----------------------------------------------------


def test_imatmul_never_wraps():
    w = 2**63 - 1
    a = linalg.as_integer([[0, w], [-w, 0]])
    assert a.dtype == object
    assert linalg.imatmul(a, a).tolist() == [[-(w * w), 0], [0, -(w * w)]]
    # above the float64 certificate but inside int64: entries near 2^40
    b = linalg.intmat([[2**40 + 1, 3], [5, 2**40 - 7]])
    want = [[sum(int(b[i, k]) * int(b[k, j]) for k in range(2)) for j in range(2)] for i in range(2)]
    got = linalg.imatmul(b, b)
    assert got.tolist() == want


def test_trace_products_never_wrap():
    big = linalg.as_integer([[2**40, 0], [0, 2**40]])
    assert linalg.OperatorStack.of([big, big], 2).pair_traces() == [2 * 2**80]


def _dense_stack(mats, n):
    """The stack of ``mats`` with the certificate refused: the dense form."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "signed_perm_columns", lambda a: None)
        return linalg.OperatorStack.of(mats, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_operator_stack_forms_agree_with_numpy(data):
    # every operation, on the column form, the dense form and mixed operands
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    mats = []
    for _ in range(k):
        m = linalg.zeros(n)
        m[rng.permutation(n), np.arange(n)] = rng.choice([-1, 1], n)
        mats.append(m)
    cols, dense = linalg.OperatorStack.of(mats, n), _dense_stack(mats, n)
    assert (cols.form, dense.form, cols.shape, dense.shape) == ("columns", "dense", (k,), (k,))
    words = data.draw(st.lists(st.lists(st.integers(0, k - 1), max_size=4), max_size=4), label="words")
    for a, b in ((cols, cols), (dense, dense), (cols, dense), (dense, cols)):
        prod = a[:, None] @ b[None, :]
        assert prod.shape == (k, k)
        for x in range(k):
            assert np.array_equal(a.T.matrix(x), mats[x].T)
            assert np.array_equal((-a).matrix(x), -mats[x])
            for y in range(k):
                assert np.array_equal(prod.matrix((x, y)), mats[x] @ mats[y])
        assert a.differs(b[::-1]).tolist() == [not np.array_equal(m, w) for m, w in zip(mats, mats[::-1])]
        assert not a.differs(b).any() and not a.identity(-1).differs(b.identity(-1))
        assert a.pair_traces() == [int(np.trace(mats[x] @ mats[y])) for x in range(k) for y in range(x + 1, k)]
        products = a.word_products(words)
        assert products.shape == (len(words),)
        for t, word in enumerate(words):
            want = linalg.eye(n)
            for w in word:
                want = want @ mats[w]
            assert np.array_equal(products.matrix(t), want)
        joined = linalg.OperatorStack.concat([a, b.identity()])
        assert joined.shape == (k + 1,) and np.array_equal(joined.matrix(k), linalg.eye(n))
    assert cols.word_products(words).form == "columns" and (cols @ dense).form == "dense"


def _signed_perms(rng, k, n):
    mats = []
    for _ in range(k):
        m = linalg.zeros(n)
        m[rng.permutation(n), np.arange(n)] = rng.choice([-1, 1], n)
        mats.append(m)
    return mats


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kron_agrees_with_numpy_on_both_forms(data):
    # batch x batch, batch x single, single x batch and the outer batch, on
    # column, dense and mixed operands, and with a general dense operand
    n = data.draw(st.integers(1, 4), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    k = data.draw(st.integers(1, 3), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    a_mats, b_mats = _signed_perms(rng, k, n), _signed_perms(rng, k, m)
    general = linalg.intmat(rng.integers(-5, 6, (m, m)))
    for a in (linalg.OperatorStack.of(a_mats, n), _dense_stack(a_mats, n)):
        for b in (linalg.OperatorStack.of(b_mats, m), _dense_stack(b_mats, m), _dense_stack([general] * k, m)):
            b_at = [b.matrix(t) for t in range(k)]
            pair = a.kron(b)
            assert pair.n == n * m and pair.shape == (k,)
            assert pair.form == ("columns" if a.form == b.form == "columns" else "dense")
            outer = a[:, None].kron(b[None, :])
            assert outer.shape == (k, k)
            for t in range(k):
                assert np.array_equal(pair.matrix(t), np.kron(a_mats[t], b_at[t]))
                assert np.array_equal(a.kron(b[0]).matrix(t), np.kron(a_mats[t], b_at[0]))
                assert np.array_equal(a[0].kron(b).matrix(t), np.kron(a_mats[0], b_at[t]))
                for u in range(k):
                    assert np.array_equal(outer.matrix((t, u)), np.kron(a_mats[t], b_at[u]))


def test_kron_of_dense_operands_never_wraps():
    big = linalg.OperatorStack.of([linalg.as_integer([[0, 2**40], [1, 0]])], 2)
    assert big.form == "dense"
    assert big[0].kron(big[0]).matrix().tolist() == np.kron(big.matrix(0).astype(object), big.matrix(0)).tolist()
    assert big[0].kron(big[0]).matrix()[0, 3] == 2**80


def test_diagonal():
    d = linalg.OperatorStack.diagonal([1, -1, -1])
    assert (d.form, d.shape, d.n) == ("columns", (), 3)
    assert np.array_equal(d.matrix(), np.diag([1, -1, -1]))
    eye = linalg.OperatorStack.diagonal([1] * 4)
    assert not eye.differs(eye.identity())
    assert not eye.identity(-1).differs(linalg.OperatorStack.diagonal([-1] * 4))


def test_lazy_matrices_densify_on_access():
    mats = [np.array([[0, -1], [1, 0]], dtype=np.int64), linalg.eye(2)]
    seq = linalg.LazyMatrices(linalg.OperatorStack.of(mats, 2))
    assert len(seq) == 2 and seq[-1] is seq[1]
    assert [m.tolist() for m in seq] == [m.tolist() for m in mats]
    assert isinstance(seq[1:], tuple) and [m.tolist() for m in seq[1:]] == [mats[1].tolist()]
    with pytest.raises(IndexError):
        seq[2]


def test_parse_int_matrix_is_strict():
    assert linalg.parse_int_matrix([0, 1, -1, 0], 2).dtype == np.int64
    assert linalg.parse_int_matrix([0, 2**63 - 1, 0, 0], 2).dtype == object
    for bad in ([0, 1.5, -1, 0], [0, True, -1, 0], [0, 2**63, 0, 0], [0, 1, -1], "0110"):
        with pytest.raises(ValueError):
            linalg.parse_int_matrix(bad, 2)


def test_rational_combination_and_boundary():
    one = linalg.eye(2)
    num, den = linalg.rational_combination([(Fraction(1, 2), one), (Fraction(1, 3), one)], 2)
    assert (num.tolist(), den) == ([[5, 0], [0, 5]], 6)
    assert linalg.fraction_array(num, den).tolist() == [[Fraction(5, 6), 0], [0, Fraction(5, 6)]]
    num, den = linalg.rational_combination([(Fraction(1, 2), one), (Fraction(1, 2), one)], 2)
    assert (num.tolist(), den) == ([[1, 0], [0, 1]], 1)


# -- property: integer elimination agrees with Fraction elimination ------------


small_matrices = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(small_matrices, st.sampled_from([1, 2**20, 2**40]))
def test_elimination_matches_fraction_oracle(rows, scale):
    a = linalg.as_integer(np.array(rows, dtype=object) * scale)
    red, pivots = oracle_rref(a.tolist())
    num, den, got_pivots = linalg.rref(a)
    assert got_pivots == pivots
    assert as_fractions(num, den) == red
    assert linalg.rank(a) == len(pivots)

    basis = linalg.nullspace(a)
    want = oracle_nullspace(a.tolist())
    assert len(basis) == len(want)
    for v, w in zip(basis, want):
        # the same ray, scaled to coprime integers
        free = next(c for c in range(len(w)) if c not in pivots and w[c] == 1)
        assert [Fraction(int(x), int(v[free])) for x in v] == w

    if a.shape[0] == a.shape[1]:
        want_inv = oracle_inverse(a.tolist())
        if want_inv is None:
            with pytest.raises(ValueError):
                linalg.inverse(a)
        else:
            inv_num, inv_den = linalg.inverse(a)
            assert as_fractions(inv_num, inv_den) == want_inv


def test_coords_to_skew_takes_a_stack():
    coords = np.arange(12).reshape(2, 6) - 5
    stack = linalg.coords_to_skew(coords, 4)
    assert stack.shape == (2, 4, 4)
    for row, mat in zip(coords, stack):
        assert np.array_equal(mat, linalg.coords_to_skew(row, 4))
        assert np.array_equal(linalg.skew_to_coords(mat), row)


def _bracket_oracle(mats, v, n):
    """skew_to_coords of the dense commutators [A_t, coords_to_skew(v[:, b])]."""
    skew = linalg.coords_to_skew(v.T, n)
    return np.stack([linalg.skew_to_coords(linalg.commutator(a[None], skew)).T for a in mats])


def _skew_signed_perm(rng, n):
    """A skew signed permutation: a random fixed-point-free involution p with
    A e_c = s e_{p(c)}, A e_{p(c)} = -s e_c (n even)."""
    m = linalg.zeros(n)
    order = rng.permutation(n)
    for c, d in zip(order[::2], order[1::2]):
        s = rng.choice([-1, 1])
        m[d, c], m[c, d] = s, -s
    return m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_coords_agrees_with_dense_commutators(data):
    n = data.draw(st.integers(2, 8), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    h = data.draw(st.integers(1, 3), label="h")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    kind = data.draw(st.sampled_from(["skew signed permutations", "dense skew", "signed permutations"]))
    if kind == "skew signed permutations" and n % 2:
        kind = "dense skew"  # no skew matrix of odd size is invertible
    if kind == "skew signed permutations":
        mats = [_skew_signed_perm(rng, n) for _ in range(k)]
    elif kind == "dense skew":
        mats = [a - a.T for a in rng.integers(-4, 5, (k, n, n))]
    else:
        mats = _signed_perms(rng, k, n)
    v = rng.integers(-9, 10, (n * (n - 1) // 2, h))
    stack = linalg.OperatorStack.of(mats, n)
    want = _bracket_oracle(mats, v, n)
    got = stack.bracket_coords(v)
    assert got.shape == (k, n * (n - 1) // 2, h) and np.array_equal(got, want)
    assert np.array_equal(_dense_stack(mats, n).bracket_coords(v), want)


def test_bracket_coords_takes_no_gather_for_a_column_form_that_is_not_skew():
    # the skew signed permutation e_0 <-> e_5, e_1 <-> e_4, e_2 <-> e_3 with
    # the sign of its column 0 flipped is still a column form; the gather
    # formula, which reads A[5, 0] as -s_5, would answer wrongly on the rows
    # (a, 5), 0 < a < 5
    good = linalg.zeros(6)
    for c, d in ((0, 5), (1, 4), (2, 3)):
        good[d, c], good[c, d] = 1, -1
    bad = good.copy()
    bad[5, 0] = -1
    stack = linalg.OperatorStack.of([good, bad], 6)
    assert stack.form == "columns" and not linalg.is_skew(bad)
    v = np.random.default_rng(1).integers(-9, 10, (15, 4))
    assert np.array_equal(stack.bracket_coords(v), _bracket_oracle([good, bad], v, 6))


def test_bracket_coords_stays_exact_past_int64():
    a = _skew_signed_perm(np.random.default_rng(2), 4)
    v = linalg.as_integer(np.full((6, 1), 2**62, dtype=object))
    got = linalg.OperatorStack.of([a], 4).bracket_coords(v)
    assert got.dtype == object
    assert got.tolist() == _bracket_oracle([a], v.astype(object), 4).tolist()


def test_pair_table_is_built_once_per_n_and_read_only():
    table = linalg.pair_table(6)
    assert all(x is y for x, y in zip(linalg.pair_table(6), table))
    assert all(x is y for x, y in zip(linalg.pair_index(6), table[2:]))
    a, b = np.triu_indices(6, 1)
    assert np.array_equal(table[0], a) and np.array_equal(table[1], b)
    idx, sgn = table[2:]
    assert np.array_equal(idx[a, b], np.arange(15)) and np.array_equal(idx[b, a], np.arange(15))
    assert np.array_equal(sgn, -np.sign(np.subtract.outer(np.arange(6), np.arange(6))))
    for x in table:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1


def test_verify_all_builds_one_pair_triangle_per_n(monkeypatch, capsys):
    built = Counter()
    triu_indices = np.triu_indices

    def counting(n, k=0, m=None):
        built[n] += 1
        return triu_indices(n, k, m)

    monkeypatch.setattr(np, "triu_indices", counting)
    linalg.pair_table.cache_clear()
    assert cli.main(["verify-all"]) == 0
    capsys.readouterr()
    assert built and max(built.values()) == 1, dict(built)
