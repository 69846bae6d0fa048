"""Exact linear algebra over the integers and the rationals.

There is one exact number format.  A rational matrix is an integer numerator
array over one positive int denominator, ``(num, den)``.  The numerator is an
int64 array where a bound certifies that every value stays below 2^62, and
an object array of Python ints otherwise.  The spare bit makes the sum or
difference of two int64 arrays exact, so nothing wraps silently.  Rational scalar objects appear only at the public boundary,
where ``fraction_array`` turns ``(num, den)`` into the matrix of fractions a
caller expects.

Products climb a certificate ladder (``imatmul``): float64 BLAS when
max|a| max|b| k < 2^53, where float64 arithmetic on integers is exact; int64
when that bound is below 2^62; Python ints otherwise.  A Python-int operand
keeps the product in Python ints.

``OperatorStack`` holds a batch of n x n integer matrices.  It decides once,
when it is built, whether it keeps them as signed-permutation column forms
or as dense exact arrays, and every operation means the same on both, so
no caller asks which form a stack has.

The pair basis of 2-forms has one index table per n (``pair_table``): the
pairs a < b in row order, the row of each pair and its sign.  It is built
once per n, cached, and read-only, so every caller shares the same arrays.

Every matrix the library inverts has orthogonal columns, certified by
``orthogonal_gram``, so no library path eliminates.  ``rref``, ``rank``,
``nullspace`` (a primitive integer basis) and ``inverse`` are the reference
tests compare against: fraction-free elimination (Bareiss 1968, Math.
Comp. 22) in Python ints, with the reduced echelon form as ``(num, den)``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

_FLOAT_EXACT_BOUND = 2**53
_INT64_BOUND = 2**62


def intmat(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(n: int, m: int | None = None) -> np.ndarray:
    return np.zeros((n, m if m is not None else n), dtype=np.int64)


def is_skew(a: np.ndarray) -> bool:
    return np.array_equal(a.T, -a)


def signed_perm_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Column form of a signed permutation, a e_j = sign[j] e_{perm[j]};
    None when ``a`` is not a square int64 signed permutation.

    An O(n^2) certificate: n nonzero entries, the first nonzero of each
    column is +-1 (so no column is empty and none holds a second entry),
    and perm is a bijection.  No entry is negated, so nothing can wrap.
    """
    a = np.asarray(a)
    if a.dtype != np.int64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    n = a.shape[0]
    if np.count_nonzero(a) != n:
        return None
    perm = (a != 0).argmax(axis=0)
    sign = a[perm, np.arange(n)]
    if np.count_nonzero((sign == 1) | (sign == -1)) != n:
        return None
    hit = np.zeros(n, dtype=bool)
    hit[perm] = True
    return (perm, sign) if np.count_nonzero(hit) == n else None


def signed_perm_matrix(perm: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The dense int64 matrices of column forms (perm, sign) of shape
    batch + (n,); inverse of signed_perm_columns."""
    n = perm.shape[-1]
    out = np.zeros(perm.shape + (n,), dtype=np.int64)
    flat = out.reshape(-1, n, n)
    flat[np.arange(len(flat))[:, None], perm.reshape(-1, n), np.arange(n)] = sign.reshape(-1, n)
    return out


def max_abs(a: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array), taken
    from the extremes: np.abs wraps the int64 -2^63 to itself."""
    a = np.asarray(a)
    return max(int(a.max()), -int(a.min())) if a.size else 0


def exact(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` in the dtype that holds every value up to ``bound`` exactly:
    int64 below 2^62, Python-int objects from there on."""
    return a.astype(np.int64 if bound < _INT64_BOUND else object, copy=False)


def _shrink(a: np.ndarray) -> np.ndarray:
    """Back to int64 when every entry fits."""
    return exact(a, max_abs(a))


def normalize(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Lowest terms for (num, den), with den > 0 and num int64 where it fits."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(den, int(np.gcd.reduce(np.abs(num).reshape(-1), initial=0)))
    if g > 1:
        num = num // g
        den //= g
    return _shrink(num), den


def fraction_array(num: np.ndarray, den: int) -> np.ndarray:
    """The boundary form: an object array of Fractions equal to num / den."""
    from fractions import Fraction

    out = np.empty(num.shape, dtype=object)
    for idx, x in np.ndenumerate(num):
        out[idx] = Fraction(int(x), den)
    return out


def rational_combination(terms, n: int) -> tuple[np.ndarray, int]:
    """Exact sum of c * m over (c, m) in ``terms``, m integer n x n and c an
    int or rational scalar, as (num, den) in lowest terms."""
    terms = [(c, m) for c, m in terms]
    den = math.lcm(*(c.denominator for c, _ in terms))
    scaled = [(int(c.numerator) * (den // c.denominator), m) for c, m in terms]
    # a zero m counts as 1: the scalar k must fit the dtype too
    bound = sum(abs(k) * max(max_abs(m), 1) for k, m in scaled)
    acc = exact(zeros(n), bound)
    for k, m in scaled:
        acc += k * exact(m, bound)
    return normalize(acc, den)


def stack_combination(stack: OperatorStack, coeffs) -> np.ndarray:
    """Exact sum of c * stack[t] over the int or rational coeffs c, as an
    integer matrix when it is integral, else as ``fraction_array``."""
    num, den = rational_combination(((c, stack.matrix(t)) for t, c in enumerate(coeffs)), stack.n)
    return num if den == 1 else fraction_array(num, den)


def imatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matrix product (stacks broadcast as in np.matmul).

    The cheapest certified backend is used: float64 BLAS when every partial
    sum provably stays below 2^53, int64 below 2^62, Python ints otherwise.
    """
    if a.dtype == object or b.dtype == object:
        return a.astype(object) @ b.astype(object)
    bound = max_abs(a) * max_abs(b) * a.shape[-1]
    if bound < _FLOAT_EXACT_BOUND:
        return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return exact(a, bound) @ exact(b, bound)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return imatmul(a, b) - imatmul(b, a)


# ---------------------------------------------------------------------------
# Stacks of operators.
# ---------------------------------------------------------------------------


class OperatorStack:
    """A batch of n x n exact integer matrices, of any batch shape.

    Its storage form is decided once, when the stack is built by ``of``:
    column forms when every matrix is certified by ``signed_perm_columns``,
    two arrays perm, sign of shape batch + (n,) with A e_c = sign[c]
    e_{perm[c]} (sign in int8, which holds +-1 exactly); otherwise the
    dense exact arrays, batch + (n, n), multiplied through ``imatmul``.
    Every operation means the same on both forms and keeps the form of its
    operands; one that meets both forms densifies the column one.

    ``stack[idx]`` indexes the batch (any numpy index on the leading axes),
    ``-stack`` negates, ``stack.T`` transposes every matrix, and ``@``
    multiplies with batch shapes broadcast as in ``np.matmul``.
    """

    __slots__ = ("n", "_perm", "_sign", "_dense", "_padded")

    def __init__(self, n: int, perm=None, sign=None, dense=None):
        self.n = n
        self._perm, self._sign, self._dense = perm, sign, dense
        self._padded = None

    @classmethod
    def of(cls, mats, n: int) -> "OperatorStack":
        """The n x n matrices ``mats`` along one batch axis, each certified once."""
        mats = list(mats)
        perm = np.empty((len(mats), n), dtype=np.intp)
        sign = np.empty((len(mats), n), dtype=np.int8)
        for t, m in enumerate(mats):
            cols = signed_perm_columns(m) if np.shape(m) == (n, n) else None
            if cols is None:
                return cls(n, dense=np.stack([np.asarray(a) for a in mats]))
            perm[t], sign[t] = cols
        return cls(n, perm, sign)

    @classmethod
    def concat(cls, parts) -> "OperatorStack":
        """The stacks ``parts`` joined along one batch axis (each flattened;
        a stack without batch axes is one matrix)."""
        n = parts[0].n
        if all(p._dense is None for p in parts):
            return cls(
                n,
                np.concatenate([p._perm.reshape(-1, n) for p in parts]),
                np.concatenate([p._sign.reshape(-1, n) for p in parts]),
            )
        return cls(n, dense=np.concatenate([p._array().reshape(-1, n, n) for p in parts]))

    @property
    def form(self) -> str:
        """'columns' or 'dense': how the stack is stored."""
        return "columns" if self._dense is None else "dense"

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The column forms (perm, sign), each of shape batch + (n,); None
        for a dense stack."""
        return None if self._dense is not None else (self._perm, self._sign)

    @property
    def shape(self) -> tuple[int, ...]:
        """The batch shape."""
        return self._sign.shape[:-1] if self._dense is None else self._dense.shape[:-2]

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        return f"OperatorStack(n={self.n}, shape={self.shape}, {self.form})"

    def _array(self) -> np.ndarray:
        """The dense array of the whole batch."""
        return self._dense if self._dense is not None else signed_perm_matrix(self._perm, self._sign)

    def __getitem__(self, idx) -> "OperatorStack":
        if self._dense is not None:
            return OperatorStack(self.n, dense=self._dense[idx])
        return OperatorStack(self.n, self._perm[idx], self._sign[idx])

    def __neg__(self) -> "OperatorStack":
        if self._dense is not None:
            return OperatorStack(self.n, dense=-self._dense)
        return OperatorStack(self.n, self._perm, -self._sign)

    @property
    def T(self) -> "OperatorStack":
        if self._dense is not None:
            return OperatorStack(self.n, dense=np.swapaxes(self._dense, -1, -2))
        # A e_c = a[c] e_{p[c]} gives A^T e_c = a[q[c]] e_{q[c]}, q = p^-1
        inverse = np.argsort(self._perm, axis=-1)
        return OperatorStack(self.n, inverse, np.take_along_axis(self._sign, inverse, axis=-1))

    def __matmul__(self, other: "OperatorStack") -> "OperatorStack":
        if self._dense is not None or other._dense is not None:
            return OperatorStack(self.n, dense=imatmul(self._array(), other._array()))
        # (A B) e_c = b[c] a[q[c]] e_{p[q[c]]} with (p, a), (q, b) the forms
        # of A, B: gather A's rows, flattened, at row offset + q
        n = self.n
        offset = np.arange(0, self._perm.size, n).reshape(self._perm.shape[:-1] + (1,))
        at = offset + other._perm
        sign = self._sign.reshape(-1)[at]
        sign *= other._sign
        return OperatorStack(n, self._perm.reshape(-1)[at], sign)

    def differs(self, other: "OperatorStack") -> np.ndarray:
        """Whether each matrix of the (broadcast) batch differs from the
        matching matrix of ``other``: bools of the batch shape."""
        if self._dense is not None or other._dense is not None:
            return (self._array() != other._array()).any(axis=(-2, -1))
        bad = (self._perm != other._perm).any(axis=-1)
        bad |= (self._sign != other._sign).any(axis=-1)
        return bad

    def matrix(self, idx=()) -> np.ndarray:
        """The dense matrix at batch index ``idx``: for residuals and the boundary."""
        if self._dense is not None:
            return self._dense[idx]
        return signed_perm_matrix(self._perm[idx], self._sign[idx])

    def kron(self, other: "OperatorStack") -> "OperatorStack":
        """The Kronecker product of every matrix with the matching matrix of
        ``other``, batch shapes broadcast as in ``@``; each matrix means what
        ``np.kron`` of the two would."""
        n, m = self.n * other.n, other.n
        if self._dense is not None or other._dense is not None:
            a, b = self._array(), other._array()
            bound = max_abs(a) * max_abs(b)
            out = exact(a, bound)[..., :, None, :, None] * exact(b, bound)[..., None, :, None, :]
            return OperatorStack(n, dense=out.reshape(out.shape[:-4] + (n, n)))
        # (A (x) B) e_(a m + b) = s_A[a] s_B[b] e_(p_A[a] m + p_B[b])
        perm = self._perm[..., :, None] * m + other._perm[..., None, :]
        sign = self._sign[..., :, None] * other._sign[..., None, :]
        return OperatorStack(n, perm.reshape(perm.shape[:-2] + (n,)), sign.reshape(sign.shape[:-2] + (n,)))

    @classmethod
    def diagonal(cls, signs) -> "OperatorStack":
        """The diagonal matrix of the +-1 entries ``signs``, without batch axes."""
        return cls(len(signs), np.arange(len(signs)), np.array(signs, dtype=np.int8))

    def identity(self, s: int = 1) -> "OperatorStack":
        """s times the identity, s = +-1, without batch axes."""
        if self._dense is not None:
            return OperatorStack(self.n, dense=s * eye(self.n))
        return OperatorStack.diagonal([s] * self.n)

    def word_products(self, words) -> "OperatorStack":
        """The product of self[w] over each word in ``words`` (the identity
        for an empty word), along one batch axis; self has one batch axis.
        Shorter words are padded on the left with the identity."""
        if self._padded is None:
            # the identity, then self; kept, as a stack does not change
            self._padded = OperatorStack.concat([self.identity(), self])
        padded = self._padded
        width = max([1, *map(len, words)])
        at = np.array([[0] * (width - len(w)) + [t + 1 for t in w] for w in words], dtype=np.intp)
        at = at.reshape(len(words), width)
        out = padded[at[:, 0]]
        for column in at.T[1:]:
            out = out @ padded[column]
        return out

    def bracket_coords(self, v: np.ndarray) -> np.ndarray:
        """Pair coordinates of [A_t, coords_to_skew(v[:, b])] for every matrix
        A_t of a stack with one batch axis and every column of the (m, h)
        integer matrix v: an array of shape (T, m, h).

        A skew column form, A e_c = s_c e_{p(c)} with p(p(c)) = c and
        s_{p(c)} = -s_c, gives [A, X_a ^ X_b] = s_b e_{a,p(b)} - s_a e_{b,p(a)},
        where e_{x,y} = -e_{y,x} and e_{x,x} = 0.  That map is skew for the
        coordinate pairing, so row (a, b) of it is minus column (a, b), and the
        result is two signed row gathers of v.  Any other stack, a column form
        that is not skew included, takes two 2-d products.
        """
        n, count = self.n, len(self)
        v = np.asarray(v)
        a, b, idx, sgn = pair_table(n)
        if self._dense is None and not self.T.differs(-self).any():
            p, s = self._perm, self._sign
            v = exact(v, 2 * max_abs(v))
            near, far = idx[a, p[:, b]], idx[b, p[:, a]]
            out = (-s[:, b] * sgn[a, p[:, b]])[..., None] * v[near]
            out += (s[:, a] * sgn[b, p[:, a]])[..., None] * v[far]
            return out
        # A_t V_b as (T n, n) @ (n, h n), and V_b A_t as its mirror
        mats, h = self._array(), v.shape[1]
        skew = coords_to_skew(v.T, n)
        left = imatmul(mats.reshape(count * n, n), skew.transpose(1, 0, 2).reshape(n, h * n))
        right = imatmul(skew.reshape(h * n, n), mats.transpose(1, 0, 2).reshape(n, count * n))
        left = left.reshape(count, n, h, n).transpose(0, 2, 1, 3)[..., b, a]
        right = right.reshape(h, n, count, n).transpose(2, 0, 1, 3)[..., b, a]
        return (left - right).transpose(0, 2, 1)

    def pair_traces(self) -> list[int]:
        """trace(A_x A_y) for every x < y of a stack with one batch axis, in
        row order, without forming the products."""
        if self._dense is not None:
            # one certificate for the batch: n^2 max|entry|^2 < 2^62 keeps
            # int64 accumulation exact
            mats = exact(self._dense, self.n * self.n * max_abs(self._dense) ** 2)
            return [t for x in range(len(mats) - 1) for t in np.einsum("ij,bji->b", mats[x], mats[x + 1 :]).tolist()]
        # (A_x A_y) e_c = b[c] a[q[c]] e_{p[q[c]]} with (p, a), (q, b) the
        # forms of A_x, A_y: the trace sums b[c] a[q[c]] over p[q[c]] = c,
        # and every partial sum is at most n in absolute value
        perm, sign = self._perm, self._sign
        idx = np.arange(self.n)
        traces = []
        for x in range(perm.shape[0] - 1):
            q = perm[x + 1 :]
            terms = sign[x][q]
            terms *= sign[x + 1 :]
            terms[perm[x][q] != idx] = 0
            traces.extend(terms.sum(axis=1).tolist())
        return traces


class LazyMatrices(Sequence):
    """The matrices of a stack with one batch axis as a read-only sequence
    of dense arrays, each made on first access and kept."""

    def __init__(self, stack: OperatorStack):
        self._stack = stack
        self._made: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._stack)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return tuple(self[u] for u in range(len(self))[t])
        t = range(len(self))[t]
        if t not in self._made:
            self._made[t] = self._stack.matrix(t)
        return self._made[t]


# ---------------------------------------------------------------------------
# Orthogonality certificate, and elimination over the integers (Bareiss).
# ---------------------------------------------------------------------------


def orthogonal_gram(b) -> list[int]:
    """The squared column norms g of an integer matrix b, certified: b^T b =
    diag(g) with every g > 0, so diag(1/g) b^T is a left inverse of b.
    ValueError names the first pair of columns that is not orthogonal, or
    else the first zero column."""
    b = np.asarray(b)
    gram = imatmul(b.T, b)
    bad = np.argwhere(np.triu(gram, 1))
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"columns {i} and {j} are not orthogonal (inner product {gram[i, j]})")
    g = np.diagonal(gram).tolist()
    if 0 in g:
        raise ValueError(f"column {g.index(0)} is zero")
    return g


def rref(a) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form as (numerator, denominator, pivot columns).

    It is fraction-free: the numerator is an integer matrix and the positive
    denominator is the leading pivot minor; rows past the rank are zero.
    Every division is exact, and after the last step all pivots equal it.
    """
    m = np.array(a, dtype=object)
    if m.ndim != 2:
        raise ValueError("elimination needs a 2-d matrix")
    n_rows, n_cols = m.shape
    pivots: list[int] = []
    prev = 1
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        p = m[r, c]
        rows = np.arange(n_rows) != r
        rest = m[rows]
        m[rows] = (p * rest - np.outer(rest[:, c], m[r])) // prev
        prev = p
        pivots.append(c)
    if not pivots:
        return _shrink(m), 1, pivots
    den = m[len(pivots) - 1, pivots[-1]]
    if den < 0:
        m, den = -m, -den
    return _shrink(m), int(den), pivots


def rank(a) -> int:
    """Rational rank of an integer matrix: the pivot count of ``rref``."""
    m = np.asarray(a)
    return len(rref(m)[2]) if m.size else 0


def nullspace(a) -> np.ndarray:
    """Primitive integer basis of the right kernel, one row per free column.

    Each vector is the rational basis vector of its free column scaled to
    coprime integers, with a positive entry in that column.
    """
    num, den, pivots = rref(a)
    free = [c for c in range(num.shape[1]) if c not in pivots]
    basis = exact(np.zeros((len(free), num.shape[1]), dtype=np.int64), max_abs(num) + den)
    basis[range(len(free)), free] = den
    basis[:, pivots] = -num[: len(pivots)][:, free].T
    return _shrink(basis // np.gcd.reduce(basis, axis=1)[:, None])


def inverse(a) -> tuple[np.ndarray, int]:
    """Inverse of a square integer matrix as (numerator, den) in lowest
    terms; raises ValueError when the matrix is singular."""
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    num, den, pivots = rref(np.concatenate([a, eye(n)], axis=1))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return normalize(num[:, n:], den)


# ---------------------------------------------------------------------------
# Coordinates on the space of skew matrices.
#
# A skew n x n matrix S decomposes over the basis {X_a ^ X_b}_{a<b}, where
# X_a ^ X_b acts as Z -> <X_a, Z> X_b - <X_b, Z> X_a.  The coordinate of S at
# the (a, b) slot is the entry S[b][a] (row b, column a), both zero based.
# ---------------------------------------------------------------------------


def pair_basis(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


@functools.cache
def pair_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index tables of the pair basis of R^n, (a, b, idx, sgn): the pairs
    a < b in row order, as np.triu_indices(n, 1) lists them; idx[a,b], the
    row of the pair {a, b} (0 on the diagonal); and sgn[a,b], +1 for a < b,
    -1 for a > b and 0 for a = b, so that X_a ^ X_b = sgn[a,b] times the
    basis element of row idx[a,b].  Built once per n and shared by every
    caller, so every array is read-only: writing into one raises ValueError."""
    a, b = np.triu_indices(n, 1)
    sgn = -np.sign(np.subtract.outer(np.arange(n), np.arange(n)))
    idx = np.zeros((n, n), dtype=np.intp)
    idx[a, b] = idx[b, a] = np.arange(len(a))
    for x in (a, b, idx, sgn):
        x.flags.writeable = False
    return a, b, idx, sgn


def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """idx and sgn of ``pair_table(n)``: the row of the pair {a, b} and the
    sign of X_a ^ X_b against it, cached per n and read-only."""
    return pair_table(n)[2:]


def skew_to_coords(m: np.ndarray) -> np.ndarray:
    """Pair coordinates of a skew matrix, or of each matrix in a stack."""
    a, b, _, _ = pair_table(m.shape[-1])
    return m[..., b, a]


def coords_to_skew(v, n: int) -> np.ndarray:
    """The skew matrix with pair coordinates v, or one for each row of a stack."""
    v = np.asarray(v)
    a, b, _, _ = pair_table(n)
    out = np.zeros(v.shape[:-1] + (n, n), dtype=v.dtype)
    out[..., b, a] = v
    out[..., a, b] = -v
    return out


def elementary_rotation(a: int, b: int, n: int) -> np.ndarray:
    """The generator X_a ^ X_b of so(n): sends X_a to X_b, X_b to -X_a."""
    m = zeros(n)
    m[b, a] = 1
    m[a, b] = -1
    return m


def as_integer(a) -> np.ndarray:
    """``a`` as an exact integer array, int64 where it fits; ValueError when
    an entry is not an integer (bools and floats included)."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "iu":
        for x in arr.flat:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"entry {x!r} is not an integer")
    return exact(arr, max_abs(arr))


def parse_int_matrix(flat, n: int) -> np.ndarray:
    """An n x n matrix from a flat JSON list of exactly n^2 integers.

    Bools, floats and anything of absolute value 2^63 or more raise
    ValueError; nothing is rounded, truncated or wrapped.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension {n!r} is not a positive integer")
    if not isinstance(flat, list) or len(flat) != n * n:
        raise ValueError(f"expected a list of {n * n} integers")
    if set(map(type, flat)) - {int}:
        bad = next(x for x in flat if type(x) is not int)
        raise ValueError(f"entry {bad!r} is not an integer")
    try:
        m = np.array(flat, dtype=np.int64).reshape(n, n)
    except OverflowError:
        m = None
    if m is None or (m == np.iinfo(np.int64).min).any():
        raise ValueError("an entry is outside the signed 64-bit range")
    return exact(m, max_abs(m))


def rank_mod_p(a: np.ndarray, p: int = 2_147_483_647) -> int:
    """Rank over GF(p); a lower bound for the rational rank.

    Used only to certify upper bounds on kernel dimensions for large integer
    systems where exact elimination would be slow.
    """
    m = np.mod(a.astype(object), p).astype(np.int64) % p
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        rows = np.nonzero(m[r:, c])[0]
        if rows.size == 0:
            continue
        i = r + int(rows[0])
        m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1 :, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            # entries stay below p < 2^31, so the products fit in int64
            m[r + 1 + nz] = (m[r + 1 + nz] - np.outer(below[nz], m[r])) % p
        r += 1
        if r == n_rows:
            break
    return r
