"""Verification of even Clifford structures on a fixed fibre.

An even Clifford structure of rank r on R^n is held as the family of skew
endomorphisms J_ij = phi(e_i . e_j).  This module checks the defining
relations and trace orthogonality, forms the volume endomorphism, performs
the rank-4 splitting into two quaternionic blocks, extends rank 3 mod 4
structures to full Clifford families via the Hodge dual, and implements the
universality criterion deciding when a linear map on 2-forms extends to a
morphism of the whole even algebra.

Everything is exact; a residual is reported as the largest absolute entry of
the violated identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .blades import AlgebraSignature, CliffordElement, hodge_dual_vector, volume_element, volume_square_sign
from .reps import JFamily, MatrixRep, UnsupportedRankError, blade_columns, evaluate, j_family


class StructureError(ValueError):
    pass


class VolumeError(ValueError):
    """The volume endomorphism is not computable from the given data."""


class ExtensionRejected(ValueError):
    """A 2-form map failed the extension criterion; carries a witness triple."""

    def __init__(self, witness: tuple[int, int, int], message: str):
        super().__init__(message)
        self.witness = witness


def format_residual(num: np.ndarray, den: int = 1) -> str:
    """The largest absolute entry of num / den, as the report prints it."""
    return str(Fraction(linalg.max_abs(num), den))


@dataclass
class Failure:
    identity: str
    indices: tuple
    residual: str

    def to_dict(self) -> dict:
        return {"identity": self.identity, "indices": list(self.indices), "residual": self.residual}


@dataclass
class VerificationReport:
    """The result of one check: it passes exactly when no failure, each with
    its witness, was found."""

    suite: str
    failures: list[Failure] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
            "data": self.data,
        }


class EvenCliffordStructure:
    """A J-family on R^n, optionally backed by the representation built it.

    The container stores J_ij for i < j only; J_ji = -J_ij and J_ii = -id
    hold by construction, so the verification suites check the remaining
    content: skewness, unit squares, shared-index composition, disjoint
    commutation, and trace orthogonality.  Each J_ij with unit square has
    trace pairing <J_ij, J_ij> = -n automatically.
    """

    def __init__(self, n: int, r: int, family: JFamily, rep: MatrixRep | None = None):
        if family.n != n or family.r != r:
            raise StructureError("family shape disagrees with declared (n, r)")
        self.n = n
        self.r = r
        self.family = family
        self.rep = rep

    @classmethod
    def from_rep(cls, rep: MatrixRep) -> "EvenCliffordStructure":
        fam = j_family(rep)
        return cls(rep.dim, rep.rank, fam, rep)

    @classmethod
    def from_matrices(cls, n: int, r: int, mats: Mapping[tuple[int, int], np.ndarray]) -> "EvenCliffordStructure":
        clean = {}
        for (i, j), m in mats.items():
            if not 1 <= i < j <= r:
                raise StructureError(f"family keys must satisfy 1 <= i < j <= r, got {(i, j)}")
            arr = np.asarray(m)
            if arr.shape != (n, n):
                raise StructureError(f"J_{i}{j} has shape {arr.shape}, expected {(n, n)}")
            try:
                clean[(i, j)] = linalg.as_integer(arr)
            except ValueError as err:
                raise StructureError(f"J_{i}{j}: {err}") from None
        expected = {(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)}
        if set(clean) != expected:
            raise StructureError("family must contain exactly the pairs i < j")
        return cls(n, r, JFamily(n, r, clean))

    def j(self, i: int, j: int) -> np.ndarray:
        return self.family.j(i, j)

    def pairs(self) -> list[tuple[int, int]]:
        return self.family.pairs()

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "n": self.n,
                "r": self.r,
                "J": [
                    {"i": i, "j": j, "matrix": self.family.mats[(i, j)].reshape(-1).tolist()}
                    for (i, j) in self.pairs()
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "EvenCliffordStructure":
        """Load a repgen file (any object with a rank, dim, kind or
        generators field) or an explicit family.

        Only JSON integers below 2^63 in absolute value are accepted, exactly
        n^2 per matrix; anything else raises StructureError, or
        RepresentationError for a repgen file.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise StructureError("a structure file holds one JSON object")
        if data.keys() & {"rank", "dim", "kind", "generators"}:
            return cls.from_rep(MatrixRep.from_json(text))
        n, r, entries = (_field(data, key, "the family") for key in ("n", "r", "J"))
        if not (_is_int(n) and _is_int(r) and n >= 1):
            raise StructureError("n and r must be integers, n >= 1")
        if not (isinstance(entries, list) and all(isinstance(t, dict) for t in entries)):
            raise StructureError("J must be a list of objects")
        mats = {}
        for at, t in enumerate(entries):
            key = (_field(t, "i", f"J entry {at}"), _field(t, "j", f"J entry {at}"))
            if not all(_is_int(x) for x in key):
                raise StructureError(f"family keys must be integers, got {key}")
            flat = _field(t, "matrix", f"J entry {at}")
            try:
                mats[key] = linalg.parse_int_matrix(flat, n)
            except ValueError as err:
                raise StructureError(f"J_{key[0]}{key[1]}: {err}") from None
        return cls.from_matrices(n, r, mats)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _field(obj: dict, key: str, where: str):
    """obj[key], or a StructureError naming the missing field and where."""
    if key not in obj:
        raise StructureError(f"{where} has no field {key!r}")
    return obj[key]


def verify_relations(s: EvenCliffordStructure) -> VerificationReport:
    """Exact check of the Clifford relations of the family.

    Signed-permutation families are checked on their column forms, with
    batched gathers; every other family runs through batched products
    certified by ``linalg.imatmul``.  Both report the same failures in the
    same order.
    """
    failures = _verify_relations_signed_perm(s)
    if failures is None:
        failures = _verify_relations_dense(s)
    return VerificationReport("relations", failures)


def _verify_relations_signed_perm(s: EvenCliffordStructure) -> list[Failure] | None:
    """The relation suite on the stored column forms: A e_c = a[c] e_{p[c]},
    and the product A B has perm p_A[p_B] and sign b * a[p_B].

    Each identity family is one gather over a batch, compared by masks;
    only failing identities are densified, for their residual.  Each family
    is checked in its own function, so its temporaries are freed before
    the next one.  Returns None when the family is stored dense.
    """
    cols = s.family.columns
    if cols is None:
        return None
    failures = _square_failures(s.pairs(), *cols)
    if s.r >= 3:
        failures += _shared_index_failures(s.r, s.pairs(), *cols)
        failures += _disjoint_failures(s.pairs(), *cols)
    return failures


def _perm_residual(p: np.ndarray, sg: np.ndarray, q: np.ndarray, sq: np.ndarray) -> str:
    return format_residual(linalg.signed_perm_matrix(p, sg) - linalg.signed_perm_matrix(q, sq))


def _square_failures(pairs, perm: np.ndarray, sign: np.ndarray) -> list[Failure]:
    """Skewness and unit squares.  A signed permutation is orthogonal, so
    A^T = -A exactly when A^2 = -1, that is when p[p] = id and a[p] = -a."""
    n = perm.shape[1]
    stack = np.arange(len(pairs)).reshape(-1, 1)
    sq_perm, sq_sign = perm[stack, perm], sign * sign[stack, perm]
    failures = []
    for t in np.flatnonzero(~((sq_perm == np.arange(n)).all(axis=1) & (sq_sign == -1).all(axis=1))):
        m = linalg.signed_perm_matrix(perm[t], sign[t])
        failures.append(Failure("skew_symmetry", pairs[t], format_residual(m + m.T)))
        square = linalg.signed_perm_matrix(sq_perm[t], sq_sign[t])
        failures.append(Failure("unit_square", pairs[t], format_residual(square + linalg.eye(n))))
    return failures


def _frame_triples(r: int, pairs, perm: np.ndarray, sign: np.ndarray, diagonal: bool):
    """The violations of J_ij J_il = J_jl (i, j, l distinct) on column forms,
    with the unit squares J_ij J_ij = -1 (j = l) too when ``diagonal``:
    one gather per i over all (j, l).

    Yields (i, j, l) and the column forms of both sides, in that order.
    """
    # every ordered pair (i, j), i != j (J_ji = -J_ij has the same perm),
    # then one row for -1, the right side at j = l
    row = {p: t for t, p in enumerate(pairs)}
    order = [(i, j) for i in range(1, r + 1) for j in range(1, r + 1) if i != j]
    pos = {p: t for t, p in enumerate(order)}
    rows = [row[(min(p), max(p))] for p in order]
    flip = np.array([1 if i < j else -1 for i, j in order], dtype=np.int64).reshape(-1, 1)
    minus_perm, minus_sign = linalg.scalar_columns(perm.shape[1], -1)
    o_perm = np.concatenate([perm[rows], minus_perm[None]])
    o_sign = np.concatenate([flip * sign[rows], minus_sign[None]])

    left = np.arange(r - 1).reshape(-1, 1, 1)
    off_diagonal = ~np.eye(r - 1, dtype=bool)
    for i in range(1, r + 1):
        js = [j for j in range(1, r + 1) if j != i]
        sel = [pos[(i, j)] for j in js]
        p_i, s_i = o_perm[sel], o_sign[sel]
        target = np.array([[pos.get((j, k), len(order)) for k in js] for j in js])
        # perms, then signs: one (r-1, r-1, n) temporary at a time
        got_perm = p_i[left, p_i[None]]
        bad = (got_perm != o_perm[target]).any(axis=2)
        got_sign = s_i[left, p_i[None]]
        got_sign *= s_i[None]
        bad |= (got_sign != o_sign[target]).any(axis=2)
        if not diagonal:
            bad &= off_diagonal
        for a, b in zip(*np.nonzero(bad)):
            t = target[a, b]
            yield (i, js[a], js[b]), (got_perm[a, b], got_sign[a, b]), (o_perm[t], o_sign[t])


def _shared_index_failures(r: int, pairs, perm: np.ndarray, sign: np.ndarray) -> list[Failure]:
    """J_ij J_ik = J_jk for distinct i, j, k."""
    return [
        Failure("shared_index_composition", triple, _perm_residual(*got, *want))
        for triple, got, want in _frame_triples(r, pairs, perm, sign, diagonal=False)
    ]


def _disjoint_failures(pairs, perm: np.ndarray, sign: np.ndarray) -> list[Failure]:
    """J_ij J_kl = J_kl J_ij for disjoint pairs: one gather per pair over
    its later partners."""
    first = np.array([p[0] for p in pairs]).reshape(-1, 1)
    second = np.array([p[1] for p in pairs]).reshape(-1, 1)
    disjoint = (first != first.T) & (first != second.T) & (second != first.T) & (second != second.T)
    later = np.triu(disjoint, 1)
    failures = []
    for t in np.flatnonzero(later.any(axis=1)):
        others = np.flatnonzero(later[t])
        p_t, s_t, p_u, s_u = perm[t], sign[t], perm[others], sign[others]
        ab_perm, ab_sign = p_t[p_u], s_u * s_t[p_u]
        ba_perm, ba_sign = p_u[:, p_t], s_t * s_u[:, p_t]
        bad = ((ab_perm != ba_perm) | (ab_sign != ba_sign)).any(axis=1)
        for slot in np.flatnonzero(bad):
            failures.append(
                Failure(
                    "disjoint_commutation",
                    pairs[t] + pairs[others[slot]],
                    _perm_residual(ab_perm[slot], ab_sign[slot], ba_perm[slot], ba_sign[slot]),
                )
            )
    return failures


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


def verify_orthogonality(s: EvenCliffordStructure) -> VerificationReport:
    """Trace pairings <J_ij, J_kl> that the structure forces to vanish.

    Pairs sharing exactly one index anticommute, so their pairing vanishes
    for every rank.  Pairings of disjoint index pairs vanish for r != 4; for
    r = 4 they are reported as data without being asserted.  Traces of
    signed-permutation families are summed on column forms, all others by
    ``linalg.trace_products``.
    """
    pairs = s.pairs()
    checked = [(x, y) for x in range(len(pairs)) for y in range(x + 1, len(pairs))]
    cols = s.family.columns
    if cols is None:
        traces = linalg.trace_products([s.family.mats[p] for p in pairs], checked)
    else:
        traces = _signed_perm_traces(*cols)
    failures = []
    pairings = {}
    for (x, y), t in zip(checked, traces):
        (i, j), (k, l) = pairs[x], pairs[y]
        if len({i, j} & {k, l}) == 1:
            if t != 0:
                failures.append(Failure("shared_index_orthogonality", (i, j, k, l), str(t)))
        elif s.r == 4:
            pairings[f"({i},{j}),({k},{l})"] = str(t)
        elif t != 0:
            failures.append(Failure("disjoint_orthogonality", (i, j, k, l), str(t)))
    data = {"pairings": pairings} if s.r == 4 else {}
    return VerificationReport("orthogonality", failures, data)


def _signed_perm_traces(perm: np.ndarray, sign: np.ndarray) -> list[int]:
    """trace(A_x A_y) for every x < y of a stack of column forms, row by row.

    (A_x A_y) e_c = b[c] a[q[c]] e_{p[q[c]]} with (p, a), (q, b) the forms
    of A_x, A_y, so the trace sums b[c] a[q[c]] over the c with p[q[c]] = c;
    every partial sum is at most n in absolute value.
    """
    idx = np.arange(perm.shape[1])
    traces = []
    for x in range(perm.shape[0] - 1):
        q = perm[x + 1 :]
        terms = sign[x][q]
        terms *= sign[x + 1 :]
        terms[perm[x][q] != idx] = 0
        traces.extend(terms.sum(axis=1).tolist())
    return traces


def volume_endomorphism(s: EvenCliffordStructure) -> tuple[np.ndarray, dict]:
    """Image of the volume element, with its square sign and commutation data.

    For even rank the volume is the product of the disjoint J_12 J_34 ...;
    for odd rank it is odd, so a backing representation of the full algebra
    is required.
    """
    if s.r % 2 == 0:
        v = s.j(1, 2)
        for i in range(3, s.r, 2):
            v = linalg.imatmul(v, s.j(i, i + 1))
    else:
        if s.rep is None or s.rep.kind != "full":
            raise VolumeError(
                "odd-rank volume is an odd element; it needs a backing"
                " representation of the full Clifford algebra"
            )
        v = evaluate(s.rep, volume_element(AlgebraSignature(s.r)))
    sq = linalg.imatmul(v, v)
    expected_sign = volume_square_sign(s.r)
    n = s.n
    ident = linalg.eye(n)
    report = {
        "square_sign": expected_sign,
        "square_matches": not (sq - expected_sign * ident).any(),
        "commutes_with_family": all(
            not linalg.commutator(v, s.j(i, j)).any() for (i, j) in s.pairs()
        ),
    }
    if s.rep is not None and s.rep.kind == "full":
        sign = -1 if s.r % 2 == 0 else 1
        report["generator_commutation_sign"] = sign
        report["generator_commutation_matches"] = all(
            np.array_equal(linalg.imatmul(v, g), sign * linalg.imatmul(g, v)) for g in s.rep.generators
        )
    return v, report


# -- rank 4 splitting ---------------------------------------------------------


@dataclass
class SplitResult:
    p_plus: np.ndarray
    p_minus: np.ndarray
    frames_plus: tuple[np.ndarray, np.ndarray, np.ndarray]
    frames_minus: tuple[np.ndarray, np.ndarray, np.ndarray]
    j_plus: dict
    j_minus: dict
    report: VerificationReport


def split_rank4(s: EvenCliffordStructure) -> SplitResult:
    """Split a rank-4 structure along the volume involution.

    Builds the projectors on the +-1 eigenspaces of v = J_12 J_34, the two
    derived frames

        f+-_1 = (J_12 +- J_34)/2,  f+-_2 = (J_13 -+ J_24)/2,  f+-_3 = (J_14 +- J_23)/2,

    and the rank-3 families J+-_ab = f+-_a f+-_b.  Checks, exactly: the
    closed forms J+-_12 = +-(J_14 +- J_23)/2, J+-_31 = +-(J_13 -+ J_24)/2,
    J+-_23 = +-(J_12 +- J_34)/2; that each family annihilates its own
    eigenspace; the quaternion relations on the opposite eigenspace; and the
    commutation of the plus family with the minus family.
    """
    if s.r != 4:
        raise StructureError("splitting is defined for rank 4 only")
    v, vol_report = volume_endomorphism(s)
    ident = linalg.eye(s.n)
    if (linalg.imatmul(v, v) - ident).any():
        raise StructureError("volume endomorphism is not an involution")

    # numerators: projectors and frames over 2, the derived families over 4;
    # every sum below stays under 32 n max|J|^2, else Python ints throughout
    bound = 32 * s.n * max(linalg.max_abs(m) for m in s.family.mats.values()) ** 2
    mats = {p: linalg.exact(m, bound) for p, m in s.family.mats.items()}
    mm = linalg.imatmul

    def j(a, b):
        return mats[(a, b)]

    projector = {1: ident + v, -1: ident - v}
    frames = {
        sign: (j(1, 2) + sign * j(3, 4), j(1, 3) - sign * j(2, 4), j(1, 4) + sign * j(2, 3))
        for sign in (1, -1)
    }

    failures = []

    def check(name, indices, num, den):
        if num.any():
            failures.append(Failure(name, indices, format_residual(num, den)))

    fams = {}
    for sign, tag in ((1, "+"), (-1, "-")):
        f1, f2, f3 = frames[sign]
        fam = {(1, 2): mm(f1, f2), (2, 3): mm(f2, f3), (3, 1): mm(f3, f1)}
        fams[sign] = fam
        # J+-_12 = +-f3 / 2, J+-_31 = +-f2 / 2, J+-_23 = +-f1 / 2
        for key, frame in (((1, 2), f3), ((3, 1), f2), ((2, 3), f1)):
            check(f"closed_form_{tag}", key, fam[key] - 2 * sign * frame, 4)
        own, opposite = projector[sign], projector[-sign]
        for key in ((1, 2), (2, 3), (3, 1)):
            check(f"annihilates_own_block_{tag}", key, mm(fam[key], own), 8)
        # quaternion relations restricted to the opposite eigenspace
        i_m, j_m, k_m = fam[(1, 2)], fam[(2, 3)], fam[(3, 1)]
        check(f"square_{tag}", (1, 2), mm(mm(i_m, i_m) + 16 * ident, opposite), 32)
        check(f"square_{tag}", (2, 3), mm(mm(j_m, j_m) + 16 * ident, opposite), 32)
        check(f"square_{tag}", (3, 1), mm(mm(k_m, k_m) + 16 * ident, opposite), 32)
        check(f"product_{tag}", (1, 2, 2, 3), mm(mm(i_m, j_m) - 4 * k_m, opposite), 32)
        check(f"product_{tag}", (2, 3, 3, 1), mm(mm(j_m, k_m) - 4 * i_m, opposite), 32)
        check(f"product_{tag}", (3, 1, 1, 2), mm(mm(k_m, i_m) - 4 * j_m, opposite), 32)

    for a in ((1, 2), (2, 3), (3, 1)):
        for b in ((1, 2), (2, 3), (3, 1)):
            check("cross_family_commutation", a + b, linalg.commutator(fams[1][a], fams[-1][b]), 16)

    report = VerificationReport("rank4_split", failures, {"volume": vol_report})
    half = {sign: tuple(linalg.fraction_array(f, 2) for f in frames[sign]) for sign in (1, -1)}
    quarter = {sign: {k: linalg.fraction_array(m, 4) for k, m in fams[sign].items()} for sign in (1, -1)}
    return SplitResult(
        linalg.fraction_array(projector[1], 2),
        linalg.fraction_array(projector[-1], 2),
        half[1],
        half[-1],
        quarter[1],
        quarter[-1],
        report,
    )


# -- Hodge extension ----------------------------------------------------------


def extend_hodge(s: EvenCliffordStructure) -> list[np.ndarray]:
    """Extend a rank 3 mod 4 even structure to a full Clifford family.

    K_i is the image of the Hodge dual of e_i: with star(e_i) = sign e_a1 ...
    e_a(r-1), that is sign J_a1a2 J_a3a4 ..., a product of (r-1)/2 mutually
    commuting skew endomorphisms, hence skew.  The family alone determines
    it, so explicit families extend as well.  For other ranks the duals
    square to +1 instead of -1 and no extension of this kind exists, so the
    request is refused.
    """
    if s.r % 4 != 3:
        raise UnsupportedRankError(
            f"rank {s.r}: the grade r-1 duals square to +1 unless r = 3 mod 4;"
            " no Hodge extension exists"
        )
    sig = AlgebraSignature(s.r)
    ks = []
    for i in range(1, s.r + 1):
        dual = hodge_dual_vector(i, sig)
        rest = dual.index_set
        factors = (s.j(rest[t], rest[t + 1]) for t in range(0, len(rest), 2))
        ks.append(dual.sign * reduce(linalg.imatmul, factors))
    n = s.n
    ident = linalg.eye(n)
    for a, ka in enumerate(ks):
        if (ka + ka.T).any():
            raise StructureError(f"Hodge dual image {a + 1} is not skew")
        for b, kb in enumerate(ks):
            want = -2 * ident if a == b else linalg.zeros(n)
            if not np.array_equal(linalg.anticommutator(ka, kb), want):
                raise StructureError(f"extension fails anticommutation at ({a + 1}, {b + 1})")
    return ks


def verify_hodge(s: EvenCliffordStructure, skip_other_ranks: bool = False) -> VerificationReport:
    """The Hodge extension as a check: a failure when none can be built.

    With ``skip_other_ranks`` a rank other than 3 mod 4, where no extension
    exists, is recorded as skipped instead of failing.
    """
    if skip_other_ranks and s.r % 4 != 3:
        return VerificationReport("hodge", data={"skipped": f"rank {s.r} is not 3 mod 4; no extension exists"})
    try:
        ks = extend_hodge(s)
    except (UnsupportedRankError, StructureError) as err:
        return VerificationReport("hodge", [Failure("hodge_extension", (), str(err))])
    return VerificationReport("hodge", data={"extension_rank": len(ks)})


# -- universality -------------------------------------------------------------


class EvenAlgebraMorphism:
    """Algebra morphism Cl0_k -> matrices, built from images of 2-forms.

    Blades map to products of sigma matrices, where sigma_ij is the image of
    the Clifford product e_i . e_j: J_ij of the family for i != j, and
    -identity for i = j.  When the family is stored in column form, the
    factors of a blade are composed in column form and scattered once.
    """

    def __init__(self, k: int, n: int, family: JFamily):
        self.k = k
        self.n = n
        self.family = family
        self._row = {p: t for t, p in enumerate(family.pairs())}

    def _factors(self, indices: Sequence[int]) -> list[tuple[int, int]]:
        if len(indices) % 2:
            raise StructureError("morphism of the even algebra: blades must be even")
        return [(indices[t], indices[t + 1]) for t in range(0, len(indices), 2)]

    def _sigma_columns(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        if i == j:
            return linalg.scalar_columns(self.n, -1)
        perm, sign = self.family.columns
        t = self._row[(min(i, j), max(i, j))]
        return perm[t], sign[t] if i < j else -sign[t]

    def blade_columns(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray] | None:
        """Column form of the image of the blade; None for a dense family."""
        factors = self._factors(indices)
        if self.family.columns is None:
            return None
        sigmas = (self._sigma_columns(i, j) for i, j in factors)
        return reduce(linalg.compose_columns, sigmas, linalg.scalar_columns(self.n))

    def on_blade(self, indices: Sequence[int]) -> np.ndarray:
        cols = self.blade_columns(indices)
        if cols is not None:
            return linalg.signed_perm_matrix(*cols)
        factors = (self.family.j(i, j) for i, j in self._factors(indices))
        return reduce(linalg.imatmul, factors, linalg.eye(self.n))

    def __call__(self, x: CliffordElement) -> np.ndarray:
        if x.signature.rank != self.k:
            raise StructureError("element rank disagrees with morphism domain")
        if not x.is_even():
            raise StructureError("morphism is defined on the even algebra only")
        num, den = linalg.rational_combination(
            ((coeff, self.on_blade(indices)) for indices, coeff in x.items()), self.n
        )
        return num if den == 1 else linalg.fraction_array(num, den)


def _map_family(phi: Mapping[tuple[int, int], np.ndarray], k: int, n: int | None) -> JFamily:
    """The images phi(e_i ^ e_j), i < j <= k, as a family (certified there)."""
    mats = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if (i, j) not in phi:
                raise StructureError(f"phi must provide every pair i < j; missing {(i, j)}")
            try:
                mats[(i, j)] = linalg.as_integer(phi[(i, j)])
            except ValueError as err:
                raise StructureError(f"phi{(i, j)}: {err}") from None
    if n is None:
        n = mats[(1, 2)].shape[0]
    return JFamily(n, k, mats)


def universal_extension(
    phi: JFamily | Mapping[tuple[int, int], np.ndarray], k: int, n: int | None = None
) -> EvenAlgebraMorphism:
    """Extend a linear map on 2-forms to the even Clifford algebra, or reject.

    ``phi`` is a family of rank k, or a mapping (i, j) -> phi(e_i ^ e_j) for
    every i < j <= k.  The criterion is checked on every frame triple
    (u = e_i; v = e_j, w = e_l with j, l distinct from i):

        phi(e_i ^ e_j) phi(e_i ^ e_l) = phi(e_j ^ e_l) - <e_j, e_l> id.

    The frame triples decide it: for arbitrary u, v, w the polarized identity
    sigma(u,v) + sigma(v,u) = -2<u,v> id holds because phi is skew, and
    sigma(v,u) sigma(u,w) = -<u,u> sigma(v,w) expands in u into frame cases
    plus cross terms u_a u_b that cancel by the frame identity at i = a.
    A family in column form is checked in batched gathers, one per i, any
    other by exact products.  Rejection carries the first witnessing triple
    in (i, j, l) order; after acceptance the morphism is returned.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k < 2:
        if n is None:
            raise ValueError("for k < 2 the target dimension n is required")
        return EvenAlgebraMorphism(k, n, JFamily(n, k, {}))
    fam = phi if isinstance(phi, JFamily) else _map_family(phi, k, n)
    if fam.r != k:
        raise StructureError(f"a rank-{fam.r} family is no map on the 2-forms of rank {k}")

    if fam.columns is not None:
        witness = next((t for t, _, _ in _frame_triples(k, fam.pairs(), *fam.columns, diagonal=True)), None)
    else:
        triples = ((i, j, l) for i in range(1, k + 1) for j in range(1, k + 1) for l in range(1, k + 1))
        # J_jj = -id is the right side at j = l
        witness = next(
            (
                (i, j, l)
                for i, j, l in triples
                if i not in (j, l) and not np.array_equal(linalg.imatmul(fam.j(i, j), fam.j(i, l)), fam.j(j, l))
            ),
            None,
        )
    if witness is not None:
        i, j, l = witness
        raise ExtensionRejected(witness, f"extension criterion fails at u=e_{i}, v=e_{j}, w=e_{l}")
    return EvenAlgebraMorphism(k, fam.n, fam)


def verify_universality(
    s: EvenCliffordStructure, products: Sequence[tuple[CliffordElement, CliffordElement]] = ()
) -> VerificationReport:
    """The extension criterion as a check on the family's 2-form map.

    A structure backed by a representation must also agree with the
    extension on every even blade, and every given pair (a, b) of even
    elements with integer coefficients must multiply: ext(a b) = ext(a) ext(b).
    A blade whose two images are both certified is compared in column form
    and densified only for its residual.
    """
    try:
        ext = universal_extension(s.family, s.r, s.n)
    except ExtensionRejected as err:
        return VerificationReport("universality", [Failure("extension_criterion", err.witness, str(err))])
    failures = []
    if s.rep is not None:
        sig = AlgebraSignature(s.r)
        for mask in range(1 << s.r):
            if mask.bit_count() % 2:
                continue
            indices = tuple(i + 1 for i in range(s.r) if mask >> i & 1)
            got, want = ext.blade_columns(indices), blade_columns(s.rep, indices)
            if got is not None and want is not None:
                if all(np.array_equal(x, y) for x, y in zip(got, want)):
                    continue
                got, want = linalg.signed_perm_matrix(*got), linalg.signed_perm_matrix(*want)
            else:
                elem = CliffordElement.blade(sig, indices)
                got, want = ext(elem), evaluate(s.rep, elem)
                if np.array_equal(got, want):
                    continue
            failures.append(Failure("blade_round_trip", indices, format_residual(got - want)))
    for t, (a, b) in enumerate(products):
        got, want = ext(a * b), linalg.imatmul(ext(a), ext(b))
        if not np.array_equal(got, want):
            failures.append(Failure("multiplicativity", (t,), format_residual(got - want)))
    return VerificationReport("universality", failures, {"accepted": True})
