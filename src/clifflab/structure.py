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
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .blades import AlgebraSignature, CliffordElement, hodge_dual_vector, volume_square_sign
from .reps import JFamily, MatrixRep, UnsupportedRankError, anticommutation_failures, blade_images, j_family


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

    The generator certificate (``_generators_certified``) checks only the
    first row J_12 ... J_1r, and when it holds it decides the relations, the
    orthogonality suite for r != 4 and the extension criterion; the direct
    scans of every identity run only when it fails, to name the witnesses.
    The rank-4 disjoint pairings are data, so they are always computed.
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

    The generator certificate decides every relation: when it holds they
    all hold and nothing else is multiplied.  When it fails, each identity
    (skewness, unit squares, shared-index composition, disjoint commutation)
    is checked directly, one batch of products on the family's stack, and
    only a failing identity is densified, for its residual.
    """
    if _generators_certified(s.family):
        return VerificationReport("relations")
    failures = _square_failures(s.family)
    if s.r >= 3:
        failures += [
            Failure("shared_index_composition", triple, _residual(got, want))
            for triple, got, want in _frame_triples(s.family, diagonal=False)
        ]
        failures += _disjoint_failures(s.family)
    return VerificationReport("relations", failures)


def _residual(got: linalg.OperatorStack, want: linalg.OperatorStack) -> str:
    return format_residual(got.matrix() - want.matrix())


def _square_failures(fam: JFamily) -> list[Failure]:
    """Skewness and unit squares."""
    stack = fam.stack
    squares, minus, minus_t = stack @ stack, stack.identity(-1), -stack.T
    not_skew, not_square = stack.differs(minus_t), squares.differs(minus)
    failures = []
    for t, pair in enumerate(fam.pairs()):
        if not_skew[t]:
            failures.append(Failure("skew_symmetry", pair, _residual(stack[t], minus_t[t])))
        if not_square[t]:
            failures.append(Failure("unit_square", pair, _residual(squares[t], minus)))
    return failures


def _generators_certified(fam: JFamily) -> bool:
    """The generator certificate: g_j = J_1j (j = 2..r) are skew, and
    J_1j J_1l = J_jl for all j, l >= 2, with J_jj = -1 on the diagonal.

    It proves every identity the suites check.  Since J_lj = -J_jl, the
    certificate says that the g_j anticommute, square to -1 and are skew,
    and that J_jl = g_j g_l (j != l).  So the J_ij are the images of the
    blades e_i e_j = (e_1 e_i)(e_1 e_j) under Cl0_r = Cl_{r-1}, e_1 e_j ->
    g_j (Lawson-Michelsohn, Spin Geometry, I.3), an algebra morphism, and
    every relation of the blades holds for them:

    - every J_jl = g_j g_l is skew ((g_j g_l)^T = g_l g_j = -g_j g_l) with
      J_jl^2 = -g_j^2 g_l^2 = -1;
    - every frame triple J_ij J_il = J_jl holds, as e_i e_j e_i e_l =
      e_j e_l;
    - disjoint pairs commute: moving e_k e_l past e_i e_j takes four
      anticommutations;
    - two J sharing exactly one index multiply to +-J_ab for the other
      indices a != b, a skew matrix, so their pairing is 0;
    - for r >= 5 a disjoint pairing tr(J_ij J_kl) is 0: with m outside
      {i, j, k, l}, J_im anticommutes with J_ij and commutes with J_kl, so
      conjugating by J_im (J_im^-1 = -J_im) negates the product, and
      tr = -tr over the integers.

    One batch of (r-1)^2 products and r-1 transposes.  False for r < 2,
    where the direct scans have nothing to multiply.
    """
    if fam.r < 2:
        return False
    ordered, row = fam.ordered
    gens = ordered[[row[(1, j)] for j in range(2, fam.r + 1)]]
    return not gens.differs(-gens.T).any() and next(_frame_triples(fam, True, rows=[1]), None) is None


def _frame_triples(fam: JFamily, diagonal: bool, rows: Sequence[int] | None = None):
    """The violations of J_ij J_il = J_jl (i, j, l distinct), with the unit
    squares J_ij J_ij = -1 (j = l) too when ``diagonal``: one batch of
    products per i in ``rows`` (default: every i) over all (j, l).

    Yields (i, j, l) and both sides, in that order.
    """
    ordered, row = fam.ordered
    r = fam.r
    off_diagonal = ~np.eye(r - 1, dtype=bool)
    for i in range(1, r + 1) if rows is None else rows:
        js = [j for j in range(1, r + 1) if j != i]
        f = ordered[[row[(i, j)] for j in js]]
        got, want = f[:, None] @ f[None, :], ordered[np.array([[row[(j, l)] for l in js] for j in js])]
        bad = got.differs(want)
        if not diagonal:
            bad &= off_diagonal
        for a, b in zip(*np.nonzero(bad)):
            yield (i, js[a], js[b]), got[a, b], want[a, b]


def _disjoint_failures(fam: JFamily) -> list[Failure]:
    """J_ij J_kl = J_kl J_ij for disjoint pairs: one batch per pair over its
    later partners."""
    pairs, stack = fam.pairs(), fam.stack
    first = np.array([p[0] for p in pairs]).reshape(-1, 1)
    second = np.array([p[1] for p in pairs]).reshape(-1, 1)
    disjoint = (first != first.T) & (first != second.T) & (second != first.T) & (second != second.T)
    later = np.triu(disjoint, 1)
    failures = []
    for t in np.flatnonzero(later.any(axis=1)):
        others = np.flatnonzero(later[t])
        ab, ba = stack[t] @ stack[others], stack[others] @ stack[t]
        for slot in np.flatnonzero(ab.differs(ba)):
            pair = pairs[t] + pairs[others[slot]]
            failures.append(Failure("disjoint_commutation", pair, _residual(ab[slot], ba[slot])))
    return failures


def verify_orthogonality(s: EvenCliffordStructure) -> VerificationReport:
    """Trace pairings <J_ij, J_kl> that the structure forces to vanish.

    Pairs sharing exactly one index anticommute, so their pairing vanishes
    for every rank.  Pairings of disjoint index pairs vanish for r != 4; for
    r = 4 they are reported as data without being asserted.

    For r != 4 the generator certificate decides every pairing; the traces
    are computed only when it fails, to name the pairs.  At r = 4 the
    traces are always computed, for the data.
    """
    if s.r != 4 and _generators_certified(s.family):
        return VerificationReport("orthogonality")
    pairs = s.pairs()
    checked = [(x, y) for x in range(len(pairs)) for y in range(x + 1, len(pairs))]
    failures = []
    pairings = {}
    for (x, y), t in zip(checked, s.family.stack.pair_traces()):
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


def volume_endomorphism(s: EvenCliffordStructure) -> tuple[np.ndarray, dict]:
    """Image of the volume element, with its square sign and commutation data.

    For even rank the volume is the product of the disjoint J_12 J_34 ...;
    for odd rank it is odd, so a backing representation of the full algebra
    is required.
    """
    if s.r % 2 == 0:
        ordered, row = s.family.ordered
        v = ordered.word_products([[row[(i, i + 1)] for i in range(1, s.r, 2)]])[0]
    else:
        if s.rep is None or s.rep.kind != "full":
            raise VolumeError(
                "odd-rank volume is an odd element; it needs a backing"
                " representation of the full Clifford algebra"
            )
        v = blade_images(s.rep, [range(1, s.r + 1)])[0]
    expected_sign = volume_square_sign(s.r)
    family = s.family.stack
    report = {
        "square_sign": expected_sign,
        "square_matches": not (v @ v).differs(v.identity(expected_sign)),
        "commutes_with_family": not (v @ family).differs(family @ v).any(),
    }
    if s.rep is not None and s.rep.kind == "full":
        sign = -1 if s.r % 2 == 0 else 1
        gens = s.rep.stack
        report["generator_commutation_sign"] = sign
        report["generator_commutation_matches"] = not (v @ gens).differs(gens @ v if sign == 1 else -(gens @ v)).any()
    return v.matrix(), report


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


def extend_hodge(s: EvenCliffordStructure) -> linalg.LazyMatrices:
    """Extend a rank 3 mod 4 even structure to a full Clifford family.

    K_i is the image of the Hodge dual of e_i: with star(e_i) = sign e_a1 ...
    e_a(r-1), that is sign J_a1a2 J_a3a4 ..., a product of (r-1)/2 mutually
    commuting skew endomorphisms, hence skew (the sign is taken into the
    first factor, -J_a1a2 = J_a2a1).  The family alone determines it, so
    explicit families extend as well.  The K_i are formed as one stack and
    checked for skewness and for the anticommutation relations with the
    same helper as ``MatrixRep.validate``; the first failure, in the order
    skew(1), anticommutation (1, 1..r), skew(2), ..., raises StructureError.
    The K_i come back as a sequence of dense matrices, each made on first
    access.  For other ranks the duals square to +1 instead of -1 and no
    extension of this kind exists, so the request is refused.
    """
    if s.r % 4 != 3:
        raise UnsupportedRankError(
            f"rank {s.r}: the grade r-1 duals square to +1 unless r = 3 mod 4;"
            " no Hodge extension exists"
        )
    sig = AlgebraSignature(s.r)
    ordered, row = s.family.ordered
    words = []
    for i in range(1, s.r + 1):
        dual = hodge_dual_vector(i, sig)
        rest = dual.index_set
        factors = [(rest[t], rest[t + 1]) for t in range(0, len(rest), 2)]
        if dual.sign < 0:
            factors[0] = factors[0][::-1]
        words.append([row[f] for f in factors])
    ks = ordered.word_products(words)
    not_skew, not_anticommuting = ks.differs(-ks.T), anticommutation_failures(ks)
    for a in range(s.r):
        if not_skew[a]:
            raise StructureError(f"Hodge dual image {a + 1} is not skew")
        bad = np.flatnonzero(not_anticommuting[a])
        if bad.size:
            raise StructureError(f"extension fails anticommutation at ({a + 1}, {bad[0] + 1})")
    return linalg.LazyMatrices(ks)


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
    -identity for i = j; the factors of every blade are multiplied on the
    family's stack.
    """

    def __init__(self, k: int, n: int, family: JFamily):
        self.k = k
        self.n = n
        self.family = family

    def blades(self, blades) -> linalg.OperatorStack:
        """The images of the blades e_indices, one for each index tuple in
        ``blades``, as one stack."""
        sigma, row = self.family.ordered
        words = []
        for indices in blades:
            if len(indices) % 2:
                raise StructureError("morphism of the even algebra: blades must be even")
            words.append([row[(indices[t], indices[t + 1])] for t in range(0, len(indices), 2)])
        return sigma.word_products(words)

    def on_blade(self, indices: Sequence[int]) -> np.ndarray:
        return self.blades([indices]).matrix(0)

    def __call__(self, x: CliffordElement) -> np.ndarray:
        if x.signature.rank != self.k:
            raise StructureError("element rank disagrees with morphism domain")
        if not x.is_even():
            raise StructureError("morphism is defined on the even algebra only")
        terms = list(x.items())
        return linalg.stack_combination(self.blades([indices for indices, _ in terms]), [coeff for _, coeff in terms])


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
    The generator certificate decides them: its first row is the frame
    identity at i = 1, and it proves every other triple.  Only when it fails
    (a family that is not skew fails it too, while the criterion does not
    ask for skewness) are the triples checked directly, as in the relation
    suite, one batch of products per i.  Rejection carries the first
    witnessing triple in (i, j, l) order; after acceptance the morphism is
    returned.
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
    if not _generators_certified(fam):
        witness = next((triple for triple, _, _ in _frame_triples(fam, diagonal=True)), None)
        if witness is not None:
            i, j, l = witness
            raise ExtensionRejected(witness, f"extension criterion fails at u=e_{i}, v=e_{j}, w=e_{l}")
    return EvenAlgebraMorphism(k, fam.n, fam)


# blades per batch of the round trip in verify_universality: bounds the
# batch's arrays, which are dense for a family that is not certified
_BLADE_BATCH = 64


def verify_universality(s: EvenCliffordStructure) -> VerificationReport:
    """The extension criterion as a check on the family's 2-form map.

    A structure backed by a representation must also agree with the
    extension on every even blade, which pins the extension on all of the
    even algebra.  The blades are compared in batches of stacks and
    densified only for a residual.
    """
    try:
        ext = universal_extension(s.family, s.r, s.n)
    except ExtensionRejected as err:
        return VerificationReport("universality", [Failure("extension_criterion", err.witness, str(err))])
    failures = []
    if s.rep is not None:
        masks = [mask for mask in range(1 << s.r) if mask.bit_count() % 2 == 0]
        blades = [tuple(i + 1 for i in range(s.r) if mask >> i & 1) for mask in masks]
        for start in range(0, len(blades), _BLADE_BATCH):
            batch = blades[start : start + _BLADE_BATCH]
            got, want = ext.blades(batch), blade_images(s.rep, batch)
            for t in np.flatnonzero(got.differs(want)):
                failures.append(Failure("blade_round_trip", batch[t], _residual(got[t], want[t])))
    return VerificationReport("universality", failures, {"accepted": True})
