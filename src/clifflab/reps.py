"""Integer matrix representations of Cl_r and of its even subalgebra.

Generators are built from a fixed Kronecker-product scheme over 2x2 signed
permutation matrices, with a period-8 doubling step, composed as column
forms in one ``linalg.OperatorStack``; a generator is dense only at the
JSON boundary.  Every generator is a skew-symmetric signed permutation
matrix and the anticommutation relations hold exactly over the integers.
The scheme itself is not part of the contract; the invariants checked by
``MatrixRep.validate`` are.

The even algebra is handled through the isomorphism Cl0_r ~ Cl_{r-1} sending
e_1 . e_{i+1} to the i-th generator of Cl_{r-1}.  For r divisible by 4 the
represented volume e_1...e_r is arranged to be exactly diag(+I, -I) with
block multiplicities (m_plus, m_minus).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .blades import AlgebraSignature, CliffordElement, blade_product

DEFAULT_MAX_RANK = 16
# up to r = 23 (n = 2048) building, validate and the relation and
# orthogonality suites take under 2 s and 0.1 GB; repgen writes n^2 JSON
# integers per generator, which keeps the ceiling here
HARD_MAX_RANK = 23

_BASE_DIMS = (2, 4, 4, 8, 8, 8, 8, 16)


class UnsupportedRankError(ValueError):
    """Requested rank outside the configured construction cap."""


class ParityError(ValueError):
    """Odd element fed to a representation of the even algebra."""


class RepresentationError(ValueError):
    """Inconsistent representation data."""


def max_rank() -> int:
    cap = int(os.environ.get("CLIFFLAB_MAX_RANK", DEFAULT_MAX_RANK))
    return min(cap, HARD_MAX_RANK)


def n_irr(r: int) -> int:
    """Dimension of an irreducible real representation of Cl_r."""
    if r < 1:
        raise ValueError(f"n_irr needs r >= 1, got {r}")
    if r <= 8:
        return _BASE_DIMS[r - 1]
    return 16 * n_irr(r - 8)


def n0(r: int) -> int:
    """Dimension of an irreducible real representation of Cl0_r."""
    if r < 2:
        raise ValueError(f"n0 needs r >= 2, got {r}")
    return n_irr(r - 1)


# -- generator construction --------------------------------------------------


def _unit(rows) -> linalg.OperatorStack:
    return linalg.OperatorStack.of([linalg.intmat(rows)], len(rows))[0]


def _eye(n: int) -> linalg.OperatorStack:
    return linalg.OperatorStack.diagonal([1] * n)


_EPS = _unit([[0, -1], [1, 0]])
_TAU = linalg.OperatorStack.diagonal([1, -1])
_SIG = _unit([[0, 1], [1, 0]])
_I2 = _eye(2)

# Quaternion units acting on R^4 from the right; they commute with the
# rank-3 family below and obey B C = D.
_QUAT = linalg.OperatorStack.concat([_EPS.kron(_I2), _TAU.kron(_EPS), _SIG.kron(_EPS)])


def quaternion_units(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right quaternion multiplications I, J, K on R^(4q) = H^q."""
    if q < 1:
        raise ValueError("q must be positive")
    units = _QUAT.kron(_eye(q))
    return units.matrix(0), units.matrix(1), units.matrix(2)


def _base_generators(r: int) -> linalg.OperatorStack:
    concat = linalg.OperatorStack.concat
    if r == 1:
        return concat([_EPS])
    if r <= 3:
        return concat([_EPS.kron(_TAU), _EPS.kron(_SIG), _I2.kron(_EPS)])[:r]
    if r <= 7:
        return concat([_base_generators(3).kron(_TAU), _eye(4).kron(_EPS), _QUAT.kron(_SIG)])[:r]
    if r == 8:
        return concat([_base_generators(7).kron(_TAU), _eye(8).kron(_EPS)])
    # Period-8 step: tensor the lower family with the Cl_8 volume and append
    # a fresh Cl_8 block.
    gamma = _base_generators(8)
    omega = gamma.word_products([range(8)])[0]
    prev = _base_generators(r - 8)
    return concat([prev.kron(omega), _eye(prev.n).kron(gamma)])


def _generators_with_volume_sign(r: int, sign: int) -> linalg.OperatorStack:
    """Irreducible Cl_r family whose central volume acts as sign * identity.

    Only meaningful for r = 3 mod 4, where the volume is a central involution.
    """
    if r % 4 != 3:
        raise RepresentationError(f"rank {r}: the volume is a central involution only for r = 3 mod 4")
    gens = _base_generators(r)
    vol = gens.word_products([range(r)])[0]
    if not vol.differs(gens.identity(sign)):
        return gens
    if vol.differs(gens.identity(-sign)):
        raise RepresentationError(f"rank {r}: the volume is not +-identity; construction broken")
    # negating one generator negates the volume
    return linalg.OperatorStack.concat([gens[:-1], -gens[-1]])


class MatrixRep:
    """A family of exact integer generator matrices.

    kind 'full': generators[i] represents e_{i+1} of Cl_rank.
    kind 'even': generators[i] represents e_1 . e_{i+2} inside Cl0_rank.

    ``stack`` holds the generators as one ``linalg.OperatorStack``; the
    builders give it, and matrices given instead are certified into it
    once, on first use.  ``generators`` are the given matrices, or else
    the stack's matrices, each made on first access.  A rep is not to be
    changed after construction.
    """

    def __init__(self, rank: int, dim: int, kind: str, generators=None, volume_split=None, *, stack=None):
        self.rank, self.dim, self.kind, self.volume_split = rank, dim, kind, volume_split
        self._given = None if generators is None else tuple(generators)
        self.generators = linalg.LazyMatrices(stack) if self._given is None else self._given
        if stack is not None:
            self.stack = stack

    @cached_property
    def stack(self) -> linalg.OperatorStack:
        return linalg.OperatorStack.of(self._given, self.dim)

    def validate(self) -> list[str]:
        """Check the structural invariants; returns a list of violations.

        A generator of the wrong shape is reported alone, since no identity
        between generators of different shapes can be checked.  Only a
        dense stack can hold a matrix that is not a signed permutation.
        """
        n = self.dim
        shapes = [f"generator {idx} has shape {g.shape}" for idx, g in enumerate(self._given or ()) if g.shape != (n, n)]
        if shapes:
            return shapes
        g = self.stack
        not_skew = g.differs(-g.T)
        not_orthogonal = (g.T @ g).differs(g.identity())
        problems = []
        for idx in range(len(g)):
            if g.form == "dense" and linalg.signed_perm_columns(self.generators[idx]) is None:
                problems.append(f"generator {idx} is not a signed permutation")
            if not_skew[idx]:
                problems.append(f"generator {idx} is not skew-symmetric")
            if not_orthogonal[idx]:
                problems.append(f"generator {idx} is not orthogonal")
        for i, j in zip(*np.nonzero(anticommutation_failures(g))):
            problems.append(f"anticommutation fails at ({i}, {j})")
        return problems

    def to_json(self) -> str:
        """The repgen file; the generators are densified one at a time."""
        g = self.stack
        return json.dumps(
            {
                "schema": 1,
                "rank": self.rank,
                "dim": self.dim,
                "kind": self.kind,
                "volume_split": list(self.volume_split) if self.volume_split else None,
                "generators": [g.matrix(t).reshape(-1).tolist() for t in range(len(g))],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "MatrixRep":
        """Load a repgen file; it must hold dim, rank, kind and generators,
        each generator exactly dim^2 JSON integers below 2^63 in absolute
        value, else RepresentationError."""
        data = json.loads(text)
        for key in ("dim", "rank", "kind", "generators"):
            if key not in data:
                raise RepresentationError(f"the representation has no field {key!r}")
        n = data["dim"]
        if not isinstance(data["generators"], list):
            raise RepresentationError("generators must be a list")
        try:
            gens = tuple(linalg.parse_int_matrix(flat, n) for flat in data["generators"])
        except ValueError as err:
            raise RepresentationError(f"generator: {err}") from None
        rank, kind = data["rank"], data["kind"]
        if kind not in ("full", "even") or isinstance(rank, bool) or not isinstance(rank, int):
            raise RepresentationError("kind must be full or even, and rank an integer")
        if len(gens) != (rank if kind == "full" else rank - 1):
            raise RepresentationError(f"{len(gens)} generators do not fit a {kind} rank-{rank} file")
        split = tuple(data["volume_split"]) if data.get("volume_split") else None
        return cls(rank, n, kind, gens, split)


def anticommutation_failures(g: linalg.OperatorStack) -> np.ndarray:
    """Where g_a g_b + g_b g_a = -2 delta_ab fails, as a k x k array of
    bools for the k matrices of g: g_a g_b = -g_b g_a off the diagonal and
    g_a^2 = -1 on it, exactly so for integers.  One row of products at a
    time."""
    k = len(g)
    bad = np.zeros((k, k), dtype=bool)
    minus = g.identity(-1)
    for a in range(k):
        left = g[a] @ g
        bad[a] = left.differs(-(g @ g[a]))
        bad[a, a] = left[a].differs(minus)
    return bad


def _check_rank_cap(r: int) -> None:
    cap = max_rank()
    if r > cap:
        raise UnsupportedRankError(
            f"rank {r} exceeds the configured cap {cap}"
            " (set CLIFFLAB_MAX_RANK to raise it, hard ceiling"
            f" {HARD_MAX_RANK})"
        )


def build_clifford_rep(r: int, copies: int = 1) -> MatrixRep:
    """Generators of Cl_r on R^(N(r) * copies), deterministic."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    if copies < 1:
        raise ValueError("copies must be at least 1")
    _check_rank_cap(r)
    base = _base_generators(r)
    if base.n != n_irr(r):
        raise RepresentationError(f"rank {r}: generators have the wrong size; construction broken")
    return MatrixRep(r, n_irr(r) * copies, "full", stack=_eye(copies).kron(base))


def _even_volume_factor_sign(r: int) -> int:
    """Sign s with f_1 f_2 ... f_{r-1} = s * e_1 ... e_r, f_i = e_1 e_{i+1}."""
    sig = AlgebraSignature(r)
    sign, word = 1, ()
    for i in range(2, r + 1):
        step, word = blade_product(word, (1, i), sig)
        sign *= step
    if word != tuple(range(1, r + 1)):
        raise AssertionError("even volume word is not proportional to the volume blade")
    return sign


def build_even_rep(r: int, m_plus: int = 1, m_minus: int | None = None) -> MatrixRep:
    """Representation of Cl0_r via Cl_{r-1}; see module docstring.

    For r = 0 mod 4 the two multiplicities count the +1 and -1 eigenblocks of
    the represented volume.  Otherwise there is a single irreducible class
    and the multiplicities, if both given, must agree and mean plain copies.
    """
    if r < 2:
        raise ValueError("even representations need rank at least 2")
    _check_rank_cap(r)
    q = r - 1
    if r % 4 == 0:
        if m_minus is None:
            m_minus = m_plus
        if m_plus < 0 or m_minus < 0 or m_plus + m_minus < 1:
            raise RepresentationError("need m_plus + m_minus >= 1")
        s = _even_volume_factor_sign(r)
        plus = _generators_with_volume_sign(q, s)
        # the minus blocks flip the last generator, which flips the volume
        signs = linalg.OperatorStack.diagonal([1] * m_plus + [-1] * m_minus)
        gens = linalg.OperatorStack.concat([_eye(m_plus + m_minus).kron(plus[:-1]), signs.kron(plus[-1])])
        return MatrixRep(r, n0(r) * (m_plus + m_minus), "even", volume_split=(m_plus, m_minus), stack=gens)
    if m_minus is not None and m_minus != m_plus:
        raise RepresentationError(
            "for rank not divisible by 4 there is a single irreducible class;"
            " the two multiplicities must be equal"
        )
    copies = m_plus
    if copies < 1:
        raise RepresentationError("need at least one copy")
    return MatrixRep(r, n0(r) * copies, "even", stack=_eye(copies).kron(_base_generators(q)))


def irreducible_even_rep(r: int) -> MatrixRep:
    """The irreducible Cl0_r module; for r = 0 mod 4, the block on which
    the represented volume is +1."""
    return build_even_rep(r, 1, 0) if r % 4 == 0 else build_even_rep(r)


# -- evaluation --------------------------------------------------------------


def _even_to_generator_word(x: CliffordElement) -> CliffordElement:
    """Rewrite an even element of Cl_r in the generators f_i = e_1 e_{i+1}.

    Returns the corresponding element of Cl_{r-1} (f_i maps to its i-th
    generator).  Since e_1 e_b = f_{b-1} and e_a e_b = f_{a-1} f_{b-1}
    (e_1^2 = -1), an even blade e_a1 ... e_a2k is the blade of indices
    a_t - 1, index 0 dropped, with the same coefficient: on blade masks, a
    shift right by one bit.
    """
    low = AlgebraSignature(x.signature.rank - 1)
    return CliffordElement(low, {mask >> 1: coeff for mask, coeff in x._terms.items()})


def _blade_word(rep: MatrixRep, indices) -> tuple[int, ...]:
    """The generator positions whose product represents the blade e_indices:
    e_a -> a - 1 for a full rep; for an even rep the index-shift rule of
    ``_even_to_generator_word``, e_a -> a - 2 with e_1 dropped."""
    if rep.kind == "full":
        return tuple(a - 1 for a in indices)
    return tuple(a - 2 for a in indices if a != 1)


def _evaluate_word(rep: MatrixRep, x: CliffordElement) -> np.ndarray:
    """Sum over the terms of x, an element of Cl_k whose generator i maps to
    rep.generators[i - 1], on numerators over the lcm of the coefficient
    denominators; an integral result comes back as an integer matrix."""
    terms = list(x.items())
    images = rep.stack.word_products([[i - 1 for i in indices] for indices, _ in terms])
    num, den = linalg.rational_combination(
        ((coeff, images.matrix(t)) for t, (_, coeff) in enumerate(terms)), rep.dim
    )
    return num if den == 1 else linalg.fraction_array(num, den)


def evaluate(rep: MatrixRep, x: CliffordElement) -> np.ndarray:
    """Algebra morphism: blades map to products of generator matrices."""
    if x.signature.rank != rep.rank:
        raise RepresentationError(
            f"element has rank {x.signature.rank}, representation has {rep.rank}"
        )
    if rep.kind == "full":
        return _evaluate_word(rep, x)
    if not x.is_even():
        raise ParityError("representation of the even algebra cannot act on odd elements")
    return _evaluate_word(rep, _even_to_generator_word(x))


def blade_images(rep: MatrixRep, blades) -> linalg.OperatorStack:
    """The images of the blades e_indices (even ones for an even rep), one
    for each index tuple in ``blades``, as one stack."""
    return rep.stack.word_products([_blade_word(rep, indices) for indices in blades])


class JFamily:
    """The skew endomorphisms J_ij = phi(e_i . e_j), 1 <= i < j <= r.

    Extended by J_ji = -J_ij and J_ii = -identity.  ``stack`` holds the J_ij
    in ``pairs()`` order as one ``linalg.OperatorStack``; a family given as
    matrices is certified into it once, here.  The dense matrices of
    ``mats`` and ``j`` are made from the stack on first use and cached (a
    family given as matrices keeps them).  ``ordered`` is the stack of every
    J_ij, i == j included.  The family is not to be changed after
    construction.
    """

    def __init__(self, n: int, r: int, mats: dict | None = None, stack: linalg.OperatorStack | None = None):
        self.n = n
        self.r = r
        self._mats = mats
        if mats is None:
            self._pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
        else:
            self._pairs = sorted(mats)
            stack = linalg.OperatorStack.of([mats[p] for p in self._pairs], n)
        self.stack = stack

    def __repr__(self) -> str:
        return f"JFamily(n={self.n}, r={self.r}, {self.stack!r})"

    @property
    def mats(self) -> dict:
        if self._mats is None:
            self._mats = {p: self.stack.matrix(t) for t, p in enumerate(self._pairs)}
        return self._mats

    @cached_property
    def ordered(self) -> tuple[linalg.OperatorStack, dict]:
        """J_ij for every (i, j), i == j included, as one stack, and the row
        of each (i, j) in it: J_ij (i < j), then J_ji = -J_ij, then -1."""
        rows = {p: t for t, p in enumerate(self._pairs)}
        count = len(rows)
        rows.update({(j, i): count + t for t, (i, j) in enumerate(self._pairs)})
        rows.update({(i, i): 2 * count for i in range(1, self.r + 1)})
        return linalg.OperatorStack.concat([self.stack, -self.stack, self.stack.identity(-1)]), rows

    def j(self, i: int, j: int) -> np.ndarray:
        if i == j:
            return -linalg.eye(self.n)
        if i < j:
            return self.mats[(i, j)]
        return -self.mats[(j, i)]

    def pairs(self):
        return list(self._pairs)


def j_family(rep: MatrixRep) -> JFamily:
    """J_ij, the image of the blade e_i e_j: g_i g_j for a full rep, and
    J_1j = g_j, J_ij = g_i g_j (i > 1) for an even one, with g_i the
    generator of e_i or of f_{i-1}; one batch of products on the
    generators' stack."""
    r = rep.rank
    pairs = [(i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    return JFamily(rep.dim, r, stack=blade_images(rep, pairs))


# -- triality ----------------------------------------------------------------


@dataclass(frozen=True)
class TrialityCertificate:
    """The so(8) automorphism carrying half-spin data to vector data.

    map_num / map_den acts on coordinates of skew 8x8 matrices (see linalg)
    and is defined by sending half of each plus-block J_ij to the elementary
    rotation with the same labels.  It exists only when the defining system
    has orthogonal columns; the certificate records whether all basis
    brackets are preserved, and it carries the pulled-back family: the
    images of the doubled elementary rotations, i.e. of the generators
    e_a . e_b of the even algebra over the half-spin bundle.  That family is again a Clifford
    family, now acting on the vector representation; this is the content of
    triality and is not true for a generic linear map.
    """

    map_num: np.ndarray
    map_den: int
    brackets_checked: int
    brackets_exact: bool
    spin_family: JFamily
    pulled_back: JFamily

    def apply(self, skew: np.ndarray) -> np.ndarray:
        """Image of an integer skew matrix, as a matrix of Fractions."""
        w = linalg.imatmul(self.map_num, linalg.skew_to_coords(skew)[:, None])[:, 0]
        return linalg.fraction_array(linalg.coords_to_skew(w, 8), self.map_den)


def triality_map() -> TrialityCertificate:
    rep = build_even_rep(8, 1, 1)
    fam = j_family(rep)
    vol = blade_images(rep, [range(1, 9)])[0]
    if vol.differs(linalg.OperatorStack.diagonal([1] * 8 + [-1] * 8)):
        raise RepresentationError("rank 8 volume is not diag(+I, -I); construction broken")

    plus = {(i, j): m[:8, :8] for (i, j), m in fam.mats.items()}

    pairs = sorted(plus)
    # Columns: coordinates of J+_ij; the map inverts their halves, so it is
    # twice the inverse diag(1/g) cols^T of this orthogonal integer matrix.
    cols = np.stack([linalg.skew_to_coords(plus[p]) for p in pairs], axis=1)
    try:
        norms = linalg.orthogonal_gram(cols)
    except ValueError as err:
        raise RepresentationError(f"triality columns are not an orthogonal basis: {err}; construction broken") from err
    den = math.lcm(*norms)
    map_num, map_den = linalg.normalize(2 * np.array([den // g for g in norms])[:, None] * cols.T, den)

    # Bracket preservation on all basis pairs, as one product:
    # phi([J/2, J'/2]) = phi([J, J'])/4 must be the bracket of the rotations.
    spin = np.stack([plus[p] for p in pairs])
    rotations = np.stack([linalg.elementary_rotation(i - 1, j - 1, 8) for (i, j) in pairs])
    upper = linalg.pair_table(len(pairs))[:2]

    def bracket_coords(stack: np.ndarray) -> np.ndarray:
        return linalg.skew_to_coords(linalg.commutator(stack[:, None], stack[None, :])[upper]).T

    exact = np.array_equal(
        linalg.imatmul(map_num, bracket_coords(spin)), 4 * map_den * bracket_coords(rotations)
    )

    # images of the doubled rotations
    images = linalg.imatmul(map_num, linalg.skew_to_coords(rotations).T)
    pulled = {}
    for t, p in enumerate(pairs):
        w, den = linalg.normalize(2 * images[:, t], map_den)
        arr = linalg.coords_to_skew(w, 8)
        pulled[p] = arr if den == 1 else linalg.fraction_array(arr, den)

    return TrialityCertificate(
        map_num=map_num,
        map_den=map_den,
        brackets_checked=len(upper[0]),
        brackets_exact=exact,
        spin_family=JFamily(8, 8, plus),
        pulled_back=JFamily(8, 8, pulled),
    )
