"""Exact curvature operators for the model fibres and their identity suites.

Conventions, fixed once:

* R(X,Y,Z,W) = g(R_{X,Y} Z, W), arranged so that the unit sphere satisfies
  R_{V,X} Y = g(X,Y) V - g(V,Y) X.
* 2-forms and skew endomorphisms are identified by alpha(X,Y) = g(AX, Y);
  the basis 2-form X_a ^ X_b acts as Z -> g(X_a,Z) X_b - g(X_b,Z) X_a.
* The curvature endomorphism on 2-forms is
  (R^(A))(X,Y) = (1/2) sum_a R(A X_a, X_a, X, Y), whose matrix in the pair
  basis is minus the matrix of the (4,0) tensor.  With this normalisation
  trace(R^) = scal / 2 identically, and the curvature action on a parallel
  family satisfies R^(J_ik) = (n kappa / 4) J_ik.
* Ric(X,Y) = sum_a g(R_{X, X_a} X_a, Y).

R^ is stored as integer factors B W B^T over one positive denominator, B
orthogonal coordinate columns; the spectrum and the identity suite's
certificate read the factors, and the (4,0) tensor, Ricci and the matrices
R_{X_a, X_b} are gathers from the pair-basis matrix.  Every check is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from . import linalg
from .reps import irreducible_even_rep
from .structure import (
    EvenCliffordStructure,
    Failure,
    VerificationReport,
    format_residual,
    verify_orthogonality,
)


class CurvatureError(ValueError):
    pass


class CalibrationError(ValueError):
    """Scales that do not produce an algebraic curvature tensor."""


class CurvatureOperator:
    """An algebraic curvature operator on R^n, stored as its factors R^ =
    B W B^T / den: B the integer (m, h) matrix ``basis`` of coordinate
    columns (m = n(n-1)/2), certified once by ``linalg.orthogonal_gram``:
    B^T B = diag(g), every g > 0 (``norms``); W the integer (h, h) matrix
    ``num``; den one positive int.  Without a basis B is the identity and
    ``num`` is the pair matrix.  R^ B = B W diag(g) / den, and R^ vanishes
    on the orthogonal complement of the span of B.

    ``rhat_matrix`` is the one m x m view.  With idx[a,b] the row of the
    pair {a, b} and sgn[a,b] = +1 for a < b, -1 for a > b, 0 for a = b
    (``linalg.pair_index``), its numerator N and denominator D give

        D * R(X_a, X_b, X_c, X_d) = -sgn[a,b] sgn[c,d] N[idx[a,b], idx[c,d]],

    so both antisymmetries of R hold by the format; pair symmetry and the
    first Bianchi identity are checked (``symmetry_violations``).
    """

    def __init__(self, n: int, num, den: int = 1, check: bool = True, basis=None):
        m = n * (n - 1) // 2
        self.n = n
        try:
            self.basis = linalg.as_integer(linalg.eye(m) if basis is None else basis)
            if self.basis.ndim != 2 or self.basis.shape[0] != m:
                raise ValueError(f"shape {self.basis.shape} does not have m={m} rows for n={n}")
            self.norms = linalg.orthogonal_gram(self.basis)
        except ValueError as err:
            raise CurvatureError(f"basis: {err}") from None
        num = np.asarray(num)
        h = len(self.norms)
        if num.shape != (h, h):
            raise CurvatureError(f"matrix shape {num.shape} does not match n={n}, h={h}")
        try:
            num = linalg.as_integer(num)
        except ValueError as err:
            raise CurvatureError(f"matrix: {err}") from None
        self.num, self.den = linalg.normalize(num, den)
        self._rhat = None
        if check:
            problems = self.symmetry_violations()
            if problems:
                raise CurvatureError("; ".join(problems))

    # -- structure -------------------------------------------------------------

    def symmetry_violations(self) -> list[str]:
        """Pair symmetry of R^, then the first Bianchi identity.

        B has independent columns, so R^ = B W B^T / den is symmetric exactly
        when W is.  A matrix that is not symmetric is no element of
        S^2(Lambda^2), and the Bianchi sum is then no 4-form, so nothing else
        is decided.  For R in S^2(Lambda^2) the sum b(X,Y,Z,W) = R(X,Y,Z,W) +
        R(Y,Z,X,W) + R(Z,X,Y,W) is totally antisymmetric (Besse, Einstein
        Manifolds, 1.G): it vanishes on repeated indices and changes at most
        its sign under a permutation, so it vanishes, and attains its largest
        absolute value, on the quadruples a < b < c < d.  There it reads
        -(N[ab,cd] - N[ac,bd] + N[ad,bc]) / D on the m x m view, one gather.
        """
        if (self.num != self.num.T).any():
            return ["pair symmetry fails"]
        num, den = self.rhat_matrix()
        r = linalg.exact(num, 3 * linalg.max_abs(num))
        idx, _ = linalg.pair_index(self.n)
        a, b = np.triu_indices(self.n, 1)
        # the pairs p = (a, b) and q = (c, d) with b < c
        p, q = np.nonzero(b[:, None] < a[None, :])
        a, b, c, d = a[p], b[p], a[q], b[q]
        bianchi = r[p, q] - r[idx[a, c], idx[b, d]] + r[idx[a, d], idx[b, c]]
        if bianchi.any():
            return [f"first Bianchi identity fails, max residual {Fraction(int(np.abs(bianchi).max()), den)}"]
        return []

    def rhat_matrix(self) -> tuple[np.ndarray, int]:
        """Numerator and denominator of the pair-basis matrix of R^, in lowest
        terms: the m x m view, formed on first use and kept."""
        if self._rhat is None:
            view = linalg.imatmul(linalg.imatmul(self.basis, self.num), self.basis.T)
            self._rhat = linalg.normalize(view, self.den)
        return self._rhat

    def entry(self, a: int, b: int, c: int, d: int) -> Fraction:
        num, den = self.rhat_matrix()
        idx, sgn = linalg.pair_index(self.n)
        return Fraction(-int(sgn[a, b] * sgn[c, d]) * int(num[idx[a, b], idx[c, d]]), den)

    def curvature_matrix(self, a: int, b: int) -> np.ndarray:
        """Numerator of the skew matrix R_{X_a, X_b}, over rhat_matrix()'s den."""
        num, _ = self.rhat_matrix()
        idx, sgn = linalg.pair_index(self.n)
        return linalg.coords_to_skew(-sgn[a, b] * num[idx[a, b]], self.n)

    def rhat_apply(self, skew: np.ndarray) -> tuple[np.ndarray, int]:
        """R^ applied to a skew integer matrix; returns (numerator, den)."""
        num, den = self.rhat_matrix()
        coords = linalg.skew_to_coords(skew)
        return linalg.coords_to_skew(linalg.imatmul(num, coords[:, None])[:, 0], self.n), den

    def ricci_num(self) -> np.ndarray:
        """D * Ric, D the den of ``rhat_matrix``: the sum over a of
        D * R(X_x, X_a, X_a, X_y), one gather."""
        num, _ = self.rhat_matrix()
        idx, sgn = linalg.pair_index(self.n)
        num = linalg.exact(num, self.n * linalg.max_abs(num))
        return -(sgn[:, :, None] * sgn[None, :, :] * num[idx[:, :, None], idx[None, :, :]]).sum(axis=1)

    def ricci(self) -> np.ndarray:
        """Ricci tensor as a Fraction-valued symmetric matrix."""
        return linalg.fraction_array(self.ricci_num(), self.rhat_matrix()[1])

    def scalar(self) -> Fraction:
        return Fraction(int(np.trace(self.ricci_num())), self.rhat_matrix()[1])

    def rhat_trace(self) -> Fraction:
        num, den = self.rhat_matrix()
        return Fraction(int(np.trace(num)), den)


def _scaled(a: np.ndarray, k) -> np.ndarray:
    """a k, exactly, for k an int or a row of ints (a diag(k) for a matrix
    a): int64 where the bound allows, Python ints otherwise.  A zero ``a``
    counts as 1, so that k itself fits."""
    k = linalg.as_integer(k)
    bound = max(linalg.max_abs(a), 1) * linalg.max_abs(k)
    return linalg.exact(a, bound) * linalg.exact(k, bound)


def _scaled_equal(a: np.ndarray, ka, b: np.ndarray, kb) -> bool:
    """a ka == b kb entrywise (shapes broadcast), exactly."""
    return bool((_scaled(a, ka) == _scaled(b, kb)).all())


# -- model constructors --------------------------------------------------------


def _weighted(b: np.ndarray, norms: list[int]) -> tuple[np.ndarray, int]:
    """B diag(L/g) and L = lcm(g) for columns b of nonzero squared norms g:
    the factors of Q = B diag(1/g) B^T = B diag(L/g) B^T / L."""
    lcm = math.lcm(*norms)
    return _scaled(b, [lcm // g for g in norms]), lcm


def _blocks(count: int, n: int, h: int) -> list[slice]:
    """Slices of a batch of ``count`` operators whose bracket coordinates
    against h columns, (block, m, h), stay within an (m, n, n) stack."""
    block = max(1, n * n // h)
    return [slice(lo, lo + block) for lo in range(0, count, block)]


def isotropy_projection_op(
    ideals: Sequence[Sequence[np.ndarray]], scales: Sequence[Fraction | int]
) -> CurvatureOperator:
    """Curvature operator c_1 P_1 + c_2 P_2 + ... for ideals of a subalgebra.

    Each ideal is given by a basis of nonzero skew matrices, and all the
    bases together must be pairwise trace-orthogonal (CurvatureError
    otherwise; the norms may differ); P projects the space of 2-forms
    orthogonally (trace pairing) onto the span of its ideal.  Bracket
    closure of each ideal and vanishing of cross brackets are checked.  The
    operator is stored as its factors: B the concatenated coordinate
    columns of the bases, g their squared norms and W = diag(c_k / g), so
    R^ = B W B^T = sum_k c_k P_k.  The first Bianchi identity is checked
    rather than assumed: scales violating it raise CalibrationError.
    """
    if len(ideals) != len(scales):
        raise CurvatureError("one scale per ideal")
    if not ideals or not ideals[0]:
        raise CurvatureError("need at least one nonempty ideal")
    n = np.asarray(ideals[0][0]).shape[0]
    for ideal in ideals:
        for g in ideal:
            if not linalg.is_skew(np.asarray(g)):
                raise CurvatureError("ideal generators must be skew")
    mats = [np.stack([np.asarray(g) for g in ideal]) for ideal in ideals]
    stacks = [linalg.OperatorStack.of(x, n) for x in mats]
    coords = [linalg.skew_to_coords(x).T for x in mats]
    # W = diag(c_k / g) from the squared column norms g; the constructor
    # certifies B^T B = diag(g) and refuses a zero column (weighted 0 here)
    ideal_norms = [(linalg.exact(x, len(x) * linalg.max_abs(x) ** 2) ** 2).sum(axis=0).tolist() for x in coords]
    weights = [Fraction(scale) / g if g else 0 for scale, gs in zip(scales, ideal_norms) for g in gs]
    den = math.lcm(*(x.denominator for x in weights))
    num = np.diag(np.array([x.numerator * (den // x.denominator) for x in weights], dtype=object))
    op = CurvatureOperator(n, num, den, check=False, basis=np.concatenate(coords, axis=1))
    projections = [_weighted(b, g) for b, g in zip(coords, ideal_norms)]
    # bracket closure, batched per pair of ideals: P C = C for the bracket
    # coordinates C within an ideal, and C = 0 across two
    for a_i, xa in enumerate(stacks):
        for b_i, xb in enumerate(coords):
            for rows in _blocks(len(xa), n, xb.shape[1]):
                brackets = xa[rows].bracket_coords(xb)
                if a_i != b_i:
                    if brackets.any():
                        raise CurvatureError("ideals do not commute; not a direct sum")
                    continue
                scaled, p_den = projections[a_i]
                c = brackets.transpose(1, 0, 2).reshape(len(xb), -1)
                if not np.array_equal(linalg.imatmul(scaled, linalg.imatmul(xb.T, c)), p_den * c):
                    raise CurvatureError("generators are not closed under brackets")

    problems = op.symmetry_violations()
    if problems:
        raise CalibrationError(f"the given scales do not define a curvature tensor: {'; '.join(problems)}")
    return op


# -- spectra ---------------------------------------------------------------------


def lambda2_spectrum(
    op: CurvatureOperator, candidates: Sequence[Fraction | int]
) -> list[tuple[Fraction, int]]:
    """Verified eigenvalue/multiplicity list of R^ on 2-forms.

    Decided on h x h: R^ B = B A with A = W diag(g) / den, and R^ vanishes
    on the orthogonal complement of the span of B, so the spectrum of R^ is
    that of A plus 0 with multiplicity m - h.  Exact, with no symmetry
    assumed: the product of (R^ - c) over the distinct candidates must
    vanish, that is, 0 is a candidate when m > h and the product of (A - c)
    vanishes, which proves R^ diagonalisable with every eigenvalue a
    candidate.  The multiplicity of c is then the trace of its Lagrange
    projector prod_{d != c} (A - d) / (c - d), plus m - h for c = 0;
    candidates of multiplicity zero are dropped.
    """
    a, den = _scaled(op.num, op.norms), op.den
    rest = op.n * (op.n - 1) // 2 - len(a)
    cands = sorted({Fraction(c) for c in candidates})
    # k A is an integer matrix with the integer eigenvalues k c
    k = den * math.lcm(*(c.denominator for c in cands))
    eig = {c: int(k * c) for c in cands}
    bound = k * linalg.max_abs(a) + max(map(abs, eig.values()), default=0)
    ident = linalg.exact(linalg.eye(len(a)), bound)
    shifted = {c: k // den * linalg.exact(a, bound) - e * ident for c, e in eig.items()}

    def product(skip=None) -> np.ndarray:
        return reduce(linalg.imatmul, [f for c, f in shifted.items() if c != skip], ident)

    if (rest and 0 not in cands) or product().any():
        raise CurvatureError("the product of (R^ - c) over the candidates does not vanish; spectrum incomplete")
    mults = {
        c: sum(np.diagonal(product(skip=c)).tolist()) // math.prod(eig[c] - e for d, e in eig.items() if d != c)
        + (rest if c == 0 else 0)
        for c in cands
    }
    return [(c, mult) for c, mult in mults.items() if mult]


def verify_spectrum(op: CurvatureOperator, candidates: Sequence[Fraction | int]) -> VerificationReport:
    """``lambda2_spectrum`` as a check: an incomplete spectrum is a failure."""
    try:
        spec = lambda2_spectrum(op, candidates)
    except CurvatureError as err:
        return VerificationReport("spectrum", [Failure("spectrum_complete", (), str(err))])
    eigenvalues = [{"value": str(lam), "multiplicity": mult} for lam, mult in spec]
    return VerificationReport("spectrum", data={"eigenvalues": eigenvalues})


# -- identity suites -------------------------------------------------------------


def verify_parallel_identities(
    op: CurvatureOperator, s: EvenCliffordStructure, kappa: Fraction | int
) -> VerificationReport:
    """The curvature identities of a parallel structure with forms kappa J.

    Checks, exactly: the eigenvalue identity R^(J_ik) = (n kappa / 4) J_ik;
    the full curvature action identity

        [R_{X_a, X_b}, J_ij] = kappa sum_s [ g(J_si X_a, X_b) J_sj
                                           + g(J_sj X_a, X_b) J_is ]

    on every frame pair, where the s = i term of the first sum and the
    s = j term of the second are dropped (curvature forms of a metric
    connection have zero diagonal); and the Einstein identity
    Ric = kappa (n/4 + 2r - 4) g.

    A passing family is decided on the span of B (``_certified_pass``);
    every other outcome runs the direct suite, which names the witnesses.
    """
    if op.n != s.n:
        raise CurvatureError("operator and structure dimensions differ")
    if _certified_pass(op, s, Fraction(kappa)):
        return VerificationReport("parallel_identities")
    return _direct_parallel_identities(op, s, kappa)


def _certified_pass(op: CurvatureOperator, s: EvenCliffordStructure, kappa: Fraction) -> bool:
    """Whether every identity of ``verify_parallel_identities`` holds, decided
    with a few batched products and gathers; False also when a step cannot
    be certified.

    It needs the family in column form with every J skew.  With R^ = B W
    B^T / den, g the norms of the columns of B, L = lcm(g) and Q = B
    diag(1/g) B^T, it certifies F Q = F for the rows F of the family's
    coordinates.  Proof that the action identity then holds on all of
    Lambda^2 once it holds on the columns of B, with no symmetry of R^
    assumed: in coordinates both sides depend on omega only through R^T
    omega (R_omega has coordinates -R^T omega) and through F omega (g(J X_a,
    X_b) is the (a, b) coordinate of J), both linearly.  Q is symmetric and
    B^T Q = B^T, so R^T = R^T Q by the format and F = F Q give R^T omega =
    R^T (Q omega) and F omega = F (Q omega): each side takes the same value
    at omega and at Q omega, which lies in the span of B.  As F^T = Q F^T,
    the eigenvalue identity R^ F^T = (n kappa / 4) F^T reads diag(g) W
    (F B)^T = den (n kappa / 4) (F B)^T.

    On the columns of B the left side is the gather bracket_coords(J, R^T B)
    of -[J, R_omega], R^T B = B W^T diag(g) / den.  The right side sums the
    2(r - 2) terms with s not in {i, j} as products of coordinate rows
    indexed over ``JFamily.ordered``: the J_jj = J_ii = -1 terms contribute
    -(c_ji + c_ij) 1 = 0, as c_ji = -c_ij.  The family is taken in blocks,
    so that no temporary outgrows the (m, n, n) stack of the direct suite.
    Einstein and the Ricci system are checked on the m x m view.
    """
    fam, n, r = s.family, s.n, s.r
    stack = fam.stack
    if stack.form != "columns" or stack.T.differs(-stack).any():
        return False
    kd, kn, den = kappa.denominator, kappa.numerator, op.den
    f = linalg.skew_to_coords(stack.matrix())
    # W^T diag(g), the columns R^T B over den, and the coefficients F B,
    # with the certificate F Q = F
    wg = _scaled(op.num.T, op.norms)
    rb, fb = linalg.imatmul(op.basis, wg), linalg.imatmul(f, op.basis)
    scaled, lcm = _weighted(op.basis, op.norms)
    if not _scaled_equal(linalg.imatmul(fb, scaled.T), 1, f, lcm):
        return False
    # eigenvalue identity, one product
    if not _scaled_equal(linalg.imatmul(wg.T, fb.T), 4 * kd, fb.T, n * kn * den):
        return False

    # the curvature action on the columns of B: the coefficient and target
    # rows of the 2(r - 2) surviving terms of each pair (i, j)
    row = fam.ordered[1]
    pairs = s.pairs()
    others = [[x for x in range(1, r + 1) if x not in p] for p in pairs]
    coef = np.array(
        [[row[(x, i)] for x in o] + [row[(x, j)] for x in o] for (i, j), o in zip(pairs, others)], dtype=np.intp
    ).reshape(len(pairs), -1)
    target = np.array(
        [[row[(x, j)] for x in o] + [row[(i, x)] for x in o] for (i, j), o in zip(pairs, others)], dtype=np.intp
    ).reshape(len(pairs), -1)
    # F and F B along the rows of ``ordered``: J_ij, then -J_ij, then -1
    f_ord, fb_ord = (np.concatenate([x, -x, np.zeros((1, x.shape[1]), dtype=x.dtype)]) for x in (f, fb))
    for rows in _blocks(len(pairs), n, rb.shape[1]):
        lhs = stack[rows].bracket_coords(rb)
        rhs = linalg.imatmul(f_ord[target[rows]].transpose(0, 2, 1), fb_ord[coef[rows]])
        if not _scaled_equal(lhs, kd, rhs, kn * den):
            return False

    # Einstein, as the direct suite computes it
    ric, den = op.ricci_num(), op.rhat_matrix()[1]
    if not _scaled_equal(ric, 4 * kd, linalg.eye(n), kn * (n + 8 * r - 16) * den):
        return False
    # Ricci system: Ric = -(kappa / 4) sum_q N[p, q] J_q^2 with N[p, p] = n
    # and N = 4 at the pairs {x, i} and {x, j}, x not in {i, j}; row % P is
    # the pair of both J_xy and J_yx
    squares = (stack @ stack).matrix().reshape(len(pairs), -1)
    incidence = n * linalg.eye(len(pairs))
    np.add.at(incidence, (np.arange(len(pairs))[:, None], coef % len(pairs)), 4)
    return _scaled_equal(linalg.imatmul(incidence, squares), kn * den, ric.reshape(1, -1), -4 * kd)


def _direct_parallel_identities(
    op: CurvatureOperator, s: EvenCliffordStructure, kappa: Fraction | int
) -> VerificationReport:
    """``verify_parallel_identities`` checked pair by pair on the m x m view,
    with a witness for every failure."""
    if op.n != s.n:
        raise CurvatureError("operator and structure dimensions differ")
    kappa = Fraction(kappa)
    kd, kn = kappa.denominator, kappa.numerator
    n, r = s.n, s.r
    failures: list[Failure] = []

    rhat_num, den = op.rhat_matrix()
    for (i, k) in s.pairs():
        coords = linalg.skew_to_coords(s.j(i, k))
        applied = linalg.imatmul(rhat_num, coords[:, None])[:, 0]
        residual = _scaled(applied, 4 * kd) - _scaled(coords, n * kn * den)
        if residual.any():
            failures.append(Failure("two_form_eigenvalue", (i, k), format_residual(residual, 4 * kd * den)))

    pairs0 = linalg.pair_basis(n)
    # R_{X_a, X_b} for every pair a < b: the rows of R^, negated
    curv = linalg.coords_to_skew(-rhat_num, n)
    for (i, j) in s.pairs():
        jmat = s.j(i, j)
        lhs = linalg.imatmul(curv, jmat) - linalg.imatmul(jmat[None, :, :], curv)
        # the sum over s as one product: the coordinates of J_si and J_sj
        # against the matrices J_sj and J_is they multiply (J_jj = -1)
        terms = [(s.j(x, i), s.j(x, j)) for x in range(1, r + 1) if x != i]
        terms += [(s.j(x, j), s.j(i, x)) for x in range(1, r + 1) if x != j]
        coeffs = linalg.skew_to_coords(np.stack([c for c, _ in terms]))
        targets = np.stack([t for _, t in terms]).reshape(len(terms), -1)
        rhs = linalg.imatmul(coeffs.T, targets).reshape(lhs.shape)
        residual = _scaled(lhs, kd) - _scaled(rhs, kn * den)
        if residual.any():
            bad = int(np.abs(residual.reshape(len(pairs0), -1)).max(axis=1).argmax())
            failures.append(Failure("curvature_action", (i, j) + pairs0[bad], format_residual(residual, kd * den)))

    ric = op.ricci_num()
    einstein = _scaled(ric, 4 * kd) - _scaled(linalg.eye(n), kn * (n + 8 * r - 16) * den)
    if einstein.any():
        failures.append(Failure("einstein", (), format_residual(einstein, 4 * kd * den)))

    # Ricci system: 0 = Ric + (n/4 - 2) J_ij w_ij + sum_s [J_si w_si + J_sj w_sj]
    # with J_sx^2 = J_xs^2, each square formed once
    squares = {p: linalg.imatmul(s.j(*p), s.j(*p)) for p in s.pairs()}

    def square(x: int, y: int) -> np.ndarray:
        return squares[(min(x, y), max(x, y))]

    for (i, j) in s.pairs():
        terms = [(4 * kd, ric), ((n - 8) * kn * den, square(i, j))]
        terms += [(4 * kn * den, square(x, i)) for x in range(1, r + 1) if x != i]
        terms += [(4 * kn * den, square(x, j)) for x in range(1, r + 1) if x != j]
        acc, _ = linalg.rational_combination(terms, n)
        if acc.any():
            failures.append(Failure("ricci_system", (i, j), format_residual(acc, 4 * kd * den)))

    return VerificationReport("parallel_identities", failures)


def verify_cc_normalization(
    op: CurvatureOperator, s: EvenCliffordStructure, identities: VerificationReport | None = None
) -> VerificationReport:
    """Curvature constancy normalisation: forms equal twice the family.

    Runs the parallel identity suite at kappa = 2, the scalar curvature
    value scal = 2n(n/4 + 2r - 4), and, for r != 4, the trace orthogonality
    of the curvature forms 2 J_ij: each failure of the family's
    orthogonality suite is reported with its residual doubled.  A caller
    that already holds the kappa = 2 report of ``verify_parallel_identities``
    on the same op and s passes it as ``identities``, and the suite is not
    run again.
    """
    if identities is None:
        identities = verify_parallel_identities(op, s, 2)
    failures = list(identities.failures)
    n, r = s.n, s.r
    data = {}
    expected = cc_scal(n, r)
    got = op.scalar()
    if got != expected:
        failures.append(Failure("scalar_curvature", (), str(got - expected)))
    data["scal"] = str(got)
    if n == 4:
        data["note"] = "n = 4: scalar normalisation outside its stated domain; value reported"
    if r != 4:
        failures += [
            Failure("form_orthogonality", f.indices, str(2 * int(f.residual)))
            for f in verify_orthogonality(s).failures
        ]
    return VerificationReport("cc_normalization", failures, data)


# -- centralizers -----------------------------------------------------------------


def centralizer_dim(gens: linalg.OperatorStack) -> tuple[int, list[np.ndarray]]:
    """Dimension and basis of the commutant in so(n) of the signed
    permutations of a column-form stack (a built rep's ``stack``).

    For G e_c = s_c e_{p(c)}, X G = G X reads X[p a, p b] = s_a s_b X[a, b]
    and skewness reads X[b, a] = -X[a, b]: every rule ties one entry of X
    to another up to sign, so the entries fall into classes of tied
    entries.  A class that ties an entry to its own negative is zero; every
    other class gives one basis matrix, +-1 on the class and 0 elsewhere.
    A dense or empty stack raises CurvatureError.
    """
    cols = gens.columns
    if cols is None or cols[0].size == 0:
        raise CurvatureError("centralizer_dim takes a nonempty stack of signed permutations in column form")
    n = gens.n
    perm, sign = (c.reshape(-1, n) for c in cols)
    a, b = np.divmod(np.arange(n * n), n)
    # a rule (to, by) says: entry to[x] is by[x] times entry x = a n + b
    rules = [(b * n + a, np.full(n * n, -1))] + [(p[a] * n + p[b], s[a] * s[b]) for p, s in zip(perm, sign)]
    # each entry takes the least entry of its class as label and its value
    # relative to that entry; the rules are bijections of a finite set, so
    # pushing labels forward along them reaches the whole class
    label = np.arange(n * n)
    value = np.ones(n * n, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for to, by in rules:
            lower = label < label[to]
            if lower.any():
                label[to[lower]] = label[lower]
                value[to[lower]] = by[lower] * value[lower]
                changed = True
    zero = np.zeros(n * n, dtype=bool)
    for to, by in rules:
        zero[label[value[to] != by * value]] = True
    roots = np.flatnonzero((label == np.arange(n * n)) & ~zero)
    free = np.flatnonzero(~zero[label])
    basis = np.zeros((len(roots), n * n), dtype=np.int64)
    basis[np.searchsorted(roots, label[free]), free] = value[free]
    return len(roots), list(basis.reshape(-1, n, n))


# -- model spaces -----------------------------------------------------------------


@dataclass
class ModelSpace:
    """A model fibre: an aligned structure plus its calibrated operator."""

    name: str
    n: int
    r: int
    structure: EvenCliffordStructure
    operator: CurvatureOperator
    scale: Fraction  # the eigenvalue of R^ on the span of the family
    expected_ricci: Fraction
    expected_scal: Fraction
    spectrum_candidates: list[Fraction]


def cc_scal(n: int, r: int) -> Fraction:
    """Scalar curvature forced by the curvature constancy normalisation."""
    return 2 * n * (Fraction(n, 4) + 2 * r - 4)


def cc_ricci(n: int, r: int) -> Fraction:
    return 2 * (Fraction(n, 4) + 2 * r - 4)


# the four n <= 16 model fibres, each by the rank of its family
MODEL_RANKS = {"s8": 8, "cp4": 6, "hp2": 5, "op2": 9}
MODEL_NAMES = tuple(MODEL_RANKS)


def build_model(name: str) -> ModelSpace:
    """The model fibre of rank r = MODEL_RANKS[name] as a symmetric space.

    The family is the irreducible Cl0_r module; the isotropy algebra is
    span{J_ij} plus the commutant C of the family.  R^ = c_J P_J + c_C P_C,
    where c_J = n/2 because R^(J) = (n kappa / 4) J at kappa = 2, and c_C
    follows from trace R^ = scal / 2 at the normalised scalar curvature.
    """
    if name not in MODEL_RANKS:
        raise CurvatureError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    r = MODEL_RANKS[name]
    rep = irreducible_even_rep(r)
    s = EvenCliffordStructure.from_rep(rep)
    n = s.n
    family = [s.family.mats[p] for p in s.pairs()]
    _, commutant = centralizer_dim(rep.stack)
    c_j = Fraction(n, 2)
    ideals, scales = [family], [c_j]
    if commutant:
        ideals.append(commutant)
        scales.append((cc_scal(n, r) / 2 - c_j * len(family)) / len(commutant))
    op = isotropy_projection_op(ideals, scales)
    return ModelSpace(name, n, r, s, op, c_j, cc_ricci(n, r), cc_scal(n, r), sorted({Fraction(0), *scales}))
