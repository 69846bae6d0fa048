"""Combinatorial model of the Clifford algebra Cl_r with e_i . e_i = -1.

Basis blades are subsets of {1..r}, held internally as bitmasks (bit i-1
stands for the generator e_i).  Products are computed on demand by
transposition counting in O(r); no multiplication table is materialised.
Coefficients are exact rationals throughout.

Orientation convention: e_1 ^ ... ^ e_r is positive, and the Hodge dual of a
generator is normalised by  e_i . (star e_i) = e_{1..r}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

MAX_BLADE_RANK = 32

Scalar = int | Fraction


class BladeError(ValueError):
    """Raised for indices outside the algebra or mismatched signatures."""


@dataclass(frozen=True)
class AlgebraSignature:
    """Number of anticommuting generators, all squaring to -1."""

    rank: int

    def __post_init__(self) -> None:
        if not 1 <= self.rank <= MAX_BLADE_RANK:
            raise BladeError(f"rank must be in 1..{MAX_BLADE_RANK}, got {self.rank}")

    def check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise BladeError(f"generator index {i} out of range 1..{self.rank}")


@dataclass(frozen=True)
class SignedBlade:
    """A basis blade with a sign; the empty index set is the unit."""

    index_set: tuple[int, ...]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise BladeError(f"sign must be +1 or -1, got {self.sign}")
        if list(self.index_set) != sorted(set(self.index_set)):
            raise BladeError(f"index set must be strictly increasing: {self.index_set}")


def _mask(indices: Iterable[int], sig: AlgebraSignature) -> int:
    m = 0
    for i in indices:
        sig.check_index(i)
        m |= 1 << (i - 1)
    return m


def _unmask(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _mask_product(s: int, t: int) -> tuple[int, int]:
    """Product of basis blades as bitmasks: (sign, symmetric difference).

    The sign counts transpositions needed to interleave the two ascending
    index words, plus one factor of -1 per shared index (e_i . e_i = -1).
    """
    sign = 1
    swaps = 0
    # For each index i in t, the generators of s strictly above i must jump
    # over it; parity of that count gives the reordering sign.
    tt = t
    pos = 0
    while tt:
        if tt & 1:
            above = (s >> (pos + 1)).bit_count()
            swaps += above
        tt >>= 1
        pos += 1
    if swaps & 1:
        sign = -sign
    shared = s & t
    if shared.bit_count() & 1:
        sign = -sign
    return sign, s ^ t


def blade_product(
    s: Iterable[int], t: Iterable[int], sig: AlgebraSignature
) -> tuple[int, tuple[int, ...]]:
    """e_S . e_T = sign * e_(S xor T) in Cl_r."""
    sign, mask = _mask_product(_mask(s, sig), _mask(t, sig))
    return sign, _unmask(mask)


class CliffordElement:
    """Sparse element of Cl_r: finite map from basis blades to rationals."""

    __slots__ = ("signature", "_terms")

    def __init__(self, signature: AlgebraSignature, terms: Mapping[int, Scalar] | None = None):
        self.signature = signature
        clean: dict[int, Fraction] = {}
        if terms:
            top = 1 << signature.rank
            for mask, coeff in terms.items():
                if not 0 <= mask < top:
                    raise BladeError(f"blade mask {mask} outside rank {signature.rank}")
                c = Fraction(coeff)
                if c:
                    clean[mask] = c
        self._terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, sig: AlgebraSignature) -> "CliffordElement":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: AlgebraSignature, value: Scalar) -> "CliffordElement":
        return cls(sig, {0: Fraction(value)})

    @classmethod
    def blade(cls, sig: AlgebraSignature, indices: Iterable[int], coeff: Scalar = 1) -> "CliffordElement":
        return cls(sig, {_mask(indices, sig): Fraction(coeff)})

    @classmethod
    def generator(cls, sig: AlgebraSignature, i: int) -> "CliffordElement":
        return cls.blade(sig, (i,))

    # -- inspection ----------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for mask in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            yield _unmask(mask), self._terms[mask]

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return self._terms.get(_mask(indices, self.signature), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self._terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() % 2 == 1 for m in self._terms)

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other: "CliffordElement") -> None:
        if self.signature != other.signature:
            raise BladeError("elements belong to different algebras")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check_same(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return CliffordElement(self.signature, terms)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.signature, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def scale(self, scalar: Scalar) -> "CliffordElement":
        f = Fraction(scalar)
        return CliffordElement(self.signature, {m: c * f for m, c in self._terms.items()})

    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return geometric_product(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self.signature == other.signature
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.signature, frozenset(self._terms.items())))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for indices, coeff in self.items():
            blade = "e{" + ",".join(str(i) for i in indices) + "}"
            parts.append(f"{'+' if coeff > 0 else '-'}{abs(coeff)}·{blade}")
        return " + ".join(parts)

    def to_json(self) -> str:
        terms = [
            {"blades": list(indices), "num": coeff.numerator, "den": coeff.denominator}
            for indices, coeff in self.items()
        ]
        return json.dumps({"terms": terms, "rank": self.signature.rank})

    @classmethod
    def from_json(cls, text: str) -> "CliffordElement":
        data = json.loads(text)
        sig = AlgebraSignature(data["rank"])
        out = cls.zero(sig)
        for term in data["terms"]:
            out = out + cls.blade(sig, term["blades"], Fraction(term["num"], term["den"]))
        return out

    def __repr__(self) -> str:
        return f"CliffordElement({self.to_text()!r}, rank={self.signature.rank})"


def geometric_product(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Bilinear, associative extension of the blade product."""
    a._check_same(b)
    terms: dict[int, Fraction] = {}
    for ma, ca in a._terms.items():
        for mb, cb in b._terms.items():
            sign, mask = _mask_product(ma, mb)
            c = terms.get(mask, Fraction(0)) + sign * ca * cb
            if c:
                terms[mask] = c
            else:
                terms.pop(mask, None)
    return CliffordElement(a.signature, terms)


def volume_element(sig: AlgebraSignature) -> CliffordElement:
    """The top blade e_1 . e_2 ... e_r."""
    return CliffordElement.blade(sig, range(1, sig.rank + 1))


def volume_square_sign(r: int) -> int:
    """Sign of (e_1...e_r)^2, namely (-1)^(r(r+1)/2)."""
    return -1 if (r * (r + 1) // 2) % 2 else 1


def volume_commutation_sign(r: int) -> int:
    """omega . e_i = sign * e_i . omega: +1 for odd r (central), -1 for even."""
    return -1 if r % 2 == 0 else 1


def hodge_dual_vector(i: int, sig: AlgebraSignature) -> SignedBlade:
    """The grade r-1 blade star(e_i) with e_i . star(e_i) = e_{1..r}."""
    sig.check_index(i)
    complement = tuple(j for j in range(1, sig.rank + 1) if j != i)
    sign, full = blade_product((i,), complement, sig)
    if full != tuple(range(1, sig.rank + 1)):
        raise BladeError(f"e_{i} times its complement is not the volume blade")
    # e_i . (sign * complement) = sign^2 * volume = volume
    return SignedBlade(complement, sign)


def hodge_dual_element(i: int, sig: AlgebraSignature) -> CliffordElement:
    b = hodge_dual_vector(i, sig)
    return CliffordElement.blade(sig, b.index_set, b.sign)


def lambda2_embed(i: int, j: int, sig: AlgebraSignature) -> CliffordElement:
    """e_i ^ e_j as an element of the even algebra: e_i . e_j + h(e_i, e_j)."""
    sig.check_index(i)
    sig.check_index(j)
    prod = geometric_product(
        CliffordElement.generator(sig, i), CliffordElement.generator(sig, j)
    )
    if i == j:
        return prod + CliffordElement.scalar(sig, 1)
    return prod

