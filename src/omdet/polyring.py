"""Exact sparse polynomial arithmetic over Z in the hyperplane variables a_i^+, a_i^-.

A ground set of n hyperplanes carries 2n variables: hyperplane i (1-based)
owns the pair a_i^+, a_i^- at flat indices 2(i-1) and 2(i-1)+1.  Polynomials
store their terms sparsely as {packed exponent key: nonzero integer
coefficient}; coefficients are plain Python ints, so they never overflow.

The packed key keeps one 16-bit lane per variable, with variable 0 in the
most significant lane and the total degree stacked above the top lane.
Comparing two keys as integers is then exactly the graded lexicographic
order with variable sequence a1p, a1m, a2p, ...  Bit 15 of each lane is kept
clear in every valid key; a set bit flags lane overflow during
multiplication and a failed borrow during division, both of which are
reported instead of silently corrupting exponents.

All values here are immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import prod
from operator import or_

LANE_BITS = 16
MAX_EXPONENT = (1 << (LANE_BITS - 1)) - 1


class ExactDivisionError(ArithmeticError):
    """The requested quotient does not exist in the integer polynomial ring."""


class ExponentOverflowError(OverflowError):
    """A packed exponent lane exceeded MAX_EXPONENT."""


def var_label(index: int, nvars: int) -> str:
    """Printed name of a flat variable index in a universe of nvars variables.

    A one-variable universe (the image of a collapsing specialization) has
    the single variable "a"; otherwise index 2(i-1) is "a<i>p" (a_i^+) and
    2(i-1)+1 is "a<i>m" (a_i^-).
    """
    if nvars == 1:
        return "a"
    return f"a{index // 2 + 1}{'pm'[index % 2]}"


def var_index(label: str) -> int:
    """Flat index of an indexed variable label; the inverse of ``var_label``."""
    m = re.fullmatch(r"a(\d+)([pm])", label)
    if m is None:
        raise ValueError(f"unknown variable {label!r} (expected a<i>p or a<i>m)")
    hyperplane = int(m.group(1))
    if hyperplane < 1:
        raise ValueError(f"hyperplane index must be >= 1, got {hyperplane}")
    return 2 * (hyperplane - 1) + (0 if m.group(2) == "p" else 1)


@lru_cache(maxsize=None)
def _guard_mask(nvars: int) -> int:
    guard = 0
    for v in range(nvars):
        guard |= (1 << (LANE_BITS - 1)) << (LANE_BITS * v)
    return guard


def pack_monomial(nvars: int, exponents) -> int:
    """Pack {variable: exponent} into a single ordered key.

    Keys are flat variable indices; zero exponents are dropped.
    """
    key = 0
    degree = 0
    for v, e in exponents.items():
        if not 0 <= v < nvars:
            raise ValueError(f"variable index {v} outside universe of {nvars} variables")
        e = int(e)
        if e == 0:
            continue
        if not 0 < e <= MAX_EXPONENT:
            raise ExponentOverflowError(f"exponent {e} outside 1..{MAX_EXPONENT}")
        key += e << (LANE_BITS * (nvars - 1 - v))
        degree += e
    return key + (degree << (LANE_BITS * nvars))


def _lanes(nvars: int, key: int):
    """Yield (variable, exponent) for the nonzero lanes of a packed key, variables ascending.

    Each step jumps to the next nonzero lane, so the cost follows the
    variables the key uses rather than the size of the universe.
    """
    key &= (1 << (LANE_BITS * nvars)) - 1  # drops the stacked degree
    top = nvars - 1
    while key:
        lane = (key.bit_length() - 1) // LANE_BITS
        e = key >> (LANE_BITS * lane)
        yield top - lane, e
        key ^= e << (LANE_BITS * lane)


def unpack_monomial(nvars: int, key: int) -> dict[int, int]:
    """Inverse of pack_monomial; returns {flat variable index: exponent}, indices ascending."""
    return dict(_lanes(nvars, key))


def monomial_degree(nvars: int, key: int) -> int:
    return key >> (LANE_BITS * nvars)


def _accumulate_product(out: dict, a: dict, b: dict):
    """Accumulate a * b into out, without intermediate normalization.

    Lane overflow cannot corrupt neighbouring lanes (16-bit lanes hold sums
    of two 15-bit exponents), so the overflow check can run once at the end
    over the accumulated keys.
    """
    if len(a) < len(b):
        a, b = b, a
    get = out.get
    b_items = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2


def _strip_and_check(nvars: int, out: dict) -> dict:
    guard = _guard_mask(nvars)
    clean = {}
    for k, c in out.items():
        if c:
            if k & guard:
                raise ExponentOverflowError(
                    f"monomial product exceeds exponent limit {MAX_EXPONENT}"
                )
            clean[k] = c
    return clean


def _divide_exact(nvars: int, rem: dict, qterms: dict) -> dict:
    """Destructively divide rem by qterms; both are raw term dicts."""
    if not qterms:
        raise ZeroDivisionError("polynomial division by zero")
    if not rem:
        return {}
    guard = _guard_mask(nvars)
    qlead = max(qterms)
    qlc = qterms[qlead]
    qrest = [(k, c) for k, c in qterms.items() if k != qlead]
    heap = [-k for k in rem]
    heapq.heapify(heap)
    out: dict[int, int] = {}
    while rem:
        while True:
            lead = -heap[0]
            if lead in rem:
                break
            heapq.heappop(heap)
        kdiff = lead - qlead
        if kdiff < 0 or (kdiff & guard):
            raise ExactDivisionError("leading monomial not divisible")
        coeff, r = divmod(rem[lead], qlc)
        if r:
            raise ExactDivisionError("leading coefficient not divisible")
        out[kdiff] = coeff
        del rem[lead]
        for k2, c2 in qrest:
            k = kdiff + k2
            if k & guard:
                raise ExponentOverflowError("exponent overflow during division")
            s = rem.get(k, 0) - coeff * c2
            if s:
                if k not in rem:
                    heapq.heappush(heap, -k)
                rem[k] = s
            elif k in rem:
                del rem[k]
    return out


def divide_binomial(nvars: int, p: dict, b: int, c: int = 1) -> dict:
    """Exact quotient of the term dict p by the binomial 1 - c*x^b, b a nonconstant key.

    The quotient q satisfies q[k] = p[k] + c*q[k-b], so it is built over
    ascending keys with no coefficient division.  Its leading key must be
    max(p) - b: a borrow there (p's leading monomial is not a multiple of
    x^b) is rejected before any work, and a nonzero q key above it means a
    nonzero remainder.
    """
    if not p:
        return {}
    top = max(p) - b
    if top < 0 or top & _guard_mask(nvars):
        raise ExactDivisionError("leading monomial not divisible by the binomial's monomial")
    heap = list(p)
    heapq.heapify(heap)
    q: dict[int, int] = {}
    while heap:
        k = heapq.heappop(heap)
        while heap and heap[0] == k:
            heapq.heappop(heap)
        v = p.get(k, 0) + c * q.get(k - b, 0)
        if v:
            if k > top:
                raise ExactDivisionError("nonzero remainder after dividing by the binomial")
            q[k] = v
            heapq.heappush(heap, k + b)
    return q


class IntPolynomial:
    """Immutable sparse multivariate polynomial with integer coefficients.

    Every polynomial lives in a fixed variable universe of ``nvars``
    variables; mixing universes in arithmetic is an error rather than a
    silent re-interpretation.
    """

    __slots__ = ("nvars", "_terms", "_hashval")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        self._terms = {k: c for k, c in (terms or {}).items() if c}
        self._hashval = None

    # construction helpers

    @classmethod
    def zero(cls, nvars: int) -> IntPolynomial:
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: int) -> IntPolynomial:
        return cls(nvars, {0: int(value)})

    @classmethod
    def one(cls, nvars: int) -> IntPolynomial:
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, v) -> IntPolynomial:
        return cls.monomial(nvars, {v: 1})

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff: int = 1) -> IntPolynomial:
        return cls(nvars, {pack_monomial(nvars, exponents): int(coeff)})

    # inspection

    def terms(self):
        """Yield (packed key, coefficient) in canonical order.

        Degrees ascend (constant term first); within a degree, monomials in
        earlier variables come first.
        """
        shift = LANE_BITS * self.nvars
        for key in sorted(self._terms, key=lambda k: (k >> shift, -k)):
            yield key, self._terms[key]

    def monomial_exponents(self):
        """Yield ({variable: exponent}, coefficient) in canonical order."""
        for key, coeff in self.terms():
            yield unpack_monomial(self.nvars, key), coeff

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == {0: 1}

    def __len__(self):
        return len(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return monomial_degree(self.nvars, max(self._terms))

    # ring operations

    def _check_universe(self, other: IntPolynomial):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable universes differ: {self.nvars} vs {other.nvars}"
            )

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            self._check_universe(other)
            return other
        if isinstance(other, int):
            return IntPolynomial.const(self.nvars, other)
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in q._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return IntPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[int, int] = {}
        _accumulate_product(out, self._terms, q._terms)
        return IntPolynomial(self.nvars, _strip_and_check(self.nvars, out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = IntPolynomial.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def eval_mod(self, assignment, prime: int) -> int:
        """Value of the polynomial at {variable: residue}, in the prime field."""
        return residues_mod((self,), assignment, prime)[0]

    # comparisons and display

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        if self._hashval is None:
            object.__setattr__(
                self, "_hashval", hash((self.nvars, frozenset(self._terms.items())))
            )
        return self._hashval

    def __bool__(self):
        return bool(self._terms)

    def sort_key(self):
        """Deterministic total order key (used to canonicalize factor lists).

        Orders by total degree, then so that polynomials in earlier
        variables come first (larger packed keys sort earlier).
        """
        return (self.total_degree(), tuple(sorted((-k, c) for k, c in self._terms.items())))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"IntPolynomial({self.nvars}, {poly_str(self)!r})"


def residues_mod(polys, assignment, prime: int) -> list[int]:
    """Values of several polynomials at one {variable: residue} assignment.

    The assignment is reduced once; each term is then evaluated over the
    nonzero lanes of its packed key only.
    """
    if prime <= 2:
        raise ValueError(f"prime must exceed 2, got {prime}")
    values = {v: int(r) % prime for v, r in assignment.items()}
    out = []
    try:
        for p in polys:
            total = 0
            for key, coeff in p._terms.items():
                term = coeff
                for v, e in _lanes(p.nvars, key):
                    term = term * pow(values[v], e, prime) % prime
                total += term
            out.append(total % prime)
    except KeyError as exc:
        raise KeyError(f"no residue assigned to {var_label(exc.args[0], p.nvars)}") from None
    return out


def used_variables(polys) -> list[int]:
    """Sorted flat indices of the variables occurring in polynomials of one universe."""
    nvars = keys = 0
    for p in polys:
        nvars = p.nvars
        # a lane of the OR of all keys is nonzero iff some term uses that variable
        keys = reduce(or_, p._terms, keys)
    return sorted(unpack_monomial(nvars, keys))


def poly_str(p: IntPolynomial) -> str:
    """Canonical text form: terms ascending in graded lex, '*' and '^' syntax."""
    if p.is_zero:
        return "0"
    parts = []
    for exps, coeff in p.monomial_exponents():
        factors = []
        for v, e in exps.items():
            name = var_label(v, p.nvars)
            factors.append(name if e == 1 else f"{name}^{e}")
        mon = "*".join(factors)
        mag = abs(coeff)
        if not mon:
            body = str(mag)
        elif mag == 1:
            body = mon
        else:
            body = f"{mag}*{mon}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(parts)


class FactoredPoly:
    """A product of polynomial powers, kept in canonical merged-and-sorted form.

    Equal bases are merged by adding exponents, zero exponents are dropped,
    and factors are ordered by (total degree, term list) so equal products
    print identically.
    """

    __slots__ = ("nvars", "factors")

    def __init__(self, nvars: int, factors=()):
        merged: dict[IntPolynomial, int] = {}
        for base, exp in factors:
            if base.nvars != nvars:
                raise ValueError("factor universe differs from the product universe")
            exp = int(exp)
            if exp < 0:
                raise ValueError("factor exponents must be nonnegative")
            if exp == 0 or base.is_one:
                continue
            merged[base] = merged.get(base, 0) + exp
        self.nvars = nvars
        self.factors = tuple(
            sorted(merged.items(), key=lambda item: item[0].sort_key())
        )

    def expand(self) -> IntPolynomial:
        result = IntPolynomial.one(self.nvars)
        for base, exp in self.factors:
            result = result * base**exp
        return result

    def eval_mod(self, assignment, prime: int) -> int:
        residues = residues_mod([base for base, _ in self.factors], assignment, prime)
        return prod(pow(r, exp, prime) for r, (_, exp) in zip(residues, self.factors)) % prime

    def total_degree(self) -> int:
        return sum(exp * base.total_degree() for base, exp in self.factors)

    def __eq__(self, other):
        if not isinstance(other, FactoredPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.factors == other.factors

    def __hash__(self):
        return hash((self.nvars, self.factors))

    def __str__(self):
        return factored_str(self)

    def __repr__(self):
        return f"FactoredPoly({self.nvars}, {factored_str(self)!r})"


def factored_str(f: FactoredPoly) -> str:
    if not f.factors:
        return "1"
    parts = []
    for base, exp in f.factors:
        body = f"({poly_str(base)})"
        parts.append(body if exp == 1 else f"{body}^{exp}")
    return " * ".join(parts)


@dataclass(frozen=True)
class Specialization:
    """A map sending each variable to one term.

    ``images[v] = (c, t)`` sends source variable v to c*x_t in the target
    universe of ``nvars`` variables, or to the constant c when t is None.
    """

    images: tuple
    nvars: int

    @classmethod
    def of(cls, nvars_in: int, values) -> Specialization:
        """Build from {variable: int or "a"}; unlisted variables stay themselves.

        Any "a" makes "a" the only target variable, so every variable must be listed.
        """
        if any(not 0 <= v < nvars_in for v in values):
            raise ValueError(f"specialized variable outside universe of {nvars_in} variables")
        if "a" not in values.values():
            images = tuple((int(values[v]), None) if v in values else (1, v) for v in range(nvars_in))
            return cls(images, nvars_in)
        if len(values) < nvars_in:
            raise ValueError("a specialization using the collapsed symbol 'a' must cover every variable")
        images = tuple((1, 0) if values[v] == "a" else (int(values[v]), None) for v in range(nvars_in))
        return cls(images, 1)

    @classmethod
    def collapse_all(cls, nvars_in: int) -> Specialization:
        """Send every variable to the single symbol "a"."""
        return cls.of(nvars_in, dict.fromkeys(range(nvars_in), "a"))

    def apply_poly(self, p: IntPolynomial) -> IntPolynomial:
        """Image of p: each term's key is mapped over its nonzero lanes."""
        if p.nvars != len(self.images):
            raise ValueError("polynomial universe differs from the specialization's source")
        out: dict[int, int] = {}
        for key, coeff in p._terms.items():
            exps: dict[int, int] = {}
            for v, e in _lanes(p.nvars, key):
                c, t = self.images[v]
                coeff *= c**e
                if t is not None:
                    exps[t] = exps.get(t, 0) + e
            if coeff:
                k = pack_monomial(self.nvars, exps)
                out[k] = out.get(k, 0) + coeff
        return IntPolynomial(self.nvars, out)

    def apply_factored(self, f: FactoredPoly) -> FactoredPoly:
        return FactoredPoly(self.nvars, [(self.apply_poly(base), exp) for base, exp in f.factors])
