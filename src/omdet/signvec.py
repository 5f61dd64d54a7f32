"""Sign vectors over {+,-,0}, covector-axiom validation, and topal fibers.

Conventions used throughout the package:

* Ground-set indices are 1-based in every public interface and message;
  a vector of length n is written as a string over "+-0", leftmost
  character = index 1.
* A sign vector is stored as two bitmasks (plus-set, minus-set) over the
  ground set, so composition, separation and the partial order are single
  bitwise expressions.  Ground sets are capped at 64 elements.
* The canonical total order on vectors of equal length is lexicographic
  with symbol order "-" < "0" < "+"; all iteration, matrix indexing, and
  file output follow it.

A covector set becomes "verified" once it passes the four axioms (zero
vector present, closure under negation, closure under composition,
elimination).  ``check_covector_axioms`` sets ``verified`` on the set it is
given, as ``enumerate_covectors`` does on the set it builds; that flag is the
one exception to "immutable after construction".
A topal fiber is the subset of covectors agreeing with an anchor outside a
free index set I; fibers produced by generators that never materialize the
ambient covector set (wiring diagrams, fiber-format files) are validated
structurally instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

MAX_GROUND_SET = 64

_SIGN_CHARS = frozenset("+-0")
_PLUS_DIGITS = str.maketrans("+-0", "100")
_MINUS_DIGITS = str.maketrans("+-0", "010")
_CHAR_OF_RANK = bytes.maketrans(b"\0\1\2", b"-0+")
_ONES = int.from_bytes(b"\1" * MAX_GROUND_SET, "big")


def as_int(value) -> int:
    """int(value), but a float or bool raises ValueError instead of truncating."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _json_kind(value) -> str:
    """A JSON value as a message names it: a container by its kind, a list with its length, a scalar as JSON."""
    if isinstance(value, dict):
        return "an object"
    return f"a list of {len(value)}" if isinstance(value, list) else json.dumps(value)


def _json_int(value, name: str) -> int:
    """as_int(value) of the field name, else a ValueError naming it."""
    try:
        return as_int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected an integer, got {_json_kind(value)}") from None


def _json_list(value, name: str) -> list:
    """The list value of the field name, else a ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError(f"{name}: expected a list, got {_json_kind(value)}")
    return value


def _json_field(doc, key: str, read, where: str = ""):
    """read(doc[key], name), name being the field's path where.key; a doc that is not a JSON object or lacks
    the key raises ValueError naming where or the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where + ': ' if where else ''}expected a JSON object, got {_json_kind(doc)}")
    name = f"{where}.{key}" if where else key
    if key not in doc:
        raise ValueError(f"{name}: required field missing")
    return read(doc[key], name)


class FiberError(ValueError):
    """The input is not a valid oriented-matroid fiber."""


@dataclass(frozen=True)
class SignVector:
    """An element of {+,-,0}^n backed by plus/minus bitmasks."""

    n: int
    plus: int
    minus: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {self.n}")
        full = (1 << self.n) - 1
        if self.plus & ~full or self.minus & ~full:
            raise ValueError("sign mask has bits outside the ground set")
        if self.plus & self.minus:
            raise ValueError("an index cannot be both positive and negative")

    @classmethod
    def from_string(cls, text: str) -> SignVector:
        """The vector written as text over "+-0", leftmost character = index 1.

        Reversed, the text maps to the binary digits of its masks, so each
        is one ``str.translate`` and one ``int(..., 2)``.
        """
        if not _SIGN_CHARS.issuperset(text):
            ch = next(ch for ch in text if ch not in _SIGN_CHARS)
            raise ValueError(f"invalid sign character {ch!r} (expected one of '+-0')")
        digits = text[::-1] or "0"
        return cls(len(text), int(digits.translate(_PLUS_DIGITS), 2), int(digits.translate(_MINUS_DIGITS), 2))

    @classmethod
    def zero(cls, n: int) -> SignVector:
        return cls(n, 0, 0)

    def sign(self, i: int) -> int:
        """Sign at 1-based index i, as an integer in {-1, 0, +1}."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} outside 1..{self.n}")
        bit = 1 << (i - 1)
        if self.plus & bit:
            return 1
        if self.minus & bit:
            return -1
        return 0

    def to_string(self) -> str:
        return self._ranks().translate(_CHAR_OF_RANK).decode()

    @property
    def support_mask(self) -> int:
        return self.plus | self.minus

    @property
    def zero_mask(self) -> int:
        return ((1 << self.n) - 1) & ~self.support_mask

    def support(self) -> frozenset[int]:
        return _mask_to_indices(self.support_mask)

    def zero_set(self) -> frozenset[int]:
        return _mask_to_indices(self.zero_mask)

    @property
    def is_tope(self) -> bool:
        return self.support_mask == (1 << self.n) - 1

    @property
    def is_zero(self) -> bool:
        return not self.support_mask

    def __neg__(self) -> SignVector:
        return SignVector(self.n, self.minus, self.plus)

    def _ranks(self) -> bytes:
        """Per-index rank 0, 1, 2 for -, 0, +, one byte per index: bytes compare as the canonical order.

        bin(mask | 1 << n) writes one ASCII digit byte per index behind the
        same prefix "0b1", so read back as integers the prefixes cancel in
        plus - minus; every byte of plus - minus + ones is then 1 + p - m in
        0..2, and the ranks are read off bytewise with no carry.
        """
        guard = 1 << self.n
        plus = int.from_bytes(bin(self.plus | guard).encode(), "big")
        minus = int.from_bytes(bin(self.minus | guard).encode(), "big")
        return (plus - minus + (_ONES >> 8 * (MAX_GROUND_SET - self.n))).to_bytes(self.n, "little")

    def sort_key(self) -> tuple[int, ...]:
        """Key for the canonical order: the ranks as a tuple."""
        return tuple(self._ranks())

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"SignVector({self.to_string()!r})"


def _ascending(mask: int) -> list[int]:
    """The indices of mask's bits (bit i-1 for index i), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _mask_to_indices(mask: int) -> frozenset[int]:
    return frozenset(_ascending(mask))


def _indices_to_mask(indices, n: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _check_same_length(u: SignVector, v: SignVector):
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} vs {v.n}")


def compose(u: SignVector, v: SignVector) -> SignVector:
    """u o v: take u's sign where nonzero, otherwise v's."""
    _check_same_length(u, v)
    open_ = ~u.support_mask
    return SignVector(u.n, u.plus | (v.plus & open_), u.minus | (v.minus & open_))


def _separation_mask(u: SignVector, v: SignVector) -> int:
    return (u.plus & v.minus) | (u.minus & v.plus)


def separation(u: SignVector, v: SignVector) -> frozenset[int]:
    """S(u, v): indices where u and v carry strictly opposite signs."""
    _check_same_length(u, v)
    return _mask_to_indices(_separation_mask(u, v))


def negate(u: SignVector) -> SignVector:
    return -u


def leq(u: SignVector, v: SignVector) -> bool:
    """Partial order: u <= v iff every u_i is 0 or equals v_i."""
    _check_same_length(u, v)
    return (u.plus & ~v.plus) == 0 and (u.minus & ~v.minus) == 0


@dataclass(frozen=True)
class CovectorSet:
    """A finite set of equal-length sign vectors in canonical order.

    ``verified`` records whether the set passed the covector axioms; it is
    excluded from equality so validation does not change set identity.
    """

    n: int
    members: tuple[SignVector, ...]
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        for m in self.members:
            if m.n != self.n:
                raise ValueError("all members must share the ground-set size")

    @classmethod
    def of(cls, members, n: int | None = None) -> CovectorSet:
        members = list(members)
        if n is None:
            if not members:
                raise ValueError("cannot infer ground-set size from an empty set")
            n = members[0].n
        unique = sorted(set(members), key=SignVector._ranks)
        return cls(n, tuple(unique))

    @property
    def _index(self) -> frozenset[SignVector]:
        cached = getattr(self, "_index_cache", None)
        if cached is None:
            cached = frozenset(self.members)
            object.__setattr__(self, "_index_cache", cached)
        return cached

    def __contains__(self, v: SignVector) -> bool:
        return v in self._index

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def loops(s: CovectorSet) -> frozenset[int]:
    """Indices at which every member is zero."""
    mask = (1 << s.n) - 1
    for m in s.members:
        mask &= ~m.support_mask
        if not mask:
            break
    return _mask_to_indices(mask)


def _loop_free(s: CovectorSet):
    """The loops error, the one wording of it, when s has loops."""
    found = loops(s)
    if found:
        raise FiberError(f"the covector set has loops at indices {sorted(found)}")


def topes(s) -> tuple[SignVector, ...]:
    """Members with no zero index, in canonical order.

    Accepts a CovectorSet or a FiberView.
    """
    if isinstance(s, FiberView):
        return s.topes
    return tuple(m for m in s.members if m.is_tope)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the four covector axioms, with one witness per failure."""

    zero_ok: bool
    negation_ok: bool
    composition_ok: bool
    elimination_ok: bool
    negation_witness: SignVector | None = None
    composition_witness: tuple[SignVector, SignVector] | None = None
    elimination_witness: tuple[SignVector, SignVector, int] | None = None

    @property
    def ok(self) -> bool:
        return self.zero_ok and self.negation_ok and self.composition_ok and self.elimination_ok

    def lines(self) -> list[str]:
        out = []
        out.append(f"zero vector: {'PASS' if self.zero_ok else 'FAIL (all-zeros vector missing)'}")
        if self.negation_ok:
            out.append("negation closure: PASS")
        else:
            out.append(f"negation closure: FAIL (missing -u for u={self.negation_witness})")
        if self.composition_ok:
            out.append("composition closure: PASS")
        else:
            u, v = self.composition_witness
            out.append(f"composition closure: FAIL (missing u o v for u={u}, v={v})")
        if self.elimination_ok:
            out.append("elimination: PASS")
        else:
            u, v, j = self.elimination_witness
            out.append(f"elimination: FAIL (no eliminating covector for u={u}, v={v}, j={j})")
        return out


def _composition_gap(members) -> tuple[SignVector, SignVector, SignVector] | None:
    """First (u, v, u o v) in member order with u o v not a member, else None.

    A vector is coded as one integer, plus | minus << 64, so composing is
    one OR of codes.  u o v depends on v only through v's signs on u's zero
    set, so the members are grouped by zero set, in order of each group's
    first member, and a group checks its members against the distinct
    projections of all members onto that set.  The first member that fails
    is rescanned against every v in member order for the first gap.
    """
    codes = [m.plus | m.minus << MAX_GROUND_SET for m in members]
    index = set(codes)
    low = (1 << MAX_GROUND_SET) - 1
    groups: dict[int, list[int]] = {}
    for pos, m in enumerate(members):
        zero = low & ~m.support_mask
        groups.setdefault(zero | zero << MAX_GROUND_SET, []).append(pos)
    first = len(codes)
    for open_, positions in groups.items():
        if positions[0] >= first:
            break
        shadows = set(map(open_.__and__, codes))
        for pos in positions:
            if pos >= first:
                break
            if not index.issuperset(map(codes[pos].__or__, shadows)):
                first = pos
                break
    if first == len(codes):
        return None
    u = members[first]
    open_ = ~u.support_mask
    for v in members:
        w = SignVector(u.n, u.plus | (v.plus & open_), u.minus | (v.minus & open_))
        if (w.plus | w.minus << MAX_GROUND_SET) not in index:
            return u, v, w


def composition_closure(n: int, codes, within: set[int] | None = None) -> set[int] | None:
    """Codes of the closure of the zero vector under composition with ``codes``.

    A vector is coded as one integer, plus | minus << n.  v o c depends on
    c only through its signs on v's zero set, so each distinct zero set
    projects the codes once and its members compose with the distinct
    projections only.  Given ``within``, the result is None as soon as a
    composition falls outside it, so a closure that could grow to 3^n
    codes stops early.
    """
    full = (1 << n) - 1
    seen = {0}
    stack = [0]
    shadows_of: dict[int, set[int]] = {}
    while stack:
        v = stack.pop()
        zero = full & ~(v | v >> n)
        open_ = zero | zero << n
        shadows = shadows_of.get(open_)
        if shadows is None:
            shadows = shadows_of[open_] = set(map(open_.__and__, codes))
        fresh = set(map(v.__or__, shadows)) - seen
        if within is not None and not fresh <= within:
            return None
        seen |= fresh
        stack += fresh
    return seen


def _bits(mask: int):
    """The set bits of mask, lowest first, each as a power of two."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _maximal(masks) -> list[int]:
    """The distinct masks that no other mask strictly contains.

    Distinct masks of one size never contain each other, so each mask is
    compared only with the maximal masks of larger size.
    """
    out: list[int] = []
    larger: list[int] = []
    size = None
    for mask in sorted(set(masks), key=int.bit_count, reverse=True):
        if mask.bit_count() != size:
            size = mask.bit_count()
            larger = out[:]
        if all(mask & ~big for big in larger):
            out.append(mask)
    return out


def _cocircuit_check(s: CovectorSet) -> bool:
    """True when s is the covector set of an oriented matroid, read off its cocircuits.

    The cocircuits of an oriented matroid are its minimal-support nonzero
    covectors, and the covectors are their compositions (Bjorner, Las
    Vergnas, Sturmfels, White and Ziegler, *Oriented Matroids*, ch. 3).
    So s is a covector set exactly when its minimal-support nonzero members
    pass ``_cocircuit_pairs`` and compose to the whole set; a composition
    closure of such pairs holds 0 and is closed under negation and
    composition, so True certifies all four axioms.
    """
    n = s.n
    cocircuits = _cocircuit_pairs(n, [(m.plus, m.minus) for m in s.members])
    if cocircuits is None:
        return False
    codes = [code for p, m in cocircuits for code in (p | m << n, m | p << n)]
    members = {m.plus | m.minus << n for m in s.members}
    return composition_closure(n, codes, members) == members


def _cocircuit_pairs(n: int, vectors) -> list[tuple[int, int]] | None:
    """One of each pair X, -X of the minimal-support nonzero (plus, minus) vectors, or None.

    None unless those vectors come as one pair X, -X per support and pass
    modular elimination.  Modular elimination runs over pairs whose zero
    sets meet in a coline, a maximal pairwise intersection of zero sets.
    An element outside a coline lies in at most one zero set of the
    coline's pencil, so each (X, Y, e) has one candidate pair +-Z, or none
    and the check fails.
    """
    full = (1 << n) - 1
    by_zero: dict[int, list[tuple[int, int]]] = {}
    for p, m in vectors:
        if p | m:
            by_zero.setdefault(full & ~(p | m), []).append((p, m))
    zeros = _maximal(by_zero)
    cocircuits = []
    for zero in zeros:
        pair = by_zero[zero]
        if len(pair) != 2 or pair[0] != pair[1][::-1]:
            return None
        cocircuits.append(pair[0])

    common = full
    for zero in zeros:
        common &= zero
    holders: dict[int, list[int]] = {}
    for k, zero in enumerate(zeros):
        for bit in _bits(zero & ~common):
            holders.setdefault(bit, []).append(k)
    # zero sets that share no element outside the common part meet in it,
    # which is then a coline only if no two zero sets share such an element
    pencils: dict[int, set[int]] = {}
    for group in holders.values():
        for a, k in enumerate(group):
            for j in group[a + 1 :]:
                pencils.setdefault(zeros[k] & zeros[j], set()).update((k, j))
    if not pencils and len(zeros) > 1:
        pencils[common] = set(range(len(zeros)))

    for line in _maximal(pencils):
        pencil = [(*cocircuits[k], zeros[k] & ~line) for k in pencils[line]]
        owner = {bit: h for h, (_, _, rest) in enumerate(pencil) for bit in _bits(rest)}
        for a, (xp, xm, _) in enumerate(pencil):
            for bp, bm, _ in pencil[a + 1 :]:
                for yp, ym in ((bp, bm), (bm, bp)):
                    sep = (xp & ym) | (xm & yp)
                    no_plus, no_minus = ~(xp | yp), ~(xm | ym)
                    while sep:
                        h = owner.get(sep & -sep)
                        if h is None:
                            return None
                        # Z or -Z must have its + within X+ | Y+ and its - within X- | Y-
                        zp, zm, rest = pencil[h]
                        if (zp & no_plus or zm & no_minus) and (zm & no_plus or zp & no_minus):
                            return None
                        sep &= ~rest
    return cocircuits


def _elimination_witness(s: CovectorSet) -> tuple[SignVector, SignVector, int] | None:
    """First (u, v, j) over member pairs in order with no member eliminating j between u and v.

    Elimination is symmetric in (u, v): S(u,v) = S(v,u) and the two
    compositions agree outside S, so unordered pairs suffice.  Pairs that
    share (S, composition-outside-S) pose the same requirement and are
    deduplicated.
    """
    full = (1 << s.n) - 1
    vectors = [(m.plus, m.minus) for m in s.members]
    seen: set[tuple[int, int, int]] = set()
    count = len(vectors)
    for a in range(count):
        up, um = vectors[a]
        for b in range(a + 1, count):
            vp, vm = vectors[b]
            sep = (up & vm) | (um & vp)
            if not sep:
                continue
            keep = full & ~sep
            open_ = ~(up | um)
            zp = (up | (vp & open_)) & keep
            zm = (um | (vm & open_)) & keep
            probe = (sep, zp, zm)
            if probe in seen:
                continue
            seen.add(probe)
            remaining = sep
            for wp, wm in vectors:
                if (wp & keep) == zp and (wm & keep) == zm:
                    remaining &= wp | wm
                    if not remaining:
                        break
            if remaining:
                j = remaining & -remaining
                return SignVector(s.n, up, um), SignVector(s.n, vp, vm), j.bit_length()
    return None


def check_covector_axioms(s: CovectorSet) -> AxiomReport:
    """Run the four covector axioms; marks the set verified when all pass.

    Failures are report content, not exceptions; each failed axiom carries
    one concrete witness.  ``_cocircuit_check`` decides a passing set from
    its own minimal-support members.  Only when it fails do the per-axiom
    scans run, the pairwise elimination scan ``_elimination_witness``
    included, so a failing set reports the first failing (u, v, j) in
    member order.
    """
    if _cocircuit_check(s):
        object.__setattr__(s, "verified", True)
        return AxiomReport(True, True, True, True)
    index = {(m.plus, m.minus) for m in s.members}
    negation_witness = next((m for m in s.members if (m.minus, m.plus) not in index), None)
    gap = _composition_gap(s.members)
    elimination_witness = _elimination_witness(s)
    return AxiomReport(
        (0, 0) in index,
        negation_witness is None,
        gap is None,
        elimination_witness is None,
        negation_witness,
        None if gap is None else gap[:2],
        elimination_witness,
    )


@dataclass(frozen=True)
class FiberView:
    """The covectors of a base set that agree with an anchor outside I.

    ``free`` is the index set I; the complement is pinned to the anchor's
    (nonzero) signs.  The base may be a verified covector set or, for
    generators that only produce the fiber itself, the fiber members
    packaged as an unverified set.
    """

    base: CovectorSet
    free: frozenset[int]
    anchor: SignVector
    members: tuple[SignVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def free_mask(self) -> int:
        return _indices_to_mask(self.free, self.n)

    @property
    def _index(self) -> frozenset[SignVector]:
        cached = self._cache.get("index")
        if cached is None:
            cached = frozenset(self.members)
            self._cache["index"] = cached
        return cached

    def __contains__(self, v: SignVector) -> bool:
        return v in self._index

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def topes(self) -> tuple[SignVector, ...]:
        cached = self._cache.get("topes")
        if cached is None:
            cached = tuple(m for m in self.members if m.is_tope)
            self._cache["topes"] = cached
        return cached


def _anchor_check(anchor: SignVector, n: int, free_mask: int):
    """(zero-at-fixed-indices problem or None, test: member agrees off free_mask)."""
    fixed_mask = ((1 << n) - 1) & ~free_mask
    bad = fixed_mask & ~anchor.support_mask
    problem = f"anchor is zero at fixed indices {sorted(_mask_to_indices(bad))}" if bad else None
    plus, minus = anchor.plus & fixed_mask, anchor.minus & fixed_mask
    return problem, lambda m: (m.plus & fixed_mask) == plus and (m.minus & fixed_mask) == minus


def topal_fiber(s: CovectorSet, free_indices, anchor: SignVector) -> FiberView:
    """Restrict s to the covectors agreeing with the anchor outside I."""
    free = frozenset(free_indices)
    free_mask = _indices_to_mask(free, s.n)
    if anchor not in s:
        raise ValueError("fiber anchor is not a member of the covector set")
    problem, agrees = _anchor_check(anchor, s.n, free_mask)
    if problem:
        raise ValueError(problem)
    return FiberView(s, free, anchor, tuple(m for m in s.members if agrees(m)))


def fiber_of(members, free_indices=None, anchor: SignVector | None = None) -> FiberView:
    """Package raw fiber members (no ambient set available) as a FiberView."""
    members = list(members)
    if not members:
        raise FiberError("a fiber needs at least one member")
    base = CovectorSet.of(members)
    n = base.n
    free = frozenset(free_indices) if free_indices is not None else frozenset(range(1, n + 1))
    if anchor is None:
        anchor = base.members[0]
    fiber = FiberView(base, free, anchor, base.members)
    problems = validate_fiber(fiber)
    if problems:
        raise FiberError("; ".join(problems))
    return fiber


def validate_fiber(f: FiberView) -> tuple[str, ...]:
    """Structural checks for fibers whose ambient set was never built.

    Returns a tuple of problems (empty means the checks passed): the anchor
    must be a member with nonzero signs at all fixed indices, every member
    must agree with it there, and the member set must be closed under
    composition (fibers of genuine oriented matroids are).
    """
    cached = f._cache.get("problems")
    if cached is not None:
        return cached
    problems: list[str] = []
    if f.anchor not in f:
        problems.append("anchor is not a fiber member")
    problem, agrees = _anchor_check(f.anchor, f.n, f.free_mask)
    if problem:
        problems.append(problem)
    stray = next((m for m in f.members if not agrees(m)), None)
    if stray is not None:
        problems.append(f"member {stray} disagrees with the anchor on a fixed index")
    gap = _composition_gap(f.members)
    if gap is not None:
        problems.append("not closed under composition: {} o {} = {} missing".format(*gap))
    result = tuple(problems)
    f._cache["problems"] = result
    return result


def _bmax_sweep(f: FiberView):
    """(counts, invalid) of every free index in one sweep over the topes, cached on the fiber.

    ``counts[i]`` counts the topes per maximum of their i-th boundary, by
    the maximum's (plus, minus) masks; topes with an empty i-th boundary are
    not counted.  ``invalid[i]`` is the first tope whose i-th boundary has
    no unique maximum.  A member lies below a tope exactly when it is the
    tope restricted to the member's support, so the members are grouped by
    support and looked up by the tope's plus mask on it.  The members below
    a tope agree with it, so their join (the OR of their masks) is a sign
    vector; a boundary has a unique maximum exactly when its join is a
    member, and the join is then that maximum.
    """
    cached = f._cache.get("bmax")
    if cached is not None:
        return cached
    free = f.free_mask
    member_masks = {(m.plus, m.minus) for m in f.members}
    by_support: dict[int, dict[int, tuple[int, int]]] = {}
    for masks in member_masks:
        support = masks[0] | masks[1]
        if free & ~support:
            by_support.setdefault(support, {})[masks[0]] = masks
    groups = [(s, _ascending(free & ~s), below) for s, below in by_support.items()]
    counts: dict[int, dict[tuple[int, int], int]] = {i: {} for i in f.free}
    invalid: dict[int, SignVector] = {}
    for t in f.topes:
        joins: dict[int, tuple[int, int]] = {}
        for support, zeros, below in groups:
            w = below.get(t.plus & support)
            if w is not None:
                for i in zeros:
                    j = joins.get(i)
                    joins[i] = w if j is None else (j[0] | w[0], j[1] | w[1])
        for i, join in joins.items():
            if join in member_masks:
                counts[i][join] = counts[i].get(join, 0) + 1
            else:
                invalid.setdefault(i, t)
    result = f._cache["bmax"] = counts, invalid
    return result


def _bmax(f: FiberView, i: int) -> dict[tuple[int, int], int]:
    """Tope counts per maximum of the i-th boundaries, by its (plus, minus) masks, from the sweep.

    Raises FiberError at the first tope whose i-th boundary has no unique
    maximum, naming it, the index and two incomparable candidates.
    """
    counts, invalid = _bmax_sweep(f)
    t = invalid.get(i)
    if t is not None:
        bit = 1 << (i - 1)
        cands = [w for w in f.members if not (w.support_mask & bit) and leq(w, t)]
        best = max(cands, key=lambda w: bin(w.support_mask).count("1"))
        w = next(w for w in cands if not leq(w, best))
        raise FiberError(
            f"boundary of tope {t} at index {i} has no unique maximum "
            f"({w} and {best} are incomparable); not a valid fiber"
        )
    return counts[i]


def multiplicity(f: FiberView, u: SignVector) -> int:
    """Half the number of fiber topes whose i-boundary maximum is u.

    Computed at the smallest admissible index, then cross-checked against
    every other index with u_i = 0; disagreement or an odd count signals an
    invalid fiber.
    """
    if u not in f:
        raise ValueError(f"{u} is not a fiber member")
    if u.is_tope:
        raise ValueError("multiplicity is defined for non-tope covectors only")
    return _multiplicity(f, u, _ascending(u.zero_mask & f.free_mask))


def _multiplicity(f: FiberView, u: SignVector, admissible: list[int]) -> int:
    """``multiplicity`` of a non-tope member u, at its zero indices in the free set, ascending."""
    if not admissible:
        raise FiberError(f"{u} has no zero index inside the free set")
    counts, invalid = _bmax_sweep(f)
    key, values = (u.plus, u.minus), []
    for i in admissible:
        count = (_bmax(f, i) if i in invalid else counts[i]).get(key, 0)
        if count % 2:
            raise FiberError(
                f"odd boundary count {count} for {u} at index {i}; not a valid fiber"
            )
        values.append(count // 2)
    if len(set(values)) > 1:
        detail = ", ".join(f"i={i}: {v}" for i, v in zip(admissible, values))
        raise FiberError(f"multiplicity of {u} depends on the index choice ({detail})")
    return values[0]


def weight_exponents(u: SignVector) -> tuple[int, ...]:
    """Flat indices 2(i-1), 2(i-1)+1 of a_i^+, a_i^- for every zero index i of a non-tope."""
    if u.is_tope:
        raise ValueError("weight is undefined for topes")
    out = []
    for i in sorted(u.zero_set()):
        out.append(2 * (i - 1))
        out.append(2 * (i - 1) + 1)
    return tuple(out)


# .cov text format


def format_cov(obj) -> str:
    """Render a CovectorSet or FiberView in the .cov exchange format."""
    lines = []
    if isinstance(obj, FiberView):
        lines.append(f"n={obj.n}")
        lines.append("I=" + ",".join(str(i) for i in sorted(obj.free)))
        lines.append(f"u={obj.anchor}")
        members = obj.members
    else:
        lines.append(f"n={obj.n}")
        members = obj.members
    lines.extend(str(m) for m in members)
    return "\n".join(lines) + "\n"


def parse_cov(text: str):
    """Parse .cov text into a CovectorSet, or a FiberView when I/u are given.

    "#" starts a comment, blank lines are ignored, duplicate member lines
    are rejected, and n is capped at 64.
    """
    n = None
    free = None
    anchor_text = None
    raw_members: dict[str, None] = {}  # insertion-ordered, O(1) duplicate check
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate n= header")
            n = int(line[2:])
            if not 1 <= n <= MAX_GROUND_SET:
                raise ValueError(f"line {lineno}: n must be in 1..{MAX_GROUND_SET}")
        elif line.startswith("I="):
            if free is not None:
                raise ValueError(f"line {lineno}: duplicate I= header")
            body = line[2:].strip()
            free = frozenset(int(tok) for tok in body.split(",") if tok.strip()) if body else frozenset()
        elif line.startswith("u="):
            if anchor_text is not None:
                raise ValueError(f"line {lineno}: duplicate u= header")
            anchor_text = line[2:].strip()
        else:
            if n is None:
                raise ValueError(f"line {lineno}: member line before the n= header")
            if len(line) != n:
                raise ValueError(f"line {lineno}: expected {n} signs, got {len(line)}")
            if line in raw_members:
                raise ValueError(f"line {lineno}: duplicate member {line!r}")
            raw_members[line] = None
    if n is None:
        raise ValueError("missing n= header")
    if (free is None) != (anchor_text is None):
        raise ValueError("fiber headers I= and u= must be given together")
    members = [SignVector.from_string(m) for m in raw_members]
    if free is not None:
        for i in free:
            if not 1 <= i <= n:
                raise ValueError(f"fiber index {i} outside 1..{n}")
        anchor = SignVector.from_string(anchor_text)
        if anchor.n != n:
            raise ValueError("anchor length does not match n")
        return fiber_of(members, free, anchor)
    return CovectorSet.of(members, n=n)
