"""Degree-truncated multivariate formal power series over exact rationals.

A series with degree cap N stores only terms of total degree strictly less
than N; "A congruent to B mod h^N" means all coefficients of total degree
< N agree. Terms of degree >= cap are unknowable after truncation, so
requesting them raises rather than returning 0.

Cohomology classes act on h through the intersection form: a class k stored
as a lattice vector contributes the linear form sum_j pairing(k, e_j) h_j.
The identification is exact because the form is unimodular.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, islice
from math import comb, factorial, gcd, lcm, prod
from operator import lshift, mul
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DimensionMismatch, TruncationError
from .lattice import IntersectionForm

Exponents = tuple[int, ...]

_TERM_RE = re.compile(r"^h(\d+)\^(\d+)$")
_HEADER_RE = re.compile(r"^series vars=(\d+) cap=(\d+)$")

# term lines per `FormalSeries.write_text` chunk
_CHUNK_LINES = 4096
# the most `_Labels` misses that one read nests, each decoding one field;
# a key of more fields is read into its table that many fields at a time
_DEPTH = 128


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _check_shape(num_vars: int, degree_cap: int) -> None:
    if num_vars < 0 or degree_cap < 0:
        raise ValueError("num_vars and degree_cap must be non-negative")


class FormalSeries:
    """Sparse truncated polynomial in `num_vars` variables, below total
    degree `degree_cap`, held as integer divided powers, the form in which
    the kernel (`gaussian_sum`) emits it: `slices[d]` maps the packed key
    (see `_layout`, in the layout of `degree_cap`) of each exponent tuple e
    of degree d whose coefficient is nonzero to the integer F(e), for
        sum_e weight F(e) / (e! den) h^e,   den > 0, weight != 0.
    There is one slice per degree < cap, and no value in one is 0.

    Instances are treated as immutable values; every operation returns a
    new series, and series may share slices with each other and with the
    kernel's memo. The public constructor checks caller-supplied terms once
    and packs them. The operations below work on the integers and build
    their results without a check; only a cap that a caller passes in still
    is. `terms`, the exponent tuple -> Fraction view, is built on each read
    and never kept. The canonical text is made in chunks of at most
    `_CHUNK_LINES` (4,096) term lines: `write_text` writes them one by one,
    so a large series is never held as text at once, and `to_text` joins
    them into one string. Both the text and `terms` decode a key by its
    two halves, each read from a `_Labels` table (see `_halves`) that
    fills itself one field per entry.
    """

    __slots__ = ("num_vars", "degree_cap", "slices", "weight", "den")

    def __init__(self, num_vars: int, degree_cap: int,
                 terms: Optional[Mapping[Exponents, Fraction]] = None):
        _check_shape(num_vars, degree_cap)
        self.num_vars = num_vars
        self.degree_cap = degree_cap
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != num_vars:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} does not have {num_vars} entries")
                if any(e < 0 for e in exps):
                    raise ValueError(f"exponent tuple {exps} has a negative entry")
                if sum(exps) >= degree_cap:
                    continue
                c = _as_fraction(coeff)
                if c != 0:
                    clean[tuple(int(e) for e in exps)] = c
        self.slices, self.den = _pack(num_vars, degree_cap, clean)
        self.weight = 1

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(cls, num_vars: int, degree_cap: int, slices: list,
              weight: int = 1, den: int = 1, **fields):
        """Wrap `slices` that are canonical by construction (one per degree
        < cap, in its key layout, no zero value) without a check; `fields`
        sets a subclass's own slots."""
        _check_shape(num_vars, degree_cap)
        out = object.__new__(cls)
        out.num_vars = num_vars
        out.degree_cap = degree_cap
        out.slices = slices
        g = gcd(weight, den)
        out.weight, out.den = weight // g, den // g
        for name, value in fields.items():
            setattr(out, name, value)
        return out

    @classmethod
    def zero(cls, num_vars: int, degree_cap: int) -> "FormalSeries":
        return cls(num_vars, degree_cap)

    @classmethod
    def constant(cls, value, num_vars: int, degree_cap: int) -> "FormalSeries":
        c = _as_fraction(value)
        slices = [{} for _ in range(degree_cap)]
        if c and degree_cap > 0:
            slices[0] = {0: c.numerator}
        return FormalSeries._make(num_vars, degree_cap, slices, 1,
                                  c.denominator)

    @classmethod
    def one(cls, num_vars: int, degree_cap: int) -> "FormalSeries":
        return cls.constant(1, num_vars, degree_cap)

    # -- basic queries -------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """exponent tuple -> nonzero coefficient, in a new dict."""
        return self._fractions(range(self.degree_cap))

    def is_zero(self) -> bool:
        return not any(self.slices)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.num_vars:
            raise DimensionMismatch("exponent tuple has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError(f"exponent tuple {exps} has a negative entry")
        if sum(exps) >= self.degree_cap:
            raise TruncationError(
                f"degree {sum(exps)} >= cap {self.degree_cap}: truncated away")
        (key,) = self._keys([exps])
        v = self.slices[sum(exps)].get(key, 0)
        return Fraction(v * self.weight,
                        prod(map(factorial, exps)) * self.den)

    def support_degrees(self) -> set[int]:
        return {d for d, part in enumerate(self.slices) if part}

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.degree_cap == other.degree_cap
                and first_difference(self, other, self.degree_cap) is None)

    def __hash__(self):
        return hash(self.to_text())

    # -- ring operations -----------------------------------------------------

    def _match(self, other: "FormalSeries") -> int:
        if self.num_vars != other.num_vars:
            raise DimensionMismatch(
                f"series in {self.num_vars} and {other.num_vars} variables")
        return min(self.degree_cap, other.degree_cap)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FormalSeries.constant(other, self.num_vars, self.degree_cap)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        cap = self._match(other)
        # weight_a F_a / den_a + weight_b F_b / den_b over den = their lcm
        den = lcm(self.den, other.den)
        ka = self.weight * (den // self.den)
        kb = other.weight * (den // other.den)
        g = gcd(ka, kb)
        slices = _weighted_sum([(ka // g, self._rekeyed(cap)),
                                (kb // g, other._rekeyed(cap))], cap)
        return FormalSeries._make(self.num_vars, cap, slices, g, den)

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries._make(self.num_vars, self.degree_cap, self.slices,
                                  -self.weight, self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, FormalSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        n = self.num_vars
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return FormalSeries.zero(n, self.degree_cap)
            return FormalSeries._make(n, self.degree_cap, self.slices,
                                      self.weight * c.numerator,
                                      self.den * c.denominator)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        cap = self._match(other)
        inner, outer = self._rekeyed(cap), other._rekeyed(cap)
        if sum(map(len, outer)) > sum(map(len, inner)):
            inner, outer = outer, inner
        return FormalSeries._make(n, cap, _product(outer, inner, n, cap),
                                  self.weight * other.weight,
                                  self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = FormalSeries.one(self.num_vars, self.degree_cap)
        for _ in range(n):
            result = result * self
        return result

    # -- truncation-aware operations ------------------------------------------

    def truncate_to(self, n: int) -> "FormalSeries":
        if n > self.degree_cap:
            raise TruncationError(
                f"cannot extend cap {self.degree_cap} to {n}")
        return FormalSeries._make(self.num_vars, n, self._rekeyed(n),
                                  self.weight, self.den)

    def homogeneous_part(self, d: int) -> "HomogeneousPolynomial":
        _check_nonnegative(d)
        if d >= self.degree_cap:
            raise TruncationError(
                f"degree {d} >= cap {self.degree_cap}: truncated away")
        slices = [{} for _ in range(self.degree_cap)]
        slices[d] = self.slices[d]
        return HomogeneousPolynomial._make(self.num_vars, self.degree_cap,
                                           slices, self.weight, self.den,
                                           degree=d)

    def congruent_mod_degree(self, other: "FormalSeries", n: int) -> bool:
        """True iff all coefficients of total degree < n agree."""
        return first_difference(self, other, n) is None

    def derivative(self, var: int) -> "FormalSeries":
        """Formal partial derivative; the cap drops by one. In divided
        powers it is a shift: the new F at e is the old F at e + u_var."""
        if not 0 <= var < self.num_vars:
            raise DimensionMismatch(f"no variable with index {var}")
        n, cap = self.num_vars, self.degree_cap
        shifts, mask = _layout(n, cap)
        sh = shifts[var]
        lowered = [{key - (1 << sh): v for key, v in part.items()
                    if key >> sh & mask} for part in self.slices[1:]]
        low = max(cap - 1, 0)
        return FormalSeries._make(n, low, _rekey(n, cap, low, lowered),
                                  self.weight, self.den)

    # -- packed keys -----------------------------------------------------------

    def _rekeyed(self, cap: int) -> list[dict[int, int]]:
        """The slices of degree < cap (<= degree_cap) in the key layout of
        cap: this series' own when the two layouts agree."""
        return _rekey(self.num_vars, self.degree_cap, cap, self.slices[:cap])

    def _keys(self, monomials) -> dict[int, Exponents]:
        """packed key -> exponent tuple, for exponent tuples of degree < cap."""
        shifts, _ = _layout(self.num_vars, self.degree_cap)
        return {sum(map(lshift, e, shifts)): e for e in monomials}

    def _exponents(self, key: int) -> Exponents:
        """The exponent tuple of a packed key."""
        shifts, mask = _layout(self.num_vars, self.degree_cap)
        return tuple([key >> sh & mask for sh in shifts])

    def _halves(self, labels):
        """(high, low, split, low mask): a key's high half key >> split
        holds entries 0..n/2 - 1, its low half the rest. Each half is read
        from a `_Labels` table of its own, which fills itself one field per
        entry; one decoder serves the text (`labels`) and `_fractions`."""
        n, cap = self.num_vars, self.degree_cap
        width = _layout(n, cap)[1].bit_length()
        fact = _factorials(cap)
        h = n // 2
        split = width * (n - h)
        return (_Labels(h, 0, width, fact, labels),
                _Labels(n - h, h, width, fact, labels),
                split, (1 << split) - 1)

    def _fractions(self, degrees, keys=None) -> dict[Exponents, Fraction]:
        """exponent tuple -> coefficient, for the terms of these degrees,
        or only for those of them whose packed key is in `keys`."""
        high, low, split, low_mask = self._halves(False)
        weight, den = self.weight, self.den
        terms = {}
        for d in degrees:
            part = self.slices[d]
            if keys is not None:
                part = {key: part[key] for key in keys if key in part}
            for key, v in part.items():
                ea, fa = high[key >> split]
                eb, fb = low[key & low_mask]
                terms[ea + eb] = Fraction(v * weight, fa * fb * den)
        return terms

    # -- canonical text form ---------------------------------------------------

    def to_text(self) -> str:
        """The header, then one line per term in (degree, lex) order, each
        coefficient in lowest terms as str(Fraction) writes it."""
        return "".join(self._text_chunks())[:-1]

    def write_text(self, fh) -> None:
        """Write `to_text()` and a final newline to the text stream `fh`,
        one `fh.write` per chunk of at most `_CHUNK_LINES` term lines, so
        the whole text is never held at once."""
        for chunk in self._text_chunks():
            fh.write(chunk)

    def _text_chunks(self):
        """The lines of `to_text()`, each ending in a newline, joined in
        chunks of at most `_CHUNK_LINES` term lines; the first chunk starts
        with the header. Each degree's keys are sorted (ascending packed
        keys of one degree are in lex order) and cut into the pieces that
        fill the chunks, so the loop over a piece's lines tests nothing but
        whether its high half changed: keys of one high half are adjacent
        in that order, so the high table is read once per run of them."""
        header = f"series vars={self.num_vars} cap={self.degree_cap}\n"
        if self.is_zero():
            yield header + "0\n"
            return
        high, low, split, low_mask = self._halves(True)
        weight, den = self.weight, self.den
        lines, room = [header], _CHUNK_LINES
        last = None
        for part in self.slices:
            keys = sorted(part)
            start = 0
            while start < len(keys):
                piece = keys[start:start + room]
                for key in piece:
                    if key >> split != last:
                        last = key >> split
                        la, fa = high[last]
                    lb, fb = low[key & low_mask]
                    num, q = part[key] * weight, fa * fb * den
                    g = gcd(num, q)
                    coeff = f"{num // g}" if g == q else f"{num // g}/{q // g}"
                    lines.append(f"{coeff} *{la}{lb}\n" if key else f"{coeff}\n")
                start += len(piece)
                room -= len(piece)
                if not room:
                    yield "".join(lines)
                    lines, room = [], _CHUNK_LINES
        if lines:
            yield "".join(lines)

    @classmethod
    def parse(cls, text: str) -> "FormalSeries":
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if not lines:
            raise ValueError("empty series text")
        header = _HEADER_RE.match(lines[0])
        if not header:
            raise ValueError(f"bad series header: {lines[0]!r}")
        num_vars, cap = int(header.group(1)), int(header.group(2))
        terms: dict[Exponents, Fraction] = {}
        body = [ln for ln in lines[1:] if ln]
        if body == ["0"]:
            body = []
        for line in body:
            exps, coeff = _parse_term(line, num_vars)
            if sum(exps) >= cap:
                raise ValueError(
                    f"term of degree {sum(exps)} at or above cap {cap}: "
                    f"{line!r}")
            if exps in terms:
                raise ValueError(f"duplicate monomial in series text: {line!r}")
            terms[exps] = coeff
        return cls(num_vars, cap, terms)

    def __repr__(self):
        # the first four term lines, from the first chunk only
        shown = next(self._text_chunks()).splitlines()[1:5]
        count = sum(map(len, self.slices))
        extra = "" if count <= 4 else f" (+{count - 4} terms)"
        return f"FormalSeries<{' + '.join(shown)}{extra}>"


def monomial_label(exps: Sequence[int]) -> str:
    """The canonical text of the monomial h^exps, "h1^2 h3^1"; "" for 1."""
    return " ".join(f"h{i + 1}^{e}" for i, e in enumerate(exps) if e)


def _parse_term(line: str, num_vars: int) -> tuple[Exponents, Fraction]:
    if " * " in line:
        coeff_str, mono_str = line.split(" * ", 1)
        exps = [0] * num_vars
        for factor in mono_str.split():
            m = _TERM_RE.match(factor)
            if not m:
                raise ValueError(f"bad monomial factor: {factor!r}")
            idx, power = int(m.group(1)) - 1, int(m.group(2))
            if not 0 <= idx < num_vars:
                raise ValueError(f"variable h{idx + 1} out of range")
            exps[idx] += power
    else:
        coeff_str = line
        exps = [0] * num_vars
    return tuple(exps), _parse_rational(coeff_str)


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class HomogeneousPolynomial(FormalSeries):
    """A FormalSeries whose stored terms all share one total degree.

    The public constructor also checks that every given term has total
    degree `degree`; internal results are built canonical, unchecked.
    """

    __slots__ = ("degree",)

    def __init__(self, num_vars, degree_cap, terms=None, degree: int = 0):
        _check_nonnegative(degree)
        # the given terms, before truncation can drop one at or past the cap
        _check_degree(map(sum, terms or ()), degree)
        super().__init__(num_vars, degree_cap, terms)
        if degree >= degree_cap:
            raise TruncationError(f"degree {degree} >= cap {degree_cap}")
        self.degree = degree


def _check_nonnegative(degree: int) -> None:
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")


def _check_degree(degrees: Iterable[int], degree: int) -> None:
    for d in degrees:
        if d != degree:
            raise ValueError(f"term of degree {d} in a degree-{degree} polynomial")


def first_difference(a: FormalSeries, b: FormalSeries, n: int
                     ) -> Optional[tuple[Exponents, Fraction, Fraction]]:
    """First monomial of total degree < n (degree, then lex order) whose
    coefficients differ, or None if congruent. Refuses an n past either
    cap: the coefficients there were truncated away, not 0. The integers
    locate the monomial (`_first_nonzero` of the cross-multiplied
    difference); only its two coefficients become `Fraction`s."""
    if a.num_vars != b.num_vars:
        raise DimensionMismatch("variable counts differ")
    _check_nonnegative(n)
    if n > a.degree_cap or n > b.degree_cap:
        raise TruncationError(
            f"cannot certify congruence mod degree {n} with caps "
            f"{a.degree_cap} and {b.degree_cap}")
    # in the layout of the smaller cap, which is their own for equal caps
    low = a if a.degree_cap <= b.degree_cap else b
    cap = low.degree_cap
    # the coefficients times e! are F_a w_a / den_a and F_b w_b / den_b
    first = _first_nonzero([(a.weight * b.den, a._rekeyed(cap)),
                            (-b.weight * a.den, b._rekeyed(cap))], n)
    if first is None:
        return None
    d, key = first
    exps = low._exponents(key)
    return exps, a.coefficient(exps), b.coefficient(exps)


# ---------------------------------------------------------------------------
# generators used by every series formula

def linear_series(form: IntersectionForm, k: Sequence[int],
                  degree_cap: int) -> FormalSeries:
    """The linear form <k, h> = sum_j pairing(k, e_j) h_j: F(u_j) is its
    coefficient."""
    dual = form.dual_coefficients(k)
    n = form.rank
    shifts, _ = _layout(n, degree_cap)
    slices = [{} for _ in range(degree_cap)]
    if degree_cap > 1:
        slices[1] = {1 << sh: c for sh, c in zip(shifts, dual) if c}
    return FormalSeries._make(n, degree_cap, slices)


def quadratic_series(form: IntersectionForm, degree_cap: int) -> FormalSeries:
    """The quadratic form Q(h, h) = sum_{j,k} gram_jk h_j h_k: F(u_j + u_k)
    is 2 gram_jk, for j = k as for j != k."""
    n = form.rank
    shifts, _ = _layout(n, degree_cap)
    slices = [{} for _ in range(degree_cap)]
    if degree_cap > 2:
        slices[2] = {(1 << shifts[i]) + (1 << shifts[j]): 2 * g
                     for i, row in enumerate(form.sparse_rows)
                     for j, g in row if j >= i}
    return FormalSeries._make(n, degree_cap, slices)


def gaussian_sum(form: IntersectionForm,
                 weighted_classes: Iterable[tuple[Fraction, Sequence[int]]],
                 degree_cap: int, quadratic: bool = True) -> FormalSeries:
    """sum_r c_r exp(Q(h, h)/2 + <K_r, h>) truncated at degree_cap,
    for (c_r, K_r) in `weighted_classes`; Q is dropped when not `quadratic`.

    Each exponential is held as its integer divided powers
    F(e) = e! [h^e] exp(Q/2 + <K, h>), filled degree by degree with
        F(e + u_i) = d_i F(e) + sum_j G_ij e_j F(e - u_j),   d = G K,
    which is d^e for a pure linear exponent and a sum over matchings of the
    Gram graph for exp(Q/2). A degree-(n+1) monomial t is reached only from
    its lowest index i with t_i > 0 (see `_slice_stream`), so sparse forms
    and zero classes walk just their reachable support. The result keeps
    integers (see `FormalSeries`): a monomial's coefficient is divided by
    e! and the weights' lcm only when it is read.

    With Q, exp(Q/2 + <K, h>) is the product of its restrictions to the
    orthogonal blocks of the form (`form.blocks`, split once when the form
    is built), which share no variable; without Q the whole basis is one
    block. A block is common when every class has the same d on it (a
    single class has none). So
        T = V P,   V = sum_r w_r prod_{B varying} F_{r,B},
    with P the product over the common blocks, and the recurrence runs once
    per class on the varying blocks (the memo's entries) and once per
    common block. On E(n), whose classes differ only in the hyperbolic
    summand holding the fiber, that is k runs on one H and one run on each
    other block. V starts at some degree s (s = n - 2 on E(n)), so the
    common blocks are read below cap - s only, and `_block_product` joins
    them to V with F(a + b) = F_V(a) F_B(b). The memo also keeps the
    slices of the whole sum, by its integer weights and each class's d, so
    a sum asked for again (a round trip's `km_series` after `witten_rhs`)
    runs nothing, common blocks included. A negative cap is refused
    before any class is read.
    """
    n = form.rank
    cap = degree_cap
    _check_shape(n, cap)
    pairs = [(_as_fraction(c), form.dual_coefficients(k))
             for c, k in weighted_classes]
    den = lcm(*(c.denominator for c, _ in pairs))
    weights = [(c.numerator * (den // c.denominator), d)
               for c, d in pairs if c]
    if not weights:
        return FormalSeries.zero(n, cap)
    blocks = form.blocks if quadratic else [range(n)]
    (weight, first), *rest = weights
    if not rest:
        slices = _MEMO.get(form, blocks, first, cap, quadratic)
        return FormalSeries._make(n, cap, slices, weight, den)
    slices = _MEMO.stored_sum(form, weights, cap, quadratic)
    if slices is None:
        # the common blocks are those where every class has the first's d
        differ = {i for _, d in rest for i, x in enumerate(d) if x != first[i]}
        common = [block for block in blocks if differ.isdisjoint(block)]
        varying = [block for block in blocks if not differ.isdisjoint(block)]
        v = _weighted_sum(((w, _MEMO.get(form, varying, d, cap, quadratic))
                           for w, d in weights), cap)
        low = next((e for e, part in enumerate(v) if part), cap)
        layout, gram = _layout(n, cap), form.sparse_rows if quadratic else None
        factors = [list(islice(_slice_stream(layout, block, first, gram),
                               cap - low)) for block in common]
        slices = _block_product([v] + factors, cap)
        _MEMO.keep_sum(weights, quadratic, slices)
    return FormalSeries._make(n, cap, slices, 1, den)


def _weighted_sum(weighted, cap):
    """sum_r w_r F_r below cap, for (w_r, slices of F_r) in `weighted`, each
    read once and in turn; zeros dropped."""
    totals: list[dict[int, int]] = [{} for _ in range(cap)]
    for w, slices in weighted:
        for d, part in zip(range(cap), slices):
            totals[d] = _add_part(totals[d], w, part)
    return _nonzero(totals)


def _add_part(total, w, part):
    """total + w part, for one degree's parts, zeros kept: `total` itself,
    updated, or a new dict when it is empty (a total keeps its zeros, so an
    empty one has no key yet)."""
    if not total:
        return {key: w * v for key, v in part.items()}
    for key, v in part.items():
        total[key] = total.get(key, 0) + w * v
    return total


def _first_nonzero(weighted, cap):
    """(d, key): the lowest degree d < cap at which sum_r w_r F_r is nonzero,
    for (w_r, slices of F_r) in `weighted` (a list), and the lowest packed
    key there (the first monomial in lex order); None when the sum is 0
    below cap. A degree's sum is formed only once every degree below it is
    0. With exactly two parts whose weights cancel, a degree where their
    slices are equal dicts is 0 without a sum: that test runs in C."""
    twins = len(weighted) == 2 and weighted[0][0] + weighted[1][0] == 0
    for d in range(cap):
        if twins and weighted[0][1][d] == weighted[1][1][d]:
            continue
        total = {}
        for w, slices in weighted:
            total = _add_part(total, w, slices[d])
        if any(total.values()):
            return d, min(key for key, v in total.items() if v)
    return None


def _nonzero(slices):
    return [{key: v for key, v in part.items() if v} for part in slices]


def _product(outer, inner, n, cap):
    """The divided powers of A B below cap, from those of B (`outer`) and A
    (`inner`), all slices in the key layout of cap:
        (AB)(e) = sum_{a + b = e} prod_i C(e_i, b_i) A(a) B(b).
    Only pairs of degree < cap are formed, and the binomials run over the
    nonzero entries of b, so the sparser factor should be B."""
    shifts, mask = _layout(n, cap)
    totals: list[dict[int, int]] = [{} for _ in range(cap)]
    for degree, part_b in enumerate(outer):
        for kb, sb in part_b.items():
            support = [(sh, kb >> sh & mask) for sh in shifts if kb >> sh & mask]
            for total, part_a in zip(totals[degree:], inner):
                for ka, fa in part_a.items():
                    v = sb * fa
                    for sh, bi in support:
                        v *= comb((ka >> sh & mask) + bi, bi)
                    key = ka + kb
                    total[key] = total.get(key, 0) + v
    return _nonzero(totals)


def divided_powers(form: IntersectionForm, k: Sequence[int],
                   degree_cap: int) -> dict[Exponents, int]:
    """The integer divided powers F(e) = e! [h^e] exp(Q(h, h)/2 + <k, h>)
    of one class (the kernel of `gaussian_sum`), for every e of degree
    < degree_cap with F(e) != 0, keyed by exponent tuple, in a new dict."""
    s = gaussian_sum(form, [(1, k)], degree_cap)
    return {s._exponents(key): v for part in s.slices for key, v in part.items()}


def _layout(n: int, cap: int) -> tuple[list[int], int]:
    """(shifts, mask) of the packed keys: an exponent tuple is one integer,
    `width` bits per entry (no exponent of degree < cap overflows them), so
    e + u_i is key + (1 << shifts[i]). Entry 0 is in the highest field, so
    ascending keys of one degree are in lex order of their tuples."""
    width = max(cap - 1, 1).bit_length()
    return [width * (n - 1 - i) for i in range(n)], (1 << width) - 1


def _factorials(cap):
    """[0!, 1!, ..., (cap - 1)!], by a running product."""
    return list(accumulate(range(1, cap), mul, initial=1))[:cap]


def _rekey(n, old_cap, cap, slices):
    """`slices`, keyed in the layout of old_cap, in the layout of cap: the
    same list when the two layouts agree."""
    old, mask = _layout(n, old_cap)
    new = _layout(n, cap)[0]
    if new == old:
        return slices
    fields = list(zip(old, new))
    return [{sum([(key >> o & mask) << sh for o, sh in fields]): v
             for key, v in part.items()} for part in slices]


def _pack(n, cap, terms):
    """(slices, den) of canonical `terms` (exponent tuple -> nonzero
    Fraction, degree < cap), F(e) = e! den c_e with den the lcm of their
    denominators."""
    shifts, _ = _layout(n, cap)
    fact = _factorials(cap).__getitem__
    den = lcm(*{c.denominator for c in terms.values()})
    slices = [{} for _ in range(cap)]
    for e, c in terms.items():
        slices[sum(e)][sum(map(lshift, e, shifts))] = (
            c.numerator * (den // c.denominator) * prod(map(fact, e)))
    return slices, den


class _Labels(dict):
    """Packed half-key -> (name, e!) of `count` entries from `first` on, in
    the layout of `_layout` with fields of `width` bits. The name is the
    exponent tuple, or with `labels` monomial_label's text with a leading
    space ("" for no factor). The table fills itself: key 0 is seeded, and
    a miss decodes only the key's top field (its top set bit, by
    bit_length, names the field of the lowest entry) and reads the rest of
    the key from the same table, so each entry costs one field."""

    def __init__(self, count, first, width, fact, labels):
        super().__init__({0: ("" if labels else (0,) * count, 1)})
        self.count, self.width, self.fact = count, width, fact
        self.labels = labels
        # " h<i>^" of each field, counted from the low end
        self.names = [f" h{first + count - field}^" for field in range(count)]

    def __missing__(self, key):
        field = (key.bit_length() - 1) // self.width
        shift = field * self.width
        e = key >> shift
        rest = key ^ e << shift
        if field > _DEPTH:
            # read the rest's low fields first, _DEPTH at a time, so that
            # no miss waits on more than _DEPTH others
            for top in range(_DEPTH, field, _DEPTH):
                self[rest & (1 << top * self.width) - 1]
        name, f = self[rest]
        if self.labels:
            name = f"{self.names[field]}{e}{name}"
        else:
            i = self.count - 1 - field
            name = (*name[:i], e, *name[i + 1:])
        value = self[key] = name, f * self.fact[e]
        return value


class _SliceMemo:
    """The kernel's slices of the latest form object and cap, holding at
    most `bound` F values in all (`entries`): each class's in `slices`, by
    (block indices, d = G K on them, quadratic), and each sum's of several
    classes in `sums`, by (its integer weights and each class's d, in call
    order; quadratic). A call with another form object or cap empties
    both; a class or sum that does not fit beside the stored ones is
    returned but not stored, and nothing is evicted. Callers must not
    mutate the slices they get.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.form = self.cap = None
        self.slices: dict = {}      # (indices, d on them, quadratic) -> slices
        self.sums: dict = {}        # ((w_r, d_r) pairs, quadratic) -> slices
        self.entries = 0

    def get(self, form, blocks, d, cap, quadratic):
        """All `cap` slices of the class with G K = d on `blocks`."""
        if form is not self.form or cap != self.cap:
            self.form, self.cap, self.entries = form, cap, 0
            self.slices, self.sums = {}, {}
        indices = tuple([i for block in blocks for i in block])
        key = indices, tuple([d[i] for i in indices]), quadratic
        slices = self.slices.get(key)
        if slices is None:
            slices = _divided_power_slices(form, blocks, d, cap, quadratic)
            self._keep(self.slices, key, slices)
        return slices

    def stored_sum(self, form, weights, cap, quadratic):
        """The stored slices of sum_r w_r F_r, for (w_r, d_r) in `weights`
        (integer w_r, d_r = G K_r), or None; a miss changes nothing."""
        if form is not self.form or cap != self.cap:
            return None
        return self.sums.get((tuple(weights), quadratic))

    def keep_sum(self, weights, quadratic, slices):
        """Store the slices of that sum, if they fit: a sum made at the
        slot's form object and cap, which its classes' `get` calls set."""
        self._keep(self.sums, (tuple(weights), quadratic), slices)

    def _keep(self, table, key, slices):
        size = _size(slices)
        if self.entries + size <= self.bound:
            table[key] = slices
            self.entries += size


# a round trip (witten_rhs, the fit's basis and residual, km_series) asks
# for the same classes, and its sum, at the same form and cap three times
_MEMO_ENTRIES = 8192
_MEMO = _SliceMemo(_MEMO_ENTRIES)


def _stored_sum(form, weights, cap):
    """The memo's slices of the Gaussian sum (with Q) sum_r w_r F_r, for
    (w_r, d_r) in `weights`, or None when it holds none."""
    return _MEMO.stored_sum(form, weights, cap, True)


def _divided_power_slices(form, blocks, d, cap, quadratic):
    """[F at degree 0, ..., F at degree cap - 1] of exp(Q/2 + <K, h>)
    (without Q, of exp(<K, h>)), G K = d, restricted to the variables of
    `blocks`, as the memo stores it: the recurrence runs once per block,
    in the key layout of cap, and `_block_product` joins the blocks,
    smallest first."""
    layout = _layout(form.rank, cap)
    gram = form.sparse_rows if quadratic else None
    factors = sorted((list(islice(_slice_stream(layout, block, d, gram), cap))
                      for block in blocks), key=_size)
    return _block_product(
        factors or [[{0: 1} if e == 0 else {} for e in range(cap)]], cap)


def _size(slices):
    return sum(map(len, slices))


def _block_product(factors, degrees):
    """The slices below `degrees` of the product of `factors`, slices of
    series in disjoint sets of variables. The first is updated in place
    and may have any constant term c. Every later one has F(0) = 1, and
    needs its slices only below degrees - s, s the first one's lowest
    nonzero degree (all of them when c != 0).
    On disjoint supports every binomial C(e_i, b_i) of `_product` is 1, and
    each pair (a, b) has a key a + b of its own, so
        (AB)(a + b) = A(a) B(b)
    is set, not summed, and the pairs with a = 0 are a later factor's own
    terms times c, merged by dict update. A later factor equal to 1 is
    skipped, and the smallest are multiplied first, so that the large ones
    meet only once."""
    acc, *rest = factors
    c = acc[0].get(0, 0) if acc else 0
    for factor in sorted((f for f in rest if any(f[1:])), key=_size):
        # from the top degree down, so that the pairs read acc's lower
        # parts before the factor's own terms join them
        for degree in range(degrees - 1, 0, -1):
            part = acc[degree]
            for low, part_b in enumerate(factor[1:degree], 1):
                part_a = acc[degree - low]
                if not (part_a and part_b):
                    continue
                # the longer part is walked by map, the other by the loop
                if len(part_a) < len(part_b):
                    part_a, part_b = part_b, part_a
                keys, values = part_a.keys(), part_a.values()
                for key, v in part_b.items():
                    part.update(zip(map(key.__add__, keys),
                                    map(v.__mul__, values)))
            if c == 1:
                part.update(factor[degree])
            elif c:
                part.update({key: c * v for key, v in factor[degree].items()})
    return acc


def _slice_stream(layout, block, d, rows=None):
    """F at degree 0, 1, ... of exp(<K, h>) (with `rows`, of
    exp(Q(h, h)/2 + <K, h>)), G K = d, in the variables of `block`
    (ascending) alone (see gaussian_sum), one at a time, each a dict packed
    key -> int F != 0 in `layout` (see `_layout`) in ascending key order,
    endlessly: the caller takes as many degrees as it needs. `block` is a
    union of G's orthogonal blocks (one of them, or the whole basis), so
    every nonzero G_ij of its rows has j in it. `rows` is G's sparse rows
    (a form's `sparse_rows`); the step tables read only the rows of the
    block, so the blocks of one form build them in O(its nonzero
    entries).

    A monomial t is reached from its lowest index i with t_i > 0 only:
        F(t) = d_i F(t - u_i) + sum_{j >= i} G_ij (f_j + 1) F(f),
    f = t - u_i - u_j. The sources of direction i, the keys with no entry
    before i, are those below 1 << (shifts[i] + width): a prefix of an
    ascending slice. The d_i part has one source per t (one comprehension);
    the G part is summed, then sorted in. The t with lowest index i fill
    one key range, so the directions run from the last to the first.
    Without Q, F(t) = 0 when d_i = 0, and direction i is skipped."""
    shifts, mask = layout
    width = mask.bit_length()
    order = block[::-1]
    # per direction i: (the least key with an entry before i, a 1-tuple to
    # bisect (key, F) pairs, place of u_i, d_i) if d_i != 0, and (that key,
    # (G_ij, place of u_i + u_j, shift of entry j) for j >= i, G_ij != 0)
    lin = [((1 << shifts[i] + width,), 1 << shifts[i], d[i])
           for i in order if d[i]]
    quad = []
    if rows is not None:
        quad = [((pi << width,), row) for i in order for pi in [1 << shifts[i]]
                for row in [[(g, pi + (1 << shifts[j]), shifts[j])
                             for j, g in rows[i] if j >= i]] if row]
    prev, cur = [], [(0, 1)]        # degrees n - 1 and n, as (key, F) lists
    nxt = {0: 1}
    while True:
        yield nxt
        nxt = {e + pi: di * v for bound, pi, di in lin
               for e, v in cur[:bisect_left(cur, bound)]}
        if prev and quad:
            for bound, row in quad:
                sources = prev[:bisect_left(prev, bound)]
                for g, p, sh in row:
                    for f, v in sources:
                        t = f + p
                        nxt[t] = nxt.get(t, 0) + g * ((f >> sh & mask) + 1) * v
            nxt = {t: nxt[t] for t in sorted(nxt) if nxt[t]}
        prev, cur = cur, list(nxt.items())


def exp_linear(form: IntersectionForm, k: Sequence[int],
               degree_cap: int) -> FormalSeries:
    """exp(<k, h>) truncated: sum_{n < cap} <k, h>^n / n!."""
    return gaussian_sum(form, [(1, k)], degree_cap, quadratic=False)


def exp_quadratic(form: IntersectionForm, degree_cap: int) -> FormalSeries:
    """exp(Q(h, h) / 2) truncated: sum_{2n < cap} (Q/2)^n / n!."""
    return gaussian_sum(form, [(1, (0,) * form.rank)], degree_cap)
