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
from fractions import Fraction
from itertools import islice
from math import comb, factorial, gcd, lcm, prod
from operator import lshift
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DimensionMismatch, TruncationError
from .lattice import IntersectionForm

Exponents = tuple[int, ...]

_TERM_RE = re.compile(r"^h(\d+)\^(\d+)$")
_HEADER_RE = re.compile(r"^series vars=(\d+) cap=(\d+)$")


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
    """Sparse canonical truncated polynomial: exponent tuple -> Fraction.

    Instances are treated as immutable values; every operation returns a new
    series. Zero coefficients and terms at or above the degree cap are never
    stored.

    The public constructor checks caller-supplied terms once. Results of the
    operations below are built canonical and not checked again; only a cap
    that a caller passes in still is. Results of `gaussian_sum`, `truncate_to`
    and `homogeneous_part` hold integers (`_Packed`) instead and build `terms`
    when first read (`__getattr__`). Text, comparison, support and the KM fit
    read either kind through one accessor, `_ints`; ring operations use `terms`.
    """

    __slots__ = ("num_vars", "degree_cap", "terms", "_packed")

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
        self.terms = clean
        self._packed = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _canonical(cls, num_vars: int, degree_cap: int,
                   terms: Optional[dict[Exponents, Fraction]],
                   packed: Optional["_Packed"] = None, **fields):
        """Wrap `terms` that are canonical by construction (`num_vars`-tuples
        of ints >= 0, degree < cap, nonzero Fractions) without a check, or,
        with `terms` None, the integers `packed` of cap `degree_cap`;
        `fields` sets a subclass's own slots."""
        _check_shape(num_vars, degree_cap)
        out = object.__new__(cls)
        out.num_vars = num_vars
        out.degree_cap = degree_cap
        if terms is not None:
            out.terms = terms
        out._packed = packed
        for name, value in fields.items():
            setattr(out, name, value)
        return out

    def __getattr__(self, name):
        """Reached only for an unset slot: the `terms` of a packed series,
        built on first read; its packed integers are then dropped, so the
        two forms are never both kept, and later reads are plain."""
        if name != "terms" or self._packed is None:
            raise AttributeError(name)
        self.terms = self._packed.fractions(range(self.degree_cap))
        self._packed = None
        return self.terms

    def _ints(self, cap: int,
              degrees: Optional[Sequence[int]] = None) -> "_Packed":
        """The terms of `degrees` (by default every degree < cap; cap <=
        degree_cap) as divided-power integers in the layout of `cap` (see
        `_Packed`): a packed series' own slices, re-keyed when its layout
        is another, else `terms` packed once."""
        p, n = self._packed, self.num_vars
        degrees = range(cap) if degrees is None else degrees
        if p is None:
            return _Packed.pack(n, cap, self.terms, degrees)
        return _Packed(n, cap, p.rekeyed(cap, degrees), p.weight, p.den)

    @classmethod
    def zero(cls, num_vars: int, degree_cap: int) -> "FormalSeries":
        return cls(num_vars, degree_cap)

    @classmethod
    def constant(cls, value, num_vars: int, degree_cap: int) -> "FormalSeries":
        return cls(num_vars, degree_cap, {(0,) * num_vars: _as_fraction(value)})

    @classmethod
    def one(cls, num_vars: int, degree_cap: int) -> "FormalSeries":
        return cls.constant(1, num_vars, degree_cap)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.num_vars:
            raise DimensionMismatch("exponent tuple has wrong length")
        if any(e < 0 for e in exps):
            raise ValueError(f"exponent tuple {exps} has a negative entry")
        if sum(exps) >= self.degree_cap:
            raise TruncationError(
                f"degree {sum(exps)} >= cap {self.degree_cap}: truncated away")
        return self.terms.get(exps, Fraction(0))

    def support_degrees(self) -> set[int]:
        return {d for d, p in enumerate(self._ints(self.degree_cap).slices) if p}

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.degree_cap == other.degree_cap
                and self.terms == other.terms)

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
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        # drop cancelled terms and the larger cap's terms at or above `cap`
        return FormalSeries._canonical(
            self.num_vars, cap,
            {e: c for e, c in out.items() if c and sum(e) < cap})

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries._canonical(self.num_vars, self.degree_cap,
                                       {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FormalSeries.constant(other, self.num_vars, self.degree_cap)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return FormalSeries._canonical(
                self.num_vars, self.degree_cap,
                {e: c * v for e, v in self.terms.items()} if c else {})
        if not isinstance(other, FormalSeries):
            return NotImplemented
        cap = self._match(other)
        # bucket by total degree so pairs that truncate away are never formed
        buckets_a = self._degree_buckets()
        buckets_b = other._degree_buckets()
        out: dict[Exponents, Fraction] = {}
        for da, items_a in buckets_a:
            if da >= cap:
                break
            for db, items_b in buckets_b:
                if da + db >= cap:
                    break
                for ea, ca in items_a:
                    for eb, cb in items_b:
                        key = tuple(x + y for x, y in zip(ea, eb))
                        prev = out.get(key)
                        out[key] = ca * cb if prev is None else prev + ca * cb
        return FormalSeries._canonical(self.num_vars, cap,
                                       {e: c for e, c in out.items() if c})

    def _degree_buckets(self):
        buckets: dict[int, list] = {}
        for exps, coeff in self.terms.items():
            buckets.setdefault(sum(exps), []).append((exps, coeff))
        return sorted(buckets.items())

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
        return FormalSeries._canonical(self.num_vars, n, None, self._ints(n))

    def homogeneous_part(self, d: int) -> "HomogeneousPolynomial":
        if d < 0:
            raise ValueError(f"degree {d} is negative")
        if d >= self.degree_cap:
            raise TruncationError(
                f"degree {d} >= cap {self.degree_cap}: truncated away")
        return HomogeneousPolynomial._canonical(
            self.num_vars, self.degree_cap, None,
            self._ints(self.degree_cap, (d,)), degree=d)

    def congruent_mod_degree(self, other: "FormalSeries", n: int) -> bool:
        """True iff all coefficients of total degree < n agree."""
        return first_difference(self, other, n) is None

    def derivative(self, var: int) -> "FormalSeries":
        """Formal partial derivative; the cap drops by one."""
        if not 0 <= var < self.num_vars:
            raise DimensionMismatch(f"no variable with index {var}")
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            key = exps[:var] + (e - 1,) + exps[var + 1:]
            out[key] = c * e
        return FormalSeries._canonical(self.num_vars,
                                       max(self.degree_cap - 1, 0), out)

    # -- canonical text form ---------------------------------------------------

    def to_text(self) -> str:
        lines = self._ints(self.degree_cap).lines() or ["0"]
        return "\n".join(
            [f"series vars={self.num_vars} cap={self.degree_cap}", *lines])

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
            if exps in terms:
                raise ValueError(f"duplicate monomial in series text: {line!r}")
            terms[exps] = coeff
        return cls(num_vars, cap, terms)

    def __repr__(self):
        lines = self.to_text().splitlines()[1:]
        extra = "" if len(lines) <= 4 else f" (+{len(lines) - 4} terms)"
        return f"FormalSeries<{' + '.join(lines[:4])}{extra}>"


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
        # the given terms, before truncation can drop one at or past the cap
        _check_degree(map(sum, terms or ()), degree)
        super().__init__(num_vars, degree_cap, terms)
        if degree >= degree_cap:
            raise TruncationError(f"degree {degree} >= cap {degree_cap}")
        self.degree = degree


def _check_degree(degrees: Iterable[int], degree: int) -> None:
    for d in degrees:
        if d != degree:
            raise ValueError(f"term of degree {d} in a degree-{degree} polynomial")


def first_difference(a: FormalSeries, b: FormalSeries, n: int
                     ) -> Optional[tuple[Exponents, Fraction, Fraction]]:
    """First monomial of total degree < n (degree, then lex order) whose
    coefficients differ, or None if congruent. Refuses an n past either
    cap: the coefficients there were truncated away, not 0."""
    if a.num_vars != b.num_vars:
        raise DimensionMismatch("variable counts differ")
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    if n > a.degree_cap or n > b.degree_cap:
        raise TruncationError(
            f"cannot certify congruence mod degree {n} with caps "
            f"{a.degree_cap} and {b.degree_cap}")
    # in the layout of the smaller cap, which is their own for equal caps
    cap = min(a.degree_cap, b.degree_cap)
    pa, pb = a._ints(cap), b._ints(cap)
    # the coefficients times e! are F_a w_a / den_a and F_b w_b / den_b
    ka, kb = pa.weight * pb.den, pb.weight * pa.den
    for d, (sa, sb) in enumerate(zip(pa.slices[:n], pb.slices[:n])):
        if any(sa.get(key, 0) * ka != sb.get(key, 0) * kb
               for key in sa.keys() | sb.keys()):
            fa, fb = pa.fractions((d,)), pb.fractions((d,))
            exps = min(e for e in fa.keys() | fb.keys() if fa.get(e) != fb.get(e))
            return exps, fa.get(exps, Fraction(0)), fb.get(exps, Fraction(0))
    return None


# ---------------------------------------------------------------------------
# generators used by every series formula

def linear_series(form: IntersectionForm, k: Sequence[int],
                  degree_cap: int) -> FormalSeries:
    """The linear form <k, h> = sum_j pairing(k, e_j) h_j."""
    dual = form.dual_coefficients(k)
    n = form.rank
    terms = {}
    for j, c in enumerate(dual):
        if c and degree_cap > 1:
            exps = tuple(1 if i == j else 0 for i in range(n))
            terms[exps] = Fraction(c)
    return FormalSeries._canonical(n, degree_cap, terms)


def quadratic_series(form: IntersectionForm, degree_cap: int) -> FormalSeries:
    """The quadratic form Q(h, h) = sum_{j,k} gram_jk h_j h_k."""
    n = form.rank
    terms: dict[Exponents, Fraction] = {}
    for i in range(n):
        for j in range(i, n):
            g = form.gram[i][j]
            if not g or degree_cap <= 2:
                continue
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            terms[tuple(exps)] = Fraction(g if i == j else 2 * g)
    return FormalSeries._canonical(n, degree_cap, terms)


def gaussian_sum(form: IntersectionForm,
                 weighted_classes: Iterable[tuple[Fraction, Sequence[int]]],
                 degree_cap: int, quadratic: bool = True) -> FormalSeries:
    """sum_r c_r exp(Q(h, h)/2 + <K_r, h>) truncated at degree_cap,
    for (c_r, K_r) in `weighted_classes`; Q is dropped when not `quadratic`.

    Each exponential is held as its integer divided powers
    F(e) = e! [h^e] exp(Q/2 + <K, h>), filled degree by degree with
        F(e + u_i) = d_i F(e) + sum_j G_ij e_j F(e - u_j),   d = G K,
    which is d^e for a pure linear exponent and a sum over matchings of the
    Gram graph for exp(Q/2). The weighted F are summed as integers, degree
    by degree, and the result keeps them so (`_Packed`): a monomial's
    coefficient is divided by e! and the weights' lcm only when it is read.
    A single class keeps its F, with no sum.

    Several classes with Q share the factor E = exp(Q/2): their sum is
    T = E S with S = sum_r w_r exp(<K_r, h>), whose divided powers
    S(b) = sum_r w_r d_r^b come from the same kernel without Q. S is built
    degree by degree and given up as soon as it has more terms than there
    are classes. Otherwise (as for E(n), where S = (2 sinh <F, h>)^(n-2)
    starts at degree n - 2) the kernel runs once, for E, up to degree
    cap - s with s the lowest degree of S, and
        T(e) = sum_{a + b = e} prod_i C(e_i, b_i) E(a) S(b)
    forms only pairs of degree < cap: at most |S| |E| of them, against the
    k kernel runs, each over at least about E's support, that summing the
    k classes would take. A sum whose S has more terms keeps those runs.

    A degree-(n+1) value can be nonzero only at e + u_i with F(e) != 0 at
    degree n and d_i != 0, or at f + u_i + u_j with F(f) != 0 at degree
    n - 1 and G_ij != 0; only those candidates are visited, so sparse forms
    and zero classes walk just their reachable support.
    """
    n = form.rank
    cap = degree_cap
    pairs = [(_as_fraction(c), form.dual_coefficients(k))
             for c, k in weighted_classes]
    den = lcm(*(c.denominator for c, _ in pairs))
    weights = [(c.numerator * (den // c.denominator), d)
               for c, d in pairs if c]
    if len(weights) == 1:
        weight, d = weights[0]
        slices = _MEMO.get(form, d, cap, quadratic)
    else:
        weight = 1
        slices = _factored_sum(form, weights, cap) if quadratic else None
        if slices is None:
            slices = [{} for _ in range(cap)]
            for w, d in weights:
                for total, part in zip(slices, _MEMO.get(form, d, cap,
                                                         quadratic)):
                    for key, v in part.items():
                        total[key] = total.get(key, 0) + w * v
            slices = _nonzero(slices)
    return FormalSeries._canonical(n, cap, None,
                                   _Packed(n, cap, slices, weight, den))


def _nonzero(slices):
    return [{key: v for key, v in part.items() if v} for part in slices]


def _factored_sum(form, weights, cap):
    """T = E S, the weighted sum of the classes' divided powers (see
    gaussian_sum), by degree, or None when S has more terms than there are
    classes."""
    streams = [_slice_stream(form, d, cap, False) for _, d in weights]
    s_slices = []       # (degree, [(packed b, S(b) != 0)])
    size = 0
    for degree in range(cap):
        acc: dict[int, int] = {}
        for (w, _), stream in zip(weights, streams):
            for key, v in next(stream).items():
                acc[key] = acc.get(key, 0) + w * v
        items = [(key, v) for key, v in acc.items() if v]
        size += len(items)
        if size > len(weights):
            return None
        if items:
            s_slices.append((degree, items))
    totals: list[dict[int, int]] = [{} for _ in range(cap)]
    if not s_slices:
        return totals
    n = form.rank
    e_slices = _MEMO.get(form, (0,) * n, cap, True, cap - s_slices[0][0])
    shifts, mask = _layout(n, cap)
    for degree, items in s_slices:
        for kb, sb in items:
            support = [(sh, kb >> sh & mask) for sh in shifts if kb >> sh & mask]
            for total, part in zip(totals[degree:], e_slices):
                for ka, ea in part.items():
                    v = sb * ea
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
    p = gaussian_sum(form, [(1, k)], degree_cap)._packed
    return {p.exponents(key): v for part in p.slices for key, v in part.items()}


def _layout(n: int, cap: int) -> tuple[list[int], int]:
    """(shifts, mask) of the packed keys: an exponent tuple is one integer,
    `width` bits per entry (no exponent of degree < cap overflows them), so
    e + u_i is key + (1 << shifts[i]). Entry 0 is in the highest field, so
    ascending keys of one degree are in lex order of their tuples."""
    width = max(cap - 1, 1).bit_length()
    return [width * (n - 1 - i) for i in range(n)], (1 << width) - 1


class _Packed:
    """A series as divided-power integers, as the kernel gives them out:
    `slices[d]` maps the packed key (layout of `cap`) of each e of degree
    d < cap with F(e) != 0 to F(e), for sum_e weight F(e) / (e! den) h^e."""

    __slots__ = ("n", "cap", "slices", "weight", "den")

    def __init__(self, n, cap, slices, weight, den):
        self.n, self.cap, self.slices = n, cap, slices
        self.weight, self.den = weight, den

    @classmethod
    def pack(cls, n, cap, terms, degrees) -> "_Packed":
        """The `terms` of `degrees` (each < cap); weight 1, den the lcm of
        their denominators."""
        shifts, _ = _layout(n, cap)
        fact = [factorial(e) for e in range(cap)].__getitem__
        kept = [(e, c, d) for e, c in terms.items() if (d := sum(e)) in degrees]
        den = lcm(*{c.denominator for _, c, _ in kept})
        slices = [{} for _ in range(cap)]
        for e, c, d in kept:
            slices[d][sum(map(lshift, e, shifts))] = (
                c.numerator * (den // c.denominator) * prod(map(fact, e)))
        return cls(n, cap, slices, 1, den)

    def rekeyed(self, cap, degrees) -> list[dict[int, int]]:
        """The slices of `degrees` (each < cap <= self.cap) in the layout
        of `cap`, the other degrees empty; the slices themselves when the
        layout is this one."""
        shifts, mask = _layout(self.n, self.cap)
        new = _layout(self.n, cap)[0]
        fields = list(zip(shifts, new))
        slices = [{} for _ in range(cap)]
        for d in degrees:
            part = self.slices[d]
            slices[d] = part if new == shifts else {
                sum([(key >> old & mask) << sh for old, sh in fields]): v
                for key, v in part.items()}
        return slices

    def exponents(self, key: int) -> Exponents:
        """The exponent tuple of a packed key."""
        shifts, mask = _layout(self.n, self.cap)
        return tuple([key >> sh & mask for sh in shifts])

    def keys(self, monomials) -> dict[int, Exponents]:
        """packed key -> exponent tuple, for exponent tuples of degree < cap."""
        shifts, _ = _layout(self.n, self.cap)
        return {sum(map(lshift, e, shifts)): e for e in monomials}

    def _halves(self, labels):
        """(high, low, split, low mask): a key's high part key >> split
        holds entries 0..n/2 - 1, its low part the rest (see `_Parts`)."""
        width = _layout(self.n, self.cap)[1].bit_length()
        fact = [factorial(e) for e in range(self.cap)]
        h = self.n // 2
        split = width * (self.n - h)
        return (_Parts(h, 0, width, fact, labels),
                _Parts(self.n - h, h, width, fact, labels),
                split, (1 << split) - 1)

    def fractions(self, degrees, keys=None) -> dict[Exponents, Fraction]:
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
                ea, fa, _ = high[key >> split]
                eb, fb, _ = low[key & low_mask]
                terms[ea + eb] = Fraction(v * weight, fa * fb * den)
        return terms

    def lines(self) -> list[str]:
        """The terms' lines of `FormalSeries.to_text`, in its order, with
        each coefficient in lowest terms as str(Fraction) writes it."""
        high, low, split, low_mask = self._halves(True)
        weight, den = self.weight, self.den
        lines = []
        for part in self.slices:
            for key in sorted(part):
                _, fa, la = high[key >> split]
                _, fb, lb = low[key & low_mask]
                num, q = part[key] * weight, fa * fb * den
                g = gcd(num, q)
                coeff = f"{num // g}" if g == q else f"{num // g}/{q // g}"
                lines.append(f"{coeff} *{la}{lb}" if key else coeff)
        return lines


# a part of at most this many entries is unpacked field by field
_LEAF = 4


class _Parts(dict):
    """Packed part -> (tuple, e!, label) of `count` entries from `first` on,
    in the layout of `_layout` with fields of `width` bits. The label is
    monomial_label's with a leading space ("" for no factor, and for every
    part unless `labels`). A part of more than _LEAF entries is read as two
    halves, each from a table of its own, so every distinct half is
    unpacked once."""

    def __init__(self, count, first, width, fact, labels):
        super().__init__()
        self.first, self.fact, self.labels = first, fact, labels
        self.mask = (1 << width) - 1
        self.shifts = [width * (count - 1 - i) for i in range(count)]
        if count > _LEAF:
            h = count // 2
            self.split = width * (count - h)
            self.high = _Parts(h, first, width, fact, labels)
            self.low = _Parts(count - h, first + h, width, fact, labels)

    def __missing__(self, part):
        if len(self.shifts) > _LEAF:
            ea, fa, la = self.high[part >> self.split]
            eb, fb, lb = self.low[part & (1 << self.split) - 1]
            value = ea + eb, fa * fb, la + lb
        else:
            exps = tuple([part >> sh & self.mask for sh in self.shifts])
            label = "".join([f" h{i}^{e}" for i, e in enumerate(
                exps, self.first + 1) if e]) if self.labels else ""
            value = exps, prod(map(self.fact.__getitem__, exps)), label
        self[part] = value
        return value


class _SliceMemo:
    """The kernel's slices of the latest form object and cap, by (G K,
    quadratic), holding at most `bound` F values in all. A call with another
    form object or cap empties it; a class that does not fit beside the
    stored ones is returned but not stored, and nothing is evicted. Callers
    must not mutate the slices they get.

    An entry may hold only a class's first slices (the factored route's E
    needs no more); a call that needs more runs the class again and
    replaces it.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.form = self.cap = None
        self.slices: dict = {}      # (G K, quadratic) -> slices
        self.entries = 0

    def get(self, form, d, cap, quadratic, degrees=None):
        """The first `degrees` (by default all `cap`) slices or more."""
        degrees = cap if degrees is None else degrees
        if form is not self.form or cap != self.cap:
            self.form, self.cap, self.slices, self.entries = form, cap, {}, 0
        key = d, quadratic
        hit = self.slices.get(key, ())
        if len(hit) >= degrees:
            return hit
        slices = _divided_power_slices(form, d, cap, quadratic, degrees)
        # a shorter run of the same class gives way to this one
        size = sum(map(len, slices)) - sum(map(len, hit))
        if self.entries + size <= self.bound:
            self.slices[key] = slices
            self.entries += size
        return slices


# a round trip (witten_rhs, the fit's divided_powers, km_series) asks for
# the same classes at the same form and cap three times
_MEMO_ENTRIES = 8192
_MEMO = _SliceMemo(_MEMO_ENTRIES)


def _divided_power_slices(form, d, cap, quadratic, degrees):
    """[F at degree 0, ..., F at degree degrees - 1] of the class with
    G K = d: one kernel run, as the memo stores it. (The factored route
    reads S's classes from `_slice_stream` directly, as far as it needs,
    and stores nothing.)"""
    return list(islice(_slice_stream(form, d, cap, quadratic), degrees))


def _slice_stream(form, d, cap, quadratic):
    """F at degree 0, ..., F at degree cap - 1 of the class with G K = d
    (see gaussian_sum), one at a time, each a dict packed key -> int F != 0
    in the layout of `cap`."""
    if cap <= 0:
        return
    n = form.rank
    shifts, mask = _layout(n, cap)
    place = [1 << sh for sh in shifts]
    if quadratic:
        gram = form.gram
        nbrs = [[(g, place[j], shifts[j]) for j, g in enumerate(row) if g]
                for row in gram]
        quad_steps = [(place[i] + place[j], i) for i in range(n)
                      for j in range(i, n) if gram[i][j]]
    else:
        nbrs, quad_steps = [()] * n, ()
    lin_steps = [(place[i], i) for i, di in enumerate(d) if di]
    prev: dict[int, int] = {}
    cur: dict[int, int] = {0: 1}
    yield cur
    for _ in range(1, cap):
        # candidate -> a direction i with e_i > 0 to run the recurrence on
        cand = {key + p: i for key in cur for p, i in lin_steps}
        cand.update({key + p: i for key in prev for p, i in quad_steps})
        nxt = {}
        for key, i in cand.items():
            e = key - place[i]
            v = d[i] * cur.get(e, 0)
            for g, p, sh in nbrs[i]:
                # only a true e - u_j (e_j > 0) is a degree-(n-1) key; a
                # borrow across fields raises the entry sum instead
                f = prev.get(e - p)
                if f:
                    v += g * (e >> sh & mask) * f
            if v:
                nxt[key] = v
        yield nxt
        prev, cur = cur, nxt


def exp_linear(form: IntersectionForm, k: Sequence[int],
               degree_cap: int) -> FormalSeries:
    """exp(<k, h>) truncated: sum_{n < cap} <k, h>^n / n!."""
    return gaussian_sum(form, [(1, k)], degree_cap, quadratic=False)


def exp_quadratic(form: IntersectionForm, degree_cap: int) -> FormalSeries:
    """exp(Q(h, h) / 2) truncated: sum_{2n < cap} (Q/2)^n / n!."""
    return gaussian_sum(form, [(1, (0,) * form.rank)], degree_cap)
