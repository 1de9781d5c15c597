"""Manifold data model and the series-level invariant formulas.

Covers the Seiberg-Witten series, the basic-class expansion of the
Donaldson series, the conjectured identity relating the two, vanishing and
simple-type checks, hypothesis reports for the level-0/level-1 theorems,
and exact recovery of basic-class coefficients by linear solves.

Point values D(h^d x^m) are produced under the "x -> 2" convention: the
generating series only determines D(h^d) + D(h^d x)/2, so the library picks
the representative where the point class acts as multiplication by 2,
    D(h^d x^m) := 2^m * (d!/2) * (degree-d coefficient polynomial).
This is consistent with the simple-type relation D(x^2 z) = 4 D(z); every
output produced under the convention is labeled as such.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, InitVar
from fractions import Fraction
from math import factorial, lcm
from typing import Optional, Sequence

from .errors import (DimensionMismatch, NonCharacteristicError,
                     NonIntegralError)
from .lattice import (IntersectionForm, Vector, _gram_pairing, as_vector,
                      congruent_mod2, find_witnesses, mod2_reduce,
                      orthogonal_complement, vec_add)
from .linsolve import LinearSystem
from .series import (FormalSeries, HomogeneousPolynomial, _first_nonzero,
                     _stored_sum, gaussian_sum)


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    VACUOUS = "vacuously-true"
    NOT_CHECKABLE = "not-checkable"

    def __bool__(self):
        return self in (Verdict.PASS, Verdict.VACUOUS)


def characteristic_number(chi: int, sigma: int) -> Fraction:
    """The degree-window constant -(7*chi + 11*sigma)/4, as an exact rational.

    Integrality is not assumed here; callers that need an integer must check.
    """
    return Fraction(-(7 * chi + 11 * sigma), 4)


def sign_exponent(form: IntersectionForm, w: Sequence[int],
                  k: Sequence[int]) -> int:
    """The integer (w.w + w.k)/2; raises if it is half-integral.

    For characteristic k the sum is always even, so a failure signals
    corrupted data rather than a legitimate value.
    """
    return _sign_exponents(form, w, (k,))[0]


def _sign_exponents(form: IntersectionForm, w: Sequence[int],
                    classes) -> list[int]:
    """`sign_exponent` for each class in turn, with w and each class
    checked once and w.w formed once."""
    w = form._check_vector(w)
    w_sq = _gram_pairing(form.sparse_rows, w, w)
    out = []
    for k in classes:
        t = w_sq + _gram_pairing(form.sparse_rows, w, form._check_vector(k))
        if t % 2:
            raise NonCharacteristicError(
                f"sign exponent (w^2 + w.k)/2 = {t}/2 is not an integer; "
                f"k = {tuple(k)} is not characteristic")
        out.append(t // 2)
    return out


def _signs(form, w, classes) -> list[int]:
    """(-1)^((w^2 + w.k)/2) for each class k."""
    return [-1 if t % 2 else 1 for t in _sign_exponents(form, w, classes)]


@dataclass(frozen=True)
class SpincEntry:
    """One spin-c structure, reduced to its first Chern class and invariant."""

    c1: Vector
    sw: int

    def __post_init__(self):
        object.__setattr__(self, "c1", as_vector(self.c1))
        object.__setattr__(self, "sw", int(self.sw))


@dataclass(frozen=True)
class KMData:
    """A basic-class expansion: choice of w plus (coefficient, class) pairs."""

    w: Vector
    terms: tuple[tuple[Fraction, Vector], ...]

    def __post_init__(self):
        object.__setattr__(self, "w", as_vector(self.w))
        clean = []
        for a, k in self.terms:
            a = Fraction(a)
            if a == 0:
                raise ValueError("basic-class coefficients must be nonzero")
            clean.append((a, as_vector(k)))
        object.__setattr__(self, "terms", tuple(clean))


class NonCharacteristicC1(ValueError):
    """A spin-c entry's c1 is not characteristic; `index` is the entry's
    place in the manifold's table, so a file loader can name its line."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class ManifoldData:
    """Topological invariants plus the Seiberg-Witten basic-class table.

    Strict construction (the default, and always used when loading files)
    enforces the coupling between the form and the numeric invariants:
    rank = chi - 2 (b1 = 0), the signature decomposition matches sigma and
    b_plus, and b_plus is odd and > 1. `check_topology=False` skips exactly
    those couplings; it exists for synthetic series-algebra data where chi
    and sigma are chosen freely. Characteristic-class checks always run.
    """

    name: str
    chi: int
    sigma: int
    b_plus: int
    form: IntersectionForm
    w2: Vector
    spinc: tuple[SpincEntry, ...]
    sw_simple_type: bool
    check_topology: InitVar[bool] = True

    def __post_init__(self, check_topology):
        object.__setattr__(self, "w2", tuple(int(b) % 2 for b in self.w2))
        object.__setattr__(self, "spinc", tuple(self.spinc))
        if len(self.w2) != self.form.rank:
            raise DimensionMismatch("w2 length does not match the form rank")
        for index, entry in enumerate(self.spinc):
            if len(entry.c1) != self.form.rank:
                raise DimensionMismatch(
                    f"c1 {entry.c1} does not match rank {self.form.rank}")
            if not self.form.is_characteristic(entry.c1):
                raise NonCharacteristicC1(
                    f"c1 {entry.c1} of manifold {self.name!r} is not "
                    "characteristic", index)
        if check_topology:
            if self.form.rank != self.chi - 2:
                raise ValueError(
                    f"rank {self.form.rank} != chi - 2 = {self.chi - 2} (b1 = 0)")
            sigma, b_plus, _ = self.form.signature_decomposition()
            if sigma != self.sigma:
                raise ValueError(
                    f"form signature {sigma} != declared sigma {self.sigma}")
            if b_plus != self.b_plus:
                raise ValueError(
                    f"form b_plus {b_plus} != declared b_plus {self.b_plus}")
            if self.b_plus % 2 == 0 or self.b_plus <= 1:
                raise ValueError(
                    f"b_plus = {self.b_plus} must be odd and > 1")

    @property
    def rank(self) -> int:
        return self.form.rank

    def characteristic_number(self) -> Fraction:
        return characteristic_number(self.chi, self.sigma)

    def basic_classes(self) -> list[Vector]:
        return [e.c1 for e in self.spinc if e.sw != 0]


def expected_sw_dimension(form: IntersectionForm, c1: Sequence[int],
                          chi: int, sigma: int) -> Fraction:
    """Expected moduli dimension (c1^2 - (2*chi + 3*sigma))/4."""
    return Fraction(form.square(c1) - (2 * chi + 3 * sigma), 4)


def sw_dimension_warnings(m: ManifoldData) -> list[str]:
    """Entries whose nonzero invariant sits on positive expected dimension,
    contradicting the asserted simple type. Warnings, not errors."""
    notes = []
    if not m.sw_simple_type:
        return notes
    for entry in m.spinc:
        d = expected_sw_dimension(m.form, entry.c1, m.chi, m.sigma)
        if entry.sw != 0 and d != 0:
            notes.append(
                f"entry c1={','.join(map(str, entry.c1))} has sw={entry.sw} "
                f"but expected dimension {d}; inconsistent with simple type")
    return notes


# ---------------------------------------------------------------------------
# the series formulas

def _sw_terms(m: ManifoldData, w: Sequence[int]):
    """(signed SW invariant, c1) for every spin-c entry with SW != 0."""
    entries = [e for e in m.spinc if e.sw]
    signs = _signs(m.form, w, [e.c1 for e in entries])
    return [(s * e.sw, e.c1) for s, e in zip(signs, entries)]


def sw_series(m: ManifoldData, w: Sequence[int], degree_cap: int) -> FormalSeries:
    """Signed exponential sum over spin-c structures:
    sum_s (-1)^((w^2 + c1(s).w)/2) SW(s) exp(<c1(s), h>)."""
    return gaussian_sum(m.form, _sw_terms(m, w), degree_cap, quadratic=False)


def km_series(km: KMData, form: IntersectionForm, degree_cap: int) -> FormalSeries:
    """Basic-class expansion of the Donaldson series:
    exp(Q/2) * sum_r (-1)^((w^2 + w.K_r)/2) a_r exp(<K_r, h>)."""
    signs = _signs(form, km.w, [k for _, k in km.terms])
    terms = [(a * s, k) for s, (a, k) in zip(signs, km.terms)]
    return gaussian_sum(form, terms, degree_cap)


def witten_consistent_km(m: ManifoldData, w: Sequence[int]) -> KMData:
    """Basic-class data the conjectured identity predicts: coefficients
    2^(2-c) SW(s) on the classes c1(s).

    Refuses when c = -(7*chi + 11*sigma)/4 is not an integer; the power of
    two would not be rational.
    """
    c = m.characteristic_number()
    if c.denominator != 1:
        raise NonIntegralError(
            f"c = {c} is not an integer; 2^(2-c) is not rational")
    w = m.form._check_vector(w)
    factor = Fraction(2) ** (2 - int(c))
    return KMData(w=w, terms=tuple((factor * e.sw, e.c1)
                                   for e in m.spinc if e.sw))


def witten_rhs(m: ManifoldData, w: Sequence[int], degree_cap: int) -> FormalSeries:
    """2^(2-c) * exp(Q/2) * SW-series, the conjectured Donaldson series:
    the basic-class expansion of `witten_consistent_km`."""
    return km_series(witten_consistent_km(m, w), m.form, degree_cap)


# ---------------------------------------------------------------------------
# checks

@dataclass(frozen=True)
class SimpleTypeCheck:
    verdict: Verdict
    checked: tuple[tuple[int, int], ...]   # (d, m) pairs with (d, m+2) present
    failed: tuple[tuple[int, int], ...]


def check_km_simple_type_relation(values) -> SimpleTypeCheck:
    """Check D(h^d x^(m+2)) == 4 D(h^d x^m) on every pair the table provides.

    `values` maps (d, m) to either exact rationals or polynomial values.
    With no checkable pair the verdict is NOT_CHECKABLE.
    """
    checked = []
    failed = []
    for (d, mm) in sorted(values):
        hi = (d, mm + 2)
        if hi not in values:
            continue
        checked.append((d, mm))
        if values[hi] != values[(d, mm)] * 4:
            failed.append((d, mm))
    if not checked:
        return SimpleTypeCheck(Verdict.NOT_CHECKABLE, (), ())
    verdict = Verdict.FAIL if failed else Verdict.PASS
    return SimpleTypeCheck(verdict, tuple(checked), tuple(failed))


def mmp_vanishing_check(m: ManifoldData, w: Sequence[int]) -> Verdict:
    """Does the SW series vanish mod degree c - 2 (strict convention)?

    Returns VACUOUS when the window c - 2 is empty (c <= 2).
    """
    c = m.characteristic_number()
    if c.denominator != 1:
        raise NonIntegralError(f"c = {c} is not an integer")
    threshold = int(c) - 2
    if threshold <= 0:
        return Verdict.VACUOUS
    sw = sw_series(m, w, threshold)
    return Verdict.PASS if sw.is_zero() else Verdict.FAIL


# ---------------------------------------------------------------------------
# exact recovery of basic-class coefficients

@dataclass(frozen=True)
class KMFitResult:
    status: str                 # "unique" | "underdetermined" | "inconsistent"
    a_values: dict              # class -> coefficient (particular solution)
    determined: frozenset
    nullspace_dim: int
    witness: Optional[tuple]    # first failing monomial when inconsistent
    zero_classes: tuple         # classes whose fitted coefficient is 0

    @property
    def consistent(self) -> bool:
        return self.status != "inconsistent"


def fit_km_coefficients(target: FormalSeries,
                        candidate_classes: Sequence[Sequence[int]],
                        w: Sequence[int], form: IntersectionForm,
                        degree_cap: int) -> KMFitResult:
    """Solve exp(Q/2) * sum_r b_r exp(<K_r, h>) = target for the b_r, then
    unwind the sign convention: a_r = (-1)^((w^2 + w.K_r)/2) b_r.

    Equations are the coefficients of every monomial h^e of degree
    < degree_cap, in (degree, lex) order so an inconsistency witness is
    deterministic. They are built in integers from the series' divided
    powers (`FormalSeries.slices`), each class's with weight 1: the
    equation at h^e is the one in coefficients times e! and the target's
    den, a positive scale that changes neither the solutions nor which
    equation is the first inconsistent one.

    They are fed to `LinearSystem` in that order only until it reaches
    full column rank (one pivot per class), past an inconsistency too, so
    that the rank, and with it `nullspace_dim`, is the one all equations
    give. A system that never gets there has taken every equation. At full
    rank the solution b_r = X_r / L (integers) is fixed, and every later
    equation can only agree with it or be inconsistent; so a consistent
    prefix is checked against all monomials at once through the residual
        weight L T - den S,   S = sum_r X_r F_r,
    an integer series formed degree by degree up to its first nonzero
    degree (`_first_nonzero`, called once). S is the kernel memo's stored
    sum of these weights when it holds one (a round trip's `witten_rhs`
    stored it), and otherwise its k parts X_r F_r from the slices in hand;
    the solution's sum is never built here. Either way the residual is 0
    exactly when the fit is consistent; otherwise its lowest monomial is
    the first equation that fails, which is the witness the full
    elimination reports.

    Raises TruncationError when degree_cap exceeds the target's cap: the
    target's coefficients at those degrees were truncated away, not 0.
    """
    candidates = [as_vector(k) for k in candidate_classes]
    if len(set(candidates)) != len(candidates):
        raise ValueError("duplicate candidate classes")
    if not candidates:
        raise ValueError("no candidate classes")
    n = degree_cap
    target = target.truncate_to(n)
    basis = [gaussian_sum(form, [(1, k)], n).slices for k in candidates]
    rank = len(candidates)
    system = LinearSystem(rank)
    # ascending packed keys of one degree are its monomials in lex order
    monomials = ((d, key) for d, rhs in enumerate(target.slices)
                 for key in sorted(set(rhs).union(*(b[d] for b in basis))))
    for d, key in monomials:
        system.add_equation([b[d].get(key, 0) * target.den for b in basis],
                            target.slices[d].get(key, 0) * target.weight,
                            label=key)
        if len(system.pivots) == rank:
            break
    sol = system.solve()
    if sol.status == "unique":
        values = [sol.values[i] for i in range(rank)]
        common = lcm(*(v.denominator for v in values))
        solved = [(v.numerator * (common // v.denominator), b, k)
                  for v, b, k in zip(values, basis, candidates) if v]
        stored = _stored_sum(form, [(x, form.dual_coefficients(k))
                                    for x, _, k in solved], n)
        if stored is None:
            parts = [(-target.den * x, b) for x, b, _ in solved]
        else:
            parts = [(-target.den, stored)]
        first = _first_nonzero(
            [(target.weight * common, target.slices)] + parts, n)
        if first is not None:
            return KMFitResult("inconsistent", {}, frozenset(), 0,
                               target._exponents(first[1]), ())
    if not sol.consistent:
        return KMFitResult("inconsistent", {}, frozenset(), sol.nullspace_dim,
                           target._exponents(sol.witness), ())
    a_values = {}
    zero = []
    signs = _signs(form, w, candidates)
    for idx, k in enumerate(candidates):
        a = signs[idx] * sol.values[idx]
        a_values[k] = a
        if a == 0:
            zero.append(k)
    determined = frozenset(candidates[i] for i in sol.determined)
    return KMFitResult(sol.status, a_values, determined, sol.nullspace_dim,
                       None, tuple(zero))


def check_delta_m(delta: int, m: int) -> None:
    """Refuse (delta, m) unless 0 <= m <= delta/2: the point value
    D(h^(delta-2m) x^m) needs a degree delta - 2m >= 0."""
    if not 0 <= 2 * m <= delta:
        raise ValueError(f"need 0 <= m <= delta/2, got delta={delta}, m={m}")


def point_scale(d: int, m: int) -> Fraction:
    """2^m d!/2, the x -> 2 convention's factor from a series' degree-d
    part to the point value D(h^d x^m)."""
    return Fraction(2 ** m * factorial(d), 2)


def point_evaluate(km: KMData, form: IntersectionForm, delta: int,
                   m: int) -> HomogeneousPolynomial:
    """Point value D(h^(delta-2m) x^m) as a polynomial in h: `point_scale`
    times the degree-d part of the series, d = delta - 2m, with the factor
    folded into the basic-class coefficients."""
    check_delta_m(delta, m)
    d = delta - 2 * m
    scale = point_scale(d, m)
    scaled = KMData(km.w, tuple((scale * a, k) for a, k in km.terms))
    return km_series(scaled, form, d + 1).homogeneous_part(d)


# ---------------------------------------------------------------------------
# hypothesis reports for the level-0 / level-1 theorems

THEOREM_TARGETS = {"level0": 2, "level1": 4}


@dataclass(frozen=True)
class HypothesisEntry:
    name: str
    status: str     # "pass" | "fail" | "unknown-bounded"
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    manifold: str
    variant: str
    bound: int
    target_square: int
    w_used: Vector
    lambda_used: Optional[Vector]
    hyperbolic_pair: Optional[tuple[Vector, Vector]]
    entries: tuple[HypothesisEntry, ...]
    overall: str

    def to_text(self) -> str:
        lines = [f"manifold={self.manifold} variant={self.variant} "
                 f"bound={self.bound} target_square={self.target_square}"]
        if self.lambda_used is not None:
            lines.append("witness lambda=" + ",".join(map(str, self.lambda_used)))
        if self.hyperbolic_pair is not None:
            e, f = self.hyperbolic_pair
            lines.append("witness e=" + ",".join(map(str, e)))
            lines.append("witness f=" + ",".join(map(str, f)))
        for entry in self.entries:
            line = f"hypothesis={entry.name} status={entry.status}"
            if entry.detail:
                line += f" detail={entry.detail}"
            lines.append(line)
        lines.append(f"overall={self.overall}")
        return "\n".join(lines)


def check_theorem_hypotheses(m: ManifoldData, w: Optional[Sequence[int]],
                             lambda_: Optional[Sequence[int]],
                             variant: str, search_bound: int = 20,
                             budget: Optional[int] = 2_000_000
                             ) -> HypothesisReport:
    """Report, hypothesis by hypothesis, whether the level-0 or level-1
    identity applies to this manifold with the given (or searched) classes.

    A hyperbolic pair (abundance) is searched in the orthogonal complement
    of the basic classes and, when `lambda_` is None, so is a class of the
    target square: one walk of the complement's box answers both questions
    (`find_witnesses`), each with its own budget of `budget`, so each
    answer is the one its search alone gives. A search that finds nothing,
    within the bound or because the complement's form rules a witness out,
    is surfaced as status unknown-bounded, never as fail. When `w` is None,
    the canonical representative lambda + w2 is used, which satisfies the
    mod-2 congruence by construction.
    """
    if variant not in THEOREM_TARGETS:
        raise ValueError(f"variant must be one of {sorted(THEOREM_TARGETS)}")
    target = THEOREM_TARGETS[variant] - (m.chi + m.sigma)
    basics = m.basic_classes()
    complement = orthogonal_complement(m.form, basics)

    entries = []
    entries.append(HypothesisEntry(
        "b_plus_odd_ge_3",
        "pass" if (m.b_plus % 2 == 1 and m.b_plus >= 3) else "fail",
        f"b_plus={m.b_plus}"))
    entries.append(HypothesisEntry(
        "sw_simple_type",
        "pass" if m.sw_simple_type else "fail",
        "asserted input flag"))

    found, pair = find_witnesses(
        complement, search_bound, budget,
        target=target if lambda_ is None else None, pair=True)
    if pair is not None:
        entries.append(HypothesisEntry("abundant", "pass",
                                       "hyperbolic pair found in B-perp"))
    else:
        entries.append(HypothesisEntry(
            "abundant", "unknown-bounded",
            f"no hyperbolic pair within bound {search_bound}"))

    lam: Optional[Vector] = (m.form._check_vector(lambda_)
                             if lambda_ is not None else found)
    if lam is None:
        entries.append(HypothesisEntry(
            "lambda_exists", "unknown-bounded",
            f"no vector of square {target} within bound {search_bound}"))
        w_used = as_vector(w) if w is not None else mod2_reduce(m.w2)
        entries.append(HypothesisEntry("lambda_in_complement", "unknown-bounded"))
        entries.append(HypothesisEntry("lambda_square", "unknown-bounded"))
        entries.append(HypothesisEntry("mod2_congruence", "unknown-bounded"))
    else:
        entries.append(HypothesisEntry(
            "lambda_exists", "pass", "supplied" if lambda_ is not None else "searched"))
        if w is not None:
            w_used = m.form._check_vector(w)
        else:
            w_used = vec_add(lam, m.w2)
        in_comp = all(m.form.pairing(lam, b) == 0 for b in basics)
        entries.append(HypothesisEntry(
            "lambda_in_complement", "pass" if in_comp else "fail",
            f"{len(basics)} basic classes"))
        sq = m.form.square(lam)
        entries.append(HypothesisEntry(
            "lambda_square", "pass" if sq == target else "fail",
            f"lambda^2={sq} target={target}"))
        cong = congruent_mod2(m.form, w_used, lam, m.w2)
        entries.append(HypothesisEntry(
            "mod2_congruence", "pass" if cong else "fail",
            "w - lambda = w2 mod 2" if cong else "w - lambda != w2 mod 2"))

    if any(e.status == "fail" for e in entries):
        overall = "fail"
    elif any(e.status == "unknown-bounded" for e in entries):
        overall = "unknown-bounded"
    else:
        overall = "pass"
    return HypothesisReport(
        manifold=m.name, variant=variant, bound=search_bound,
        target_square=target, w_used=w_used, lambda_used=lam,
        hyperbolic_pair=pair, entries=tuple(entries), overall=overall)
