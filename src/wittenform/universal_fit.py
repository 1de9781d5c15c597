"""Symbolic scaffolding for the structure formula with unknown universal
coefficients.

The degree-(delta-2m) point value is modeled, per spin-c entry, as
    sum_i p_i(<A,h>, <B,h>) * Q(h,h)^i,   i <= min(l, floor(delta/2) - m),
where A = c1(s) - Lambda, B = Lambda and p_i is an unknown homogeneous
polynomial of degree delta - 2m - 2i in the two linear forms. Unknown
coefficients are keyed by the exact parameter signature
(chi, sigma, c1^2, Lambda^2, c1.Lambda, delta, m, l), so coefficients are
shared exactly when every one of those parameters agrees and no functional
form across signatures is assumed. The assembled right-hand side is linear
in the unknowns and is pinned against observed point values by exact
rational elimination.

Two routes write the equations, each as an `AssembledRhs` that holds the
right-hand side and the observed value in its own variables. An
observation whose value is basic-class data (`Observation.km`, as
`lhs = witten` gives) takes the Q[u, q] route when its form is
nondegenerate and s < n. Here s is the dimension of the span V of Lambda,
the c1 - Lambda of the leveled entries and the classes; P is the set of
its pivot columns, V projects isomorphically onto the coordinates in P,
and u_k = <r_k, h> for the reduced echelon basis r_k of V, so that
<v, h> = sum_k v[P_k] u_k with integer coordinates. With q = Q(h,h), both
the right-hand side and the point value
2^m d!/2 sum_r c_r sum_i (q/2)^i/i! <K_r,h>^(d-2i)/(d-2i)! are written in
Q[u, q], never expanded in the n variables h. Every other observation (an
explicit value, s = n, a degenerate form) takes the h route, which expands
each product in h. The two agree: in coordinates (u, y) on h, a q free of
y would have a Gram of rank <= s < n, so q has positive degree in y and is
transcendental over Q(u). So u and q are algebraically independent, a
polynomial in them is zero in Q[h] exactly when it is zero in Q[u, q], and
both routes give the same augmented row space, hence the same reduced
echelon form: status, nullspace, values, determined and absent unknowns.
The argument holds for any basis u of the linear forms <v, h>, v in V.
Only an inconsistency witness names a monomial of its route, so when the
witness lies in a Q[u, q] observation, that observation alone is
assembled again in h and the system solved again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Optional, Sequence

from .errors import DimensionMismatch, InadmissibleDeltaError
from .invariants import (KMData, ManifoldData, _signs, check_delta_m,
                         point_evaluate, point_scale)
from .lattice import Vector, as_vector, vec_sub
from .linsolve import LinearSystem
from .monopole_levels import delta_admissible, leveled_entries
from .series import (FormalSeries, HomogeneousPolynomial, _check_degree,
                     first_difference, linear_series, monomial_label,
                     quadratic_series)

Signature = tuple[int, int, int, int, int, int, int, int]

_SIG_FIELDS = ("chi", "sigma", "c1_sq", "lambda_sq", "c1_dot_lambda",
               "delta", "m", "ell")


@dataclass(frozen=True, order=True)
class Unknown:
    """One unknown coefficient: u[signature, i, j] multiplies
    <A,h>^j <B,h>^(d-j) Q^i with d = delta - 2m - 2i."""

    signature: Signature
    i: int
    j: int

    def label(self) -> str:
        _, _, _, _, _, delta, m, ell = self.signature
        return f"p[{delta},{ell},{m},{self.i}][{self.j}]"


def describe_signature(sig: Signature) -> str:
    return " ".join(f"{k}={v}" for k, v in zip(_SIG_FIELDS, sig))


@dataclass(frozen=True)
class TemplateEntry:
    i: int
    degree: int          # delta - 2m - 2i

    @property
    def unknown_count(self) -> int:
        return self.degree + 1

    def unknowns(self, sig: Signature) -> list[Unknown]:
        """The slots u[sig, i, j], j = 0..degree, of this p_i."""
        return [Unknown(sig, self.i, j) for j in range(self.unknown_count)]


@dataclass(frozen=True)
class CoefficientTemplate:
    delta: int
    m: int
    ell: int
    entries: tuple[TemplateEntry, ...]

    @property
    def total_unknowns(self) -> int:
        return sum(e.unknown_count for e in self.entries)


def build_template(delta: int, m: int, ell: int) -> CoefficientTemplate:
    """Unknown layout for one (delta, m, ell): one homogeneous polynomial of
    degree delta - 2m - 2i per i in [0, min(ell, floor(delta/2) - m)]."""
    check_delta_m(delta, m)
    if ell < 0:
        raise ValueError(f"need ell >= 0, got {ell}")
    i_max = min(ell, delta // 2 - m)
    entries = tuple(TemplateEntry(i, delta - 2 * m - 2 * i)
                    for i in range(i_max + 1))
    return CoefficientTemplate(delta, m, ell, entries)


@dataclass
class AssembledRhs:
    """Right-hand side of the structure formula, linear in the unknowns,
    with the observed point value it is equated to, both in the variables
    of one route (see the module docstring).

    On the h route the variables are h_1..h_n (num_vars = n), and every
    monomial has total degree `degree` = delta - 2m. On the Q[u, q] route
    they are u_1..u_s (num_vars = s < n), and the u-exponents e stand for
    u^e q^((degree - |e|)/2): q is implicit by weight. coeffs maps each
    monomial's exponents to the exact-rational linear form in the unknowns
    multiplying it; `observed` is the point value in the same variables,
    with a cap above `degree` (None from `assemble_rough_rhs`, which sees
    no observation).
    """

    num_vars: int
    degree: int
    coeffs: dict         # monomial exponents -> {Unknown: Fraction}
    templates: dict      # Signature -> CoefficientTemplate
    notes: tuple[str, ...]
    observed: Optional[FormalSeries] = None

    def unknowns(self) -> list[Unknown]:
        seen = set()
        for linear in self.coeffs.values():
            seen.update(linear)
        return sorted(seen)

    def substitute(self, values) -> FormalSeries:
        """The right side at `values`, in the route's variables."""
        return FormalSeries(self.num_vars, self.degree + 1, {
            mono: sum(c * values[u] for u, c in linear.items())
            for mono, linear in self.coeffs.items()})

    def equations(self) -> list[tuple]:
        """(monomial, linear form, observed coefficient) of each equation,
        monomials by degree, then lex.

        A monomial in no unknown has a nonzero observed value, so 0 = value
        is inconsistent: only the first such monomial is listed, as a
        witness. Such monomials are found on the observed value's integers
        (`FormalSeries.slices`), and then only the monomials listed are
        unpacked to Fractions.
        """
        lhs = self.observed
        degrees = sorted(lhs.support_degrees())
        monos = lhs._keys(self.coeffs)
        for d in degrees:
            free = min(lhs.slices[d].keys() - monos.keys(), default=None)
            if free is not None:
                monos[free] = lhs._exponents(free)
                break
        observed = lhs._fractions(degrees, monos)
        # ascending packed keys of one degree are its monomials in lex order
        order = sorted(monos, key=lambda key: (sum(monos[key]), key))
        return [(mono, self.coeffs.get(mono, {}), observed.get(mono, 0))
                for mono in map(monos.__getitem__, order)]

    def matches(self, values) -> bool:
        """Does the solution `values` reproduce the observed value?"""
        return first_difference(self.substitute(values), self.observed,
                                self.degree + 1) is None


class _Powers:
    """x^0, x^1, ... of x, each made by one product `mul` with x when
    first asked for, and kept."""

    def __init__(self, x, one, mul=operator.mul):
        self.x = x
        self.mul = mul
        self.made = [one]

    def __getitem__(self, k: int):
        while len(self.made) <= k:
            self.made.append(self.mul(self.made[-1], self.x))
        return self.made[k]


def _checked_vectors(m: ManifoldData, w: Sequence[int],
                     lambda_: Sequence[int], delta: int,
                     mm: int) -> tuple[Vector, Vector]:
    """w and lambda checked against the rank, with (delta, m) and the
    degree admissibility congruence."""
    w = m.form._check_vector(w)
    lam = m.form._check_vector(lambda_)
    check_delta_m(delta, mm)
    if not delta_admissible(delta, m.form.square(w), m.chi, m.sigma):
        raise InadmissibleDeltaError(
            f"delta={delta} violates the mod-4 congruence for w^2="
            f"{m.form.square(w)}, chi={m.chi}, sigma={m.sigma}")
    return w, lam


def _slot_coefficients(m: ManifoldData, w: Vector, lam: Vector, entries,
                       delta: int, mm: int, powers_of, times_q):
    """sum_s sign(s) SW(s) sum_i p_i(<A,h>,<B,h>) Q^i as {monomial: {Unknown:
    coefficient}}, and the templates by signature. `powers_of(v)` gives the
    powers of <v,h> and `times_q(a, b, i)` the (monomial, coefficient)
    pairs of a * b * Q^i in the route's ring."""
    coeffs: dict[tuple, dict[Unknown, Fraction]] = {}
    templates: dict[Signature, CoefficientTemplate] = {}
    bpow = powers_of(lam)
    lam_sq = m.form.square(lam)
    signs = _signs(m.form, w, [entry.c1 for entry, _ in entries])
    for (entry, ell), sign in zip(entries, signs):
        sig: Signature = (m.chi, m.sigma, m.form.square(entry.c1), lam_sq,
                          m.form.pairing(entry.c1, lam), delta, mm, ell)
        template = build_template(delta, mm, ell)
        templates.setdefault(sig, template)
        factor = Fraction(sign * entry.sw)
        apow = powers_of(vec_sub(entry.c1, lam))
        for tentry in template.entries:
            for j, unknown in enumerate(tentry.unknowns(sig)):
                for mono, c in times_q(apow[j], bpow[tentry.degree - j],
                                       tentry.i):
                    slot = coeffs.setdefault(mono, {})
                    slot[unknown] = slot.get(unknown, Fraction(0)) + factor * c
    # prune exact zeros so absent unknowns really are absent
    for mono in list(coeffs):
        linear = {u: c for u, c in coeffs[mono].items() if c != 0}
        if linear:
            coeffs[mono] = linear
        else:
            del coeffs[mono]
    return coeffs, templates


def assemble_rough_rhs(m: ManifoldData, w: Sequence[int],
                       lambda_: Sequence[int], delta: int,
                       mm: int) -> AssembledRhs:
    """Assemble sum_s sign(s) SW(s) sum_i p_i(<A,h>,<B,h>) Q^i symbolically
    in h: the h route.

    Requires the degree admissibility congruence; entries whose level index
    is not a non-negative integer are skipped with a note, matching the
    contribution enumeration.
    """
    w, lam = _checked_vectors(m, w, lambda_, delta, mm)
    degree = delta - 2 * mm
    cap = degree + 1
    notes = []
    entries = list(leveled_entries(m, lam, delta, notes))
    one = FormalSeries.one(m.rank, cap)
    qpow = _Powers(quadratic_series(m.form, cap), one)

    def times_q(a, b, i):
        ab = a * b
        # a zero slot builds no Q^i
        return () if ab.is_zero() else (ab * qpow[i]).terms.items()

    coeffs, templates = _slot_coefficients(
        m, w, lam, entries, delta, mm,
        lambda v: _Powers(linear_series(m.form, v, cap), one), times_q)
    return AssembledRhs(m.rank, degree, coeffs, templates, tuple(notes))


def _span_pivots(vectors, n: int) -> list[int]:
    """P, the pivot columns of the span V of `vectors` in Q^n, as
    `LinearSystem` finds them with each vector an equation v.x = 0. The
    projection of V onto the coordinates in P is an isomorphism, since the
    reduced echelon basis r_k of V is the unit vector k there."""
    system = LinearSystem(n)
    for v in dict.fromkeys(vectors):
        system.add_equation(v, 0)
    return system.pivots


def _ring_mul(a: dict, b: dict) -> dict:
    """The product of two polynomials in u, {exponents: coefficient}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _assemble_ring_rhs(obs: "Observation") -> Optional[AssembledRhs]:
    """The right-hand side and point value of a basic-class observation in
    Q[u, q] (see the module docstring), or None when it takes the h route:
    its value is explicit, its form is degenerate, or s = n. Raises as
    `assemble_rough_rhs` does."""
    if obs.km is None:
        return None
    m, km = obs.manifold, obs.km
    w, lam = _checked_vectors(m, obs.w, obs.lambda_, obs.delta, obs.m)
    notes = []
    entries = list(leveled_entries(m, lam, obs.delta, notes))
    classes = [k for _, k in km.terms]
    pivots = _span_pivots(
        [lam, *(vec_sub(e.c1, lam) for e, _ in entries), *classes], m.rank)
    s = len(pivots)
    _, b_plus, b_minus = m.form.signature_decomposition()
    if s == m.rank or b_plus + b_minus < m.rank:
        return None
    one = {(0,) * s: 1}

    def powers_of(v):
        # u_k = <r_k, h> for the reduced echelon basis r_k of the span, so
        # <v, h> = sum_k v[P_k] u_k
        line = {tuple(int(t == k) for t in range(s)): v[p]
                for k, p in enumerate(pivots) if v[p]}
        return _Powers(line, one, _ring_mul)

    # times q^i leaves the u-exponents as they are
    coeffs, templates = _slot_coefficients(
        m, w, lam, entries, obs.delta, obs.m, powers_of,
        lambda a, b, i: _ring_mul(a, b).items())
    # 2^m d!/2 sum_r c_r sum_i (q/2)^i/i! <K_r,h>^(d-2i)/(d-2i)!
    d = obs.delta - 2 * obs.m
    scale = point_scale(d, obs.m)
    observed = {}
    for (a, k), sign in zip(km.terms, _signs(m.form, km.w, classes)):
        kpow = powers_of(k)
        for i in range(d // 2 + 1):
            c = scale * sign * a / (2 ** i * factorial(i) * factorial(d - 2 * i))
            for mono, x in kpow[d - 2 * i].items():
                observed[mono] = observed.get(mono, 0) + c * x
    return AssembledRhs(s, d, coeffs, templates, tuple(notes),
                        FormalSeries(s, d + 1, observed))


def _assemble_h_rhs(obs: "Observation") -> AssembledRhs:
    """The right-hand side of `obs` in h, with its value in h."""
    rhs = assemble_rough_rhs(obs.manifold, obs.w, obs.lambda_, obs.delta,
                             obs.m)
    return replace(rhs, observed=obs.observed_lhs)


@dataclass(frozen=True)
class Observation:
    """One observed point value D(h^(delta-2m) x^m): an explicit polynomial
    `lhs` in h, or basic-class data `km` whose point value
    (`invariants.point_evaluate`) is meant, as for `lhs = witten`.
    `observed_lhs` is the value in h either way; for `km` it is built on
    its first read."""

    manifold: ManifoldData
    w: Vector
    lambda_: Vector
    delta: int
    m: int
    lhs: Optional[HomogeneousPolynomial] = None
    provenance: str = "user"
    km: Optional[KMData] = None

    def __post_init__(self):
        object.__setattr__(self, "w", as_vector(self.w))
        object.__setattr__(self, "lambda_", as_vector(self.lambda_))
        if (self.lhs is None) == (self.km is None):
            raise ValueError("an observation needs exactly one of lhs and km")
        degree = self.delta - 2 * self.m
        rank = self.manifold.rank
        sizes = [("w", len(self.w)), ("lambda", len(self.lambda_))]
        if self.lhs is not None:
            sizes.insert(0, ("observed value", self.lhs.num_vars))
        else:
            sizes += [("km w", len(self.km.w))] + [
                ("basic class", len(k)) for _, k in self.km.terms]
        for what, size in sizes:
            if size != rank:
                raise DimensionMismatch(
                    f"{what} has {size} entries, manifold rank is {rank}")
        if self.km is not None:
            check_delta_m(self.delta, self.m)
            return
        # any series homogeneous of this degree whose cap keeps that degree
        _check_degree(sorted(self.lhs.support_degrees()), degree)
        object.__setattr__(self, "lhs", self.lhs.homogeneous_part(degree))

    @cached_property
    def observed_lhs(self) -> HomogeneousPolynomial:
        if self.lhs is not None:
            return self.lhs
        return point_evaluate(self.km, self.manifold.form, self.delta, self.m)


@dataclass(frozen=True)
class FitProblem:
    observations: tuple[Observation, ...]

    def __post_init__(self):
        if not self.observations:
            raise ValueError("a fit problem needs at least one observation")
        dm = {(o.delta, o.m) for o in self.observations}
        if len(dm) != 1:
            raise ValueError(f"observations mix (delta, m) pairs: {sorted(dm)}")

    @property
    def delta(self) -> int:
        return self.observations[0].delta

    @property
    def m(self) -> int:
        return self.observations[0].m


@dataclass
class UniversalFitReport:
    status: str                       # unique | underdetermined | inconsistent
    unknowns: list[Unknown]
    values: dict                      # Unknown -> Fraction (particular solution)
    determined: set
    nullspace_dim: int
    witness: Optional[tuple]          # (observation index, monomial)
    templates: dict                   # Signature -> CoefficientTemplate
    assembled: list[AssembledRhs]
    notes: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return self.status != "inconsistent"

    def to_text(self) -> str:
        lines = [f"status={self.status} nullspace_dim={self.nullspace_dim}"]
        if self.witness is not None:
            obs_idx, mono = self.witness
            label = monomial_label(mono) or "1"
            lines.append(f"witness observation={obs_idx} monomial={label}")
        for note in self.notes:
            lines.append(f"note {note}")
        appearing = set(self.unknowns)
        by_sig = {sig: [u for e in template.entries for u in e.unknowns(sig)]
                  for sig, template in self.templates.items()}
        for sig in sorted(by_sig):
            lines.append("group " + describe_signature(sig))
            for u in by_sig[sig]:
                if u not in appearing:
                    lines.append(f"  {u.label()} = absent (degenerate form)")
                elif self.status == "inconsistent":
                    lines.append(f"  {u.label()} = ?")
                elif u in self.determined:
                    lines.append(f"  {u.label()} = {self.values[u]}")
                else:
                    lines.append(f"  {u.label()} = free")
        lines.extend(self._cross_group_lines(by_sig))
        return "\n".join(lines)

    def _cross_group_lines(self, by_sig) -> list[str]:
        if self.status == "inconsistent" or len(by_sig) < 2:
            return []
        lines = []
        slots: dict[tuple[int, int], list] = {}
        for u in self.unknowns:
            if u in self.determined:
                slots.setdefault((u.i, u.j), []).append(self.values[u])
        for (i, j), vals in sorted(slots.items()):
            if len(vals) < 2:
                continue
            verdict = "equal" if len(set(vals)) == 1 else "differ"
            lines.append(
                f"cross-group i={i} j={j}: {verdict} across {len(vals)} groups")
        return lines


def solve_coefficients(problem: FitProblem) -> UniversalFitReport:
    """Equate assembled right-hand sides to the observed point values,
    coefficient by coefficient, and solve exactly.

    Each observation takes its route (see the module docstring). Equations
    are processed observation by observation with monomials by degree,
    then lex, so the inconsistency witness (observation index, monomial)
    is deterministic. When that witness lies in a Q[u, q] observation k,
    the problem is solved again with observation k alone in h, which names
    an h-monomial of k. Nothing else can change: observations 0..k-1 have
    the same augmented row space on either route, so the solver reaches k
    in the same state, and the final rank does not depend on the route.
    """
    observations = problem.observations
    assembled = [_assemble_ring_rhs(o) or _assemble_h_rhs(o)
                 for o in observations]
    report = _solve(assembled)
    if report.witness is not None:
        k = report.witness[0]
        # the Q[u, q] route writes observation k in s < n variables
        if assembled[k].num_vars < observations[k].manifold.rank:
            assembled[k] = _assemble_h_rhs(observations[k])
            report = _solve(assembled)
    return report


def _solve(assembled) -> UniversalFitReport:
    """One elimination over the equations of every observation, in order;
    the first inconsistent equation is the witness."""
    unknowns: set[Unknown] = set()
    for rhs in assembled:
        unknowns.update(rhs.unknowns())
    order = sorted(unknowns)
    index = {u: k for k, u in enumerate(order)}
    system = LinearSystem(len(order))
    templates: dict[Signature, CoefficientTemplate] = {}
    notes: list[str] = []
    for obs_idx, rhs in enumerate(assembled):
        templates.update(rhs.templates)
        notes.extend(f"observation {obs_idx}: {n}" for n in rhs.notes)
        for mono, linear, value in rhs.equations():
            row = [0] * len(order)
            for unknown, c in linear.items():
                row[index[unknown]] = c
            system.add_equation(row, value, label=(obs_idx, mono))
    sol = system.solve()
    if not sol.consistent:
        return UniversalFitReport(
            status="inconsistent", unknowns=order, values={},
            determined=set(), nullspace_dim=sol.nullspace_dim,
            witness=sol.witness, templates=templates, assembled=assembled,
            notes=tuple(notes))
    values = {u: sol.values[index[u]] for u in order}
    determined = {u for u in order if index[u] in sol.determined}
    return UniversalFitReport(
        status=sol.status, unknowns=order, values=values,
        determined=determined, nullspace_dim=sol.nullspace_dim, witness=None,
        templates=templates, assembled=assembled, notes=tuple(notes))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    residual_zero: tuple[bool, ...]
    findings: tuple[str, ...]


def validate_solution(problem: FitProblem,
                      report: UniversalFitReport) -> ValidationReport:
    """Re-substitute the solution and demand exact equality per
    observation, in the ring its equations were written in, plus the
    degree and i-range discipline of every instantiated template."""
    findings = []
    residuals = []
    for tentry_sig, template in report.templates.items():
        i_max = min(template.ell, template.delta // 2 - template.m)
        for entry in template.entries:
            if entry.i > i_max:
                findings.append(
                    f"template {tentry_sig}: i={entry.i} exceeds {i_max}")
            if entry.degree != template.delta - 2 * template.m - 2 * entry.i:
                findings.append(f"template {tentry_sig}: degree mismatch")
    if not report.consistent:
        return ValidationReport(False, (), tuple(findings + ["inconsistent fit"]))
    for obs_idx, (obs, rhs) in enumerate(
            zip(problem.observations, report.assembled)):
        same = rhs.matches(report.values)
        residuals.append(same)
        if not same:
            findings.append(f"observation {obs_idx}: nonzero residual")
        if rhs.degree != obs.delta - 2 * obs.m:
            findings.append(f"observation {obs_idx}: degree mismatch")
    return ValidationReport(not findings, tuple(residuals), tuple(findings))
