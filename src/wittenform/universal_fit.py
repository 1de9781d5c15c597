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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch, InadmissibleDeltaError
from .invariants import ManifoldData, _sign, check_delta_m
from .lattice import Vector, as_vector, vec_sub
from .linsolve import LinearSystem
from .monopole_levels import delta_admissible, leveled_entries
from .series import (FormalSeries, HomogeneousPolynomial, _check_degree,
                     _pack, first_difference, linear_series, monomial_label,
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
    """Right-hand side of the structure formula, linear in the unknowns.

    coeffs maps each h-monomial (of total degree exactly delta - 2m) to the
    exact-rational linear form in the unknowns multiplying it.
    """

    num_vars: int
    degree: int
    coeffs: dict         # monomial exponents -> {Unknown: Fraction}
    templates: dict      # Signature -> CoefficientTemplate
    notes: tuple[str, ...]

    def unknowns(self) -> list[Unknown]:
        seen = set()
        for linear in self.coeffs.values():
            seen.update(linear)
        return sorted(seen)

    def substitute(self, values) -> HomogeneousPolynomial:
        terms = {}
        for mono, linear in self.coeffs.items():
            total = Fraction(0)
            for unknown, coeff in linear.items():
                total += coeff * values[unknown]
            if total:
                terms[mono] = total
        cap = self.degree + 1
        slices, den = _pack(self.num_vars, cap, terms)
        return HomogeneousPolynomial._make(self.num_vars, cap, slices, 1, den,
                                           degree=self.degree)


class _Powers:
    """x^0, x^1, ... of a series x, each made by one product with x when
    first asked for, and kept."""

    def __init__(self, x: FormalSeries):
        self.x = x
        self.made = [FormalSeries.one(x.num_vars, x.degree_cap)]

    def __getitem__(self, k: int) -> FormalSeries:
        while len(self.made) <= k:
            self.made.append(self.made[-1] * self.x)
        return self.made[k]


def assemble_rough_rhs(m: ManifoldData, w: Sequence[int],
                       lambda_: Sequence[int], delta: int,
                       mm: int) -> AssembledRhs:
    """Assemble sum_s sign(s) SW(s) sum_i p_i(<A,h>,<B,h>) Q^i symbolically.

    Requires the degree admissibility congruence; entries whose level index
    is not a non-negative integer are skipped with a note, matching the
    contribution enumeration.
    """
    w = m.form._check_vector(w)
    lam = m.form._check_vector(lambda_)
    check_delta_m(delta, mm)
    if not delta_admissible(delta, m.form.square(w), m.chi, m.sigma):
        raise InadmissibleDeltaError(
            f"delta={delta} violates the mod-4 congruence for w^2="
            f"{m.form.square(w)}, chi={m.chi}, sigma={m.sigma}")
    degree = delta - 2 * mm
    cap = degree + 1
    coeffs: dict[tuple, dict[Unknown, Fraction]] = {}
    templates: dict[Signature, CoefficientTemplate] = {}
    notes = []
    qpow = _Powers(quadratic_series(m.form, cap))
    bpow = _Powers(linear_series(m.form, lam, cap))
    lam_sq = m.form.square(lam)
    for entry, ell in leveled_entries(m, lam, delta, notes):
        sig: Signature = (m.chi, m.sigma, m.form.square(entry.c1), lam_sq,
                          m.form.pairing(entry.c1, lam), delta, mm, ell)
        template = build_template(delta, mm, ell)
        templates.setdefault(sig, template)
        factor = Fraction(_sign(m.form, w, entry.c1) * entry.sw)
        apow = _Powers(linear_series(m.form, vec_sub(entry.c1, lam), cap))
        for tentry in template.entries:
            for j, unknown in enumerate(tentry.unknowns(sig)):
                ab = apow[j] * bpow[tentry.degree - j]
                if ab.is_zero():
                    continue        # the slot is 0: no Q^i is built for it
                poly = ab * qpow[tentry.i]
                for mono, c in poly.terms.items():
                    assert sum(mono) == degree
                    slot = coeffs.setdefault(mono, {})
                    slot[unknown] = slot.get(unknown, Fraction(0)) + factor * c
    # prune exact zeros so absent unknowns really are absent
    for mono in list(coeffs):
        linear = {u: c for u, c in coeffs[mono].items() if c != 0}
        if linear:
            coeffs[mono] = linear
        else:
            del coeffs[mono]
    return AssembledRhs(m.rank, degree, coeffs, templates, tuple(notes))


@dataclass(frozen=True)
class Observation:
    manifold: ManifoldData
    w: Vector
    lambda_: Vector
    delta: int
    m: int
    observed_lhs: HomogeneousPolynomial
    provenance: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "w", as_vector(self.w))
        object.__setattr__(self, "lambda_", as_vector(self.lambda_))
        degree = self.delta - 2 * self.m
        lhs = self.observed_lhs
        rank = self.manifold.rank
        for what, size in (("observed value", lhs.num_vars),
                           ("w", len(self.w)), ("lambda", len(self.lambda_))):
            if size != rank:
                raise DimensionMismatch(
                    f"{what} has {size} entries, manifold rank is {rank}")
        # any series homogeneous of this degree whose cap keeps that degree
        _check_degree(sorted(lhs.support_degrees()), degree)
        object.__setattr__(self, "observed_lhs", lhs.homogeneous_part(degree))


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

    Equations are processed observation by observation with monomials in
    lex order, so the inconsistency witness (observation index, monomial)
    is deterministic. A monomial in no unknown has a nonzero observed value,
    so 0 = value is inconsistent: only the first such monomial is fed, and
    only while the system is consistent, as a witness. Such monomials are
    found on the observed value's integers (`FormalSeries.slices`), and
    then only the monomials fed are unpacked to Fractions.
    """
    assembled = [assemble_rough_rhs(o.manifold, o.w, o.lambda_, o.delta, o.m)
                 for o in problem.observations]
    unknowns: set[Unknown] = set()
    for rhs in assembled:
        unknowns.update(rhs.unknowns())
    order = sorted(unknowns)
    index = {u: k for k, u in enumerate(order)}
    system = LinearSystem(len(order))
    templates: dict[Signature, CoefficientTemplate] = {}
    notes: list[str] = []
    for obs_idx, (obs, rhs) in enumerate(zip(problem.observations, assembled)):
        templates.update(rhs.templates)
        notes.extend(f"observation {obs_idx}: {n}" for n in rhs.notes)
        lhs = obs.observed_lhs
        monos = lhs._keys(rhs.coeffs)
        free = min(lhs.slices[lhs.degree].keys() - monos.keys(), default=None)
        if free is not None:
            monos[free] = lhs._exponents(free)
        observed = lhs._fractions((lhs.degree,), monos)
        # ascending packed keys of one degree are its monomials in lex order
        for key in sorted(monos):
            mono = monos[key]
            linear = rhs.coeffs.get(mono, {})
            if not linear and system.inconsistent:
                continue
            row = [0] * len(order)
            for unknown, c in linear.items():
                row[index[unknown]] = c
            system.add_equation(row, observed.get(mono, 0),
                                label=(obs_idx, mono))
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
    """Re-substitute the solution and demand exact equality per observation,
    plus the degree and i-range discipline of every instantiated template."""
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
        substituted = rhs.substitute(report.values)
        same = first_difference(substituted, obs.observed_lhs,
                                substituted.degree_cap) is None
        residuals.append(same)
        if not same:
            findings.append(f"observation {obs_idx}: nonzero residual")
        if substituted.degree != obs.delta - 2 * obs.m:
            findings.append(f"observation {obs_idx}: degree mismatch")
    return ValidationReport(not findings, tuple(residuals), tuple(findings))
