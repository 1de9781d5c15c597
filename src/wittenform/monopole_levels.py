"""Level bookkeeping for the compactified SO(3)-monopole moduli spaces.

Pure arithmetic on the data that survives compactification: the level-l
shift of p1 by 4l, the instanton charge kappa = -p1/4, the degree
admissibility congruence mod 4, the level index attached to a spin-c
class, and the window delta < i(Lambda). None of the geometry is
represented, only its numerical footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import LevelError, NonIntegralError
from .invariants import ManifoldData, SpincEntry, _sign
from .lattice import IntersectionForm, Vector, as_vector, vec_sub


@dataclass(frozen=True)
class SpinuData:
    """Characteristic classes of an SO(3)-monopole background."""

    p1: int
    w2_class: Vector
    c1: Vector

    def __post_init__(self):
        object.__setattr__(self, "w2_class", tuple(int(b) % 2 for b in self.w2_class))
        object.__setattr__(self, "c1", as_vector(self.c1))

    @property
    def kappa(self) -> Fraction:
        """The instanton charge -p1/4."""
        return Fraction(-self.p1, 4)


@dataclass(frozen=True)
class LevelDescriptor:
    ell: int
    spinu_at_level: SpinuData


def uhlenbeck_level(base: SpinuData, ell: int) -> LevelDescriptor:
    """Shift to level ell: p1 grows by 4*ell, w2 and c1 are unchanged."""
    if ell < 0:
        raise ValueError(f"level must be non-negative, got {ell}")
    shifted = SpinuData(base.p1 + 4 * ell, base.w2_class, base.c1)
    return LevelDescriptor(ell, shifted)


def i_lambda(lambda_sq: int, chi: int, sigma: int) -> Fraction:
    """The admissibility bound i(Lambda) = Lambda^2 - (chi + sigma)/4."""
    return Fraction(lambda_sq) - Fraction(chi + sigma, 4)


def delta_admissible(delta: int, w_sq: int, chi: int, sigma: int) -> bool:
    """True iff delta = -w^2 - 3(chi+sigma)/4 mod 4."""
    t = Fraction(3 * (chi + sigma), 4)
    if t.denominator != 1:
        raise NonIntegralError(
            f"3(chi+sigma)/4 = {t} is not an integer; "
            "the mod-4 congruence is meaningless")
    return (delta + w_sq + int(t)) % 4 == 0


def level_index(delta: int, c1s: Sequence[int], lambda_: Sequence[int],
                form: IntersectionForm, chi: int, sigma: int) -> int:
    """The level l = (delta + (c1 - Lambda)^2 + 3(chi+sigma)/4) / 4.

    Returns l only when it is a non-negative integer; otherwise raises
    LevelError with reason "non-integral" (the (delta, s, Lambda)
    combination is inadmissible) or "negative".
    """
    diff = vec_sub(as_vector(c1s), as_vector(lambda_))
    sq = form.square(diff)
    value = Fraction(4 * (delta + sq) + 3 * (chi + sigma), 16)
    if value.denominator != 1:
        raise LevelError("non-integral", value)
    if value < 0:
        raise LevelError("negative", value)
    return int(value)


def leveled_entries(m: ManifoldData, lambda_: Sequence[int], delta: int,
                    notes: list) -> Iterator[tuple[SpincEntry, int]]:
    """(entry, level) for each spin-c entry with nonzero invariant, by c1.

    Entries whose level index is not a non-negative integer are skipped,
    and a note saying why is appended to `notes` as the walk reaches them.
    """
    for entry in sorted(m.spinc, key=lambda e: e.c1):
        if entry.sw == 0:
            continue
        try:
            ell = level_index(delta, entry.c1, lambda_, m.form, m.chi, m.sigma)
        except LevelError as err:
            notes.append(f"c1={','.join(map(str, entry.c1))}: skipped "
                         f"({err.reason} level {err.value})")
            continue
        yield entry, ell


def check_delta_window(delta: int, i_lambda_value: Fraction) -> bool:
    """True iff delta < i(Lambda), strictly."""
    return delta < i_lambda_value


@dataclass(frozen=True)
class Contribution:
    entry: SpincEntry
    ell: int
    sign: int
    i_range_max: int


@dataclass(frozen=True)
class ContributionTable:
    rows: tuple[Contribution, ...]
    notes: tuple[str, ...]


def enumerate_contributions(m: ManifoldData, w: Sequence[int],
                            lambda_: Sequence[int], delta: int, mm: int,
                            ell_max: int) -> ContributionTable:
    """Spin-c strata that can contribute at levels 0..ell_max.

    For each entry with nonzero invariant the level is computed from the
    level-index formula; non-integral or negative levels are skipped with a
    note (they signal inadmissible combinations, not errors), levels above
    ell_max are filtered. Rows are sorted by (level, c1) and carry the sign
    (-1)^((w^2 + w.c1)/2) and i_range_max = min(l, floor(delta/2) - m).
    """
    if mm < 0 or 2 * mm > delta:
        raise ValueError(f"need 0 <= m <= delta/2, got delta={delta}, m={mm}")
    w = m.form._check_vector(w)
    lam = m.form._check_vector(lambda_)
    rows = []
    notes = []
    for entry, ell in leveled_entries(m, lam, delta, notes):
        if ell > ell_max:
            notes.append(f"c1={','.join(map(str, entry.c1))}: level {ell} "
                         f"exceeds ell_max {ell_max}")
            continue
        rows.append(Contribution(
            entry=entry, ell=ell, sign=_sign(m.form, w, entry.c1),
            i_range_max=min(ell, delta // 2 - mm)))
    rows.sort(key=lambda r: (r.ell, r.entry.c1))
    return ContributionTable(tuple(rows), tuple(notes))
