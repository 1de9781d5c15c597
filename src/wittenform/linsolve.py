"""Incremental exact linear solving over the rationals, in integers.

Equations are fed in a fixed order and reduced against a growing
row-reduced echelon basis, so the first inconsistent equation is
well-defined and its label can be reported as a witness. Pivoting is
deterministic (first nonzero coefficient), keeping reports reproducible.

The elimination is fraction-free. Each incoming equation is cleared of
denominators once (times the lcm of its denominators) and reduced with
integer multiply-and-subtract steps; a stored row is a primitive integer
vector with a positive pivot that is zero in every other pivot column,
that is, a row of the reduced row echelon form times a positive integer.
Scaling an equation changes neither whether it is consistent with the
ones before it nor the row space, and the reduced row echelon form of a
row space is unique, so every result equals that of an elimination in
`Fraction`s; values are formed as `Fraction(rhs, pivot)` only in `solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Optional, Sequence


@dataclass
class Solution:
    """Outcome of an exact linear solve.

    status is "unique", "underdetermined" or "inconsistent". For consistent
    systems `values` holds a particular solution (free variables set to 0)
    and `determined` flags the variables whose value is the same in every
    solution.
    """

    status: str
    values: dict[int, Fraction] = field(default_factory=dict)
    determined: set[int] = field(default_factory=set)
    nullspace_dim: int = 0
    witness: Optional[Hashable] = None

    @property
    def consistent(self) -> bool:
        return self.status != "inconsistent"


def _primitive(row: list[int], lead: int) -> list[int]:
    """row divided by the gcd of its entries, signed so row[lead] > 0."""
    g = gcd(*row)
    if row[lead] < 0:
        g = -g
    return row if g == 1 else [a // g for a in row]


class LinearSystem:
    """Rational linear system built one labeled equation at a time."""

    def __init__(self, num_unknowns: int):
        self.n = num_unknowns
        # primitive integer rows, length n + 1 (rhs last), in reduced row
        # echelon form up to a positive scale: row[pivot] > 0 is the only
        # nonzero entry of the row in any pivot column
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.inconsistent = False
        # the label of the first inconsistent equation, which may be None
        self.witness: Optional[Hashable] = None

    def add_equation(self, coeffs: Sequence[Fraction], rhs, label=None) -> str:
        """Reduce one equation into the system.

        Returns "added", "redundant" or "inconsistent"; the first
        inconsistent label is kept as the witness. Every equation goes
        through the same elimination; at full column rank it can only
        reduce to 0 = 0 (redundant) or to 0 = s != 0 (inconsistent).
        """
        if len(coeffs) != self.n:
            raise ValueError("coefficient vector has wrong length")
        row = [c if isinstance(c, (int, Fraction)) else Fraction(c)
               for c in (*coeffs, rhs)]
        den = lcm(*[c.denominator for c in row])
        row = [c.numerator * (den // c.denominator) for c in row]
        for piv, existing in zip(self.pivots, self.rows):
            c = row[piv]
            if c:
                s = existing[piv]
                g = gcd(s, c)
                s //= g
                c //= g
                row = [s * a - c * b for a, b in zip(row, existing)]
        lead = next((i for i in range(self.n) if row[i]), None)
        if lead is None:
            if not row[self.n]:
                return "redundant"
            if not self.inconsistent:
                self.inconsistent, self.witness = True, label
            return "inconsistent"
        row = _primitive(row, lead)
        p = row[lead]
        for idx, existing in enumerate(self.rows):
            c = existing[lead]
            if c:
                g = gcd(p, c)
                existing = [(p // g) * a - (c // g) * b
                            for a, b in zip(existing, row)]
                self.rows[idx] = _primitive(existing, self.pivots[idx])
        self.rows.append(row)
        self.pivots.append(lead)
        return "added"

    def solve(self) -> Solution:
        if self.inconsistent:
            return Solution(status="inconsistent", witness=self.witness,
                            nullspace_dim=self.n - len(self.pivots))
        rank = len(self.pivots)
        free = [i for i in range(self.n) if i not in set(self.pivots)]
        values = {i: Fraction(0) for i in free}
        determined = set()
        for piv, row in zip(self.pivots, self.rows):
            values[piv] = Fraction(row[self.n], row[piv])
            if all(row[f] == 0 for f in free):
                determined.add(piv)
        status = "unique" if rank == self.n else "underdetermined"
        if status == "unique":
            determined = set(range(self.n))
        return Solution(status=status, values=values, determined=determined,
                        nullspace_dim=self.n - rank)
