"""LinearSystem against a batch Gauss-Jordan oracle in Fractions.

The oracle shares no code with `linsolve` and finds the same answers by a
different route. Equation j adds a row exactly when its coefficient vector
is not in the span of the earlier ones, that is, when j is a pivot column
of the reduced row echelon form of the matrix whose columns are the
coefficient vectors in order. Every other equation is consistent exactly
when its augmented row lies in the span of the added equations' augmented
rows. The solution is read off the reduced row echelon form of those rows.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from wittenform.linsolve import LinearSystem


def gauss_jordan(matrix):
    """Reduced row echelon form of a list of Fraction rows, column by
    column; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in matrix]
    width = len(rows[0]) if rows else 0
    pivots = []
    top = 0
    for col in range(width):
        pick = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        lead = rows[top][col]
        rows[top] = [x / lead for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
    return rows[:top], pivots


def oracle(n, equations):
    """(per-equation statuses, status, values, determined, nullspace_dim,
    witness) for equations (coeffs, rhs, label) in n unknowns."""
    coeffs = [[Fraction(c) for c in a] for a, _, _ in equations]
    augmented = [row + [Fraction(b)] for row, (_, b, _) in
                 zip(coeffs, equations)]
    columns = [[row[i] for row in coeffs] for i in range(n)]
    _, added = gauss_jordan(columns) if equations else ([], [])
    basis, pivots = gauss_jordan([augmented[j] for j in added])
    assert all(p < n for p in pivots)   # added rows are consistent
    statuses = []
    first = None        # the first inconsistent equation
    for j, row in enumerate(augmented):
        if j in added:
            statuses.append("added")
            continue
        residual = list(row)
        for p, b in zip(pivots, basis):
            f = residual[p]
            residual = [x - f * y for x, y in zip(residual, b)]
        assert not any(residual[:n])
        if residual[n]:
            statuses.append("inconsistent")
            if first is None:
                first = j
        else:
            statuses.append("redundant")
    nullity = n - len(pivots)
    if first is not None:
        return statuses, "inconsistent", {}, set(), nullity, equations[first][2]
    free = [i for i in range(n) if i not in pivots]
    values = {i: Fraction(0) for i in free}
    determined = set()
    for p, b in zip(pivots, basis):
        values[p] = b[n]
        if not any(b[f] for f in free):
            determined.add(p)
    status = "unique" if nullity == 0 else "underdetermined"
    if status == "unique":
        determined = set(range(n))
    return statuses, status, values, determined, nullity, None


def entry(rng):
    kind = rng.random()
    if kind < 0.55:
        return rng.randint(-3, 3)
    if kind < 0.8:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    if kind < 0.95:
        return rng.randint(-8, 8) / rng.choice((1, 2, 4, 8))
    return rng.uniform(-2, 2)   # a float with a large exact denominator


def random_system(rng):
    n = rng.randint(1, 6)
    equations = []
    for j in range(rng.randint(0, 10)):
        shape = rng.random()
        if equations and shape < 0.4:
            # a combination of earlier equations: dependent coefficients,
            # and a right side that is consistent or perturbed
            picks = rng.sample(equations, min(len(equations), 2))
            mult = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in picks]
            a = [sum((m * Fraction(e[0][i]) for m, e in zip(mult, picks)),
                     Fraction(0)) for i in range(n)]
            b = sum((m * Fraction(e[1]) for m, e in zip(mult, picks)),
                    Fraction(0))
            if rng.random() < 0.08:
                b += rng.choice((1, -1, Fraction(1, 2)))
        elif shape < 0.45:
            a = [0] * n
            b = rng.choice((0, 0, 0, 0, Fraction(-2, 3)))
        else:
            a = [entry(rng) for _ in range(n)]
            b = entry(rng)
        equations.append((a, b, ("eq", j)))
    return n, equations


def run(n, equations):
    system = LinearSystem(n)
    # a label of None is passed as no label at all
    statuses = [system.add_equation(a, b) if label is None
                else system.add_equation(a, b, label=label)
                for a, b, label in equations]
    sol = system.solve()
    return (statuses, sol.status, sol.values, sol.determined,
            sol.nullspace_dim, sol.witness)


def check_seeded_systems(labelled):
    rng = random.Random(4401)
    seen = Counter()
    for _ in range(1200):
        n, equations = random_system(rng)
        if not labelled:
            equations = [(a, b, None) for a, b, _ in equations]
        got = run(n, equations)
        assert got == oracle(n, equations), (n, equations)
        assert all(type(v) is Fraction for v in got[2].values())
        seen[got[1]] += 1
        seen.update(got[0])
    assert min(seen[s] for s in ("added", "redundant", "inconsistent",
                                 "unique", "underdetermined")) >= 100


def test_matches_oracle_on_seeded_systems():
    check_seeded_systems(labelled=True)


def test_matches_oracle_without_labels():
    # an inconsistency is kept even when no equation names it
    check_seeded_systems(labelled=False)
    system = LinearSystem(1)
    assert system.add_equation([1], 1) == "added"
    assert system.add_equation([1], 2) == "inconsistent"
    sol = system.solve()
    assert (sol.status, sol.witness) == ("inconsistent", None)


def test_first_inconsistent_label_is_the_witness():
    system = LinearSystem(2)
    assert system.add_equation([2, 4], 6, label="a") == "added"
    assert system.add_equation([1, 2], 4, label="b") == "inconsistent"
    assert system.add_equation([Fraction(1, 3), Fraction(2, 3)], 0,
                               label="c") == "inconsistent"
    assert system.add_equation([0.5, 1.0], 1.5, label="d") == "redundant"
    assert system.add_equation([0, 1], 5, label="e") == "added"
    sol = system.solve()
    assert (sol.status, sol.witness, sol.nullspace_dim) == (
        "inconsistent", "b", 0)
    assert not sol.consistent


def test_wrong_length_raises():
    system = LinearSystem(3)
    with pytest.raises(ValueError, match="wrong length"):
        system.add_equation([1, 2], 0)
    with pytest.raises(ValueError, match="wrong length"):
        system.add_equation([1, 2, 3, 4], 0)
    assert system.solve().status == "underdetermined"


def test_zero_unknowns():
    system = LinearSystem(0)
    sol = system.solve()
    assert (sol.status, sol.values, sol.determined, sol.nullspace_dim) == (
        "unique", {}, set(), 0)
    assert system.add_equation([], 0, label="z") == "redundant"
    assert system.add_equation([], Fraction(1, 2), label="nz") == "inconsistent"
    sol = system.solve()
    assert (sol.status, sol.witness) == ("inconsistent", "nz")


def full_rank_system(rng):
    """n independent equations with a known solution, then equations that
    are consistent with it or not, with int or Fraction coefficients and
    right sides."""
    n = rng.randint(1, 5)
    x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    while True:
        square = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if len(gauss_jordan([[Fraction(c) for c in row]
                             for row in square])[1]) == n:
            break
    equations = []
    for j, a in enumerate(square + [None] * rng.randint(5, 12)):
        if a is None:
            if rng.random() < 0.5:
                a = [rng.randint(-4, 4) for _ in range(n)]
            else:
                a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)]
        b = sum(Fraction(c) * v for c, v in zip(a, x))
        if j >= n and rng.random() < 0.3:
            b += rng.choice((1, -2, Fraction(1, 3)))
        if b.denominator == 1 and rng.random() < 0.5:
            b = int(b)
        equations.append((a, b, ("eq", j)))
    return n, equations


def test_full_rank_check_matches_oracle():
    rng = random.Random(4402)
    seen = Counter()
    for _ in range(400):
        n, equations = full_rank_system(rng)
        system = LinearSystem(n)
        statuses = [system.add_equation(a, b, label=label)
                    for a, b, label in equations]
        assert statuses[:n] == ["added"] * n
        sol = system.solve()
        got = (statuses, sol.status, sol.values, sol.determined,
               sol.nullspace_dim, sol.witness)
        assert got == oracle(n, equations), (n, equations)
        after = statuses[n:]
        seen.update(after)
        seen.update(type(b).__name__ for _, b, _ in equations[n:])
        seen.update("first" if s == "inconsistent" and sol.witness == lab
                    else "later" for s, (_, _, lab) in
                    zip(after, equations[n:]) if s == "inconsistent")
    assert min(seen[k] for k in ("redundant", "inconsistent", "int",
                                 "Fraction", "first", "later")) >= 50
