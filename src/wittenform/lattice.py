"""Exact arithmetic on integral unimodular intersection lattices.

Vectors are plain tuples of Python ints in the coordinates of the form's
basis. All arithmetic is exact; signatures and determinants are computed
by one rational congruence diagonalization, orthogonal complements by
integer row reduction, and searches for vectors of prescribed square or
hyperbolic pairs by bounded exhaustive enumeration.

A search returns None at once, before drawing a candidate, when the
sublattice's form rules a witness out: a definite form has no nonzero
vector of square 0 or of the other sign, hence no hyperbolic pair, and a
hyperbolic pair spans a unimodular H, so a sublattice of rank at most 2
holds one only if its form is even with determinant -1. Every other None
still means "not found within the bound/budget". `check_theorem_hypotheses`
reports both kinds of None as unknown-bounded: the benchmark oracle
(perfbench/oracles.check_hypotheses) requires that status whenever no
witness is printed, so reporting fail for a proved absence waits for a
change to that oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterator, Optional, Sequence

from .errors import DimensionMismatch, UnimodularityError

Vector = tuple[int, ...]


def as_vector(coords: Sequence[int]) -> Vector:
    return tuple(int(c) for c in coords)


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Sequence[int]) -> Vector:
    return tuple(-a for a in u)


def mod2_reduce(u: Sequence[int]) -> Vector:
    return tuple(a % 2 for a in u)


def zero_vector(rank: int) -> Vector:
    return (0,) * rank


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


class IntersectionForm:
    """Integral unimodular symmetric bilinear form given by its Gram matrix.

    Unimodularity (det = +-1) is enforced at construction; intersection
    forms of closed oriented 4-manifolds are unimodular, so anything else
    is a data-entry error. Series-level experiments on non-unimodular
    lattices can opt out with require_unimodular=False; manifold data
    never does.
    """

    def __init__(self, gram: Sequence[Sequence[int]], basis_labels=None,
                 require_unimodular: bool = True):
        rows = tuple(tuple(int(x) for x in row) for row in gram)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise UnimodularityError("Gram matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise UnimodularityError(
                        f"Gram matrix is not symmetric at ({i},{j})")
        self._signature = None
        if require_unimodular:
            det, self._signature = _diagonalize(rows)
            if det != 1 and det != -1:
                raise UnimodularityError(f"Gram determinant is {det}, not +-1")
        self.gram = rows
        self.basis_labels = tuple(basis_labels) if basis_labels else None

    @property
    def rank(self) -> int:
        return len(self.gram)

    def __eq__(self, other):
        return isinstance(other, IntersectionForm) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"IntersectionForm(rank={self.rank})"

    def _check_vector(self, v: Sequence[int]) -> Vector:
        v = as_vector(v)
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"vector of length {len(v)} in a rank-{self.rank} lattice")
        return v

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        return _gram_pairing(self.gram, self._check_vector(u),
                             self._check_vector(v))

    def square(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    def dual_coefficients(self, k: Sequence[int]) -> Vector:
        """The row G.k, i.e. the values pairing(k, e_j) on the basis."""
        k = self._check_vector(k)
        g = self.gram
        return tuple(sum(g[j][i] * ki for i, ki in enumerate(k)) for j in range(self.rank))

    def is_characteristic(self, k: Sequence[int]) -> bool:
        """True iff pairing(k, x) == pairing(x, x) mod 2 for all basis x."""
        dual = self.dual_coefficients(k)
        return all((dual[j] - self.gram[j][j]) % 2 == 0 for j in range(self.rank))

    def signature_decomposition(self) -> tuple[int, int, int]:
        """(sigma, b_plus, b_minus) by exact rational congruence diagonalization."""
        if self._signature is None:
            self._signature = _diagonalize(self.gram)[1]
        return self._signature


def _gram_pairing(gram, u, v) -> int:
    """u.G.v, walking only the rows where u is nonzero."""
    total = 0
    for i in itertools.compress(range(len(u)), u):
        total += u[i] * sum(map(mul, gram[i], v))
    return total


def _diagonalize(gram) -> tuple[Fraction, tuple[int, int, int]]:
    """(det, (sigma, b_plus, b_minus)) by one rational congruence
    diagonalization. Every step is a congruence P^T A P with det P = +-1,
    so the product of the pivots is the determinant. The matrix stays
    symmetric, and pivot i reads only row i and the block after it, so a
    step updates a[j][c] for c >= j > i where the pivot row is nonzero and
    mirrors each update into a[c][j]."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    det = Fraction(1)
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    det = Fraction(0)
                    continue  # zero block; cannot occur for unimodular forms
                # congruence: add row/col `off` into i, making a[i][i] = 2*a[i][off]
                ri, ro = a[i], a[off]
                for c in range(i, n):
                    ri[c] += ro[c]
                ri[i] += ri[off]
        ri = a[i]
        piv = ri[i]
        det *= piv
        if piv > 0:
            pos += 1
        else:
            neg += 1
        support = [c for c in range(i + 1, n) if ri[c] != 0]
        for k, j in enumerate(support):
            f = ri[j] / piv
            rj = a[j]
            for c in support[k:]:
                rj[c] -= f * ri[c]
                a[c][j] = rj[c]
    return det, (pos - neg, pos, neg)


def congruent_mod2(form: IntersectionForm, w: Sequence[int],
                   lambda_: Sequence[int], w2: Sequence[int]) -> bool:
    """True iff w - lambda_ reduces mod 2 to the bit vector w2 componentwise."""
    w = form._check_vector(w)
    lam = form._check_vector(lambda_)
    if len(w2) != form.rank:
        raise DimensionMismatch("w2 length does not match rank")
    return all((wi - li - bi) % 2 == 0 for wi, li, bi in zip(w, lam, w2))


# ---------------------------------------------------------------------------
# standard building blocks

def diagonal_form(entries: Sequence[int]) -> IntersectionForm:
    n = len(entries)
    return IntersectionForm(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def hyperbolic_plane() -> IntersectionForm:
    return IntersectionForm([[0, 1], [1, 0]])


_E8_EDGES = ((0, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def e8_form(negative: bool = False) -> IntersectionForm:
    """The even unimodular rank-8 definite form (Gram = E8 Cartan matrix)."""
    s = -1 if negative else 1
    gram = [[2 * s if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        gram[i][j] = gram[j][i] = -s
    return IntersectionForm(gram)


def direct_sum(*forms: IntersectionForm) -> IntersectionForm:
    n = sum(f.rank for f in forms)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for f in forms:
        for i in range(f.rank):
            for j in range(f.rank):
                gram[offset + i][offset + j] = f.gram[i][j]
        offset += f.rank
    return IntersectionForm(gram)


# ---------------------------------------------------------------------------
# integer kernels and orthogonal complements

def integer_kernel(rows: Sequence[Sequence[int]], width: int) -> list[Vector]:
    """Basis of the lattice {x in Z^width : r . x == 0 for all r in rows}.

    Row-reduces [A^T | I] with unimodular integer row operations; the rows
    whose left block vanishes carry a kernel basis. The kernel of an integer
    matrix is saturated, so the basis is primitive as returned.
    """
    m = len(rows)
    work = []
    for i in range(width):
        left = [int(rows[j][i]) for j in range(m)]
        right = [0] * width
        right[i] = 1
        work.append(left + right)
    pivot = 0
    for col in range(m):
        if pivot >= width:
            break
        base = next((r for r in range(pivot, width) if work[r][col]), None)
        if base is None:
            continue
        work[pivot], work[base] = work[base], work[pivot]
        for r in range(pivot + 1, width):
            b = work[r][col]
            if b == 0:
                continue
            a = work[pivot][col]
            if b % a == 0:
                q = b // a
                work[r] = [x - q * y for x, y in zip(work[r], work[pivot])]
            else:
                x, y, g = xgcd(a, b)
                pa, pb = a // g, b // g
                prow, rrow = work[pivot], work[r]
                work[pivot] = [x * p + y * q for p, q in zip(prow, rrow)]
                work[r] = [-pb * p + pa * q for p, q in zip(prow, rrow)]
        pivot += 1
    return [tuple(row[m:]) for row in work[pivot:]]


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of an intersection lattice, given by basis vectors in
    parent coordinates."""

    parent: IntersectionForm
    basis: tuple[Vector, ...]

    def __post_init__(self):
        for b in self.basis:
            self.parent._check_vector(b)

    @classmethod
    def full(cls, form: IntersectionForm) -> "Sublattice":
        n = form.rank
        basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(form, basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def induced_gram(self) -> tuple[tuple[int, ...], ...]:
        """The Gram matrix of the basis, computed once per sublattice."""
        return self._gram

    @cached_property
    def _gram(self) -> tuple[tuple[int, ...], ...]:
        duals = [tuple(sum(map(mul, row, b)) for row in self.parent.gram)
                 for b in self.basis]
        return tuple(tuple(sum(map(mul, d, b)) for b in self.basis)
                     for d in duals)

    @cached_property
    def _definite_sign(self) -> int:
        """1 or -1 if the induced form is positive or negative definite,
        else 0. A definite form has diagonal entries of one strict sign,
        which settles most indefinite forms without diagonalizing; a
        degenerate form is never definite."""
        gram = self._gram
        if all(row[i] > 0 for i, row in enumerate(gram)):
            sign = 1
        elif all(row[i] < 0 for i, row in enumerate(gram)):
            sign = -1
        else:
            return 0
        _, (_, pos, neg) = _diagonalize(gram)
        return sign if (pos if sign > 0 else neg) == self.rank else 0

    def to_parent(self, coords: Sequence[int]) -> Vector:
        if len(coords) != self.rank:
            raise DimensionMismatch("coordinate length does not match sublattice rank")
        n = self.parent.rank
        out = [0] * n
        for c, b in zip(coords, self.basis):
            if c:
                for i in range(n):
                    out[i] += c * b[i]
        return tuple(out)


def orthogonal_complement(form: IntersectionForm,
                          spanning_set: Sequence[Sequence[int]]) -> Sublattice:
    """The primitive sublattice of vectors pairing to 0 with every spanning vector."""
    rows = [form.dual_coefficients(b) for b in spanning_set]
    basis = integer_kernel(rows, form.rank)
    return Sublattice(form, tuple(basis))


# ---------------------------------------------------------------------------
# bounded enumeration and searches

def bounded_vectors(rank: int, bound: int) -> Iterator[Vector]:
    """All nonzero integer vectors with |coords| <= bound, sparse-first.

    Ordered by support size, then top magnitude m = max |coord|, then
    support position in `combinations` order, then assignment in `product`
    order over [1, -1, 2, -2, ..., m, -m]; every vector in the box appears
    exactly once. The ordering front-loads the sparse small vectors so
    structured lattices (hyperbolic summands and the like) are hit long
    before the box is exhausted. Only assignments holding an entry +-m are
    built, so the cost is proportional to the vectors yielded.
    """
    if rank == 0 or bound < 1:
        return
    for size in range(1, rank + 1):
        low: list[int] = []   # [1, -1, ..., m-1, -(m-1)]
        vals: list[int] = []  # low + [m, -m]
        for m in range(1, bound + 1):
            vals += (m, -m)
            for support in itertools.combinations(range(rank), size):
                # an assignment is led by a 0 that every off-support
                # coordinate reads; itemgetter of one index returns the
                # item, not a 1-tuple, hence the slice when rank == 1
                idx = [0] * rank
                for slot, pos in enumerate(support, 1):
                    idx[pos] = slot
                place = (itemgetter(*idx) if rank > 1
                         else itemgetter(slice(1, None)))
                yield from map(place, _with_top((0,), size, low, vals, m))
            low += (m, -m)


def _with_top(prefix: tuple, k: int, low: list, vals: list,
              m: int) -> Iterator[tuple]:
    """prefix + t for the length-k tuples t over vals = low + [m, -m] that
    hold an entry +-m, in `product` order."""
    if k == 1:
        yield prefix + (m,)
        yield prefix + (-m,)
        return
    for a in low:
        yield from _with_top(prefix + (a,), k - 1, low, vals, m)
    for a in (m, -m):
        head = prefix + (a,)
        for rest in itertools.product(vals, repeat=k - 1):
            yield head + rest


def find_vector_with_square(sub: Sublattice, target: int, bound: int = 20,
                            allow_zero: bool = False,
                            budget: Optional[int] = None) -> Optional[Vector]:
    """First vector in `sub` (parent coordinates) of prescribed self-pairing.

    Exhaustive over sublattice coordinates in [-bound, bound] when budget is
    None. On a definite sublattice a target of 0 or of the other sign
    returns None at once, with no candidate drawn: there is no such
    vector. Otherwise None means "not found within the bound/budget", not
    a proof of non-existence.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    if target == 0 and allow_zero:
        return zero_vector(sub.parent.rank)
    sign = sub._definite_sign
    if sign and sign * target <= 0:
        return None
    gram = sub.induced_gram()
    remaining = budget
    for v in bounded_vectors(sub.rank, bound):
        if remaining is not None:
            if remaining <= 0:
                return None
            remaining -= 1
        if _gram_pairing(gram, v, v) == target:
            return sub.to_parent(v)
    return None


def find_hyperbolic_pair(sub: Sublattice, bound: int = 20,
                         budget: Optional[int] = None
                         ) -> Optional[tuple[Vector, Vector]]:
    """Search `sub` for e, f with e.e == f.f == 0 and e.f == 1.

    Isotropic vectors are collected in enumeration order and every new one
    is paired against the earlier ones, so small witnesses are found without
    sweeping the whole box. Soundness of any returned pair is asserted.
    Without drawing a candidate, None comes at once on a definite
    sublattice, which has no isotropic vector, and on one of rank at most
    2 unless its form is even with determinant -1: a pair spans a
    unimodular H, and in rank 2 that is the whole lattice. Otherwise None
    means exhausted bound or budget, not non-existence.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    gram = sub.induced_gram()
    if sub._definite_sign or (sub.rank <= 2
                              and not _is_hyperbolic_plane(gram)):
        return None
    isotropic: list[tuple[Vector, Vector]] = []  # (u, G.u)
    remaining = budget

    def spend(n=1):
        nonlocal remaining
        if remaining is None:
            return True
        if remaining < n:
            remaining = 0
            return False
        remaining -= n
        return True

    for v in bounded_vectors(sub.rank, bound):
        if not spend():
            return None
        if _gram_pairing(gram, v, v) != 0:
            continue
        for u, du in isotropic:
            if not spend():
                return None
            p = sum(map(mul, du, v))
            if p == 1 or p == -1:
                e, f = u, (v if p == 1 else vec_neg(v))
                assert _gram_pairing(gram, e, e) == 0
                assert _gram_pairing(gram, f, f) == 0
                assert _gram_pairing(gram, e, f) == 1
                return sub.to_parent(e), sub.to_parent(f)
        isotropic.append((v, tuple(sum(map(mul, row, v)) for row in gram)))
    return None


def _is_hyperbolic_plane(gram) -> bool:
    """True iff the Gram matrix is even of rank 2 with determinant -1, the
    forms isomorphic to H."""
    if len(gram) != 2:
        return False
    (a, b), (_, d) = gram
    return a % 2 == 0 and d % 2 == 0 and a * d - b * b == -1


def characteristic_base(form: IntersectionForm) -> Vector:
    """A 0/1 vector k with pairing(k, x) == x.x mod 2 for all x.

    Solves G k = diag(G) over GF(2); solvable since det G is odd. Every
    characteristic vector is congruent to this one mod 2.
    """
    n = form.rank
    a = [[form.gram[i][j] % 2 for j in range(n)] + [form.gram[i][i] % 2]
         for i in range(n)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(n):
            if r != row and a[r][col]:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    sol = [0] * n
    for r, col in enumerate(pivots):
        sol[col] = a[r][n]
    return tuple(sol)
