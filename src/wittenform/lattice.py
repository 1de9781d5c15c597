"""Exact arithmetic on integral unimodular intersection lattices.

Vectors are plain tuples of Python ints in the coordinates of the form's
basis. A form keeps its Gram as sparse rows, each row's nonzero (j, G_ij),
the one Gram format of every helper; everything that reads the Gram when
a form is built or paired reads those: the symmetry check, the split into
orthogonal blocks, the signature check, G.v and u.G.v. So a form like E(n)
= (2n-1)H + n(-E8), almost all zeros, costs its nonzero entries there,
not rank^2. A sublattice's induced form is an `IntersectionForm` too.
All arithmetic is exact and in ints; signatures and determinants are
computed by fraction-free (Bareiss) elimination, once per distinct
orthogonal block of the Gram (copies of one block share the result),
orthogonal complements by integer row reduction, and searches for vectors
of prescribed square or hyperbolic pairs by bounded exhaustive
enumeration. The box order on supports of size >= 2 lives in one
generator (`_assignments`), which both `bounded_vectors` (the vectors)
and `_scored_pieces` (what the walk scores) read. One walk of the box
(`find_witnesses`) answers both search questions, each with its own
stopping point; `find_vector_with_square` and `find_hyperbolic_pair` ask
it one question each, and budgets count draws only. The walk goes piece
by piece, all size-1 vectors at one m being one piece: where only the
last two entries vary, the square is a quadratic in the entry of the
longer pool, solved once per value of the shorter one for the squares it
seeks. The pair is not searched for: an isotropic e lies in a copy of H
exactly when gcd(G e) == 1 and e is not characteristic (G e != diag(G)
mod 2), and then it has a partner f with f.f == 0 and e.f == 1, built in
exact integers (`_partner`). So the pair question answers at the first
isotropic draw that passes this O(rank) test, and its f may lie outside
the box. The walk places its own hits; at its end it pulls the
candidates it passed from `bounded_vectors` in one `islice`, so that a
count on `bounded_vectors` sees every one of them. Each piece of
`bounded_vectors` is an `itertools.product` of placed pools, so that
pull, which drops every vector, reuses one tuple and costs about what
building the pieces costs.

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
import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter, mul
from typing import Iterator, Optional, Sequence

from .errors import DimensionMismatch, UnimodularityError

Vector = tuple[int, ...]


def as_vector(coords: Sequence[int]) -> Vector:
    return tuple(map(int, coords))


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def mod2_reduce(u: Sequence[int]) -> Vector:
    return tuple(a % 2 for a in u)


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


def _sparse(gram: Sequence[Sequence[int]]) -> tuple[tuple, ...]:
    """`gram`, dense rows of numbers, as sparse rows: row i holds the
    (j, G_ij) with G_ij != 0, j ascending, each made an int (only its
    nonzero places, found by `compress`, cost a call of int). Only
    `IntersectionForm` converts a Gram; every helper takes sparse rows."""
    indices = range(len(gram))
    return tuple([tuple([(j, g) for j in itertools.compress(indices, row)
                         if (g := int(row[j]))]) for row in gram])


class IntersectionForm:
    """Integral unimodular symmetric bilinear form given by its Gram matrix.

    Unimodularity (det = +-1) is enforced at construction; intersection
    forms of closed oriented 4-manifolds are unimodular, so anything else
    is a data-entry error. Series-level experiments on non-unimodular
    lattices can opt out with require_unimodular=False; manifold data
    never does.

    The form keeps its Gram as sparse rows (`sparse_rows`, the nonzero
    (j, G_ij) of each row), built once with its orthogonal `blocks`; the
    symmetry check, the split, the signature check, pairings, G.k and the
    kernel's step tables read them, so they cost the nonzero entries, not
    rank^2. The signature check eliminates each distinct block once (K3 =
    3H + 2(-E8) runs two eliminations, not five). `gram`, the dense Gram
    as a tuple of int tuples, is built from the sparse rows on its first
    read.
    """

    def __init__(self, gram: Sequence[Sequence[int]], *,
                 require_unimodular: bool = True):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise UnimodularityError("Gram matrix is not square")
        rows = _sparse(gram)
        # symmetric iff each sparse row equals the sparse column
        cols = [[] for _ in rows]
        for i, row in enumerate(rows):
            for j, g in row:
                cols[j].append((i, g))
        if tuple(map(tuple, cols)) != rows:
            # the first (i, j), i < j in row order, with G_ij != G_ji
            i, j = min((i, j) for i, (row, col) in enumerate(zip(rows, cols))
                       for j, _ in set(row) ^ set(col) if j > i)
            raise UnimodularityError(
                f"Gram matrix is not symmetric at ({i},{j})")
        self.sparse_rows = rows
        # split once: the signature check and every Gaussian sum on the
        # form read these blocks
        self.blocks = gram_components(rows)
        self._signature = None
        if require_unimodular:
            det, self._signature = _diagonalize(rows, self.blocks)
            if det != 1 and det != -1:
                raise UnimodularityError(f"Gram determinant is {det}, not +-1")

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix, a tuple of int tuples."""
        n = self.rank
        dense = []
        for row in self.sparse_rows:
            out = [0] * n
            for j, g in row:
                out[j] = g
            dense.append(tuple(out))
        return tuple(dense)

    @cached_property
    def _diagonal(self) -> tuple[int, ...]:
        """(G_00, G_11, ...), which `is_characteristic` reads."""
        return tuple(map(dict.get, map(dict, self.sparse_rows),
                         range(self.rank), itertools.repeat(0)))

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    def __eq__(self, other):
        return (isinstance(other, IntersectionForm)
                and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash(self.sparse_rows)

    def __repr__(self):
        return f"IntersectionForm(rank={self.rank})"

    def _check_vector(self, v: Sequence[int]) -> Vector:
        v = as_vector(v)
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"vector of length {len(v)} in a rank-{self.rank} lattice")
        return v

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        return _gram_pairing(self.sparse_rows, self._check_vector(u),
                             self._check_vector(v))

    def square(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    def dual_coefficients(self, k: Sequence[int]) -> Vector:
        """The row G.k, i.e. the values pairing(k, e_j) on the basis."""
        return _gram_times(self.sparse_rows, self._check_vector(k))

    def is_characteristic(self, k: Sequence[int]) -> bool:
        """True iff pairing(k, x) == pairing(x, x) mod 2 for all basis x."""
        dual = self.dual_coefficients(k)
        return all((d - g) % 2 == 0 for d, g in zip(dual, self._diagonal))

    def signature_decomposition(self) -> tuple[int, int, int]:
        """(sigma, b_plus, b_minus) by fraction-free block-wise elimination."""
        if self._signature is None:
            self._signature = _diagonalize(self.sparse_rows, self.blocks)[1]
        return self._signature


def _gram_times(rows, v) -> Vector:
    """G.v for a symmetric G given by its sparse rows: the sum of the rows
    where v is nonzero."""
    out = [0] * len(rows)
    for i in itertools.compress(range(len(v)), v):
        vi = v[i]
        for j, g in rows[i]:
            out[j] += vi * g
    return tuple(out)


def _gram_pairing(rows, u, v) -> int:
    """u.G.v, G given by its sparse rows, walking only the rows where u is
    nonzero."""
    total = 0
    for i in itertools.compress(range(len(u)), u):
        total += u[i] * sum([g * v[j] for j, g in rows[i]])
    return total


def _diagonalize(rows, blocks) -> tuple[int, tuple[int, int, int]]:
    """(det, (sigma, b_plus, b_minus)) of the Gram given by its sparse rows
    by fraction-free symmetric elimination (`_eliminate`) on each of
    `blocks`, its orthogonal blocks as `gram_components` gives them (a
    form's own `blocks`). A block is keyed by its sparse rows with every
    index shifted by the block's least one: blocks of one key are
    translates with the same Gram, so each distinct block is eliminated
    once and its copies read that (det, b_plus, b_minus). E(n) =
    (2n-1)H + n(-E8) runs two eliminations."""
    done = {}       # shifted sparse rows of a block -> (det, pos, neg)
    det = 1
    pos = neg = 0
    for block in blocks:
        start = block[0]
        key = tuple([tuple([(j - start, g) for j, g in rows[i]])
                     for i in block])
        found = done.get(key)
        if found is None:
            found = done[key] = _eliminate(rows, block)
        det *= found[0]
        pos += found[1]
        neg += found[2]
    return det, (pos - neg, pos, neg)


def _eliminate(rows, block) -> tuple[int, int, int]:
    """(det, b_plus, b_minus) of the Gram on `block`, G's entries among
    the block's indices (from its sparse rows `rows`), by fraction-free
    symmetric (Bareiss) elimination.
    After pivot piv, each entry below and right of it is
    (piv a[j][c] - a[i][j] a[i][c]) / prev, a bordered minor of the pivots
    so far, so the division by the previous pivot is exact and every entry
    stays an int. The rational pivot is piv / prev, so its sign compares
    piv's with prev's, and the last pivot is the determinant. A zero
    pivot is swapped with a later nonzero diagonal entry, or else gets a
    partner row and column added to it (a[i][i] becomes 2 a[i][off]); an
    index orthogonal to the rest is skipped, leaves prev as it is, and
    makes the det 0. Every step is a congruence P^T A P with det P = +-1,
    so neither the det nor the signature changes."""
    n = len(block)
    place = dict(zip(block, range(n)))
    a = [[0] * n for _ in range(n)]
    for ai, i in zip(a, block):
        for j, g in rows[i]:
            ai[place[j]] = g
    singular = False
    prev = 1
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0),
                           None)
                if off is None:
                    singular = True
                    continue  # cannot occur for unimodular forms
                # congruence: add row/col `off` into i, making
                # a[i][i] = 2*a[i][off]; only row i is read from here on
                ri, ro = a[i], a[off]
                for c in range(i, n):
                    ri[c] += ro[c]
                ri[i] += ri[off]
        ri = a[i]
        piv = ri[i]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        tail = ri[i + 1:]
        for j in range(i + 1, n):
            rj, f = a[j], ri[j]
            if f:
                rj[i + 1:] = [(piv * x - f * y) // prev
                              for x, y in zip(rj[i + 1:], tail)]
            elif piv != prev:  # a row the pivot row misses only scales
                rj[i + 1:] = [piv * x // prev for x in rj[i + 1:]]
        prev = piv
    return (0 if singular else prev), pos, neg


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
        for i, row in enumerate(f.sparse_rows, offset):
            for j, g in row:
                gram[i][offset + j] = g
        offset += f.rank
    return IntersectionForm(gram)


def gram_components(rows) -> list[list[int]]:
    """The connected components of the Gram graph (i ~ j when G_ij != 0,
    i != j), each as its ascending basis indices, in order of their least
    index: the finest split of the basis into mutually orthogonal blocks,
    so the form is the direct sum of the blocks' Gram matrices. An index
    that pairs with no other is a block of its own. The walk reads the
    Gram's sparse rows `rows`."""
    seen = [False] * len(rows)
    blocks = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        # the block grows while it is walked: each index's row is read once
        for i in block:
            for j, _ in rows[i]:
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
        block.sort()
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# integer kernels and orthogonal complements

def integer_kernel(rows: Sequence[Sequence[int]], width: int) -> list[Vector]:
    """Basis of the lattice {x in Z^width : r . x == 0 for all r in rows}.

    The rows of `_row_reduced` whose left block vanishes carry a kernel
    basis. The kernel of an integer matrix is saturated, so the basis is
    primitive as returned.
    """
    work, pivot = _row_reduced(rows, width)
    return [tuple(row[len(rows):]) for row in work[pivot:]]


def _row_reduced(rows: Sequence[Sequence[int]],
                 width: int) -> tuple[list[list[int]], int]:
    """[A^T | I], A the matrix of `rows`, row-reduced with unimodular
    integer row operations, and the number of its pivot rows. Each row is
    [A x | x] for its own x; the rows past the pivots have A x == 0. For
    one row r of gcd 1, the pivot row is [+-1 | x] with r . x == +-1."""
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
    return work, pivot


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
        return self.form.gram

    @cached_property
    def form(self) -> IntersectionForm:
        """The induced form on the basis, built once per sublattice; it
        need not be unimodular, and it caches its own signature. Row j
        sums, over b_j's nonzero entries k only, b_jk times the column
        ((G b_0)_k, (G b_1)_k, ...) of the duals, so a basis of unit
        vectors costs one column per row, not rank^2 products."""
        rows = self.parent.sparse_rows
        cols = list(zip(*[_gram_times(rows, b) for b in self.basis]))
        zero = [0] * self.rank
        gram = []
        for b in self.basis:
            terms = [cols[k] if b[k] == 1 else [b[k] * x for x in cols[k]]
                     for k in itertools.compress(range(len(b)), b)]
            gram.append(list(map(sum, zip(zero, *terms))))
        return IntersectionForm(gram, require_unimodular=False)

    @cached_property
    def _definite_sign(self) -> int:
        """1 or -1 if the induced form is positive or negative definite,
        else 0. A definite form has diagonal entries of one strict sign,
        which settles most indefinite forms without diagonalizing; a
        degenerate form is never definite."""
        diagonal = self.form._diagonal
        if all(g > 0 for g in diagonal):
            sign = 1
        elif all(g < 0 for g in diagonal):
            sign = -1
        else:
            return 0
        _, pos, neg = self.form.signature_decomposition()
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
    """An iterator (not a generator) over all nonzero integer vectors with
    |coords| <= bound, sparse-first.

    Ordered by support size, then top magnitude m = max |coord|, then
    support position in `combinations` order, then assignment in `product`
    order over vals = [1, -1, 2, -2, ..., m, -m]; every vector in the box
    appears exactly once. The ordering front-loads the sparse small vectors
    so structured lattices (hyperbolic summands and the like) are hit long
    before the box is exhausted.

    The order falls into pieces, each built when the chain reaches it:
    on a support of size 1 the vectors +-m e_j, and on a larger one, for
    each assignment of its outer entries (all but its last two), the last
    two entries over one pool pair (X, Y) in `product` order. The order
    of m, supports, outer assignments and pool pairs is stated once, in
    `_assignments`: the pairs are vals x vals if the outer entries hold
    +-m, else low x (m, -m) then (m, -m) x vals, low being vals without
    +-m. Only vectors holding an entry +-m are built, so the cost is
    proportional to the vectors yielded. Each piece (`_pieces`) is an
    `itertools.product` of placed pools: (0,) off the support, (outer_k,)
    on each outer place and X, Y on the last two, so `product` builds
    each vector whole, in C. A consumer that drops each vector before the
    next (an `islice` that skips them) gets one reused tuple; one that
    keeps them gets a fresh tuple each, since `product` reuses its tuple
    only when nothing else refers to it. The search walk
    (`find_witnesses`) scores the same pieces (`_scored_pieces`) and
    pulls from here once, at its end, only so that a count on this
    iterator sees every candidate the walk passed.
    """
    return itertools.chain.from_iterable(_pieces(rank, bound))


def _pieces(rank: int, bound: int) -> Iterator[Iterator[Vector]]:
    """The pieces of `bounded_vectors`, in its order: one per size-1
    support and m, and one per pool pair (X, Y) of each outer assignment
    of `_assignments`, each the `itertools.product` of the pools its
    support's placer places: ((0,), tops) on a size-1 support, and on a
    larger one ((0,), (outer_1,), ..., X, Y), the fixed pools built once
    per assignment."""
    singles = [_placer(rank, (j,)) for j in range(rank)]
    for m in range(1, bound + 1):
        tops = (m, -m)
        for place in singles:
            yield itertools.product(*place(((0,), tops)))
    for place, outer, pools in _assignments(rank, bound,
                                            partial(_placer, rank)):
        fixed = ((0,), *zip(outer))     # ((0,), (outer_1,), ...)
        for xs, ys in pools:
            yield itertools.product(*place((*fixed, xs, ys)))


def _assignments(rank: int, bound: int, prepare) -> Iterator[tuple]:
    """The box order of `bounded_vectors` on supports of size >= 2, the
    one place it is stated: by support size, then m, then support in
    `combinations` order, then assignment `outer` of the support's outer
    entries (all but its last two) in `product` order over vals =
    (1, -1, ..., m, -m), then the pool pairs (X, Y) of the last two
    entries, each in `product` order.

    One item per outer assignment: (prepare(support), outer, pools), the
    pools ((vals, vals),) if outer holds +-m, else ((low, tops), (tops,
    vals)), with tops = (m, -m) and low = vals without +-m, so each vector
    holding +-m comes once (at m = 1 low is empty and its pair left out).
    Each support is prepared once, in the m = 1 pass, so a support the
    caller never reaches costs nothing."""
    for size in range(2, rank + 1):
        vals: tuple[int, ...] = ()
        prepared: list = []
        for m in range(1, bound + 1):
            tops = (m, -m)
            low, vals = vals, vals + tops
            held = ((vals, vals),)
            split = ((low, tops), (tops, vals)) if low else ((tops, vals),)
            for support in (prepared if m > 1 else _building(
                    map(prepare, itertools.combinations(range(rank), size)),
                    prepared)):
                for outer in itertools.product(vals, repeat=size - 2):
                    yield (support, outer,
                           held if m in outer or -m in outer else split)


def _building(items: Iterator, built: list) -> Iterator:
    """`items`, each appended to `built` as it is yielded."""
    for item in items:
        built.append(item)
        yield item


def _placer(rank: int, support: tuple) -> itemgetter:
    """The itemgetter that places a sequence (x_0, x_1, ..., x_size) on
    `support`: coordinate support[k] reads x_(k+1) and every other
    coordinate x_0. The walk's hits place assignments (0, a_1, ...,
    a_size), `_pieces` pools ((0,), ...). An itemgetter of one index
    returns the item, not a 1-tuple, hence the slice when rank == 1."""
    idx = [0] * rank
    for slot, pos in enumerate(support, 1):
        idx[pos] = slot
    return itemgetter(*idx) if rank > 1 else itemgetter(slice(1, None))


def _support(gram, support: tuple) -> tuple:
    """What the pieces on `support` (of size >= 2) read of the Gram:
    (place, G_ii, G_jj, 2 G_ij, the column G_pi and the column G_pj over
    the outer places p, the outer places' block), i and j being the last
    two places of the support."""
    *outside, i, j = support
    return (_placer(len(gram), support), gram[i][i], gram[j][j],
            2 * gram[i][j], [gram[p][i] for p in outside],
            [gram[p][j] for p in outside],
            [[gram[p][r] for r in outside] for p in outside])


def _scored_pieces(gram, bound: int) -> Iterator[tuple]:
    """The pieces of `bounded_vectors(len(gram), bound)`, in its order,
    as the walk (`find_witnesses`) reads them: (count, hits, args), with
    `count` the piece's candidates and hits(*args, goals) the list of
    (k, square, vector) over its vectors whose square is one of `goals`,
    k counted from 1 in piece order. The size-1 vectors at one m are one
    piece, the band (`_band_hits`); a larger support has the pieces
    `_pieces` builds from `_assignments`, one per pool pair (X, Y) of an
    outer assignment o (`_piece_hits`). The square of o + x e_i + y e_j,
    i and j the support's last two places, is c0 + ci x + G_ii x^2 +
    lin0 y + G_jj y^2 + 2 G_ij x y, with c0 = o.G.o, ci = 2 (G o)_i and
    lin0 = 2 (G o)_j summed once per assignment."""
    n = len(gram)
    diag = [gram[j][j] for j in range(n)]
    singles = [_placer(n, (j,)) for j in range(n)]
    for m in range(1, bound + 1):
        yield 2 * n, _band_hits, (m, diag, singles)
    for support, outer, pools in _assignments(n, bound,
                                              partial(_support, gram)):
        place, gii, gjj, gij2, col_i, col_j, block = support
        head = (0, *outer)
        c0 = sum(map(mul, outer, [sum(map(mul, row, outer))
                                  for row in block]))
        ci = 2 * sum(map(mul, outer, col_i))
        lin0 = 2 * sum(map(mul, outer, col_j))
        for xs, ys in pools:
            yield len(xs) * len(ys), _piece_hits, (
                place, gii, gjj, gij2, c0, ci, lin0, head, xs, ys)


def _band_hits(m: int, diag, singles, goals: Sequence[int]) -> list[tuple]:
    """The hits of the band at m: the vectors m e_j, -m e_j in order of
    j, of square G_jj m^2."""
    return [(2 * j + k, g * m * m, place((0, b)))
            for j, (g, place) in enumerate(zip(diag, singles))
            if g * m * m in goals for k, b in ((1, m), (2, -m))]


def _piece_hits(place, gii, gjj, gij2, c0, ci, lin0, head, xs, ys,
                goals: Sequence[int]) -> list[tuple]:
    """The hits of the piece o + x e_i + y e_j, (x, y) over xs x ys in
    `product` order, o = head[1:]. At each value of the shorter pool (ys
    on a tie) the square is a quadratic in the other entry, whose pool
    `_assignments` makes the interval 1, -1, ..., k, -k (v at place
    2|v| - 1 if v > 0, 2|v| if v < 0); `_integer_roots` solves it."""
    width = len(ys)
    if len(xs) >= width:    # x at each y
        found = [((2 * abs(x) - 1 - (x > 0)) * width + k, x, y)
                 for k, y in enumerate(ys, 1)
                 for x in _integer_roots(
                     ((gii, ci + gij2 * y, c0 + y * (lin0 + gjj * y)),),
                     goals, len(xs) // 2)]
    else:                   # y at each x
        found = [(k * width + 2 * abs(y) - (y > 0), x, y)
                 for k, x in enumerate(xs)
                 for y in _integer_roots(
                     ((gjj, lin0 + gij2 * x, c0 + x * (ci + gii * x)),),
                     goals, width // 2)]
    return [(k, c0 + x * (ci + gii * x) + y * (lin0 + gjj * y + gij2 * x),
             place((*head, x, y))) for k, x, y in sorted(found)]


def _integer_roots(quads, goals: Sequence[int], lim: int) -> set[int]:
    """The integers x with 0 < |x| <= lim at which one of the quadratics
    a x^2 + b x + c, (a, b, c) in `quads`, is one of `goals`: by the
    integer square root of the discriminant, linearly when a == 0, and
    every such x when a == b == 0 and c is a goal."""
    roots = set()
    for a, b, c in quads:
        for goal in goals:
            rest = c - goal
            if a == 0:
                if b == 0:
                    if rest == 0:
                        return {x for x in range(-lim, lim + 1) if x}
                elif rest % b == 0:
                    roots.add(-rest // b)
                continue
            disc = b * b - 4 * a * rest
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for s in (root - b, -root - b):
                if s % (2 * a) == 0:
                    roots.add(s // (2 * a))
    if roots:
        roots = {x for x in roots if x and -lim <= x <= lim}
    return roots


def _check_search(bound: int, budget: Optional[int]) -> None:
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")


def find_vector_with_square(sub: Sublattice, target: int, bound: int = 20,
                            budget: Optional[int] = None) -> Optional[Vector]:
    """First vector in `sub` (parent coordinates) of prescribed self-pairing.

    Exhaustive over sublattice coordinates in [-bound, bound] when budget is
    None. This is `find_witnesses` asked the square question alone; its
    docstring says when None comes at once and what None means.
    """
    return find_witnesses(sub, bound, budget, target=target)[0]


def find_hyperbolic_pair(sub: Sublattice, bound: int = 20,
                         budget: Optional[int] = None
                         ) -> Optional[tuple[Vector, Vector]]:
    """Search `sub` for e, f with e.e == f.f == 0 and e.f == 1.

    e is the first isotropic vector in enumeration order that lies in a
    copy of H, and f is built from it (`_partner`), not searched for, so
    f may lie outside the box. Soundness of any returned pair is asserted.
    This is `find_witnesses` asked the pair question alone; its docstring
    says when None comes at once and what None means.
    """
    return find_witnesses(sub, bound, budget, pair=True)[1]


def find_witnesses(sub: Sublattice, bound: int = 20,
                   budget: Optional[int] = None, target: Optional[int] = None,
                   pair: bool = False
                   ) -> tuple[Optional[Vector], Optional[tuple[Vector, Vector]]]:
    """(vector of square `target`, hyperbolic pair) in `sub`, from one walk
    of the box [-bound, bound]^rank in the order of `bounded_vectors`.

    The square question is asked when `target` is not None, the pair
    question when `pair` is true; an unasked question answers None. The
    square question answers at the first draw of square `target`. The
    pair question answers at the first isotropic draw e that lies in a
    copy of H, which `_partner` tests in O(rank) and completes to (e, f);
    f is built, not drawn, and may lie outside the box. Each question
    keeps its own early return from the form and its own stopping point,
    so its answer is the one its search alone (`find_vector_with_square`,
    `find_hyperbolic_pair`) gives. The early returns, with no candidate
    drawn, are the module docstring's; any other None means "not found
    within the bound/budget". Budgets count draws only: a draw costs each
    open question 1, and a question still open at draw budget + 1 answers
    None. The walk ends when every question is answered, so it draws as
    many candidates as the longer of the two searches alone, not their
    sum.

    The walk goes piece by piece through `_scored_pieces`: the band of
    size-1 vectors at each m, then the pieces of the larger supports. A
    piece none of whose vectors has an open question's square (`target`,
    or 0 for the pair question) is passed whole; otherwise its hits,
    which the piece solves for and places, are taken in piece order. When
    the walk ends, it pulls the candidates up to its last answer's draw
    from a temporary `bounded_vectors` iterator in one `islice`; nothing
    reads them, but a count on `bounded_vectors` then sees every
    candidate the walk passed, exactly the candidates a
    candidate-by-candidate walk draws, and the count lands before the
    walk returns.
    """
    _check_search(bound, budget)
    gram = sub.induced_gram()
    sign = sub._definite_sign
    seek_square = target is not None and not (sign and sign * target <= 0)
    seek_pair = pair and not (sign or (sub.rank <= 2
                                       and not _is_hyperbolic_plane(gram)))
    vector = witness = None
    if not (seek_square or seek_pair):
        return vector, witness
    # the draw at which an open question finds its budget spent
    stop = math.inf if budget is None else budget + 1
    form = sub.form
    goals = (target,) * seek_square + (0,) * seek_pair
    drawn = 0   # the candidates the walk has passed
    last = 0    # the draw the last answer came at
    for count, hits, args in _scored_pieces(gram, bound):
        for k, q, v in hits(*args, goals):
            d = drawn + k
            if d >= stop:
                break
            if seek_square and q == target:
                vector = sub.to_parent(v)
                seek_square = False
                goals = (0,) * seek_pair
                last = d
            if seek_pair and q == 0 and (f := _partner(form, v)) is not None:
                witness = sub.to_parent(v), sub.to_parent(f)
                seek_pair = False
                goals = (target,) * seek_square
                last = d
            if not goals:
                break
        if not goals:
            break       # every question is answered
        drawn += count
        if drawn >= stop:
            last = stop     # each open question finds its budget spent
            break
    else:
        last = drawn    # the box is spent
    if last:
        # one pull of the candidates the walk passed, so that a count on
        # bounded_vectors sees each of them; the pulled iterator is a
        # temporary, so a wrapper's count lands before the walk returns
        next(itertools.islice(bounded_vectors(sub.rank, bound), last - 1,
                              None))
    return vector, witness


def _partner(form: IntersectionForm, e: Vector) -> Optional[Vector]:
    """f with f.f == 0 and e.f == 1 in `form` for its isotropic e, or None
    when e lies in no copy of H.

    e lies in a copy of H exactly when gcd(G e) == 1 and some x with
    e.x == 1 has an even square; then f = x - (x.x / 2) e (the splitting
    of H off a primitive isotropic vector; Milnor-Husemoller, Symmetric
    Bilinear Forms, 1973). Such x are x0 + e^perp, which mod 2 are all
    the x with (G e).x == 1, and x.x == diag(G).x mod 2. So the square is
    odd on all of them exactly when G e == diag(G) mod 2, i.e. e is
    characteristic, and the test costs G e, a gcd and a parity: O(rank),
    no kernel. x0 is the pivot row of the one-row reduction of G e
    (`_row_reduced`), size-reduced in exact integers against the basis of
    e^perp that the same reduction gives (x0 -= round(x0 . b / b . b) b
    for each basis vector b in turn, with the Euclidean dot product); if
    its square is odd, the first basis vector of odd square is added, and
    the test guarantees there is one.
    """
    ge = form.dual_coefficients(e)
    if math.gcd(*ge) != 1 or form.is_characteristic(e):
        return None
    (unit, *x), *kernel = _row_reduced([ge], form.rank)[0]
    x = [unit * a for a in x]
    kernel = [row[1:] for row in kernel]
    for b in kernel:
        bb = sum(map(mul, b, b))
        c = (2 * sum(map(mul, x, b)) + bb) // (2 * bb)
        if c:
            x = [a - c * y for a, y in zip(x, b)]
    if form.square(x) % 2:
        x = vec_add(x, next(b for b in kernel if form.square(b) % 2))
    half = form.square(x) // 2
    f = tuple([a - half * y for a, y in zip(x, e)])
    assert form.square(e) == 0
    assert form.square(f) == 0
    assert form.pairing(e, f) == 1
    return f


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
