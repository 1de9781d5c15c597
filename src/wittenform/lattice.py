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
and `_scored_runs` (the runs) read. One walk of the box
(`find_witnesses`) answers both search questions, each with its own
budget and stopping point; `find_vector_with_square` and
`find_hyperbolic_pair` ask it one question each. The walk goes run by
run: along a run, vectors that differ only in their last nonzero entry
b, the square is a quadratic in b, which the walk solves for the squares
it seeks, and a stretch of two-long runs is solved in one step. An
isotropic draw u is paired with others only if gcd(G u) == 1, since
e.f == 1 needs gcd(G e) == 1; a draw with another gcd is charged to the
budget exactly as before, so answers, draws and budget charges are those
of a walk that pairs every isotropic draw. The walk places its own hits;
at its end it pulls the candidates it passed from `bounded_vectors` in
one `islice`, so that a count on `bounded_vectors` sees every one of
them. Each piece of `bounded_vectors` is an `itertools.product` of
placed pools, so that pull, which drops every vector, reuses one tuple
and costs about what building the pieces costs.

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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import add, itemgetter, mul
from typing import Iterator, Optional, Sequence

from .errors import DimensionMismatch, UnimodularityError

Vector = tuple[int, ...]


def as_vector(coords: Sequence[int]) -> Vector:
    return tuple(map(int, coords))


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Sequence[int]) -> Vector:
    return tuple(-a for a in u)


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

    The order falls into runs, the stretches of vectors that differ only
    in their last nonzero entry: for each prefix in `product(vals,
    repeat=size - 1)` (the support's other entries), the run is prefix +
    (b,), with b over vals if the prefix holds +-m and over (m, -m)
    otherwise. Only vectors holding an entry +-m are built, so the cost is
    proportional to the vectors yielded. The vectors are one
    `itertools.chain` of pieces (`_pieces`), each built when the chain
    reaches it and each an `itertools.product` of placed pools: the
    support's placer puts (0,) on every coordinate off the support,
    (outer_k,) on each outer place and the pools of the last two entries
    on the last two places. Only those two pools hold more than one
    value, so `product` yields the order above, and it builds each
    vector whole, in C. A consumer that drops each vector before the next
    (an `islice` that skips them) gets one reused tuple; one that keeps
    them gets a fresh tuple each, since `product` reuses its tuple only
    when nothing else refers to it. On supports of size >= 2 the order of
    m, supports and outer assignments lives in one generator,
    `_assignments`, which `_scored_runs` reads too; for each outer
    assignment the last two entries run over vals x vals if the outer
    ones hold +-m, else over low x (m, -m) then (m, -m) x vals, low being
    vals without +-m. `find_witnesses` places its own hits and pulls from
    here once, at its end, only so that a count on this iterator sees
    every candidate the walk passed.
    """
    return itertools.chain.from_iterable(_pieces(rank, bound))


def _pieces(rank: int, bound: int) -> Iterator[Iterator[Vector]]:
    """The pieces of `bounded_vectors`, in its order: one per size-1
    support and m, and one or two per outer assignment, each the
    `itertools.product` of the pools its support's placer places: ((0,),
    tops) on a size-1 support, and on a larger one ((0,), (outer_1,), ...,
    X, Y), X and Y the pools of its last two entries."""
    singles = [_placer(rank, (j,)) for j in range(rank)]
    for m in range(1, bound + 1):
        tops = (m, -m)
        for place in singles:
            yield itertools.product(*place(((0,), tops)))
    for m, low, vals, place, outer, holds in _assignments(
            rank, bound, partial(_placer, rank)):
        fixed = tuple(zip((0,) + outer))    # ((0,), (outer_1,), ...)
        if holds:
            yield itertools.product(*place((*fixed, vals, vals)))
        else:
            tops = (m, -m)
            yield itertools.product(*place((*fixed, low, tops)))
            yield itertools.product(*place((*fixed, tops, vals)))


def _assignments(rank: int, bound: int, prepare) -> Iterator[tuple]:
    """The box order of `bounded_vectors` on supports of size >= 2, the
    one place it is stated: by support size, then m, then support in
    `combinations` order, then assignment `outer` of the support's outer
    entries (all but its last two) in `product` order over vals.

    One item per outer assignment: (m, low, vals, prepare(support), outer,
    holds), vals being [1, -1, ..., m, -m], low the same without +-m (both
    lists grow with m, so read them before the next item) and holds
    whether outer holds +-m. Each support is prepared once, in the m = 1
    pass, so a support the caller never reaches costs nothing."""
    for size in range(2, rank + 1):
        low: list[int] = []
        vals: list[int] = []
        prepared: list = []
        for m in range(1, bound + 1):
            vals += (m, -m)
            for support in (prepared if m > 1 else _building(
                    map(prepare, itertools.combinations(range(rank), size)),
                    prepared)):
                for outer in itertools.product(vals, repeat=size - 2):
                    yield (m, low, vals, support, outer,
                           m in outer or -m in outer)
            low += (m, -m)


def _building(items: Iterator, built: list) -> Iterator:
    """`items`, each appended to `built` as it is yielded."""
    for item in items:
        built.append(item)
        yield item


def _placer(rank: int, support: tuple) -> itemgetter:
    """The itemgetter that places a sequence (x_0, x_1, ..., x_size) on
    `support`: coordinate support[k] reads x_(k+1) and every other
    coordinate x_0. The walk places assignments (0, a_1, ..., a_size),
    `_pieces` pools ((0,), ...). An itemgetter of one index returns the
    item, not a 1-tuple, hence the slice when rank == 1."""
    idx = [0] * rank
    for slot, pos in enumerate(support, 1):
        idx[pos] = slot
    return itemgetter(*idx) if rank > 1 else itemgetter(slice(1, None))


def _support(gram, support: tuple) -> tuple:
    """What the runs on `support` (of size >= 2) read of the Gram:
    (place, G_jj, G_ii, 2 G_ij, the column G_pi and the column G_pj over
    the outer places p, the outer places' block), i and j being the last
    two places of the support."""
    *outside, i, j = support
    return (_placer(len(gram), support), gram[j][j], gram[i][i],
            2 * gram[i][j], [gram[p][i] for p in outside],
            [gram[p][j] for p in outside],
            [[gram[p][r] for r in outside] for p in outside])


def _scored_runs(gram, bound: int) -> Iterator[tuple]:
    """The runs of `bounded_vectors(len(gram), bound)`, in its order, with
    stretches of two-long runs gathered into one item each. The order on
    supports of size >= 2 comes from `_assignments`, as the vectors' does,
    and the walk (`find_witnesses`) places its hits from the runs itself.

    A run is (c, lin, g, values, prefix, place): its vectors are
    place(prefix + (b,)) for b in `values`, which is (m, -m) for a short
    run and vals for a long one (a list that grows with m, so read it
    before the next item), and the square of each is c + b (lin + g b),
    with c the square of the prefix, lin twice the prefix's pairing with
    the last support vector e_j, and g = G_jj.

    A stretch is (count, quads, lim, runs): `count` consecutive
    candidates, which are the vectors of the runs in the iterator `runs`
    (read it before the next item), and whose squares are the values of
    the quadratics a x^2 + b x + c, (a, b, c) in `quads`, at the integers
    0 < |x| <= lim. The size-1 runs at one m are one stretch, with the
    constant quadratics G_jj m^2. On a larger support, the short runs of
    an assignment `outer` of the outer entries that holds no +-m are one
    stretch: the last two entries (x, b) run over low x (m, -m), and the
    square is G_ii x^2 + (ci + 2 G_ij b) x + (c0 + lin0 b + G_jj m^2),
    one quadratic in x for each b, with c0 = o.G.o, ci = 2 (G o)_i and
    lin0 = 2 (G o)_j summed once per assignment. The run of each value a
    of the next entry then has c = c0 + a (ci + G_ii a) and
    lin = lin0 + 2 a G_ij."""
    n = len(gram)
    diag = [gram[j][j] for j in range(n)]
    singles = [_placer(n, (j,)) for j in range(n)]
    for m in range(1, bound + 1):
        tops = (m, -m)
        yield (2 * n, {(0, 0, g * m * m) for g in diag}, 1,
               [(0, 0, g, tops, (0,), place)
                for g, place in zip(diag, singles)])
    for m, low, vals, support, outer, holds in _assignments(
            n, bound, partial(_support, gram)):
        place, g, gii, gij2, col_i, col_j, block = support
        head = (0,) + outer
        c0 = sum(map(mul, outer, [sum(map(mul, row, outer))
                                  for row in block]))
        ci = 2 * sum(map(mul, outer, col_i))
        lin0 = 2 * sum(map(mul, outer, col_j))
        if holds:
            for a in vals:
                yield (c0 + a * (ci + gii * a), lin0 + a * gij2, g, vals,
                       head + (a,), place)
            continue
        tops = (m, -m)
        if low:
            gm = g * m * m
            quads = ((gii, ci + gij2 * m, c0 + lin0 * m + gm),
                     (gii, ci - gij2 * m, c0 - lin0 * m + gm))
            yield 2 * len(low), quads, m - 1, _short_runs(
                c0, ci, gii, lin0, gij2, g, low, tops, head, place)
        for a in tops:
            yield (c0 + a * (ci + gii * a), lin0 + a * gij2, g, vals,
                   head + (a,), place)


def _short_runs(c0, ci, gii, lin0, gij2, g, low, tops, head,
                place) -> Iterator[tuple]:
    """The short runs of a stretch of `_scored_runs`, one for each a in
    `low`."""
    for a in low:
        yield (c0 + a * (ci + gii * a), lin0 + a * gij2, g, tops,
               head + (a,), place)


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


def _run_hits(c: int, lin: int, g: int, values: Sequence[int],
              goals: Sequence[int]) -> list[int]:
    """The places, counted from 1, of a run's vectors whose square
    c + b (lin + g b) is one of `goals`, in run order. A short run (m, -m)
    is evaluated at both values. A long one, 1, -1, ..., m, -m, where b
    sits at place 2b - 1 if b > 0 and -2b if b < 0, is solved for each
    goal by `_integer_roots`."""
    if len(values) == 2:
        return [k for k, b in enumerate(values, 1)
                if c + b * (lin + g * b) in goals]
    return sorted(2 * b - 1 if b > 0 else -2 * b
                  for b in _integer_roots(((g, lin, c),), goals,
                                          values[-2]))


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

    Isotropic vectors are collected in enumeration order and every new one
    is paired against the earlier ones, so small witnesses are found without
    sweeping the whole box. Soundness of any returned pair is asserted.
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
    question when `pair` is true; an unasked question answers None. Each
    question keeps its own budget, its own early return from the form and
    its own stopping point, so its answer is the one its search alone
    (`find_vector_with_square`, `find_hyperbolic_pair`) gives. The early
    returns, with no candidate drawn, are the module docstring's; any
    other None means "not found within the bound/budget". A draw costs
    each open question 1, and a pairing of an isotropic draw against an
    earlier one costs the pair question 1 more; a question whose budget is
    spent when it is charged answers None. The walk ends when every
    question is answered, so it draws as many candidates as the longer of
    the two searches alone, not their sum.

    The walk goes item by item through `_scored_runs`, a run or a
    stretch of short runs at a time. A stretch none of whose quadratics
    takes an open question's square (`target`, or 0 for the pair
    question) at an integer in its range is charged to each open question
    as a whole; a stretch with such a hit is walked run by run. Likewise
    a run none of whose vectors has such a square (`_run_hits`) is
    charged as a whole. The walk places each hit itself, as
    place(prefix + (b,)) from its run. When it ends, it pulls the
    candidates up to its last answer's draw from a temporary
    `bounded_vectors` iterator in one `islice`; nothing reads them, but a
    count on `bounded_vectors` then sees every candidate the walk passed,
    exactly the candidates a candidate-by-candidate walk draws, and the
    count lands before the walk returns.
    The pair question pairs only isotropic draws u with gcd(G u) == 1:
    u.w is a multiple of gcd(G u), so e.f == 1 needs gcd 1. A draw with
    another gcd (G u == 0 included) is neither paired nor kept, but it is
    charged exactly as before (the pairings its budget allows, and a place
    among the earlier draws of every later one), so budget charges and
    answers are those of a walk that pairs every isotropic draw. For each
    kept draw the walk holds its place among all isotropic draws and, for
    each coordinate j, (G u)_j in column j; a new draw of gcd 1 is paired
    at once with the kept draws in its allowed prefix, found by bisecting
    their places (`_pairings`).
    """
    _check_search(bound, budget)
    gram = sub.induced_gram()
    sign = sub._definite_sign
    limit = math.inf if budget is None else budget
    # an open question holds the draw at which it finds its budget spent,
    # an answered one None
    square_stop = pair_stop = None
    if target is not None and not (sign and sign * target <= 0):
        square_stop = limit + 1
    if pair and not (sign or (sub.rank <= 2
                              and not _is_hyperbolic_plane(gram))):
        pair_stop = limit + 1
    vector = witness = None
    if square_stop is None and pair_stop is None:
        return vector, witness
    isotropic = 0   # the isotropic draws so far
    # the isotropic draws u with gcd(G u) == 1, their places among all
    # isotropic draws, and for each coordinate j the column of (G u)_j
    kept: list[Vector] = []
    places: list[int] = []
    columns: list[list[int]] = [[] for _ in range(sub.rank)]
    rows = sub.form.sparse_rows
    last = 0    # the draw the last answer came at

    def spend(d: int) -> None:
        """Answer None to each open question whose budget is spent by draw
        d."""
        nonlocal square_stop, pair_stop, last
        if square_stop is not None and square_stop <= d:
            last = max(last, square_stop)
            square_stop = None
        if pair_stop is not None and pair_stop <= d:
            last = max(last, pair_stop)
            pair_stop = None

    def questions() -> tuple[tuple[int, ...], float]:
        """The squares the open questions seek, and the first draw at which
        one of them finds its budget spent."""
        goals = []
        stops = [math.inf]
        if square_stop is not None:
            goals.append(target)
            stops.append(square_stop)
        if pair_stop is not None:
            goals.append(0)
            stops.append(pair_stop)
        return tuple(goals), min(stops)

    def pair_up(v: Vector, d: int) -> bool:
        """Pair v, the isotropic draw d, with the earlier isotropic draws,
        as many as the budget allows: True if that answers the pair
        question (a pair, or the budget spent before a pairing); else v
        joins them. Only draws with gcd(G u) == 1 are paired or kept,
        since u.w is a multiple of gcd(G u); every draw is charged."""
        nonlocal pair_stop, witness, isotropic
        # spend(d) left pair_stop > d: the budget allows the pairings with
        # the first pair_stop - d - 1 earlier draws
        allowed = min(pair_stop - d - 1, isotropic)
        gv = _gram_times(rows, v)
        can_pair = math.gcd(*gv) == 1
        if can_pair:
            # the kept draws among the allowed ones
            pairings = _pairings(v, columns, bisect_left(places, allowed))
            first = [pairings.index(p) for p in (1, -1) if p in pairings]
            if first:
                t = min(first)
                e, f = kept[t], (v if pairings[t] == 1 else vec_neg(v))
                assert _gram_pairing(rows, e, e) == 0
                assert _gram_pairing(rows, f, f) == 0
                assert _gram_pairing(rows, e, f) == 1
                witness = sub.to_parent(e), sub.to_parent(f)
                return True
        if allowed < isotropic:
            return True
        pair_stop -= allowed
        if can_pair:
            kept.append(v)
            places.append(isotropic)
            for column, x in zip(columns, gv):
                column.append(x)
        isotropic += 1
        return False

    goals, stop = questions()
    drawn = 0   # the candidates the walk has passed
    for item in _scored_runs(gram, bound):
        if len(item) == 6:      # a run
            runs, count = (item,), len(item[3])
        else:                   # a stretch: walk its runs only on a hit
            count, quads, lim, runs = item
            if not _integer_roots(quads, goals, lim):
                runs = ()
        # the draws before the run; in a stretch, a question whose budget
        # is spent on the way keeps its goal to the stretch's end, where it
        # is charged, and spend(d) answers it before any later hit
        start = drawn
        for c, lin, g, values, prefix, place in runs:
            hits = _run_hits(c, lin, g, values, goals)
            if hits:
                for k in hits:
                    d = start + k
                    spend(d)
                    if square_stop is None and pair_stop is None:
                        break
                    b = values[k - 1]
                    q = c + b * (lin + g * b)
                    square_hit = square_stop is not None and q == target
                    pair_hit = pair_stop is not None and q == 0
                    if not (square_hit or pair_hit):
                        continue    # a question answered in the item
                    v = place(prefix + (b,))
                    if square_hit:
                        vector = sub.to_parent(v)
                        square_stop = None
                        last = d
                    if pair_hit and pair_up(v, d):
                        pair_stop = None
                        last = d
                if square_stop is None and pair_stop is None:
                    break
                goals, stop = questions()
            start += len(values)
        else:
            drawn += count
            if drawn >= stop:
                spend(drawn)
                if square_stop is None and pair_stop is None:
                    break
                goals, stop = questions()
            continue
        break   # every question is answered
    else:
        last = drawn    # the box is spent
    if last:
        # one pull of the candidates the walk passed, so that a count on
        # bounded_vectors sees each of them; the pulled iterator is a
        # temporary, so a wrapper's count lands before the walk returns
        next(itertools.islice(bounded_vectors(sub.rank, bound), last - 1,
                              None))
    return vector, witness


def _pairings(v: Vector, columns: list[list[int]], count: int) -> list[int]:
    """v.u for the first `count` draws u whose G u `columns` holds (column
    j being (G u)_j over the draws): the sum of v_j times column j over the
    nonzero v_j, lazily and in C."""
    return list(itertools.islice(reduce(partial(map, add), [
        map(x.__mul__, columns[j]) for j, x in enumerate(v) if x]), count))


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
