"""Seeded input generation for the benchmark.

Everything here is plain integer arithmetic in the benchmark's own code, so
the program under test only ever sees the generated files and objects, and
the oracles can trust the data they were built from (Gram matrix,
signature, characteristic classes, Seiberg-Witten values).

Forms are block direct sums of hyperbolic planes, <+1>, <-1> and -E8,
conjugated by random unimodular basis changes (dense inputs) or taken in a
random summand order (sparse inputs, which keeps the sparsity pattern and
therefore the cost).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# -E8: Cartan matrix of E8 with the sign flipped
_E8_EDGES = ((0, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7))


def _neg_e8():
    g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = 1
    return g


_BLOCKS = {"H": ([[0, 1], [1, 0]], 1, 1), "+1": ([[1]], 1, 0),
           "-1": ([[-1]], 0, 1), "-E8": (_neg_e8(), 0, 8)}


def block_gram(blocks):
    """Gram matrix, b_plus and b_minus of a direct sum of named blocks."""
    n = sum(len(_BLOCKS[b][0]) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    off = b_plus = b_minus = 0
    for name in blocks:
        g, bp, bm = _BLOCKS[name]
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                gram[off + i][off + j] = x
        off += len(g)
        b_plus += bp
        b_minus += bm
    return gram, b_plus, b_minus


def shear(gram, rng: random.Random, ops: int, vectors=()):
    """Congruence by `ops` random shears e_i <- e_i + s e_j; keeps symmetry,
    det and signature. `vectors` (lists) are rewritten in the new basis."""
    g = [list(row) for row in gram]
    n = len(g)
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        s = rng.choice((1, -1))
        for col in range(n):
            g[i][col] += s * g[j][col]
        for row in g:
            row[i] += s * row[j]
        for v in vectors:
            v[j] -= s * v[i]
    return g


def pair(gram, u, v) -> int:
    return sum(ui * gij * vj for ui, row in zip(u, gram) if ui
               for gij, vj in zip(row, v) if vj and gij)


def char_base(gram):
    """0/1 vector k with G k = diag(G) mod 2 (Gaussian elimination over GF(2))."""
    n = len(gram)
    a = [[gram[i][j] % 2 for j in range(n)] + [gram[i][i] % 2] for i in range(n)]
    pivots = []
    row = 0
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
    k = [0] * n
    for r, col in enumerate(pivots):
        k[col] = a[r][n]
    return tuple(k)


def char_vectors(gram, rng: random.Random, count: int, spread: int = 1):
    """`count` distinct characteristic vectors k0 + 2t with |t_i| <= spread."""
    k0 = char_base(gram)
    out = set()
    while len(out) < count:
        t = [rng.randint(-spread, spread) for _ in k0]
        out.add(tuple(k + 2 * x for k, x in zip(k0, t)))
    return sorted(out)


def nonzero(rng: random.Random, lo=-4, hi=4) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


@dataclass
class Manifold:
    """What the generator knows about a manifold; the oracles read this."""

    name: str
    gram: list
    chi: int
    sigma: int
    b_plus: int
    b_minus: int
    spinc: list                      # [(c1, sw)]
    w2: tuple = field(default=())

    def __post_init__(self):
        if not self.w2:
            self.w2 = char_base(self.gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def c(self) -> Fraction:
        return Fraction(-(7 * self.chi + 11 * self.sigma), 4)

    def basic(self):
        return [(k, sw) for k, sw in self.spinc if sw]

    def text(self) -> str:
        lines = ["[manifold]", f"name = {self.name}", f"chi = {self.chi}",
                 f"sigma = {self.sigma}", f"b_plus = {self.b_plus}",
                 "sw_simple_type = true", "", "[form]", f"rank = {self.rank}"]
        lines += [" ".join(map(str, row)) for row in self.gram]
        lines += ["", "[w2]", " ".join(map(str, self.w2))]
        for c1, sw in self.spinc:
            lines += ["", "[spinc]", "c1 = " + " ".join(map(str, c1)),
                      f"sw = {sw}"]
        return "\n".join(lines) + "\n"


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def dense_gram(rng: random.Random, gram, max_entry=8, max_zeros=2):
    """P G P^T for P = L U with random unit triangular L, U over {-1, 0, 1}.

    Redrawn until at most `max_zeros` off-diagonal entries vanish and no
    entry exceeds `max_entry`, so every seed gives a Gram matrix of about
    the same density and entry size, and so about the same series cost."""
    n = len(gram)
    while True:
        low = [[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0
                for j in range(n)] for i in range(n)]
        up = [[1 if i == j else rng.choice((-1, 0, 1)) if j > i else 0
               for j in range(n)] for i in range(n)]
        p = _matmul(low, up)
        g = _matmul(_matmul(p, gram), [list(col) for col in zip(*p)])
        zeros = sum(1 for i in range(n) for j in range(n)
                    if i != j and g[i][j] == 0)
        if zeros <= max_zeros and max(abs(x) for row in g for x in row) \
                <= max_entry:
            return g


def valid_manifold(rng: random.Random, blocks, classes: int,
                   name: str) -> Manifold:
    """A manifold with a dense Gram matrix meeting every file-load check:
    rank = chi - 2, matching signature, odd b_plus > 1, characteristic c1
    classes."""
    gram, bp, bm = block_gram(blocks)
    gram = dense_gram(rng, gram)
    spinc = [(k, nonzero(rng)) for k in char_vectors(gram, rng, classes)]
    return Manifold(name, gram, chi=len(gram) + 2, sigma=bp - bm, b_plus=bp,
                    b_minus=bm, spinc=spinc)


def definite_complement_manifold(rng: random.Random, blocks, name: str,
                                 ops: int = 5) -> Manifold:
    """A valid manifold whose b_minus basic classes span a negative definite
    sublattice, so their orthogonal complement is positive definite: no
    isotropic vectors and no vectors of negative square, and every bounded
    search on it runs to the end of its box or budget. The classes are
    drawn in the block basis, where such pairs are common, then sheared."""
    gram, bp, bm = block_gram(blocks)
    while True:
        ks = char_vectors(gram, rng, bm, spread=2)
        g = [[pair(gram, a, b) for b in ks] for a in ks]
        # leading principal minors alternate in sign: negative definite
        if g[0][0] < 0 and (bm == 1 or g[0][0] * g[1][1] - g[0][1] ** 2 > 0):
            break
    vectors = [list(k) for k in ks]
    gram = shear(gram, rng, ops, vectors)
    spinc = [(tuple(k), nonzero(rng)) for k in vectors]
    return Manifold(name, gram, chi=len(gram) + 2, sigma=bp - bm, b_plus=bp,
                    b_minus=bm, spinc=spinc)


def hyperbolic_complement_manifold(rng: random.Random, blocks, classes: int,
                                   name: str, ops: int = 5):
    """A valid manifold on H + H + (odd part) whose basic classes lie in the
    odd part, so the first H is a hyperbolic pair orthogonal to them and
    e2 - n f2 in the second H has square -2n. Returns the manifold and the
    known witnesses {"e", "f", "level0", "level1"} (lambda per variant),
    rewritten with the form by `ops` random shears."""
    assert blocks[:2] == ["H", "H"]
    gram, bp, bm = block_gram(blocks)
    n = len(gram)
    # H is even, so zero H coordinates keep a class characteristic
    ks = [(0, 0, 0, 0) + k for k in
          char_vectors(block_gram(blocks[2:])[0], rng, classes, spread=2)]
    chi, sigma = n + 2, bp - bm
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    known = {"e": units[0], "f": units[1]}
    for variant, level in (("level0", 2), ("level1", 4)):
        half = -(level - (chi + sigma)) // 2       # target = -2 half
        known[variant] = [a - half * b for a, b in zip(units[2], units[3])]
    vectors = [list(k) for k in ks] + list(known.values())
    gram = shear(gram, rng, ops, vectors)
    spinc = [(tuple(k), nonzero(rng)) for k in vectors[:len(ks)]]
    m = Manifold(name, gram, chi=chi, sigma=sigma, b_plus=bp, b_minus=bm,
                 spinc=spinc)
    return m, dict(zip(known, map(tuple, vectors[len(ks):])))


def elliptic_manifold(rng: random.Random, n: int, name: str) -> Manifold:
    """E(n)-type data on (2n-1)H + n(-E8), n even, summands in random order.

    Basic classes (n-2-2j)F with SW = (-1)^j C(n-2, j), F the first vector
    of a random hyperbolic summand; E(2) is the K3 surface. Reordering whole
    summands keeps the Gram matrix block diagonal, so elimination on it
    costs the same for every seed.
    """
    from math import comb
    blocks = ["H"] * (2 * n - 1) + ["-E8"] * n
    rng.shuffle(blocks)
    gram, bp, bm = block_gram(blocks)
    offsets = [sum(2 if b == "H" else 8 for b in blocks[:i])
               for i, b in enumerate(blocks) if b == "H"]
    fiber = [0] * len(gram)
    fiber[rng.choice(offsets)] = 1
    spinc = [(tuple((n - 2 - 2 * j) * x for x in fiber),
              (-1) ** j * comb(n - 2, j)) for j in range(n - 1)]
    return Manifold(name, gram, chi=12 * n, sigma=-8 * n, b_plus=bp,
                    b_minus=bm, spinc=spinc)


def decoupled_manifold(rng: random.Random, rank: int, c: int, classes: int,
                       name: str, hyperbolic: bool) -> Manifold:
    """Criterion-2 style data: chi = c, sigma = -c, so the window constant is
    exactly c; only usable through the library (it fails file-load checks).
    The form is a dense conjugate of H's (plus <+1>) or of <+1>'s and
    <-1>'s."""
    if hyperbolic:
        blocks = ["H"] * (rank // 2) + ["+1"] * (rank % 2)
    else:
        blocks = ["+1"] * (rank // 2 + 1) + ["-1"] * (rank - rank // 2 - 1)
    gram, bp, bm = block_gram(blocks)
    gram = dense_gram(rng, gram)
    spinc = [(k, nonzero(rng)) for k in char_vectors(gram, rng, classes)]
    return Manifold(name, gram, chi=c, sigma=-c, b_plus=bp, b_minus=bm,
                    spinc=spinc)


def km_text(w, terms) -> str:
    """Basic-class file: w plus (coefficient, class) terms."""
    lines = ["[km]", "w = " + " ".join(map(str, w))]
    for a, k in terms:
        lines += ["", "[term]", f"a = {a}", "k = " + " ".join(map(str, k))]
    return "\n".join(lines) + "\n"


def witten_km_terms(m: Manifold):
    """The coefficients the conjectured identity predicts: 2^(2-c) SW(s)."""
    factor = Fraction(2) ** (2 - int(m.c))
    return [(factor * sw, k) for k, sw in m.basic()]


def monomial_label(exps) -> str:
    return " ".join(f"h{i + 1}^{e}" for i, e in enumerate(exps) if e) or "1"
