"""Identity checks behind the `selftest` CLI command and the acceptance
criteria. Each `check_*` runs one family of identities against an oracle
that does not share the code path under test (pairings summed from the
Gram matrix, brute-force enumeration of a box, 2^(2-c) SW(s) computed
from the manifold) and returns a SuiteResult whose counts say how much it
checked. The `selftest` suites in SUITES run the checks at small sizes;
acceptance criteria 2, 3, 4 and 8 (tests/test_acceptance.py) run the same
checks at full scale.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import mul

from .invariants import KMData, fit_km_coefficients, km_series, witten_rhs
from .lattice import (IntersectionForm, Sublattice, find_hyperbolic_pair,
                      find_vector_with_square, find_witnesses,
                      orthogonal_complement)
from .series import FormalSeries, exp_linear, exp_quadratic, linear_series
from .synthetic import random_manifold, random_unimodular_form


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str
    counts: dict = field(default_factory=dict)


def _passed(name: str, **counts: int) -> SuiteResult:
    detail = ", ".join(f"{n} {what}" for what, n in counts.items())
    return SuiteResult(name, True, detail, counts)


def random_forms(rng: random.Random, count: int, max_rank: int = 3):
    """`count` random unimodular forms of rank 1..max_rank, each drawn from
    `rng` only when the consumer asks for it."""
    for _ in range(count):
        yield random_unimodular_form(rng, rng.randint(1, max_rank))


def _random_vector(rng: random.Random, rank: int, size: int) -> tuple:
    return tuple(rng.randint(-size, size) for _ in range(rank))


def box_vectors(rank: int, bound: int) -> list[tuple]:
    """Every integer vector with |coords| <= bound, in `product` order."""
    return list(itertools.product(range(-bound, bound + 1), repeat=rank))


def brute_pairing(gram, u, v) -> int:
    """u.G.v summed straight off the Gram matrix."""
    return sum(u[i] * gram[i][j] * v[j]
               for i in range(len(u)) for j in range(len(v)))


# ---------------------------------------------------------------------------
# series identities

def check_series_identities(rng: random.Random, cap: int, inverse: int = 0,
                            additive: int = 0, derivative: int = 0,
                            k_max: int = 2) -> SuiteResult:
    """On `inverse` drawn forms, e^{Q/2} e^{-Q/2} = 1; on `additive` forms
    with K1, K2 drawn from [-k_max, k_max]^n, e^{<K1,h>} e^{<K2,h>} =
    e^{<K1+K2,h>}; on `derivative` forms, for every j, d/dh_j e^{Q/2} =
    <e_j, h> e^{Q/2} (with <e_j, h> = linear_series and also summed from
    the Gram row) and, with K drawn from [-2, 2]^n, d/dh_j e^{<K,h>} =
    <K, e_j> e^{<K,h>}. All mod degree `cap`, derivatives mod `cap - 1`.
    Forms come from `random_forms` in that order, each K after its form."""
    name = "series-identities"
    fail = partial(SuiteResult, name, False)
    identities = 0

    for form in random_forms(rng, inverse):
        neg = IntersectionForm([[-x for x in row] for row in form.gram])
        if (exp_quadratic(form, cap) * exp_quadratic(neg, cap)
                != FormalSeries.one(form.rank, cap)):
            return fail(f"exp(Q/2) inverse on {form.gram}")
        identities += 1
    for form in random_forms(rng, additive):
        k1 = _random_vector(rng, form.rank, k_max)
        k2 = _random_vector(rng, form.rank, k_max)
        ksum = tuple(a + b for a, b in zip(k1, k2))
        if (exp_linear(form, k1, cap) * exp_linear(form, k2, cap)
                != exp_linear(form, ksum, cap)):
            return fail(f"exp additivity at {k1}, {k2} on {form.gram}")
        identities += 1
    for form in random_forms(rng, derivative):
        rank, g = form.rank, form.gram
        units = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
        eq = exp_quadratic(form, cap)
        for j in range(rank):
            grad = FormalSeries(rank, cap, {
                units[i]: Fraction(g[j][i]) for i in range(rank) if g[j][i]})
            if linear_series(form, units[j], cap) != grad:
                return fail(f"linear series of e_{j + 1} on {g}")
            if eq.derivative(j) != (grad * eq).truncate_to(cap - 1):
                return fail(f"d/dh{j + 1} exp(Q/2) on {g}")
        k = _random_vector(rng, rank, 2)
        el = exp_linear(form, k, cap)
        for j in range(rank):
            dual = sum(g[j][i] * k[i] for i in range(rank))
            if el.derivative(j) != (el * Fraction(dual)).truncate_to(cap - 1):
                return fail(f"d/dh{j + 1} exp<K,h> at K={k} on {g}")
        identities += 3 * rank
    return _passed(name, forms=inverse + additive + derivative,
                   identities=identities)


# ---------------------------------------------------------------------------
# parity lemma

def check_parity_lemma(forms, box: int) -> SuiteResult:
    """For each form and every w, K in [-box, box]^n with K characteristic,
    w.w + w.K is even: the lemma that keeps every sign exponent
    (w^2 + w.K)/2 integral. Pairings are summed from the Gram matrix; the
    form's `square` and `is_characteristic` must agree with those sums."""
    name = "parity-lemma"
    fail = partial(SuiteResult, name, False)
    n_forms = pairs = 0
    for form in forms:
        g = form.gram
        rank = len(g)
        vecs = box_vectors(rank, box)
        duals = {v: tuple(sum(g[i][j] * v[j] for j in range(rank))
                          for i in range(rank))
                 for v in vecs}
        chars = [v for v in vecs
                 if all((duals[v][i] - g[i][i]) % 2 == 0 for i in range(rank))]
        if not chars:
            return fail(f"no characteristic vector on {g}")
        char_set = set(chars)
        for w in vecs:
            dw = duals[w]
            wsq = sum(map(mul, dw, w))
            if form.square(w) != wsq:
                return fail(f"square of {w} on {g}")
            if form.is_characteristic(w) != (w in char_set):
                return fail(f"is_characteristic({w}) on {g}")
            for k in chars:
                if (wsq + sum(map(mul, dw, k))) % 2:
                    return fail(f"odd exponent at w={w}, K={k} on {g}")
            pairs += len(chars)
        n_forms += 1
    return _passed(name, forms=n_forms, pairs=pairs)


# ---------------------------------------------------------------------------
# KM round trip

def check_roundtrip_fit(rng: random.Random, manifolds, cap: int,
                        w_max: int) -> SuiteResult:
    """For each manifold, with w drawn from [-w_max, w_max]^n after it:
    fitting witten_rhs(m, w, cap) on the basic classes is unique and
    recovers a = 2^(2-c) SW(s) for every spin-c structure, and the KM
    series of the fitted data agrees with the target below degree cap."""
    name = "roundtrip-fit"
    fail = partial(SuiteResult, name, False)
    count = classes_seen = 0
    for m in manifolds:
        w = _random_vector(rng, m.rank, w_max)
        target = witten_rhs(m, w, cap)
        classes = m.basic_classes()
        result = fit_km_coefficients(target, classes, w, m.form, cap)
        if result.status != "unique":
            return fail(f"fit status {result.status} on {m.name}")
        factor = Fraction(2) ** (2 - m.characteristic_number())
        for e in m.spinc:
            if result.a_values[e.c1] != factor * e.sw:
                return fail(f"coefficient mismatch at {e.c1} on {m.name}")
        fitted = KMData(w=w, terms=tuple(
            (result.a_values[k], k) for k in classes))
        if not km_series(fitted, m.form, cap).congruent_mod_degree(target, cap):
            return fail(f"refit series differs on {m.name}")
        count += 1
        classes_seen += len(classes)
    return _passed(name, manifolds=count, classes=classes_seen)


# ---------------------------------------------------------------------------
# bounded searches and complements

def check_lattice_oracles(rng: random.Random, forms, bound: int,
                          targets) -> SuiteResult:
    """For each form, over the box [-bound, bound]^n with pairings summed
    from the Gram matrix: find_vector_with_square finds a vector of square
    t exactly when the box holds one, for each t in `targets`;
    find_hyperbolic_pair finds a pair exactly when the box holds an
    isotropic vector that lies in a copy of H (`_completes`), and its e is
    such a box vector (its f is built and may lie outside the box); and,
    for one spanning vector drawn from [-2, 2]^n after the form, a box
    vector lies in the integer span of orthogonal_complement's basis
    exactly when it is orthogonal to the spanning vector. Asked both
    questions at once, find_witnesses gives, for each t, the two searches'
    answers (not counted as searches)."""
    name = "lattice-oracles"
    fail = partial(SuiteResult, name, False)
    n_forms = searches = members = 0
    for form in forms:
        g = form.gram
        rank = form.rank
        sub = Sublattice.full(form)
        box = box_vectors(rank, bound)
        squares = {v: brute_pairing(g, v, v) for v in box}

        vectors = {}
        for target in targets:
            vectors[target] = mine = find_vector_with_square(sub, target,
                                                             bound=bound)
            oracle = any(any(v) and squares[v] == target for v in box)
            sound = mine is None or brute_pairing(g, mine, mine) == target
            if (mine is not None) != oracle or not sound:
                return fail(f"square {target} search gave {mine} on {g}")
            searches += 1

        completes = [v for v in box
                     if any(v) and squares[v] == 0 and _completes(g, v)]
        oracle = bool(completes)
        mine = find_hyperbolic_pair(sub, bound=bound)
        sound = mine is None or (mine[0] in completes and [
            brute_pairing(g, e, f) for e in mine for f in mine] == [0, 1, 1, 0])
        if (mine is not None) != oracle or not sound:
            return fail(f"pair search gave {mine} on {g}")
        searches += 1
        for target, vector in vectors.items():
            joint = find_witnesses(sub, bound, target=target, pair=True)
            if joint != (vector, mine):
                return fail(f"joint walk for square {target} gave {joint} "
                            f"on {g}")

        spanning = [_random_vector(rng, rank, 2)]
        comp = orthogonal_complement(form, spanning)
        for v in box:
            orth = all(brute_pairing(g, v, s) == 0 for s in spanning)
            if _in_span(comp.basis, v) != orth:
                return fail(f"complement of {spanning} at {v} on {g}")
        members += len(box)
        n_forms += 1
    return _passed(name, forms=n_forms, searches=searches, vectors=members)


def _completes(gram, e) -> bool:
    """True iff the isotropic e lies in a copy of H, i.e. some x has
    e.x == 1 and an even square: the pairings of e with the basis vectors
    have gcd 1, and e is not characteristic, since x.x == e.x mod 2 for
    every x when it is, and otherwise x' = b + (1 - e.b) x has e.x' == 1
    and an even square for a basis vector b with e.b != b.b mod 2 and an
    x of odd square (Milnor-Husemoller, Symmetric Bilinear Forms, 1973)."""
    basis = [tuple(int(i == j) for j in range(len(gram)))
             for i in range(len(gram))]
    pairings = [brute_pairing(gram, e, b) for b in basis]
    return math.gcd(*pairings) == 1 and any(
        (p - brute_pairing(gram, b, b)) % 2 for p, b in zip(pairings, basis))


def _in_span(basis, v) -> bool:
    """True iff v is an integer combination of the independent `basis`:
    Gauss-Jordan over Q on the columns [basis | v]."""
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(x)]
            for i, x in enumerate(v)]
    r = 0
    for c in range(len(basis)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        r += 1
    return (not any(row[-1] for row in rows[r:])
            and all(row[-1].denominator == 1 for row in rows[:r]))


# ---------------------------------------------------------------------------
# the `selftest` suites

def suite_series_identities(rng: random.Random) -> SuiteResult:
    return check_series_identities(rng, cap=8, inverse=8, additive=8,
                                   derivative=8, k_max=2)


def suite_parity_lemma(rng: random.Random) -> SuiteResult:
    return check_parity_lemma(random_forms(rng, 15), box=2)


def suite_roundtrip_fit(rng: random.Random) -> SuiteResult:
    manifolds = (random_manifold(rng, max_rank=4, max_classes=3)
                 for _ in range(4))
    return check_roundtrip_fit(rng, manifolds, cap=8, w_max=1)


def suite_lattice_oracles(rng: random.Random) -> SuiteResult:
    return check_lattice_oracles(rng, random_forms(rng, 3, max_rank=2),
                                 bound=3, targets=range(-4, 5))


def suite_corpus(rng: random.Random) -> SuiteResult:
    from .corpus import list_bundled, load_bundled
    names = list_bundled()
    if "k3.manifold" not in names or len(names) < 11:
        return SuiteResult("corpus", False, f"expected >= 11 files, got {len(names)}")
    for name in names:
        m = load_bundled(name)  # loader re-checks every invariant
        if m.characteristic_number().denominator != 1:
            return SuiteResult("corpus", False, f"{name}: non-integral c")
    k3 = load_bundled("k3.manifold")
    if not (k3.rank == 22 and k3.characteristic_number() == 2):
        return SuiteResult("corpus", False, "k3 invariants wrong")
    return SuiteResult("corpus", True, f"{len(names)} files validated")


SUITES = (
    suite_series_identities,
    suite_parity_lemma,
    suite_roundtrip_fit,
    suite_lattice_oracles,
    suite_corpus,
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(random.Random(seed)) for suite in SUITES]
