"""Built-in invariant suites behind the `selftest` CLI command.

Small, deterministic versions of the identities the test suite checks at
full scale: exponential-series identities, the parity lemma behind every
sign exponent, round-trip recovery of basic-class coefficients, and
agreement of the bounded searches with brute-force enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .invariants import (KMData, fit_km_coefficients, km_series,
                         witten_consistent_km, witten_rhs)
from .lattice import (IntersectionForm, Sublattice, find_vector_with_square,
                      orthogonal_complement)
from .series import FormalSeries, exp_linear, exp_quadratic
from .synthetic import (random_characteristic_vectors, random_manifold,
                        random_unimodular_form)


@dataclass
class SuiteResult:
    name: str
    ok: bool
    detail: str


def _negated(form: IntersectionForm) -> IntersectionForm:
    return IntersectionForm([[-x for x in row] for row in form.gram])


def suite_series_identities(rng: random.Random) -> SuiteResult:
    cap = 8
    checks = 0
    for _ in range(8):
        rank = rng.randint(1, 3)
        form = random_unimodular_form(rng, rank)
        eq = exp_quadratic(form, cap)
        if not (eq * exp_quadratic(_negated(form), cap)
                == FormalSeries.one(rank, cap)):
            return SuiteResult("series-identities", False, "exp(Q/2) inverse failed")
        k1 = tuple(rng.randint(-2, 2) for _ in range(rank))
        k2 = tuple(rng.randint(-2, 2) for _ in range(rank))
        ksum = tuple(a + b for a, b in zip(k1, k2))
        if not (exp_linear(form, k1, cap) * exp_linear(form, k2, cap)
                == exp_linear(form, ksum, cap)):
            return SuiteResult("series-identities", False, "exp additivity failed")
        j = rng.randrange(rank)
        dual = form.dual_coefficients([1 if i == j else 0 for i in range(rank)])
        grad = FormalSeries(rank, cap, {
            tuple(1 if i == t else 0 for i in range(rank)): Fraction(c)
            for t, c in enumerate(dual) if c})
        lhs = eq.derivative(j)
        rhs = (grad * eq).truncate_to(cap - 1)
        if lhs != rhs:
            return SuiteResult("series-identities", False, "derivative check failed")
        checks += 3
    return SuiteResult("series-identities", True, f"{checks} identities")


def suite_parity_lemma(rng: random.Random) -> SuiteResult:
    box = 2
    checked = 0
    for _ in range(15):
        rank = rng.randint(1, 3)
        form = random_unimodular_form(rng, rank)
        vectors = list(itertools.product(range(-box, box + 1), repeat=rank))
        chars = [k for k in vectors if form.is_characteristic(k)]
        for w in vectors:
            wsq = form.square(w)
            for k in chars:
                if (wsq + form.pairing(w, k)) % 2:
                    return SuiteResult(
                        "parity-lemma", False,
                        f"odd exponent at w={w}, k={k}, gram={form.gram}")
                checked += 1
    return SuiteResult("parity-lemma", True, f"{checked} pairs")


def suite_roundtrip_fit(rng: random.Random) -> SuiteResult:
    cap = 8
    for _ in range(4):
        m = random_manifold(rng, max_rank=4, max_classes=3)
        w = tuple(rng.randint(-1, 1) for _ in range(m.rank))
        target = witten_rhs(m, w, cap)
        classes = m.basic_classes()
        result = fit_km_coefficients(target, classes, w, m.form, cap)
        if result.status != "unique":
            return SuiteResult("roundtrip-fit", False,
                               f"fit status {result.status} on {m.name}")
        for a, k in witten_consistent_km(m, w).terms:
            if result.a_values[k] != a:
                return SuiteResult(
                    "roundtrip-fit", False,
                    f"coefficient mismatch on {m.name} at c1={k}")
        fitted = KMData(w=w, terms=tuple(
            (result.a_values[k], k) for k in classes))
        if not km_series(fitted, m.form, cap).congruent_mod_degree(target, cap):
            return SuiteResult("roundtrip-fit", False,
                               f"refit series differs on {m.name}")
    return SuiteResult("roundtrip-fit", True, "4 manifolds, exact recovery")


def suite_lattice_oracles(rng: random.Random) -> SuiteResult:
    bound = 3
    for _ in range(3):
        rank = rng.randint(1, 2)
        form = random_unimodular_form(rng, rank)
        sub = Sublattice.full(form)
        for target in range(-4, 5):
            mine = find_vector_with_square(sub, target, bound=bound)
            box = itertools.product(range(-bound, bound + 1), repeat=rank)
            oracle = next(
                (v for v in box if any(v) and form.square(v) == target), None)
            if (mine is None) != (oracle is None):
                return SuiteResult(
                    "lattice-oracles", False,
                    f"square search disagrees at target {target} on {form.gram}")
            if mine is not None and form.square(mine) != target:
                return SuiteResult("lattice-oracles", False, "unsound witness")
        spanning = [random_characteristic_vectors(form, rng, 1)[0]]
        comp = orthogonal_complement(form, spanning)
        for b in comp.basis:
            if form.pairing(b, spanning[0]) != 0:
                return SuiteResult("lattice-oracles", False,
                                   "complement basis not orthogonal")
    return SuiteResult("lattice-oracles", True, "searches match brute force")


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
    results = []
    for suite in SUITES:
        results.append(suite(random.Random(seed)))
    return results
