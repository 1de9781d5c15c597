"""The shared identity checks are not vacuous: each passes on the library as
it is and fails once one thing it covers is broken."""

import dataclasses
import random

import pytest

from wittenform import lattice, selftest, series
from wittenform.lattice import (IntersectionForm, Sublattice, diagonal_form,
                                hyperbolic_plane)
from wittenform.synthetic import random_manifold


def kernel_off_by_one(stream):
    def broken(*args):
        for degree, part in enumerate(stream(*args)):
            if degree == 2 and part:
                part = dict(part)
                part[min(part)] += 1
            yield part
    return broken


def last_factor_dropped(product):
    return lambda factors, degrees: product(factors[:-1], degrees)


# the first form drawn from this seed splits into the blocks {0, 1} and {2}
SPLIT_SEED = 27


def derivatives_on_a_split_form():
    form = next(selftest.random_forms(random.Random(SPLIT_SEED), 1))
    assert lattice.gram_components(form.sparse_rows) == [[0, 1], [2]]
    return selftest.check_series_identities(random.Random(SPLIT_SEED), 6,
                                            derivative=1)


def perturbed_fit(fit):
    def broken(*args):
        result = fit(*args)
        a_values = dict(result.a_values)
        a_values[max(a_values)] += 1
        return dataclasses.replace(result, a_values=a_values)
    return broken


def roundtrip():
    rng = random.Random(3)
    manifolds = [random_manifold(rng, max_rank=3, max_classes=2)]
    return selftest.check_roundtrip_fit(rng, manifolds, cap=6, w_max=1)


PARITY_FORMS = list(selftest.random_forms(random.Random(2), 4))

CASES = {
    "kernel coefficient off by one": (
        series, "_slice_stream", kernel_off_by_one,
        lambda: selftest.check_series_identities(random.Random(1), 6,
                                                 inverse=3)),
    # e^{Q/2} e^{-Q/2} = 1 holds block by block even without a block, but
    # d/dh_j e^{Q/2} = <e_j, h> e^{Q/2} fails for j in the dropped block
    "block product missing its last factor": (
        series, "_block_product", last_factor_dropped,
        derivatives_on_a_split_form),
    "pairing of the wrong parity": (
        lattice, "_gram_pairing",
        lambda pairing: lambda rows, u, v: pairing(rows, u, v) + 1,
        lambda: selftest.check_parity_lemma(PARITY_FORMS, 2)),
    "fit with a perturbed coefficient": (
        selftest, "fit_km_coefficients", perturbed_fit, roundtrip),
    # on <1> the square 9 is reached only by the last candidates, +-3
    "square search short of its bound": (
        selftest, "find_vector_with_square",
        lambda search: lambda sub, t, bound: search(sub, t, bound=bound - 1),
        lambda: selftest.check_lattice_oracles(
            random.Random(4), [diagonal_form([1])], 3, range(-9, 10))),
    # this sheared H's first isotropic vector that lies in a copy of H is
    # (3, 2), in the box [-3, 3]^2, and its partner (5, 3) is not: a
    # search that wants its f in the box finds no pair
    "pair search that wants its partner in the box": (
        selftest, "find_hyperbolic_pair",
        lambda search: lambda sub, bound: (
            lambda pair: pair if pair and max(map(abs, pair[1])) <= bound
            else None)(search(sub, bound=bound)),
        lambda: selftest.check_lattice_oracles(
            random.Random(6), [IntersectionForm([[-12, 19], [19, -30]])], 3,
            ())),
    "complement basis missing a vector": (
        selftest, "orthogonal_complement",
        lambda comp: lambda form, spanning: Sublattice(
            form, comp(form, spanning).basis[:-1]),
        lambda: selftest.check_lattice_oracles(
            random.Random(5), [hyperbolic_plane(), diagonal_form([1, 1, -1])],
            2, ())),
}


@pytest.mark.parametrize("case", CASES)
def test_check_fails_once_broken(monkeypatch, case):
    module, name, broken, run = CASES[case]
    # a memo that stores nothing, so that every series runs the kernel
    monkeypatch.setattr(series, "_MEMO", series._SliceMemo(0))
    assert run().ok
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    result = run()
    assert not result.ok, result.detail
