import itertools
import random
from fractions import Fraction

import pytest

from wittenform import lattice
from wittenform.cli import main
from wittenform.corpus import bundled_path
from wittenform.errors import DimensionMismatch, UnimodularityError
from wittenform.lattice import (IntersectionForm, Sublattice, bounded_vectors,
                                characteristic_base, congruent_mod2,
                                diagonal_form, direct_sum, e8_form,
                                find_hyperbolic_pair, find_vector_with_square,
                                hyperbolic_plane, integer_kernel,
                                orthogonal_complement)
from wittenform.synthetic import random_unimodular_form, shear_conjugate

H = hyperbolic_plane()


# ---------------------------------------------------------------------------
# independent oracles, written directly against the definitions

def brute_square(gram, v):
    return sum(v[i] * gram[i][j] * v[j]
               for i in range(len(v)) for j in range(len(v)))


def brute_pairing(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j]
               for i in range(len(u)) for j in range(len(v)))


def box(rank, bound):
    return itertools.product(range(-bound, bound + 1), repeat=rank)


def oracle_vector_with_square(gram, target, bound):
    for v in box(len(gram), bound):
        if any(v) and brute_square(gram, v) == target:
            return v
    return None


def oracle_hyperbolic_pair(gram, bound):
    isotropic = [v for v in box(len(gram), bound)
                 if any(v) and brute_square(gram, v) == 0]
    for e in isotropic:
        for f in isotropic:
            if brute_pairing(gram, e, f) == 1:
                return e, f
    return None


def minor_signature(gram):
    # Jacobi: if every leading principal minor is nonzero, b_minus equals the
    # number of sign changes in 1, D1, ..., Dn
    n = len(gram)
    dets = [Fraction(1)]
    for k in range(1, n + 1):
        sub = [row[:k] for row in gram[:k]]
        dets.append(_det(sub))
    if any(d == 0 for d in dets[1:]):
        return None
    changes = sum(1 for a, b in zip(dets, dets[1:]) if (a > 0) != (b > 0))
    return n - 2 * changes, n - changes, changes


def _det(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


SMALL_FORMS = [
    diagonal_form([1]),
    diagonal_form([-1]),
    H,
    diagonal_form([1, 1]),
    diagonal_form([1, -1]),
    diagonal_form([-1, -1]),
    direct_sum(H, diagonal_form([1])),
    direct_sum(H, diagonal_form([-1])),
    diagonal_form([1, 1, 1]),
    diagonal_form([1, 1, -1]),
    diagonal_form([1, -1, -1]),
    diagonal_form([-1, -1, -1]),
]


# ---------------------------------------------------------------------------
# pairing

def test_pairing_hyperbolic_basis():
    assert H.pairing((1, 0), (0, 1)) == 1


def test_pairing_zero_vector():
    for form in SMALL_FORMS:
        z = (0,) * form.rank
        v = tuple(range(1, form.rank + 1))
        assert form.pairing(z, v) == 0


def test_pairing_hand_expansion():
    # (e - 3f)^2 = 2 * 1 * (-3)
    assert H.pairing((1, -3), (1, -3)) == -6


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        H.pairing((1, 0, 0), (0, 1))


def test_pairing_symmetric_and_bilinear():
    rng = random.Random(11)
    for _ in range(40):
        form = random_unimodular_form(rng, rng.randint(1, 4))
        n = form.rank
        u = tuple(rng.randint(-5, 5) for _ in range(n))
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        w = tuple(rng.randint(-5, 5) for _ in range(n))
        a = rng.randint(-3, 3)
        assert form.pairing(u, v) == form.pairing(v, u)
        uav = tuple(x + a * y for x, y in zip(u, w))
        assert form.pairing(uav, v) == form.pairing(u, v) + a * form.pairing(w, v)


# ---------------------------------------------------------------------------
# signature

def test_signature_hyperbolic():
    assert H.signature_decomposition() == (0, 1, 1)


def test_signature_e8():
    assert e8_form().signature_decomposition() == (8, 8, 0)
    assert e8_form(negative=True).signature_decomposition() == (-8, 0, 8)


def test_signature_k3_block_sum():
    k3 = direct_sum(H, H, H, e8_form(negative=True), e8_form(negative=True))
    assert k3.signature_decomposition() == (-16, 3, 19)


def test_signature_against_minor_oracle():
    rng = random.Random(5)
    checked = 0
    forms = SMALL_FORMS + [e8_form(), e8_form(negative=True)]
    forms += [random_unimodular_form(rng, rng.randint(1, 4)) for _ in range(30)]
    for form in forms:
        expected = minor_signature(form.gram)
        if expected is None:
            continue  # oracle needs nonzero leading minors
        assert form.signature_decomposition() == expected
        checked += 1
    assert checked >= 20


def test_signature_sums_to_rank():
    rng = random.Random(6)
    for _ in range(25):
        form = random_unimodular_form(rng, rng.randint(1, 5))
        sigma, bp, bm = form.signature_decomposition()
        assert bp + bm == form.rank
        assert sigma == bp - bm


# ---------------------------------------------------------------------------
# construction invariants

def test_unimodularity_enforced():
    with pytest.raises(UnimodularityError):
        IntersectionForm([[2]])
    with pytest.raises(UnimodularityError):
        IntersectionForm([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(UnimodularityError):
        IntersectionForm([[1, 0, 0], [0, 1, 0]])  # not square
    # explicit opt-out for series-level experiments
    assert IntersectionForm([[2]], require_unimodular=False).rank == 1


def permutation_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


def eigenvalue_sign_counts(rows):
    # Faddeev-LeVerrier gives det(tI - G) = sum_k c[k] t^k exactly; the roots
    # of a symmetric matrix's characteristic polynomial are all real, so
    # Descartes' rule of signs counts the positive and negative ones exactly
    n = len(rows)
    c = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(rows[i][t] * m[t][j] for t in range(n))
              + (c[n - k + 1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        trace = sum(rows[i][t] * m[t][i] for i in range(n) for t in range(n))
        c[n - k] = -trace / k

    def sign_changes(coeffs):
        signs = [x > 0 for x in coeffs if x != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    pos = sign_changes(c)
    neg = sign_changes([x if k % 2 == 0 else -x for k, x in enumerate(c)])
    return pos - neg, pos, neg


def random_symmetric_grams(rng, per_rank=40):
    for rank in range(1, 6):
        for trial in range(per_rank):
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    g[i][j] = g[j][i] = rng.randint(-2, 2)
            if trial % 4 == 0:  # force a singular matrix
                for i in range(rank):
                    g[i][-1] = g[i][0]
                for j in range(rank):
                    g[-1][j] = g[0][j]
            yield g
        for _ in range(per_rank // 4):
            yield [list(row) for row in random_unimodular_form(rng, rank).gram]


def test_unimodularity_matches_permutation_determinant():
    rng = random.Random(2718)
    accepted = rejected = singular = 0
    for gram in random_symmetric_grams(rng):
        det = permutation_det(gram)
        if det in (1, -1):
            assert IntersectionForm(gram).rank == len(gram)
            accepted += 1
            continue
        with pytest.raises(UnimodularityError) as err:
            IntersectionForm(gram)
        assert str(err.value) == f"Gram determinant is {det}, not +-1"
        rejected += 1
        singular += det == 0
    assert accepted >= 50 and rejected >= 50 and singular >= 50


def test_signature_matches_eigenvalue_signs():
    rng = random.Random(3141)
    for gram in random_symmetric_grams(rng):
        expected = eigenvalue_sign_counts(gram)
        form = IntersectionForm(gram, require_unimodular=False)
        assert form.signature_decomposition() == expected, gram
        if permutation_det(gram) in (1, -1):
            assert IntersectionForm(gram).signature_decomposition() == expected


# ---------------------------------------------------------------------------
# characteristic vectors

def test_is_characteristic_examples():
    assert H.is_characteristic((0, 0))       # even form
    assert not H.is_characteristic((1, 0))   # K.f = 1 but f.f = 0
    assert diagonal_form([1]).is_characteristic((1,))


def test_characteristic_base_is_characteristic():
    rng = random.Random(3)
    for _ in range(25):
        form = random_unimodular_form(rng, rng.randint(1, 4))
        base = characteristic_base(form)
        assert form.is_characteristic(base)


def test_characteristic_vectors_form_one_mod2_class():
    rng = random.Random(4)
    for _ in range(10):
        form = random_unimodular_form(rng, rng.randint(1, 3))
        base = characteristic_base(form)
        for v in box(form.rank, 2):
            expected = all((a - b) % 2 == 0 for a, b in zip(v, base))
            assert form.is_characteristic(v) == expected


def test_parity_lemma_small_ranks():
    # for characteristic K: w.w + w.K is even, which keeps the sign
    # exponents of the series formulas integral
    forms = [diagonal_form([1]), diagonal_form([-1]), H,
             diagonal_form([1, -1]), direct_sum(H, diagonal_form([1])),
             diagonal_form([1, 1, -1])]
    for form in forms:
        vectors = list(box(form.rank, 3))
        chars = [k for k in vectors if form.is_characteristic(k)]
        assert chars
        for w in vectors:
            wsq = brute_square(form.gram, w)
            for k in chars:
                assert (wsq + brute_pairing(form.gram, w, k)) % 2 == 0
    form = diagonal_form([1, 1, 1, -1])
    vectors = list(box(4, 2))
    chars = [k for k in vectors if form.is_characteristic(k)]
    for w in vectors:
        wsq = brute_square(form.gram, w)
        for k in chars:
            assert (wsq + brute_pairing(form.gram, w, k)) % 2 == 0


# ---------------------------------------------------------------------------
# orthogonal complements

def test_complement_of_empty_set_is_full():
    comp = orthogonal_complement(H, [])
    assert comp.rank == 2


def test_complement_hand_examples():
    comp = orthogonal_complement(H, [(1, 0)])
    # (1,0) pairs as x -> x_2, so the complement is spanned by (1,0)
    assert comp.rank == 1
    assert comp.basis[0] in ((1, 0), (-1, 0))

    comp = orthogonal_complement(diagonal_form([1, -1]), [(1, 1)])
    assert comp.rank == 1
    assert comp.basis[0] in ((1, 1), (-1, -1))


def _rational_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                for k in range(cols):
                    m[i][k] -= f * m[r][k]
        r += 1
        rank += 1
    return rank


def test_complement_orthogonality_and_rank():
    rng = random.Random(9)
    for _ in range(25):
        form = random_unimodular_form(rng, rng.randint(1, 5))
        n = form.rank
        spanning = [tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(rng.randint(0, 3))]
        comp = orthogonal_complement(form, spanning)
        for b in comp.basis:
            for s in spanning:
                assert form.pairing(b, s) == 0
        span_rank = _rational_rank(spanning) if spanning else 0
        assert comp.rank == n - span_rank


def test_complement_membership_matches_brute_force():
    # box vector is orthogonal to the spanning set iff it is an integer
    # combination of the returned basis (saturation)
    rng = random.Random(10)
    for _ in range(12):
        form = random_unimodular_form(rng, rng.randint(1, 3))
        n = form.rank
        spanning = [tuple(rng.randint(-2, 2) for _ in range(n))]
        comp = orthogonal_complement(form, spanning)
        for v in box(n, 3):
            orth = all(brute_pairing(form.gram, v, s) == 0 for s in spanning)
            assert _in_integer_span(comp.basis, v) == orth


def _in_integer_span(basis, v):
    if not basis:
        return not any(v)
    n = len(v)
    cols = len(basis)
    m = [[Fraction(basis[j][i]) for j in range(cols)] + [Fraction(v[i])]
         for i in range(n)]
    r = 0
    pivots = []
    for c in range(cols):
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                for k in range(cols + 1):
                    m[i][k] -= f * m[r][k]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if m[i][cols]:
            return False
    for i, c in enumerate(pivots):
        if (m[i][cols] / m[i][c]).denominator != 1:
            return False
    return True


def test_integer_kernel_trivial_cases():
    assert integer_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel([(0, 0, 0)], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == []


# ---------------------------------------------------------------------------
# bounded searches

def test_bounded_vectors_cover_box_exactly_once():
    seen = list(bounded_vectors(2, 2))
    expected = {v for v in box(2, 2) if any(v)}
    assert set(seen) == expected
    assert len(seen) == len(expected)


# reference implementations of the searches: the box filtered by top
# magnitude and the search loops with their budget accounting, written
# against the brute-force pairing. Each search also returns the budget it
# spent, so that the budget sweep below can stop just past the witness.

def reference_bounded_vectors(rank, bound):
    if rank == 0 or bound < 1:
        return
    for support_size in range(1, rank + 1):
        for max_mag in range(1, bound + 1):
            vals = [s * m for m in range(1, max_mag + 1) for s in (1, -1)]
            for support in itertools.combinations(range(rank), support_size):
                for assign in itertools.product(vals, repeat=support_size):
                    if max(abs(a) for a in assign) != max_mag:
                        continue
                    vec = [0] * rank
                    for pos, val in zip(support, assign):
                        vec[pos] = val
                    yield tuple(vec)


def reference_vector_with_square(sub, target, bound, budget=None):
    gram = sub.induced_gram()
    spent = 0
    for v in reference_bounded_vectors(sub.rank, bound):
        if budget is not None and spent == budget:
            return None, spent
        spent += 1
        if brute_square(gram, v) == target:
            return sub.to_parent(v), spent
    return None, spent


def reference_hyperbolic_pair(sub, bound, budget=None):
    gram = sub.induced_gram()
    isotropic = []
    spent = 0
    for v in reference_bounded_vectors(sub.rank, bound):
        if budget is not None and spent == budget:
            return None, spent
        spent += 1
        if brute_square(gram, v) != 0:
            continue
        for u in isotropic:
            if budget is not None and spent == budget:
                return None, spent
            spent += 1
            p = brute_pairing(gram, u, v)
            if p == 1 or p == -1:
                f = v if p == 1 else tuple(-x for x in v)
                return (sub.to_parent(u), sub.to_parent(f)), spent
        isotropic.append(v)
    return None, spent


def test_bounded_vectors_match_reference():
    for rank in range(6):
        for bound in range(6):
            assert (list(bounded_vectors(rank, bound))
                    == list(reference_bounded_vectors(rank, bound)))
    assert (list(itertools.islice(bounded_vectors(6, 30), 50_000))
            == list(itertools.islice(reference_bounded_vectors(6, 30),
                                     50_000)))


def test_bounded_vectors_cost_is_linear_in_the_bound():
    # a rank-1 box is 2*bound vectors; a filter over every magnitude's
    # products would make this quadratic in the bound and take minutes
    bound = 50_000
    assert list(bounded_vectors(1, bound)) == [
        (s * m,) for m in range(1, bound + 1) for s in (1, -1)]


def search_sublattices(rng):
    """Seeded small sublattices: definite, indefinite, and with a hyperbolic
    summand, as full lattices and as complements."""
    def vector(n):
        return tuple(rng.randint(-1, 1) for _ in range(n))

    for sign in (1, -1, 1, -1):
        k = rng.randint(1, 3)
        yield Sublattice.full(diagonal_form([sign] * k))
        yield orthogonal_complement(diagonal_form([sign] * (k + 1)),
                                    [vector(k + 1)])
    for _ in range(6):
        form = random_unimodular_form(rng, rng.randint(2, 4))
        if 0 in form.signature_decomposition()[1:]:
            continue
        yield Sublattice.full(form)
        yield orthogonal_complement(form, [vector(form.rank)])
    for extra in ([1], [-1], [1, -1], [-1, -1]):
        form = direct_sum(H, diagonal_form(extra))
        yield Sublattice.full(shear_conjugate(form, rng, 4))
        # the last basis vector is orthogonal to H
        yield orthogonal_complement(form, [(0,) * (form.rank - 1) + (1,)])
    # inputs of the exact early returns: definite of rank >= 3 (one with a
    # non-unimodular Gram), rank 2 forms that are not H, a sheared H, and
    # degenerate complements whose radical is an isotropic class
    for sign in (1, -1):
        yield Sublattice.full(shear_conjugate(diagonal_form([sign] * 3),
                                              rng, 4))
        yield orthogonal_complement(diagonal_form([sign] * 4), [(1, 1, 1, 1)])
    yield Sublattice.full(diagonal_form([1, -1]))
    yield Sublattice.full(shear_conjugate(diagonal_form([1, -1]), rng, 4))
    for gram in ([[0, 2], [2, 0]], [[2, 1], [1, -2]], [[2, 3], [3, 2]]):
        yield Sublattice.full(IntersectionForm(gram, require_unimodular=False))
    yield Sublattice.full(shear_conjugate(H, rng, 4))
    e = (1, 0, 0, 0)
    yield orthogonal_complement(direct_sum(H, diagonal_form([1, 1])), [e])
    yield orthogonal_complement(direct_sum(H, H), [e])
    yield orthogonal_complement(direct_sum(H, diagonal_form([1])), [e[:3]])
    # rank 2, degenerate, with a positive diagonal: [[1, 1], [1, 1]]
    yield Sublattice(direct_sum(H, diagonal_form([1])),
                     ((1, 0, 1), (0, 0, 1)))


def test_searches_match_reference_at_every_budget():
    rng = random.Random(5150)
    checked = found = 0
    for sub in search_sublattices(rng):
        for bound in (1, 2):
            runs = [(lambda b, t=t: find_vector_with_square(
                        sub, t, bound=bound, budget=b),
                     lambda b, t=t: reference_vector_with_square(
                        sub, t, bound, b)) for t in (-2, -1, 0, 1, 3)]
            runs.append((lambda b: find_hyperbolic_pair(sub, bound=bound,
                                                        budget=b),
                         lambda b: reference_hyperbolic_pair(sub, bound, b)))
            for mine, ref in runs:
                witness, spent = ref(None)
                assert mine(None) == witness
                for budget in range(1, spent + 3):
                    assert mine(budget) == ref(budget)[0], (sub, budget)
                checked += 1
                found += witness is not None
    assert found >= 40 and checked - found >= 40


def test_searches_ruled_out_by_the_form_draw_no_candidate(monkeypatch,
                                                          capsys):
    drawn = []
    original = lattice.bounded_vectors

    def counted_vectors(rank, bound):
        n = 0
        try:
            for v in original(rank, bound):
                n += 1
                yield v
        finally:
            drawn.append(n)

    monkeypatch.setattr(lattice, "bounded_vectors", counted_vectors)

    def candidates(search, *args, **kwargs):
        drawn.clear()
        assert search(*args, **kwargs) is None
        return sum(drawn)

    positive = Sublattice.full(shear_conjugate(diagonal_form([1] * 4),
                                               random.Random(3), 6))
    negative = orthogonal_complement(diagonal_form([-1] * 4), [(1, 1, 1, 1)])
    for sub, sign in ((positive, 1), (negative, -1)):
        assert candidates(find_hyperbolic_pair, sub, bound=5) == 0
        for target in (0, -sign, -5 * sign):
            assert candidates(find_vector_with_square, sub, target,
                              bound=5) == 0
        assert find_vector_with_square(sub, 2 * sign, bound=2) is not None
    for gram in ([[1, 0], [0, -1]], [[0, 2], [2, 0]], [[2, 1], [1, -2]]):
        sub = Sublattice.full(IntersectionForm(gram, require_unimodular=False))
        assert candidates(find_hyperbolic_pair, sub, bound=5) == 0
    degenerate = Sublattice(direct_sum(H, diagonal_form([1])),
                            ((1, 0, 1), (0, 0, 1)))
    assert candidates(find_hyperbolic_pair, degenerate, bound=5) == 0
    # searches the form does not settle still enumerate: the whole box of
    # the even H for an odd square, and budget + 1 draws on the degenerate
    # form (the last draw finds the budget spent)
    assert candidates(find_vector_with_square, Sublattice.full(H), 1,
                      bound=5) == 11 ** 2 - 1
    assert candidates(find_vector_with_square, degenerate, -1, bound=3,
                      budget=7) == 8

    form = direct_sum(H, diagonal_form([1, -1]), e8_form(negative=True))
    sub = orthogonal_complement(form, [(1, 0, 1, 1) + (0,) * 8])
    gram = sub.induced_gram()
    assert sub.induced_gram() is gram
    assert gram == tuple(tuple(brute_pairing(form.gram, u, v)
                               for v in sub.basis) for u in sub.basis)

    # argument checks still come first on a definite complement
    path = bundled_path("synthetic_01.manifold")
    for flag, message in (("--bound", "bound must be >= 1"),
                          ("--budget", "budget must be >= 1")):
        code = main(["hypotheses", path, "--variant", "level0", flag, "0"])
        err = capsys.readouterr().err
        assert code == 2 and message in err


def test_find_hyperbolic_pair_on_h():
    pair = find_hyperbolic_pair(Sublattice.full(H), bound=1)
    assert pair == ((1, 0), (0, 1))


def test_find_hyperbolic_pair_odd_lattice():
    # diag(1,-1) has no hyperbolic pair: e.f is always even for isotropic
    # e, f; the exhaustive oracle agrees
    form = diagonal_form([1, -1])
    assert oracle_hyperbolic_pair(form.gram, 2) is None
    assert find_hyperbolic_pair(Sublattice.full(form), bound=2) is None


def test_find_hyperbolic_pair_rank_zero():
    comp = orthogonal_complement(H, [(1, 0), (0, 1)])
    assert comp.rank == 0
    assert find_hyperbolic_pair(comp, bound=3) is None


def test_find_vector_with_square_examples():
    sub = Sublattice.full(H)
    assert find_vector_with_square(sub, -6, bound=5) == (1, -3)
    assert find_vector_with_square(sub, 0, bound=5) == (1, 0)
    assert find_vector_with_square(sub, 0, bound=5, allow_zero=True) == (0, 0)
    assert find_vector_with_square(
        Sublattice.full(diagonal_form([1])), 2, bound=10) is None


def test_search_budget_cancellation():
    sub = Sublattice.full(direct_sum(H, H, H))
    assert find_vector_with_square(sub, -6, bound=20, budget=3) is None
    assert find_hyperbolic_pair(sub, bound=20, budget=2) is None


def test_search_rejects_budget_below_one():
    sub = Sublattice.full(direct_sum(H, H))
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget"):
            find_vector_with_square(sub, -2, bound=3, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            find_vector_with_square(sub, 0, bound=3, allow_zero=True,
                                    budget=budget)
        with pytest.raises(ValueError, match="budget"):
            find_hyperbolic_pair(sub, bound=3, budget=budget)


def test_searches_agree_with_oracles():
    # smaller edition of the acceptance sweep
    rng = random.Random(12)
    for form in SMALL_FORMS[:8]:
        sub = Sublattice.full(form)
        for target in range(-5, 6):
            mine = find_vector_with_square(sub, target, bound=3)
            oracle = oracle_vector_with_square(form.gram, target, 3)
            assert (mine is None) == (oracle is None)
            if mine is not None:
                assert form.square(mine) == target
        mine = find_hyperbolic_pair(sub, bound=2)
        oracle = oracle_hyperbolic_pair(form.gram, 2)
        assert (mine is None) == (oracle is None)
        if mine is not None:
            e, f = mine
            assert form.square(e) == 0
            assert form.square(f) == 0
            assert form.pairing(e, f) == 1


def test_search_in_proper_sublattice_returns_parent_coords():
    # complement of (1,0) in H is spanned by (1,0); squares there are all 0
    comp = orthogonal_complement(H, [(1, 0)])
    v = find_vector_with_square(comp, 0, bound=3)
    assert v is not None
    assert H.square(v) == 0
    assert H.pairing(v, (1, 0)) == 0


# ---------------------------------------------------------------------------
# mod-2 congruences

def test_congruent_mod2_examples():
    assert congruent_mod2(H, (1, 0), (1, 0), (0, 0))          # w = lambda
    assert congruent_mod2(H, (1, 0), (0, 0), (1, 0))
    assert not congruent_mod2(H, (1, 0), (1, 1), (0, 0))      # (0,-1) = (0,1) mod 2
    with pytest.raises(DimensionMismatch):
        congruent_mod2(H, (1, 0, 0), (0, 0), (0, 0))
