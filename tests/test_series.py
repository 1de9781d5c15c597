import itertools
import random
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

from wittenform.errors import DimensionMismatch, TruncationError
from wittenform.cli import main
from wittenform.invariants import (KMData, Verdict, fit_km_coefficients,
                                   km_series, mmp_vanishing_check, sw_series,
                                   witten_consistent_km, witten_rhs)
from wittenform.corpus import (elliptic_manifold, k3_form, k3_manifold,
                               load_bundled)
from wittenform.lattice import (IntersectionForm, direct_sum, e8_form,
                                gram_components, hyperbolic_plane)
from wittenform.series import (FormalSeries, HomogeneousPolynomial,
                               divided_powers, exp_linear, exp_quadratic,
                               first_difference, gaussian_sum, linear_series,
                               monomial_label, quadratic_series)
from wittenform import invariants, lattice, series
from wittenform.manifold_io import manifold_to_text
from wittenform.selftest import check_series_identities
from wittenform.synthetic import random_manifold, random_unimodular_form

H = hyperbolic_plane()
TWO = IntersectionForm([[2]], require_unimodular=False)


def S(num_vars, cap, terms):
    return FormalSeries(num_vars, cap, {k: Fraction(v) for k, v in terms.items()})


def random_series(rng, num_vars, cap, nterms=5):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 2) for _ in range(num_vars))
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return FormalSeries(num_vars, cap, terms)


def naive_mul(a, b):
    # independent Cauchy product with truncation, straight off the definition
    cap = min(a.degree_cap, b.degree_cap)
    out = {}
    b_terms = sorted((sum(eb), eb, cb) for eb, cb in b.terms.items())
    for ea, ca in a.terms.items():
        room = cap - sum(ea)
        for db, eb, cb in b_terms:
            if db >= room:
                break
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return FormalSeries(a.num_vars, cap, out)


def fraction_sum(num_vars, cap, weighted):
    """sum_r c_r s_r for (c_r, s_r) in `weighted`, over the series' Fraction
    terms (no ring operation of the library)."""
    out = {}
    for c, s in weighted:
        for e, v in s.terms.items():
            if sum(e) < cap:
                out[e] = out.get(e, Fraction(0)) + Fraction(c) * v
    return FormalSeries(num_vars, cap, out)


# ---------------------------------------------------------------------------
# ring basics

def test_add_examples():
    one = FormalSeries.one(1, 5)
    zero = FormalSeries.zero(1, 5)
    assert one + zero == one
    a = S(1, 5, {(0,): 1, (1,): 1})
    b = S(1, 5, {(0,): 1, (1,): -1})
    assert a + b == S(1, 5, {(0,): 2})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match=r"\(-1,\)"):
        FormalSeries(1, 4, {(-1,): 1})
    # checked before truncation drops the term
    with pytest.raises(ValueError, match=r"\(6, -1\)"):
        FormalSeries(2, 4, {(6, -1): Fraction(3)})


def test_add_cap_is_min():
    a = FormalSeries.one(2, 4)
    b = FormalSeries.one(2, 6)
    assert (a + b).degree_cap == 4
    assert (a * b).degree_cap == 4


def test_add_variable_mismatch():
    with pytest.raises(DimensionMismatch):
        FormalSeries.one(2, 4) + FormalSeries.one(3, 4)


def test_mul_examples():
    a = S(1, 3, {(0,): 1, (1,): 1})
    b = S(1, 3, {(0,): 1, (1,): -1})
    assert a * b == S(1, 3, {(0,): 1, (2,): -1})
    assert (a * FormalSeries.zero(1, 3)).is_zero()


def test_mul_matches_naive_oracle():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 3)
        cap = rng.randint(1, 7)
        a = random_series(rng, n, cap)
        b = random_series(rng, n, cap)
        assert a * b == naive_mul(a, b)


def test_scalar_multiplication():
    a = S(2, 4, {(1, 0): 3, (0, 2): -2})
    assert a * 0 == FormalSeries.zero(2, 4)
    assert a * Fraction(1, 3) == S(2, 4, {(1, 0): 1, (0, 2): Fraction(-2, 3)})
    assert 2 * a == a + a


def test_ring_axioms_randomized():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 3)
        cap = rng.randint(1, 8)
        a = random_series(rng, n, cap, 4)
        b = random_series(rng, n, cap, 4)
        c = random_series(rng, n, cap, 4)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def edge_series(rng, num_vars, cap):
    """A series with a term at the top of one key field (h_i^(cap - 1)),
    terms of random degree < cap, and a weight other than 1."""
    terms = {tuple(cap - 1 if i == rng.randrange(num_vars) else 0
                   for i in range(num_vars)): Fraction(rng.randint(1, 9), 7)}
    for _ in range(6):
        d = rng.randrange(cap)
        cuts = sorted(rng.randint(0, d) for _ in range(num_vars - 1))
        e = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                     rng.randint(1, 4))
    return FormalSeries(num_vars, cap, terms) * scale


@pytest.mark.parametrize("caps", [(8, 9), (9, 8), (16, 17), (17, 16)])
def test_ring_operations_across_key_widths(caps):
    # the packed key fields widen from 3 to 4 bits between caps 8 and 9, and
    # from 4 to 5 between 16 and 17: each operation, on a series of each
    # cap, against references on the Fraction terms
    rng = random.Random(sum(caps))
    for n in (1, 2, 3):
        for _ in range(3):
            a, b = (edge_series(rng, n, cap) for cap in caps)
            cap = min(caps)
            ta = a.terms
            c = Fraction(-7, 3)
            for got, want in [
                    (a + b, fraction_sum(n, cap, [(1, a), (1, b)])),
                    (a - b, fraction_sum(n, cap, [(1, a), (-1, b)])),
                    (b - a, fraction_sum(n, cap, [(1, b), (-1, a)])),
                    (a * b, naive_mul(a, b)), (b * a, naive_mul(b, a)),
                    (-a, fraction_sum(n, a.degree_cap, [(-1, a)])),
                    (a * c, fraction_sum(n, a.degree_cap, [(c, a)])),
                    (c * b, fraction_sum(n, b.degree_cap, [(c, b)]))]:
                assert got.degree_cap == want.degree_cap
                assert got.terms == want.terms
            for s in (a, b):
                terms = s.terms
                for j in range(n):
                    d = s.derivative(j)
                    assert d.degree_cap == s.degree_cap - 1
                    assert d.terms == {
                        e[:j] + (e[j] - 1,) + e[j + 1:]: v * e[j]
                        for e, v in terms.items() if e[j]}
                for e in itertools.product(range(s.degree_cap), repeat=n):
                    if sum(e) < s.degree_cap:
                        assert s.coefficient(e) == terms.get(e, 0)
                # equal values in other integers: equal, with equal hashes
                for twin in (FormalSeries(n, s.degree_cap, terms),
                             (s + s) * Fraction(1, 2)):
                    assert s == twin and twin == s and hash(s) == hash(twin)
                assert s != s + FormalSeries.constant(
                    Fraction(1, 3), n, s.degree_cap)
            assert a != b and a.truncate_to(cap) != b.truncate_to(cap)
            assert ta == a.terms


# ---------------------------------------------------------------------------
# truncation semantics

def test_congruence_convention():
    a = S(1, 5, {(0,): 1, (3,): 1})
    one = FormalSeries.one(1, 5)
    assert a.congruent_mod_degree(one, 3)
    assert not a.congruent_mod_degree(one, 4)
    assert a.congruent_mod_degree(a, 5)


def test_congruence_beyond_cap_refused():
    a = FormalSeries.one(1, 4)
    with pytest.raises(TruncationError):
        a.congruent_mod_degree(FormalSeries.one(1, 6), 5)


def test_congruence_at_negative_degree_refused():
    a = FormalSeries.one(1, 4)
    with pytest.raises(ValueError, match="negative"):
        a.congruent_mod_degree(FormalSeries.zero(1, 4), -2)


def test_coefficient_access():
    eq = exp_quadratic(TWO, 4)
    assert eq.coefficient((0,)) == 1
    assert eq.coefficient((2,)) == 1
    assert FormalSeries.zero(1, 4).coefficient((1,)) == 0
    with pytest.raises(TruncationError):
        eq.coefficient((4,))
    # a negative entry is refused as the constructor refuses it, not read as 0
    with pytest.raises(ValueError, match="negative entry"):
        FormalSeries.one(2, 4).coefficient((3, -3))


def test_truncate_and_homogeneous_part():
    eq = exp_quadratic(TWO, 6)   # 1 + h^2 + h^4/2
    assert eq.truncate_to(3) == S(1, 3, {(0,): 1, (2,): 1})
    with pytest.raises(TruncationError):
        eq.truncate_to(7)
    part0 = eq.homogeneous_part(0)
    assert part0.degree == 0
    assert part0 == S(1, 6, {(0,): 1})
    part2 = eq.homogeneous_part(2)
    assert part2 == S(1, 6, {(2,): 1})
    with pytest.raises(TruncationError):
        eq.homogeneous_part(6)
    with pytest.raises(ValueError, match="negative"):
        FormalSeries.one(2, 4).homogeneous_part(-1)


def test_truncate_idempotent():
    rng = random.Random(23)
    for _ in range(10):
        a = random_series(rng, 2, 6)
        n = rng.randint(0, 6)
        assert a.truncate_to(n).truncate_to(n) == a.truncate_to(n)


def test_homogeneous_polynomial_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(1, 5, {(1,): Fraction(1), (2,): Fraction(1)},
                              degree=1)
    # a wrong-degree term at or above the cap is rejected, not truncated away
    with pytest.raises(ValueError):
        HomogeneousPolynomial(1, 3, {(3,): Fraction(1)}, degree=2)


def assert_canonical(r):
    terms = r.terms
    assert FormalSeries(r.num_vars, r.degree_cap, terms).terms == terms
    for exps, c in terms.items():
        assert type(c) is Fraction and c != 0
        assert all(type(e) is int for e in exps)
        assert sum(exps) < r.degree_cap
    # the stored integers: one slice per degree < cap, keyed by monomials of
    # that degree, no zero value; a nonzero weight and a positive den
    assert len(r.slices) == r.degree_cap
    assert type(r.weight) is int and r.weight and type(r.den) is int
    assert r.den > 0
    for d, part in enumerate(r.slices):
        for key, v in part.items():
            assert type(v) is int and v and sum(r._exponents(key)) == d


def test_results_are_canonical():
    rng = random.Random(24)
    x, y = S(2, 4, {(1, 0): 1}), S(2, 4, {(0, 1): 1})
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_series(rng, n, rng.randint(0, 6))
        b = random_series(rng, n, rng.randint(0, 6))
        d = rng.randint(0, 5)
        results = [a + b, a - b, a + (-a), a - a, -a, a * b, a * 0, 0 * a,
                   a * Fraction(-2, 3), a + 1, 1 - a, a ** 2,
                   a.truncate_to(rng.randint(0, a.degree_cap)),
                   b.derivative(rng.randrange(n))]
        if d < a.degree_cap:
            part = a.homogeneous_part(d)
            assert type(part) is HomogeneousPolynomial and part.degree == d
            results.append(part)
        for r in results:
            assert_canonical(r)
    # products and sums that cancel, derivatives at caps 0 and 1
    assert (x + y) * (x - y) == S(2, 4, {(2, 0): 1, (0, 2): -1})
    for r in [(x + y) * (x - y), (x - y) + (y - x), x * y - y * x,
              FormalSeries.zero(2, 0).derivative(0),
              S(2, 1, {(0, 0): 5}).derivative(1)]:
        assert_canonical(r)
    form = random_unimodular_form(rng, 3)
    for cap in range(4):
        for r in [linear_series(form, (1, -1, 2), cap),
                  quadratic_series(form, cap), exp_quadratic(form, cap),
                  exp_linear(form, (1, 0, 1), cap)]:
            assert_canonical(r)


@pytest.mark.parametrize("build", [
    lambda: FormalSeries.one(2, 4).truncate_to(-1),
    lambda: exp_linear(H, (1, 0), -1),
    lambda: exp_quadratic(H, -1),
    lambda: gaussian_sum(H, [(1, (1, 0))], -1),
    lambda: linear_series(H, (1, 0), -1),
    lambda: quadratic_series(H, -1),
    lambda: km_series(KMData(w=(0, 0), terms=((1, (0, 0)),)), H, -1),
], ids=["truncate_to", "exp_linear", "exp_quadratic", "gaussian_sum",
        "linear_series", "quadratic_series", "km_series"])
def test_negative_cap_from_caller_rejected(build):
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# exponential generators

def test_exp_linear_of_zero_class():
    assert exp_linear(H, (0, 0), 6) == FormalSeries.one(2, 6)


def test_exp_linear_rank_one_hand_expansion():
    # <K,h> = 2h, so mod degree 3: 1 + 2h + 2h^2
    got = exp_linear(TWO, (1,), 3)
    assert got == S(1, 3, {(0,): 1, (1,): 2, (2,): 2})


def test_exp_linear_dualizes_through_form():
    # in H the class (1,0) pairs as x -> x_2
    assert linear_series(H, (1, 0), 3) == S(2, 3, {(0, 1): 1})


def test_exp_quadratic_rank_one():
    assert exp_quadratic(TWO, 4) == S(1, 4, {(0,): 1, (2,): 1})


def test_exp_quadratic_of_zero_form():
    zero_form = IntersectionForm([[0]], require_unimodular=False)
    assert exp_quadratic(zero_form, 5) == FormalSeries.one(1, 5)


def test_exp_quadratic_inverse_identity():
    for cap in (4, 8, 12):
        result = check_series_identities(random.Random(24), cap, inverse=10)
        assert result.ok, result.detail


def test_exp_linear_additivity():
    for cap in (4, 8, 12):
        result = check_series_identities(random.Random(25), cap, additive=15,
                                         k_max=3)
        assert result.ok, result.detail


def test_exp_linear_inverse_at_rank_two():
    k = (2, -1)
    prod = exp_linear(H, k, 6) * exp_linear(H, tuple(-x for x in k), 6)
    assert prod == FormalSeries.one(2, 6)


def test_exp_linear_derivative_identity():
    # d/dh_j exp<K,h> = <K, e_j> exp<K,h> mod degree N-1; on H the class
    # K = (1, -2) pairs with e_1 and e_2 as -2 and 1
    e = exp_linear(H, (1, -2), 7)
    assert e.derivative(0) == (e * -2).truncate_to(6)
    assert e.derivative(1) == e.truncate_to(6)


def test_exp_quadratic_gradient_identity():
    result = check_series_identities(random.Random(26), 8, derivative=8)
    assert result.ok, result.detail


def test_quadratic_series_is_plain_q():
    q = quadratic_series(H, 4)
    assert q == S(2, 4, {(1, 1): 2})


def test_negative_caps_are_refused_by_the_shape_check():
    # every sum checks its cap before it reads a class
    m = k3_manifold()
    zero = (0,) * m.rank
    km = witten_consistent_km(m, zero)
    calls = {
        "witten_rhs": lambda: witten_rhs(m, zero, -1),
        "km_series": lambda: km_series(km, m.form, -1),
        "sw_series": lambda: sw_series(m, zero, -1),
        "exp_linear": lambda: exp_linear(m.form, km.terms[0][1], -1),
        "exp_quadratic": lambda: exp_quadratic(m.form, -2),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == (
            "num_vars and degree_cap must be non-negative"), name
    with pytest.raises(ValueError, match="^degree -1 is negative$"):
        HomogeneousPolynomial(2, 3, degree=-1)


# ---------------------------------------------------------------------------
# canonical text

def test_golden_text_hyperbolic_exponential():
    assert exp_quadratic(H, 4).to_text() == (
        "series vars=2 cap=4\n"
        "1\n"
        "1 * h1^1 h2^1")


def test_zero_series_text():
    z = FormalSeries.zero(2, 3)
    assert z.to_text() == "series vars=2 cap=3\n0"
    assert FormalSeries.parse(z.to_text()) == z


def test_terms_sorted_by_degree_then_lex():
    s = S(2, 5, {(2, 0): 1, (0, 2): 2, (1, 1): 3, (0, 0): 4, (1, 0): 5})
    lines = s.to_text().splitlines()[1:]
    assert lines == ["4", "5 * h1^1", "2 * h2^2", "3 * h1^1 h2^1", "1 * h1^2"]


def test_parse_roundtrip_random():
    rng = random.Random(27)
    for _ in range(25):
        s = random_series(rng, rng.randint(1, 3), rng.randint(1, 7))
        assert FormalSeries.parse(s.to_text()) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        FormalSeries.parse("not a series")
    with pytest.raises(ValueError):
        FormalSeries.parse("series vars=1 cap=3\n1 * x^2")
    with pytest.raises(ValueError, match="zero denominator"):
        FormalSeries.parse("series vars=1 cap=2\n1/0")
    # a term at or above the header's cap is refused, not dropped
    with pytest.raises(ValueError, match="degree 3 at or above cap 3"):
        FormalSeries.parse("series vars=2 cap=3\n1\n5 * h1^3")


def test_caller_input_checks_raise_their_documented_errors():
    with pytest.raises(TypeError, match="exact rational, got float"):
        FormalSeries(1, 3, {(1,): 0.5})
    with pytest.raises(DimensionMismatch, match="does not have 3 entries"):
        FormalSeries(3, 3, {(1, 0): 1})
    s = S(2, 4, {(0, 0): 1, (1, 0): 2})
    with pytest.raises(DimensionMismatch, match="wrong length"):
        s.coefficient((1,))
    with pytest.raises(ValueError, match="non-negative integer"):
        s ** -1
    for var in (-1, 2):
        with pytest.raises(DimensionMismatch, match=f"index {var}"):
            s.derivative(var)
    with pytest.raises(ValueError, match="empty series text"):
        FormalSeries.parse(" \n ")
    with pytest.raises(ValueError, match="duplicate monomial"):
        FormalSeries.parse("series vars=2 cap=3\n1 * h1^1\n2 * h1^1")
    with pytest.raises(ValueError, match="h3 out of range"):
        FormalSeries.parse("series vars=2 cap=3\n1 * h3^1")
    with pytest.raises(TruncationError, match="degree 3 >= cap 3"):
        HomogeneousPolynomial(2, 3, degree=3)


def test_operators_defer_on_a_non_series_operand():
    # NotImplemented lets Python try the other operand, then raise
    s = S(1, 3, {(0,): 1})
    for other in ("x", 0.5):
        for op in ("__eq__", "__add__", "__sub__", "__mul__"):
            assert getattr(s, op)(other) is NotImplemented, (op, other)
    assert s != "x"
    for op in (lambda: s + "x", lambda: s - 0.5, lambda: s * 0.5):
        with pytest.raises(TypeError):
            op()


def test_first_difference_reports_smallest_monomial():
    a = S(2, 6, {(0, 0): 1, (1, 1): 2, (3, 0): 5})
    b = S(2, 6, {(0, 0): 1, (1, 1): 3, (2, 0): 7})
    exps, ca, cb = first_difference(a, b, 6)
    assert exps == (1, 1) and ca == 2 and cb == 3
    # below the differing degree they are congruent
    assert first_difference(a, b, 2) is None
    # and the lex rule breaks ties inside one degree
    c = S(2, 6, {(1, 1): 2, (2, 0): 9, (3, 0): 5})
    exps, ca, cb = first_difference(a, c, 6)
    assert exps == (0, 0) and ca == 1 and cb == 0


def test_first_difference_refuses_past_either_cap():
    # a's coefficients from degree 2 on were truncated away: they are
    # unknown, not 0, so neither a difference at h1^3 nor congruence mod 3
    a = FormalSeries.one(1, 2)
    b = S(1, 6, {(0,): 1, (3,): 5})
    for n in (3, 5):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TruncationError, match="caps"):
                first_difference(x, y, n)
    assert first_difference(a, b, 2) is None
    with pytest.raises(ValueError, match="negative"):
        first_difference(a, b, -1)
    with pytest.raises(DimensionMismatch):
        first_difference(a, FormalSeries.one(2, 6), 1)


# ---------------------------------------------------------------------------
# the divided-power kernel against the product route

def exp_by_products(p):
    """exp(p) for p without constant term: sum_k p^k / k!, by naive_mul
    and fraction_sum (not by the library's ring operations, which share the
    kernel's product code)."""
    n, cap = p.num_vars, p.degree_cap
    powers = [FormalSeries.one(n, cap)]
    while not powers[-1].is_zero():
        powers.append(naive_mul(powers[-1], p))
    return fraction_sum(n, cap, [(Fraction(1, factorial(k)), power)
                                 for k, power in enumerate(powers)])


def product_route(form, weighted_classes, cap):
    n = form.rank
    acc = fraction_sum(n, cap, [
        (c, exp_by_products(linear_series(form, k, cap)))
        for c, k in weighted_classes])
    half_q = fraction_sum(n, cap, [
        (Fraction(1, 2), quadratic_series(form, cap))])
    return naive_mul(exp_by_products(half_q), acc)


def assert_kernel_matches(form, weighted_classes, cap):
    got = gaussian_sum(form, weighted_classes, cap)
    want = product_route(form, weighted_classes, cap)
    # equal term counts: the support walk reaches every nonzero monomial
    assert len(got.terms) == len(want.terms)
    assert got.to_text() == want.to_text()


def test_kernel_matches_product_route_on_dense_forms():
    rng = random.Random(28)
    for rank in range(2, 7):
        form = random_unimodular_form(rng, rank, ops=3 * rank)
        assert sum(1 for row in form.gram for g in row if g) > rank * rank // 2
        for cap in (rng.randint(1, 9), 10):
            classes = [(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                        tuple(rng.randint(-2, 2) for _ in range(rank)))
                       for _ in range(rng.randint(1, 3))]
            scale = Fraction(rng.choice((-1, 1)), 2 ** rng.randint(0, 5))
            assert_kernel_matches(form, [(scale * c, k) for c, k in classes],
                                  cap)


def test_kernel_matches_product_route_on_k3():
    form = k3_form()
    zero = (0,) * 22
    assert_kernel_matches(form, [(Fraction(1, 2), zero)], 8)


def test_kernel_matches_product_route_on_sparse_e4():
    # E(4) = 7H + 4(-E8); basic classes 2F, 0, -2F with F isotropic
    h = hyperbolic_plane()
    form = direct_sum(*([h] * 7 + [e8_form(negative=True)] * 4))
    f = (1,) + (0,) * 45
    two_f = tuple(2 * x for x in f)
    classes = [(Fraction(1, 4), two_f), (Fraction(-1, 2), (0,) * 46),
               (Fraction(1, 4), tuple(-x for x in two_f))]
    assert_kernel_matches(form, classes, 6)


def test_kernel_divided_powers_of_linear_exponent():
    # F(e) = e! [h^e] exp(<K, h>) = (G K)^e exactly, zero only where it must be
    rng = random.Random(30)
    for _ in range(6):
        rank = rng.randint(1, 4)
        form = random_unimodular_form(rng, rank)
        k = tuple(rng.randint(-2, 2) for _ in range(rank))
        d = form.dual_coefficients(k)
        cap = rng.randint(1, 8)
        got = gaussian_sum(form, [(1, k)], cap, quadratic=False)
        terms = got.terms
        for e in itertools.product(range(cap), repeat=rank):
            if sum(e) >= cap:
                continue
            f = terms.get(e, Fraction(0)) * prod(factorial(x) for x in e)
            assert f == prod(di ** x for di, x in zip(d, e))
        assert got == exp_linear(form, k, cap)


def test_divided_powers_are_the_integer_coefficients():
    # F(e) = e! [h^e] exp(Q/2 + <K, h>) as ints, keyed by exponent tuple,
    # on exactly the support of the product-route series
    rng = random.Random(32)
    for rank in range(1, 6):
        form = random_unimodular_form(rng, rank, ops=3 * rank)
        k = tuple(rng.randint(-2, 2) for _ in range(rank))
        cap = rng.randint(0, 7)
        want = product_route(form, [(1, k)], cap).terms
        got = divided_powers(form, k, cap)
        assert set(got) == set(want)
        for e, f in got.items():
            assert type(f) is int
            assert f == want[e] * prod(factorial(x) for x in e)


def test_kernel_edge_cases():
    form = random_unimodular_form(random.Random(31), 3)
    k = (1, 0, -1)
    assert gaussian_sum(form, [], 5) == FormalSeries.zero(3, 5)
    assert gaussian_sum(form, [(0, k)], 5) == FormalSeries.zero(3, 5)
    assert gaussian_sum(form, [(1, k)], 0) == FormalSeries.zero(3, 0)
    assert gaussian_sum(form, [(2, k), (-2, k)], 5) == FormalSeries.zero(3, 5)
    # one class twice: every block is common, and the weights add
    assert gaussian_sum(form, [(2, k), (Fraction(1, 3), k)], 5) == \
        gaussian_sum(form, [(Fraction(7, 3), k)], 5)
    assert gaussian_sum(form, [(3, k)], 1) == FormalSeries.constant(3, 3, 1)


# ---------------------------------------------------------------------------
# forms that split into orthogonal blocks: one kernel run per block

def interleaved_form():
    """H + <1> + (-E8) with its basis permuted so that the blocks
    interleave in index order: new index i is old index order[i]."""
    gram = direct_sum(H, IntersectionForm([[1]]), e8_form(negative=True)).gram
    order = (3, 0, 4, 2, 5, 1, 6, 7, 8, 9, 10)
    return IntersectionForm([[gram[a][b] for b in order] for a in order])


SPLIT_FORMS = {
    "K3": k3_form,
    "E(4)": lambda: elliptic_manifold(4).form,
    "synthetic_05": lambda: load_bundled("synthetic_05.manifold").form,
    "synthetic_10": lambda: load_bundled("synthetic_10.manifold").form,
    "interleaved": interleaved_form,
    # index 1 pairs with nothing, not even itself, so its factor is 1
    "isolated zero": lambda: IntersectionForm(
        [[2, 0, 1, 0], [0, 0, 0, 0], [1, 0, 2, 0], [0, 0, 0, -1]],
        require_unimodular=False),
}


def route_classes(form):
    """Weighted classes for gaussian_sum, with duals of few entries so that
    the references stay small: u is a basis vector whose dual G u has one
    entry, at index a, and v = u + e_b with b in another block, so that
    <v, h> reaches two blocks. Each sum comes with its kernel runs per
    block: one for a block that is not named."""
    n = form.rank
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    u = next(e for e in units
             if sum(map(bool, form.dual_coefficients(e))) == 1)
    a = next(i for i, x in enumerate(form.dual_coefficients(u)) if x)
    blocks = [tuple(block) for block in gram_components(form.sparse_rows)]
    block_a = next(block for block in blocks if a in block)
    block_b = next(block for block in blocks
                   if a not in block and any(form.gram[block[0]]))
    v = tuple(x + y for x, y in zip(u, units[block_b[0]]))
    twice = tuple(2 * x for x in u)
    return {
        # one class: every block is its own, none is common
        "single": ([(Fraction(3, 2), v)], {}),
        # v and u differ on b's block only; over the lcm 6 the integer
        # weights are 3 and -2, so V's integer constant c is 1
        "one block differs": ([(Fraction(1, 2), v), (Fraction(-1, 3), u)],
                              {block_b: 2}),
        # v and 2u differ on a's and b's blocks, and c is 3 + 2 = 5
        "two blocks differ": ([(Fraction(1, 2), v), (Fraction(1, 3), twice)],
                              {block_a: 2, block_b: 2}),
        # sinh^2 <u, h>: c is 0 and V starts at degree 2, so the common
        # blocks are read below cap - 2 only
        "sinh squared": ([(Fraction(1, 4), twice), (Fraction(-1, 2), (0,) * n),
                          (Fraction(1, 4), tuple(-x for x in twice))],
                         {block_a: 3}),
    }


@pytest.mark.parametrize("name", SPLIT_FORMS)
def test_every_route_on_split_forms(name, memo):
    form = SPLIT_FORMS[name]()
    n = form.rank
    blocks = [tuple(block) for block in gram_components(form.sparse_rows)]
    assert len(blocks) > 1
    halves = {}     # cap -> e^{Q/2}, shared by the sums
    for route, (classes, runs) in route_classes(form).items():
        # on E(4), a sum with a constant term has 175,497 terms at cap 8,
        # and its Fraction reference takes about 20 s
        top = 6 if name == "E(4)" and route != "sinh squared" else 8
        sw_part = fraction_sum(n, top, [
            (c, exp_by_products(linear_series(form, k, top)))
            for c, k in classes])
        # the product below top needs e^{Q/2} only below top - the lowest
        # degree of the SW part
        below = top - min(sw_part.support_degrees(), default=top)
        if below not in halves:
            halves[below] = exp_by_products(fraction_sum(
                n, below, [(Fraction(1, 2), quadratic_series(form, below))]))
        want = naive_mul(FormalSeries(n, top, halves[below].terms), sw_part)
        for cap in range(top + 1):
            memo.streams.clear()
            got = gaussian_sum(form, classes, cap)
            assert got == want.truncate_to(cap), (route, cap)
            # every call is cold: the cap differs from the last one's
            assert sorted(memo.streams) == sorted(
                block for block in blocks
                for _ in range(runs.get(block, 1))), (route, cap)


def test_kernel_runs_once_per_block(memo, monkeypatch):
    form = interleaved_form()
    blocks = []
    stream = series._slice_stream

    def spy(layout, block, *args):
        blocks.append(list(block))
        return stream(layout, block, *args)

    monkeypatch.setattr(series, "_slice_stream", spy)
    k = (1,) * form.rank
    exp_quadratic(form, 6)
    assert blocks == [[0, 2, 4, 6, 7, 8, 9, 10], [1, 5], [3]]
    blocks.clear()
    exp_linear(form, k, 6)
    assert blocks == [list(range(form.rank))]


@pytest.fixture
def splits(monkeypatch):
    """The number of `gram_components` calls. A module that imports the
    name holds a binding of its own, so series' is counted as well,
    should it hold one."""
    calls = []
    real = lattice.gram_components

    def counted(gram):
        calls.append(len(gram))
        return real(gram)

    monkeypatch.setattr(lattice, "gram_components", counted)
    monkeypatch.setattr(series, "gram_components", counted, raising=False)
    return calls


def test_a_form_is_split_into_blocks_once(splits, capsys, tmp_path):
    # a witten job splits its form when the file is loaded, and its sum
    # reads the form's blocks
    m = elliptic_manifold(4)
    zero = (0,) * m.rank
    path = tmp_path / "e4.manifold"
    path.write_text(manifold_to_text(m))
    splits.clear()
    assert main(["--degree", "6", "witten", str(path)]) == 0
    assert splits == [46]
    target = witten_rhs(m, zero, 6)
    assert capsys.readouterr().out == target.to_text() + "\n"
    # a KM round trip on a form in hand splits it no more
    splits.clear()
    km = witten_consistent_km(m, zero)
    fit = fit_km_coefficients(target, [k for _, k in km.terms], zero,
                              m.form, 6)
    assert fit.status == "unique" and len(km.terms) == 3
    assert km_series(km, m.form, 6) == target
    assert splits == []


# ---------------------------------------------------------------------------
# the kernel's stream against the pull form of its recurrence

def pull_stream(layout, block, d, gram=None):
    """The kernel's slices by the pull form of the recurrence: every
    candidate e + u_i (d_i != 0) and f + u_i + u_j (G_ij != 0) is visited,
    and its value is pulled through one direction i with e_i > 0, in
    insertion order."""
    shifts, mask = layout
    if gram is not None:
        cols = [(j, 1 << shifts[j], shifts[j]) for j in block]
        steps = [(pi, d[i], [(row[j], pj, sj) for j, pj, sj in cols if row[j]])
                 for i, pi, _ in cols for row in [gram[i]]]
    else:
        steps = [(1 << shifts[i], d[i], ()) for i in block if d[i]]
    lin_steps = [(step[0], step) for step in steps if step[1]]
    quad_steps = [(step[0] + p, step) for step in steps
                  for _, p, _ in step[2] if p <= step[0]]
    prev, cur = {}, {0: 1}
    yield cur
    while True:
        cand = {key + p: step for key in cur for p, step in lin_steps}
        if prev:
            cand.update({key + p: step for key in prev
                         for p, step in quad_steps})
        nxt = {}
        for key, (pi, di, row) in cand.items():
            e = key - pi
            v = di * cur.get(e, 0)
            for g, p, sh in row:
                # only a true e - u_j is a degree-(n-1) key; a borrow
                # across fields raises the entry sum instead
                f = prev.get(e - p)
                if f:
                    v += g * (e >> sh & mask) * f
            if v:
                nxt[key] = v
        yield nxt
        prev, cur = cur, nxt


def stream_cases():
    """(name, form, d, cap, quadratic) for the kernel's stream: seeded dense
    (sheared) and sparse (block or one shear) forms of ranks 1-7 at caps
    0-12, where 2, 3, 5 and 9 put a top exponent cap - 1 in the top bit of
    its key field; classes with some d_i = 0 and the zero class, with Q and
    without; then K3, E(4) and synthetic_05."""
    rng = random.Random(2201)
    for rank in range(1, 8):
        for kind, ops in (("dense", 3 * rank), ("block", 0), ("sheared", 1)):
            form = random_unimodular_form(rng, rank, ops=ops)
            for cap in sorted({0, 1, 2, 3, 4, 5, 9, 13 - rank}):
                d = [rng.randint(-2, 2) for _ in range(rank)]
                d[rng.randrange(rank)] = 0
                for dual in (tuple(d), (0,) * rank):
                    name = f"{kind} rank {rank} cap {cap} d={dual}"
                    yield name, form, dual, cap, True
                    yield name, form, dual, cap, False
    for name, form, cap in (("K3", k3_form(), 8),
                            ("E(4)", elliptic_manifold(4).form, 6),
                            ("synthetic_05",
                             load_bundled("synthetic_05.manifold").form, 12)):
        # three nonzero entries: without Q, every d_i != 0 is a variable
        # of the whole support
        d = [0] * form.rank
        for i in rng.sample(range(form.rank), 3):
            d[i] = rng.choice((-2, -1, 1, 2))
        d = tuple(d)
        for dual in (d, (0,) * form.rank):
            yield name, form, dual, cap, True
        yield name, form, d, cap, False


def test_stream_matches_the_pull_form():
    blocks_seen = 0
    for name, form, d, cap, quadratic in stream_cases():
        layout = series._layout(form.rank, cap)
        shifts, mask = layout
        gram = form.gram if quadratic else None
        rows = form.sparse_rows if quadratic else None
        blocks = (gram_components(form.sparse_rows) if quadratic
                  else [range(form.rank)])
        for block in blocks:
            blocks_seen += 1
            got = list(itertools.islice(
                series._slice_stream(layout, block, d, rows), cap))
            want = list(itertools.islice(
                pull_stream(layout, block, d, gram), cap))
            assert got == want, (name, quadratic, block)
            for degree, part in enumerate(got):
                assert list(part) == sorted(part), (name, degree)
                assert all(part.values()), (name, degree)
                assert {sum(key >> sh & mask for sh in shifts)
                        for key in part} <= {degree}, (name, degree)
    assert blocks_seen > 500


# ---------------------------------------------------------------------------
# kernel results read through the `terms` view

def solve_unimodular(form, rhs):
    """The integer u with G u = rhs, by Gauss-Jordan over Fractions."""
    n = form.rank
    rows = [[Fraction(x) for x in row] + [Fraction(r)]
            for row, r in zip(form.gram, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    u = tuple(int(row[n]) for row in rows)
    assert form.dual_coefficients(u) == tuple(rhs)
    return u


def packed_cases():
    """(form, weighted classes, cap, quadratic, cancels) on seeded dense
    forms of ranks 1-6 at caps 0-10: single classes, sums of classes that
    differ and sums of one class; `cancels` marks the sums that are the
    zero series."""
    rng = random.Random(46)
    for rank in range(1, 7):
        form = random_unimodular_form(rng, rank, ops=3 * rank)
        zero = (0,) * rank

        def klass():
            return tuple(rng.randint(-2, 2) for _ in range(rank))

        def weight():
            return Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))

        u = solve_unimodular(form, (2,) + (0,) * (rank - 1))
        minus_u = tuple(-x for x in u)
        q, k = weight(), klass()
        for cap in sorted({0, 1, rank + 1, 2 * rank - 2, 10 - rank, 10}):
            yield form, [(weight(), klass())], cap, True, False
            yield form, [(weight(), klass())], cap, False, False
            yield form, [(weight(), klass()) for _ in range(3)], cap, False, \
                False
            # S = -4q sinh^2 <u, h> has one term per even degree in [2, cap)
            sinh_sq = [(-q, u), (2 * q, zero), (-q, minus_u)]
            yield form, sinh_sq, cap, True, False
            # the weighted sum cancels: the zero series
            yield form, [(q, k), (-q, k)], cap, True, True
            yield form, [(q, k), (-q, k)], cap, False, True
            if rank >= 2:
                dense = [(weight(), klass()) for _ in range(3)]
                yield form, dense, cap, True, False


def test_packed_series_reads_like_its_terms(monkeypatch):
    streams = []
    stream = series._slice_stream

    def spy(layout, block, *args):
        streams.append(tuple(block))
        return stream(layout, block, *args)

    monkeypatch.setattr(series, "_slice_stream", spy)
    seen = set()
    for form, classes, cap, quadratic, cancels in packed_cases():
        n = form.rank
        whole = tuple(range(n))
        assert gram_components(form.sparse_rows) == [list(whole)]
        # an empty memo for each sum
        monkeypatch.setattr(series, "_MEMO",
                            series._SliceMemo(series._MEMO_ENTRIES))
        streams.clear()
        s = gaussian_sum(form, classes, cap, quadratic)
        # a form of one block: each distinct class runs on the whole form,
        # and a sum of one class runs its common block once
        duals = {form.dual_coefficients(k) for _, k in classes}
        assert streams == [whole] * len(duals), (n, cap, classes)
        seen.add((len(classes), len(duals)))
        slices = s.slices
        text = s.to_text()
        parts = [s.homogeneous_part(d) for d in range(cap)]
        terms = s.terms
        # the view is built on each read and never kept: the series holds
        # its integers only, before and after
        assert s.terms == terms and s.terms is not terms
        assert s.slices is slices and not hasattr(s, "__dict__")
        assert text == reference_text(s) == s.to_text()
        assert text == FormalSeries(n, cap, dict(terms)).to_text()
        assert [(p.degree, p) for p in parts] == [
            (d, s.homogeneous_part(d)) for d in range(cap)]
        if cancels:
            assert not terms and text.splitlines()[1:] == ["0"]
        probes = [e for e in list(terms)[:20] + [(0,) * n, (1,) * n]
                  if sum(e) < cap]
        fresh = gaussian_sum(form, classes, cap, quadratic)
        assert [fresh.coefficient(e) for e in probes] == [
            s.coefficient(e) for e in probes]
        assert gaussian_sum(form, classes, cap, quadratic) == s
        assert s == gaussian_sum(form, classes, cap, quadratic)
    assert {(1, 1), (2, 1), (3, 3)} <= seen


def test_packed_key_order_is_lex_order():
    # within one degree, ascending packed keys are the exponent tuples in
    # lex order: the order of the canonical text
    for cap in range(17):
        for n in (1, 2, 3, 4):
            shifts, mask = series._layout(n, cap)
            monomials = [tuple(c.count(i) for i in range(n))
                         for d in range(cap)
                         for c in itertools.combinations_with_replacement(
                             range(n), d)]
            assert all(e < mask + 1 for m in monomials for e in m)
            key = {m: sum(e << sh for e, sh in zip(m, shifts))
                   for m in monomials}
            assert sorted(monomials, key=lambda m: (sum(m), key[m])) == sorted(
                monomials, key=lambda m: (sum(m), m))


# ---------------------------------------------------------------------------
# the text and the comparison against references that share no code path
# with the library's readers: `reference_text` reads the slices key by key
# with `_exponents` (no decoder table), `reference_first_difference` reads
# `terms` (exponent tuples and Fractions)

def reference_text(s):
    lines = [f"series vars={s.num_vars} cap={s.degree_cap}"]
    for exps, coeff in sorted(slice_terms(s).items(),
                              key=lambda item: (sum(item[0]), item[0])):
        factors = monomial_label(exps)
        lines.append(f"{coeff} * {factors}" if factors else f"{coeff}")
    if len(lines) == 1:
        lines.append("0")
    return "\n".join(lines)


def reference_first_difference(a, b, n):
    ta, tb = a.terms, b.terms
    keys = {e for e in ta if sum(e) < n} | {e for e in tb if sum(e) < n}
    for exps in sorted(keys, key=lambda e: (sum(e), e)):
        ca = ta.get(exps, Fraction(0))
        cb = tb.get(exps, Fraction(0))
        if ca != cb:
            return exps, ca, cb
    return None


def kernel_sum(rng, form, cap):
    """A gaussian_sum of 1-3 classes with signed fractional weights."""
    classes = [(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(1, 6)),
                tuple(rng.randint(-2, 2) for _ in range(form.rank)))
               for _ in range(rng.randint(1, 3))]
    return gaussian_sum(form, classes, cap, quadratic=rng.random() < 0.7)


def bumped(s, rng, count):
    """A constructed copy of s with `count` coefficients changed: raised by
    a fraction, or set where s has none."""
    terms = dict(s.terms)
    for _ in range(count):
        d = rng.randrange(s.degree_cap)
        parts = [e for e in itertools.product(range(d + 1), repeat=s.num_vars)
                 if sum(e) == d]
        e = rng.choice(parts)
        terms[e] = terms.get(e, Fraction(0)) + Fraction(rng.choice([-1, 1]),
                                                        rng.randint(1, 5))
    return FormalSeries(s.num_vars, s.degree_cap, terms)


def test_text_matches_the_tuple_formatter():
    rng = random.Random(140)
    cases = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        cap = rng.randint(0, 8)
        a = random_series(rng, n, cap, nterms=8)
        b = random_series(rng, n, cap, nterms=8)
        form = random_unimodular_form(rng, n, ops=3 * n)
        for s in (a, a * b, a - a, -a, a * Fraction(-7, 3),
                  a.truncate_to(rng.randint(0, cap)), kernel_sum(rng, form, cap),
                  kernel_sum(rng, form, cap).truncate_to(rng.randint(0, cap))):
            text = s.to_text()
            assert text == reference_text(s)
            for d in range(s.degree_cap):
                part = s.homogeneous_part(d)
                assert part.to_text() == reference_text(part)
            cases += 1
    assert cases == 240


def sparse_exponents(rng, n, cap):
    """An exponent tuple of degree < cap on at most three variables."""
    exps = [0] * n
    support = rng.sample(range(n), min(3, n))
    for _ in range(rng.randrange(max(cap, 1))):
        exps[rng.choice(support)] += 1
    return tuple(exps)


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 5, 9, 17])
def test_text_and_terms_above_rank_four(cap):
    # every entry of every rank from 5 to 46 holds, in one series, the top
    # exponent cap - 1, which fills its field's top bit at these caps
    rng = random.Random(1400 + cap)
    cases = 0
    for n in range(5, 47):
        sparse = {sparse_exponents(rng, n, cap):
                  Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                           rng.randint(1, 6)) for _ in range(8)}
        tops = {tuple(cap - 1 if j == i else 0 for j in range(n)):
                Fraction(rng.randint(1, 5), rng.randint(1, 3))
                for i in range(n)} if cap > 1 else {}
        scale = Fraction(rng.choice([-7, 5]), rng.choice([1, 3]))
        expected = [(FormalSeries(n, cap, sparse), sparse),
                    (FormalSeries(n, cap, tops), tops),
                    (-FormalSeries(n, cap, tops),
                     {e: -c for e, c in tops.items()}),
                    (FormalSeries(n, cap, sparse) * scale,
                     {e: c * scale for e, c in sparse.items()}),
                    (FormalSeries.constant(Fraction(-5, 3), n, cap),
                     {(0,) * n: Fraction(-5, 3)} if cap else {}),
                    (FormalSeries.zero(n, cap), {})]
        for s, terms in expected:
            terms = {e: c for e, c in terms.items() if sum(e) < cap and c}
            assert s.terms == terms
            assert s.to_text() == reference_text(s)
            cases += 1
    assert cases == 42 * 6


class Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def slice_terms(s):
    """exponent tuple -> coefficient, read off the slices key by key with
    `_exponents` (no decoder table)."""
    terms = {}
    for part in s.slices:
        for key, v in part.items():
            e = s._exponents(key)
            terms[e] = Fraction(v * s.weight,
                                prod(map(factorial, e)) * s.den)
    return terms


def one_degree_series(count, constant):
    """A 3-variable series whose degree-90 slice holds `count` terms, the
    first monomials of that degree in lex order, with or without a
    constant term."""
    monomials = [(a, b, 90 - a - b) for a in range(91) for b in range(91 - a)]
    terms = {e: Fraction((i % 7) - 3 or 5, 1 + i % 4)
             for i, e in enumerate(monomials[:count])}
    if constant:
        terms[(0, 0, 0)] = Fraction(-2, 3)
    return FormalSeries(3, 91, terms)


def writer_cases():
    """name -> series: zero and constant series, fractional weights and
    dens, kernel sums on forms of rank 1, 2, 3 and 5 (at rank 1 the high
    half holds no field), one degree of 4,095-4,097 terms around
    the chunk size, and K3's witten series at cap 8."""
    rng = random.Random(2027)
    cases = {"zero cap 0": FormalSeries.zero(2, 0),
             "zero cap 3": FormalSeries.zero(2, 3),
             "constant": FormalSeries.constant(Fraction(-5, 3), 3, 4)}
    cases["fractional"] = gaussian_sum(
        H, [(Fraction(5, 6), (1, 0)), (Fraction(-1, 4), (0, 1))], 6
    ) * Fraction(-7, 3)
    for n in (1, 2, 3, 5):
        form = random_unimodular_form(rng, n, ops=3 * n)
        k = tuple(rng.randint(-2, 2) for _ in range(n))
        cases[f"rank {n}"] = gaussian_sum(form, [(Fraction(3, 4), k)],
                                          7) * Fraction(2, 5)
    for count in (4095, 4096, 4097):
        for constant in (False, True):
            cases[f"{count} terms, constant={constant}"] = one_degree_series(
                count, constant)
    cases["K3 cap 8"] = witten_rhs(k3_manifold(), (0,) * 22, 8)
    return cases


def test_write_text_writes_the_text_in_bounded_chunks():
    chunk = series._CHUNK_LINES
    assert chunk == 4096
    cases = writer_cases()
    # K3's cap-8 text is 6,665 lines: the header and 6,664 terms
    assert sum(map(len, cases["K3 cap 8"].slices)) == 6664
    for name, s in cases.items():
        out = Recorder()
        s.write_text(out)
        text = s.to_text()
        assert "".join(out.writes) == text + "\n", name
        assert text == reference_text(s), name
        # full chunks of term lines, the last one excepted; the first also
        # holds the header, and a zero series writes its "0" line
        count = sum(map(len, s.slices))
        sizes = [min(chunk, count - i) for i in range(0, count, chunk)] or [1]
        sizes[0] += 1
        assert [w.count("\n") for w in out.writes] == sizes, name
        # the tuple names of the same decoder
        terms = slice_terms(s)
        assert s.terms == terms, name
        for d, part in enumerate(s.slices):
            assert s._fractions([d]) == {
                e: c for e, c in terms.items() if sum(e) == d}, name
            keys = list(part)[::3]
            assert s._fractions([d], keys) == {
                s._exponents(key): terms[s._exponents(key)]
                for key in keys}, name


class CountingLabels(series._Labels):
    """A decoder table that counts its misses."""

    def __init__(self, *args):
        super().__init__(*args)
        self.misses = 0

    def __missing__(self, key):
        self.misses += 1
        return super().__missing__(key)


def check_labels(count, first, cap, exponent_rows):
    """Read each row's packed key from fresh text and tuple tables of
    `count` fields from entry `first` on, at this cap, against the row."""
    width = max(cap - 1, 1).bit_length()
    fact = [factorial(e) for e in range(cap)]
    text = CountingLabels(count, first, width, fact, True)
    tuples = CountingLabels(count, first, width, fact, False)
    for exps in exponent_rows:
        key = sum(e << width * (count - 1 - i) for i, e in enumerate(exps))
        label = "".join(f" h{first + i + 1}^{e}"
                        for i, e in enumerate(exps) if e)
        f = prod(map(factorial, exps))
        assert text[key] == (label, f), (count, cap, exps)
        assert tuples[key] == (tuple(exps), f), (count, cap, exps)
    # each miss decodes one field and adds one entry to the seeded key 0
    for table in (text, tuples):
        assert table.misses == len(table) - 1, (count, cap)


@pytest.mark.parametrize("cap", [2, 3, 4, 5, 8, 9, 16])
def test_labels_decode_one_field_per_entry(cap):
    # fields 1-4 bits wide (caps 2, 3-4, 5-8, 9-16); random keys, key 0,
    # and keys whose top field holds cap - 1, the top of the field's range
    rng = random.Random(2800 + cap)
    for count in (0, 1, 2, 11, 23):
        first = rng.randrange(40)
        rows = [[0] * count]
        rows += [[rng.randrange(cap) if rng.random() < 0.6 else 0
                  for _ in range(count)] for _ in range(60)]
        if count:
            rows += [[cap - 1] + row[1:] for row in rows[:20]]
        check_labels(count, first, cap, rows)


def test_labels_decode_a_key_of_a_thousand_fields():
    # an entry per field, each read from the rest of its key: keys of
    # 1,000 nonzero fields, as many as in each half of h1 h2 ... h2000,
    # still decode (read into the table a bounded number of fields at a
    # time), in the table and through the series
    for cap, exps in ((2, [1] * 1000), (4, [1 + i % 3 for i in range(1000)])):
        check_labels(len(exps), 0, cap, [exps, exps[:-1] + [0]])
    exps = (1,) * 2000
    s = FormalSeries(2000, 2001, {exps: Fraction(-1, 3)})
    assert s.to_text() == reference_text(s)
    assert s.terms == {exps: Fraction(-1, 3)}


def test_factorial_table_is_the_factorials_below_its_cap():
    # the running product that the decoder and _pack share
    for cap in range(41):
        assert series._factorials(cap) == [factorial(e) for e in range(cap)]


def test_repr_shows_four_lines_without_the_whole_text(monkeypatch):
    def old_repr(s):
        lines = s.to_text().splitlines()[1:]
        extra = "" if len(lines) <= 4 else f" (+{len(lines) - 4} terms)"
        return f"FormalSeries<{' + '.join(lines[:4])}{extra}>"

    cases = writer_cases()
    cases["three terms"] = S(2, 5, {(0, 0): 4, (1, 0): 5, (1, 1): 3})
    cases["four terms"] = S(2, 5, {(0, 0): 4, (1, 0): 5, (1, 1): 3,
                                   (0, 2): Fraction(-1, 2)})
    cases["homogeneous"] = HomogeneousPolynomial(
        2, 5, {(1, 1): Fraction(1, 3), (2, 0): 2}, degree=2)
    expected = {name: old_repr(s) for name, s in cases.items()}
    assert expected["zero cap 3"] == "FormalSeries<0>"
    assert expected["4097 terms, constant=True"].endswith(" (+4094 terms)>")

    def whole_text(self):
        raise AssertionError("__repr__ wrote the whole text")

    monkeypatch.setattr(FormalSeries, "to_text", whole_text)
    assert {name: repr(s) for name, s in cases.items()} == expected


def test_first_difference_matches_the_reference(monkeypatch):
    rng = random.Random(141)
    checked = differ = 0
    unpacked = []
    fractions = FormalSeries._fractions

    def spy(self, degrees, keys=None):
        unpacked.append(tuple(degrees))
        return fractions(self, degrees, keys)

    monkeypatch.setattr(FormalSeries, "_fractions", spy)

    def check(a, b, n):
        nonlocal checked, differ
        unpacked.clear()
        got = first_difference(a, b, n)
        # compared in integers (re-keyed when a key layout is not the one
        # of the smaller cap): nothing is unpacked, a witness's two
        # coefficients are read one monomial each
        assert unpacked == []
        assert got == reference_first_difference(a, b, n), (a, b, n)
        checked += 1
        differ += got is not None

    for _ in range(12):
        n = rng.randint(1, 4)
        form = random_unimodular_form(rng, n, ops=3 * n)
        seed = rng.random()
        # kernel results at caps 8 and 10, whose key fields are 3 and 4
        # bits wide, of one sum and of another; the one at cap 10 is
        # re-keyed
        for cap_b in (8, 10):
            for same in (True, False):
                a = kernel_sum(random.Random(seed), form, 8)
                b = kernel_sum(random.Random(seed if same else seed + 1),
                               form, cap_b)
                check(a, b, rng.randint(0, 8))
        # a kernel result against constructed copies with bumps at several
        # degrees, and against the zero series
        for count in (0, 1, 3):
            a = kernel_sum(random.Random(seed), form, 9)
            b = bumped(kernel_sum(random.Random(seed), form, 9), rng, count)
            check(a, b, 9)
            check(b, a, rng.randint(0, 9))
        a = kernel_sum(random.Random(seed), form, 7)
        check(a, FormalSeries.zero(n, 7), 7)
        check(FormalSeries.zero(n, 7), FormalSeries.zero(n, 9), 7)
        # constructed and product series
        x, y = random_series(rng, n, 7, 8), random_series(rng, n, 7, 8)
        for a, b in ((x, y), (x * y, y * x), (x * y, bumped(x * y, rng, 2)),
                     (x, x * Fraction(-1, 2)), (x - x, y)):
            check(a, b, rng.randint(0, 7))
    assert checked == 12 * 17 and 80 < differ < checked


def test_mismatching_first_difference_builds_no_unpack_tables(monkeypatch):
    # a --compare-style mismatch at degree 0 on dense forms: the witness's
    # coefficients come from `coefficient`, not from the per-cap label
    # and factorial tables that unpacking a whole degree needs
    rng = random.Random(142)
    built = []
    halves = FormalSeries._halves

    def spy(self, labels):
        built.append(labels)
        return halves(self, labels)

    monkeypatch.setattr(FormalSeries, "_halves", spy)
    for rank in range(1, 5):
        form = random_unimodular_form(rng, rank, ops=3 * rank)
        a = kernel_sum(random.Random(rank), form, 10)
        b = FormalSeries(rank, 10, dict(a.terms))
        b = b + FormalSeries.constant(Fraction(1, 3), rank, 10)
        built.clear()
        exps, ca, cb = first_difference(a, b, 10)
        assert built == []
        assert exps == (0,) * rank and cb - ca == Fraction(1, 3)


# ---------------------------------------------------------------------------
# the memo of the kernel's slices

@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty memo of the default bound, a count of the kernel runs
    that it makes (`runs`), and the blocks that the kernel's recurrence
    runs on (`streams`), in order, while the test runs."""
    fresh = series._SliceMemo(series._MEMO_ENTRIES)
    monkeypatch.setattr(series, "_MEMO", fresh)
    kernel = series._divided_power_slices
    stream = series._slice_stream
    fresh.runs = 0
    fresh.streams = []

    def counted(*args):
        fresh.runs += 1
        return kernel(*args)

    def spy(layout, block, *args):
        fresh.streams.append(tuple(block))
        return stream(layout, block, *args)

    monkeypatch.setattr(series, "_divided_power_slices", counted)
    monkeypatch.setattr(series, "_slice_stream", spy)
    return fresh


def stored_sizes(memo):
    return {key: sum(map(len, slices)) for key, slices in memo.slices.items()}


def memo_key(form, d, quadratic=True):
    """The memo's key of a single class: every block, in block order."""
    blocks = gram_components(form.sparse_rows) if quadratic else [range(form.rank)]
    indices = tuple(i for block in blocks for i in block)
    return indices, tuple(d[i] for i in indices), quadratic


def test_memo_cold_and_warm_calls_agree(memo):
    rng = random.Random(40)
    for rank in range(1, 5):
        form = random_unimodular_form(rng, rank, ops=3 * rank)
        assert gram_components(form.sparse_rows) == [list(range(rank))]
        classes = [(Fraction(rng.randint(-5, 5) or 1, 3 * rng.randint(1, 3)),
                    tuple(rng.randint(-2, 2) for _ in range(rank)))
                   for _ in range(3)]
        cap = rng.randint(1, 8)
        # a form of one block: one run per distinct class, on the whole form
        expected = len(set(k for _, k in classes))
        assert expected > 1
        runs = memo.runs        # a new form object: nothing stored for it
        memo.streams.clear()
        cold = gaussian_sum(form, classes, cap)
        cold_dp = [divided_powers(form, k, cap) for _, k in classes]
        assert memo.runs - runs == expected
        assert memo.streams == [tuple(range(rank))] * expected
        warm = gaussian_sum(form, classes, cap)
        warm_dp = [divided_powers(form, k, cap) for _, k in classes]
        assert memo.runs - runs == expected
        assert len(memo.streams) == expected
        assert warm == cold == product_route(form, classes, cap)
        assert warm_dp == cold_dp
        # a single class is read straight from its slices
        for c, k in classes:
            assert (gaussian_sum(form, [(c, k)], cap)
                    == product_route(form, [(c, k)], cap))


def test_memo_key_separates_quadratic_cap_form_and_class(memo):
    rng = random.Random(41)
    form = random_unimodular_form(rng, 3, ops=9)
    twin = IntersectionForm(form.gram)      # equal Gram, another object
    other = random_unimodular_form(rng, 3, ops=9)
    assert twin == form and other != form
    k, k2 = (1, 0, -1), (0, 2, 1)
    d, d2 = form.dual_coefficients(k), form.dual_coefficients(k2)
    # at one form object and cap: entries by class and by Q or no Q
    first = gaussian_sum(form, [(1, k)], 6)
    assert first == product_route(form, [(1, k)], 6) and memo.runs == 1
    no_q = gaussian_sum(form, [(1, k)], 6, quadratic=False)
    assert no_q == exp_by_products(linear_series(form, k, 6))
    assert memo.runs == 2
    second = gaussian_sum(form, [(1, k2)], 6)
    assert second == product_route(form, [(1, k2)], 6) and memo.runs == 3
    assert set(memo.slices) == {memo_key(form, d), memo_key(form, d, False),
                                memo_key(form, d2)}
    assert memo_key(form, d) == ((0, 1, 2), d, True)
    assert memo.form is form and memo.cap == 6
    # each of them is found again
    assert gaussian_sum(form, [(1, k)], 6) == first
    assert gaussian_sum(form, [(1, k)], 6, quadratic=False) == no_q
    assert gaussian_sum(form, [(1, k2)], 6) == second
    assert memo.runs == 3
    # another cap, another form or an equal form held separately runs the
    # kernel, and takes the slot for itself
    calls = [(form, 5, lambda: product_route(form, [(1, k)], 5)),
             (other, 6, lambda: product_route(other, [(1, k)], 6)),
             (twin, 6, lambda: product_route(twin, [(1, k)], 6)),
             (form, 6, lambda: first)]
    for runs, (f, cap, want) in enumerate(calls, start=4):
        assert gaussian_sum(f, [(1, k)], cap) == want()
        assert memo.runs == runs
        assert memo.form is f and memo.cap == cap
        assert list(memo.slices) == [memo_key(f, f.dual_coefficients(k))]


def test_memo_results_are_not_shared_with_callers(memo):
    form = random_unimodular_form(random.Random(42), 3, ops=9)
    k = (1, 1, 0)
    want = divided_powers(form, k, 6)
    series_want = gaussian_sum(form, [(2, k)], 6)
    got = divided_powers(form, k, 6)
    got.clear()
    got[(0, 0, 0)] = 99
    again = divided_powers(form, k, 6)
    assert again == want and again is not got
    assert gaussian_sum(form, [(2, k)], 6) == series_want
    assert memo.runs == 1


def test_memo_fills_until_full(memo):
    bound = 60
    memo.bound = bound
    rng = random.Random(43)
    forms = [random_unimodular_form(rng, rank, ops=3 * rank)
             for rank in (2, 3, 4)]
    refused = large = 0
    slot, stored = None, {}     # the first classes that fit -> size
    for _ in range(20):
        # a run of requests at one form and cap, classes asked for again
        form = rng.choice(forms)
        cap = rng.choice((3, 4, 5))
        if (form, cap) != slot:
            slot, stored = (form, cap), {}
        classes = [tuple(rng.randint(-1, 1) for _ in range(form.rank))
                   for _ in range(4)]
        for _ in range(8):
            k = rng.choice(classes)
            d = form.dual_coefficients(k)
            runs = memo.runs
            size = len(divided_powers(form, k, cap))
            key = memo_key(form, d)
            assert memo.runs - runs == (key not in stored)
            if key not in stored:
                if sum(stored.values()) + size <= bound:
                    stored[key] = size
                elif size <= bound:
                    refused += 1
                else:
                    large += 1
            assert stored_sizes(memo) == stored
            assert memo.entries == sum(stored.values()) <= bound
    # classes that would fit alone are refused once the slot is full
    assert refused >= 10 and large >= 5


def test_round_trip_memo_keeps_the_classes_that_fit(memo, monkeypatch):
    # a round trip asks for its classes in the same order three times; the
    # memo keeps the first ones that fit and runs only the rest again
    m = random_manifold(random.Random(9), max_rank=4, max_classes=3)
    classes = m.basic_classes()
    cap = 8
    assert m.rank == 4 and len(classes) == 3
    sizes = sorted(len(divided_powers(m.form, k, cap)) for k in classes)
    bound = sizes[0] + sizes[-1]
    assert sizes[-1] <= bound < sum(sizes)      # each fits, not all three
    # an empty memo of that bound; `memo` still counts the kernel's runs
    monkeypatch.setattr(series, "_MEMO", series._SliceMemo(bound))
    runs = memo.runs
    w = (0,) * m.rank
    target = witten_rhs(m, w, cap)
    fit = fit_km_coefficients(target, classes, w, m.form, cap)
    assert fit.status == "unique"
    km = KMData(w=w, terms=tuple((fit.a_values[k], k) for k in classes))
    assert km_series(km, m.form, cap) == target
    # three runs for witten_rhs, then one for each later step: the class
    # that did not fit beside the first two
    assert memo.runs - runs == 5


def sum_key(form, classes, quadratic=True):
    """The memo's key of a sum of several classes: the integer weights
    over the lcm of their denominators and each class's d, in call order."""
    den = lcm(*(Fraction(c).denominator for c, _ in classes))
    return tuple((int(c * den), form.dual_coefficients(k))
                 for c, k in classes if c), quadratic


@pytest.fixture
def sums_formed(monkeypatch):
    """The number of `_weighted_sum` calls: one per sum the kernel forms."""
    calls = []
    real = series._weighted_sum

    def counted(weighted, cap):
        calls.append(cap)
        return real(weighted, cap)

    monkeypatch.setattr(series, "_weighted_sum", counted)
    return calls


@pytest.fixture
def residual_parts(monkeypatch):
    """The number of parts of each residual that `fit_km_coefficients`
    hands to `_first_nonzero`: 2 when it reads the memo's stored sum, the
    target and one per nonzero class otherwise."""
    calls = []
    real = invariants._first_nonzero

    def counted(weighted, cap):
        calls.append(len(weighted))
        return real(weighted, cap)

    monkeypatch.setattr(invariants, "_first_nonzero", counted)
    return calls


def test_memo_warm_sum_runs_no_stream(memo, sums_formed):
    # a warm identical sum is read whole from the memo: no class, no
    # common block and no weighted sum runs again
    rng = random.Random(45)
    one_block = random_unimodular_form(rng, 3, ops=9)
    cases = [(one_block, [[(1, (1, 0, -1)), (Fraction(-2, 3), (0, 2, 1)),
                           (3, (1, 1, 1))]])]
    for form in (elliptic_manifold(4).form, interleaved_form()):
        cases.append((form, [c for name, (c, _) in route_classes(form).items()
                             if name != "single"]))
    for form, sums in cases:
        for classes in sums:
            memo.form = None        # an empty slot: the first call is cold
            cold = gaussian_sum(form, classes, 6)
            runs, formed = memo.runs, len(sums_formed)
            memo.streams.clear()
            warm = gaussian_sum(form, classes, 6)
            assert (memo.runs, len(sums_formed), memo.streams) == (
                runs, formed, [])
            assert warm.slices is cold.slices
            assert cold.slices is memo.sums[sum_key(form, classes)]
            assert (warm.weight, warm.den) == (cold.weight, cold.den)
            assert warm == cold
            assert warm.to_text() == cold.to_text()
            # the same integer weights over another denominator: the same
            # slices, read at that denominator
            sevenths = [(Fraction(c) / 7, k) for c, k in classes]
            assert sum_key(form, sevenths) == sum_key(form, classes)
            scaled = gaussian_sum(form, sevenths, 6)
            assert scaled.slices is cold.slices and memo.streams == []
            assert scaled == cold * Fraction(1, 7)


def test_memo_sum_key_separates_weights_classes_quadratic_cap_and_form(
        memo, sums_formed):
    rng = random.Random(46)
    form = random_unimodular_form(rng, 3, ops=9)
    twin = IntersectionForm(form.gram)      # equal Gram, another object
    k1, k2, k3 = (1, 0, -1), (0, 2, 1), (1, 1, 1)
    base = [(1, k1), (Fraction(-2, 3), k2)]
    first = gaussian_sum(form, base, 6)
    assert first == product_route(form, base, 6)
    assert list(memo.sums) == [sum_key(form, base)]
    assert len(sums_formed) == 1
    misses = [
        ("other weights", form, [(1, k1), (Fraction(2, 3), k2)], 6, True),
        ("proportional weights", form, [(2, k1), (Fraction(-4, 3), k2)], 6,
         True),
        ("other classes", form, [(1, k1), (Fraction(-2, 3), k3)], 6, True),
        ("no Q", form, base, 6, False),
        ("other cap", form, base, 5, True),
        ("other form object", twin, base, 6, True),
    ]
    for formed, (label, f, classes, cap, quadratic) in enumerate(misses, 2):
        got = gaussian_sum(f, classes, cap, quadratic)
        assert len(sums_formed) == formed, label
        if quadratic:
            assert got == product_route(f, classes, cap), label
        else:
            assert got == fraction_sum(3, cap, [
                (c, exp_by_products(linear_series(f, k, cap)))
                for c, k in classes]), label
        assert memo.sums[sum_key(f, classes, quadratic)] is got.slices, label
    # the last call took the slot for the twin: the form's sums are gone
    assert memo.form is twin and list(memo.sums) == [sum_key(twin, base)]


def test_memo_sums_count_against_the_one_bound(memo, sums_formed):
    # on a form of one block a class's entry is its divided powers; a sum
    # is stored after its classes, only if it fits beside them
    rng = random.Random(47)
    form = random_unimodular_form(rng, 3, ops=9)
    assert gram_components(form.sparse_rows) == [[0, 1, 2]]
    cap = 6
    classes = [(1, (1, 0, -1)), (-3, (0, 2, 1)), (2, (1, 1, 1))]
    want = product_route(form, classes, cap)
    sizes = [len(divided_powers(form, k, cap)) for _, k in classes]
    size = len(want.terms)
    key = sum_key(form, classes)
    for bound, kept in [(sum(sizes) + size - 1, False),
                        (sum(sizes) + size, True)]:
        memo.bound = bound
        memo.form = None        # an empty slot
        got = gaussian_sum(form, classes, cap)
        assert got == want
        assert (key in memo.sums) is kept
        assert memo.entries == sum(sizes) + size * kept <= bound
        assert sorted(stored_sizes(memo).values()) == sorted(sizes)
        formed = len(sums_formed)
        again = gaussian_sum(form, classes, cap)
        assert again == want
        assert len(sums_formed) == formed + (not kept)
    # a class that does not fit beside a stored sum is not stored either
    memo.bound = sum(sizes) + size
    extra = (-1, 1, 0)
    assert gaussian_sum(form, [(1, extra)], cap) == product_route(
        form, [(1, extra)], cap)
    assert memo.entries == memo.bound and len(stored_sizes(memo)) == 3


def test_round_trip_forms_each_class_and_its_sum_once(memo, sums_formed,
                                                      residual_parts):
    # at the default bound: witten_rhs runs each class and forms the sum,
    # the fit checks its solution against the stored sum (two residual
    # parts), and km_series reads the sum back
    rng = random.Random(48)
    cases = [(elliptic_manifold(4), 6)] + [
        (random_manifold(rng, max_rank=4, max_classes=3), 5)
        for _ in range(20)]
    hits = 0
    for m, cap in cases:
        classes = m.basic_classes()
        if len(classes) < 2 or (
                m.rank != 46 and len(gram_components(m.form.sparse_rows)) > 1):
            continue
        w = (0,) * m.rank
        runs, formed = memo.runs, len(sums_formed)
        residual_parts.clear()
        target = witten_rhs(m, w, cap)
        fit = fit_km_coefficients(target, classes, w, m.form, cap)
        assert fit.status == "unique"
        km = KMData(w=w, terms=tuple((fit.a_values[k], k) for k in classes))
        again = km_series(km, m.form, cap)
        assert again == target and again.slices is target.slices
        # each class runs once, on the whole of a one-block form; on E(4)
        # once on the fiber's block (witten_rhs) and once on every block
        # (the fit's basis)
        assert memo.runs - runs == len(classes) * (1 + (m.rank == 46))
        assert len(sums_formed) - formed == 1
        assert residual_parts == [2]
        hits += 1
    assert hits >= 6


def test_fit_reads_the_same_witness_from_the_stored_sum(memo,
                                                        residual_parts):
    # a target bumped past the fit's prefix solves to the stored sum's
    # weights; its residual read against that sum names the witness the
    # k class parts name
    rng = random.Random(49)
    routes = {1: 0, 2: 0, 3: 0}
    for _ in range(30):
        m = random_manifold(rng, max_rank=4, max_classes=3)
        classes = m.basic_classes()
        w = tuple(rng.randint(-1, 1) for _ in range(m.rank))
        cap = rng.randint(3, 6)
        target = witten_rhs(m, w, cap)
        mono = tuple(rng.choice(sorted(target.terms)))
        for tgt in (target, target + FormalSeries(m.rank, cap,
                                                  {mono: Fraction(1, 3)})):
            residual_parts.clear()
            stored = fit_km_coefficients(tgt, classes, w, m.form, cap)
            memo.sums.clear()
            by_parts = fit_km_coefficients(tgt, classes, w, m.form, cap)
            assert stored == by_parts, (m, w, cap, mono)
            if residual_parts[0] == 2 < residual_parts[1]:
                routes[len(classes)] += 1
                # solved as for the target: the residual is the bump
                assert stored.witness == (None if tgt is target else mono)
    # the stored route (two parts, then k + 1 parts) was taken with two
    # and three classes
    assert routes[2] > 0 and routes[3] > 0, routes


def test_first_difference_trusts_equal_slices_only_when_weights_cancel():
    rng = random.Random(50)
    form = random_unimodular_form(rng, 3, ops=9)
    b = gaussian_sum(form, [(1, (1, 0, -1)), (Fraction(1, 2), (0, 2, 1))], 5)
    a = b * 2
    assert a.slices is b.slices and (a.weight, a.den) != (b.weight, b.den)
    exps, ca, cb = first_difference(a, b, 5)
    assert exps == (0, 0, 0) and ca == 2 * cb != 0
    c = FormalSeries(3, 5, b.terms) * 2     # equal values, its own slices
    assert first_difference(a, c, 5) is None
    assert first_difference(b * 2, a, 5) is None
    # cancelling weights over slices that differ at one degree only: that
    # degree is summed, and its first monomial found
    slices = [dict(part) for part in b.slices]
    key = min(slices[3])
    slices[3][key] += 1
    f = FormalSeries._make(3, 5, slices, b.weight, b.den)
    exps, cf, cb = first_difference(f, b, 5)
    assert exps == b._exponents(key) and sum(exps) == 3
    assert cf - cb == Fraction(b.weight, prod(map(factorial, exps)) * b.den)


# ---------------------------------------------------------------------------
# elliptic surfaces, whose classes differ in one block only

def elliptic(n):
    m = elliptic_manifold(n)
    return m, (1,) + (0,) * (m.rank - 1)


def test_elliptic_surfaces():
    k3, e2 = k3_manifold(), elliptic_manifold(2)
    assert (e2.form, e2.spinc, e2.characteristic_number()) == (
        k3.form, k3.spinc, 2)
    m, fiber = elliptic(6)
    assert m.rank == 70 and m.characteristic_number() == 6
    assert m.form.square(fiber) == 0
    assert [(e.c1[0], e.sw) for e in m.spinc] == [
        (4, 1), (2, -4), (0, 6), (-2, -4), (-4, 1)]
    for n in (0, 3):
        with pytest.raises(ValueError):
            elliptic_manifold(n)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_witten_rhs_of_elliptic_surfaces_is_the_closed_form(n):
    # Fintushel-Stern: the Donaldson series of E(n) is
    # e^{Q/2} sinh^{n-2}(<F, h>); with c = n the window is c + 2
    m, fiber = elliptic(n)
    cap = n + 2
    x = linear_series(m.form, fiber, cap)
    powers = [FormalSeries.one(m.rank, cap)]
    for _ in range(cap):
        powers.append(naive_mul(powers[-1], x))
    sinh = fraction_sum(m.rank, cap, [(Fraction(1, factorial(j)), powers[j])
                                      for j in range(1, cap, 2)])
    sw_part = FormalSeries.one(m.rank, cap)
    for _ in range(n - 2):
        sw_part = naive_mul(sw_part, sinh)
    assert min(sw_part.support_degrees()) == n - 2
    # sinh^{n-2} starts at degree n - 2, so e^{Q/2} is needed below 4 only
    half_q = exp_by_products(fraction_sum(
        m.rank, 4, [(Fraction(1, 2), quadratic_series(m.form, 4))]))
    assert witten_rhs(m, (0,) * m.rank, cap) == naive_mul(
        FormalSeries(m.rank, cap, half_q.terms), sw_part)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_mmp_vanishing_on_elliptic_surfaces_is_sharp(n):
    # SW(E(n)) = (2 sinh <F, h>)^{n-2} vanishes below degree c - 2 = n - 2
    # and not below c - 1
    m, _ = elliptic(n)
    zero = (0,) * m.rank
    want = Verdict.VACUOUS if n == 2 else Verdict.PASS
    assert mmp_vanishing_check(m, zero) is want
    assert not sw_series(m, zero, n - 1).is_zero()


def test_elliptic_sum_runs_each_class_on_the_fiber_block_only(memo):
    # E(4): the classes 2F, 0, -2F differ only on the H block {0, 1} that
    # holds F, so each runs there, and every other block runs once, below
    # degree 6 - 2: V = e^{Q_H/2} (2 sinh <F, h>)^2 starts at degree 2
    m, _ = elliptic(4)
    zero = (0,) * m.rank
    blocks = [tuple(block) for block in gram_components(m.form.sparse_rows)]
    fiber, rest = blocks[0], blocks[1:]
    assert fiber == (0, 1) and len(rest) == 10
    rhs = witten_rhs(m, zero, 6)
    assert memo.runs == 3
    assert memo.streams == [fiber] * 3 + rest
    assert {key[0] for key in memo.slices} == {fiber}
    assert len(rhs.terms) == 69
    # again: the whole sum from the memo, common blocks included
    memo.streams.clear()
    assert witten_rhs(m, zero, 6) == rhs and memo.runs == 3
    assert memo.streams == []
    assert [sum(map(len, v)) for v in memo.sums.values()] == [69]
    # the class 0 alone has no common block: it runs on every block
    memo.streams.clear()
    full = divided_powers(m.form, zero, 6)
    assert memo.runs == 4 and sorted(memo.streams) == sorted(blocks)
    assert memo_key(m.form, zero) in memo.slices
    assert max(map(sum, full)) == 4 and divided_powers(m.form, zero, 6) == full
    on_fiber = [size for key, size in stored_sizes(memo).items()
                if key[0] == fiber]
    assert memo.runs == 4 and len(on_fiber) == 3
    assert memo.entries == len(full) + sum(on_fiber) + 69


def test_one_block_sums_run_every_class_on_the_whole_form(memo):
    # on a form of one block every class runs on the whole form, however
    # many terms the Seiberg-Witten part S = sum_r w_r e^<K_r, h> has
    rng = random.Random(44)
    form = random_unimodular_form(rng, 2, ops=6)
    assert gram_components(form.sparse_rows) == [[0, 1]]
    (g11, g12), (_, g22) = form.gram
    det = g11 * g22 - g12 * g12
    u = (2 * det * g22, -2 * det * g12)         # G u = (2, 0)
    assert form.dual_coefficients(u) == (2, 0)
    minus_u = tuple(-x for x in u)
    v = (1, 1) if all(form.dual_coefficients((1, 1))) else (1, -1)
    assert all(form.dual_coefficients(v))
    minus_v = tuple(-x for x in v)
    q = Fraction(1, 4)
    sinh_2x = [(-q, u), (q, minus_u)]           # odd degrees
    sinh_sq = [(-q, u), (2 * q, (0, 0)), (-q, minus_u)]  # even degrees >= 2
    linear = [(-q, v), (q, minus_v)]            # 2 <v, h> in both variables
    for classes, cap, size in [(sinh_2x, 5, 2), (sinh_2x, 6, 3),
                               (sinh_sq, 7, 3), (sinh_sq, 9, 4),
                               (linear, 3, 2), (linear, 4, 6)]:
        sw_part = fraction_sum(2, cap, [
            (c, exp_by_products(linear_series(form, k, cap)))
            for c, k in classes])
        assert len(sw_part.terms) == size
        runs = memo.runs
        memo.streams.clear()
        assert_kernel_matches(form, classes, cap)
        assert memo.runs - runs == len(classes)
        assert memo.streams == [(0, 1)] * len(classes)
    assert gaussian_sum(form, [(1, u), (-1, u)], 6).is_zero()
