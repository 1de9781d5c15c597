import random
from fractions import Fraction

import pytest

from wittenform.corpus import k3_form, k3_manifold
from wittenform.errors import (DimensionMismatch, NonCharacteristicError,
                               NonIntegralError)
from wittenform.invariants import (KMData, ManifoldData, SpincEntry, Verdict,
                                   characteristic_number,
                                   check_km_simple_type_relation,
                                   check_theorem_hypotheses,
                                   expected_sw_dimension, fit_km_coefficients,
                                   km_series, mmp_vanishing_check,
                                   point_evaluate, sign_exponent,
                                   sw_dimension_warnings, sw_series,
                                   witten_consistent_km, witten_rhs)
from wittenform.lattice import (IntersectionForm, diagonal_form,
                                hyperbolic_plane)
from wittenform.series import (FormalSeries, exp_linear, exp_quadratic,
                               quadratic_series)
from wittenform.synthetic import random_manifold, random_valid_manifold

H = hyperbolic_plane()


def simple_manifold(form, chi, sigma, entries, w2=None, name="test"):
    """Series-algebra fixture with decoupled (chi, sigma)."""
    _, b_plus, _ = form.signature_decomposition()
    return ManifoldData(
        name=name, chi=chi, sigma=sigma, b_plus=b_plus, form=form,
        w2=w2 if w2 is not None else (0,) * form.rank,
        spinc=tuple(SpincEntry(c1, sw) for c1, sw in entries),
        sw_simple_type=True, check_topology=False)


# ---------------------------------------------------------------------------
# c(X)

def test_characteristic_number_examples():
    assert characteristic_number(24, -16) == 2
    assert characteristic_number(0, 0) == 0
    assert characteristic_number(4, 0) == -7


def test_characteristic_number_can_be_fractional():
    c = characteristic_number(1, 0)
    assert c == Fraction(-7, 4)
    assert c.denominator == 4


# ---------------------------------------------------------------------------
# data model

def test_k3_manifold_invariants():
    k3 = k3_manifold()
    assert k3.rank == 22
    assert k3.chi == 24 and k3.sigma == -16 and k3.b_plus == 3
    assert k3.characteristic_number() == 2
    assert k3.basic_classes() == [(0,) * 22]


def test_strict_construction_rejects_bad_coupling():
    with pytest.raises(ValueError):
        ManifoldData(name="bad", chi=5, sigma=0, b_plus=1, form=H,
                     w2=(0, 0), spinc=(), sw_simple_type=True)


def test_strict_construction_rejects_even_b_plus():
    form = diagonal_form([1, 1, -1, -1])
    with pytest.raises(ValueError):
        ManifoldData(name="bad", chi=6, sigma=0, b_plus=2, form=form,
                     w2=(1, 1, 1, 1), spinc=(), sw_simple_type=True)


def test_non_characteristic_c1_rejected_even_relaxed():
    with pytest.raises(ValueError):
        simple_manifold(H, 2, -2, [((1, 0), 1)])


def test_sign_exponent_parity():
    # non-characteristic class on an odd form can make it half-integral
    form = diagonal_form([1])
    with pytest.raises(NonCharacteristicError):
        sign_exponent(form, (1,), (0,))   # w^2 + w.k = 1
    assert sign_exponent(form, (1,), (1,)) == 1


def test_expected_dimension_and_warnings():
    k3 = k3_manifold()
    assert expected_sw_dimension(k3.form, (0,) * 22, 24, -16) == 0
    assert sw_dimension_warnings(k3) == []
    bad = simple_manifold(H, 4, 0, [((0, 0), 1)])
    # d = (0 - (8 + 0))/4 = -2 != 0 with sw != 0
    assert len(sw_dimension_warnings(bad)) == 1


# ---------------------------------------------------------------------------
# SW series

def test_sw_series_no_entries_is_zero():
    m = simple_manifold(H, 2, -2, [])
    assert sw_series(m, (0, 0), 6).is_zero()


def test_sw_series_k3_is_one():
    k3 = k3_manifold()
    assert sw_series(k3, (0,) * 22, 4) == FormalSeries.one(22, 4)


def test_sw_series_sign_rule():
    # single entry (c1=K, sw=s) with (w^2 + K.w)/2 odd gives -s exp<K,h>
    form = diagonal_form([1])
    m = simple_manifold(form, 2, -2, [((1,), 3)], w2=(1,))
    w = (1,)
    assert sign_exponent(form, w, (1,)) == 1   # odd -> sign -1
    assert sw_series(m, w, 5) == exp_linear(form, (1,), 5) * (-3)


# ---------------------------------------------------------------------------
# basic-class series

def test_km_series_empty_is_zero():
    km = KMData(w=(0, 0), terms=())
    assert km_series(km, H, 5).is_zero()


def test_km_series_unit_term_is_exp_quadratic():
    km = KMData(w=(0, 0), terms=((Fraction(1), (0, 0)),))
    assert km_series(km, H, 6) == exp_quadratic(H, 6)


def test_km_series_rank_one_hand_product():
    # e^{h^2} * e^{2h} mod degree 3 = 1 + 2h + 3h^2
    two = IntersectionForm([[2]], require_unimodular=False)
    km = KMData(w=(0,), terms=((Fraction(1), (1,)),))
    got = km_series(km, two, 3)
    assert got == FormalSeries(1, 3, {(0,): Fraction(1), (1,): Fraction(2),
                                      (2,): Fraction(3)})


def test_km_data_rejects_zero_coefficient():
    with pytest.raises(ValueError):
        KMData(w=(0, 0), terms=((Fraction(0), (0, 0)),))


# ---------------------------------------------------------------------------
# the conjectured identity

def test_witten_rhs_k3_is_exp_quadratic():
    k3 = k3_manifold()
    assert witten_rhs(k3, (0,) * 22, 6) == exp_quadratic(k3.form, 6)


def test_witten_rhs_no_entries_is_zero():
    m = simple_manifold(H, 2, -2, [])
    assert witten_rhs(m, (0, 0), 6).is_zero()


def test_witten_rhs_quarter_factor():
    # c = 4 makes the normalization 2^(2-4) = 1/4
    m = simple_manifold(H, 4, -4, [((0, 0), 1)])
    assert m.characteristic_number() == 4
    assert witten_rhs(m, (0, 0), 6) == exp_quadratic(H, 6) * Fraction(1, 4)


def test_witten_rhs_refuses_non_integral_c():
    m = simple_manifold(H, 1, 0, [((0, 0), 1)])
    assert m.characteristic_number().denominator != 1
    with pytest.raises(NonIntegralError):
        witten_rhs(m, (0, 0), 4)


def test_witten_consistent_km_checks_w_rank():
    with pytest.raises(DimensionMismatch):
        witten_consistent_km(k3_manifold(), (0,) * 3)
    # with no basic classes no pairing would notice a w of the wrong length
    m = simple_manifold(H, 2, -2, [])
    with pytest.raises(DimensionMismatch):
        witten_rhs(m, (0,) * 5, 4)


# ---------------------------------------------------------------------------
# simple-type relation

def test_simple_type_relation_from_point_values():
    k3 = k3_manifold()
    km = KMData(w=(0,) * 22, terms=((Fraction(1), (0,) * 22),))
    table = {}
    for delta, mm in [(2, 0), (6, 2), (4, 1), (8, 3)]:
        table[(delta - 2 * mm, mm)] = point_evaluate(km, k3.form, delta, mm)
    chk = check_km_simple_type_relation(table)
    assert chk.verdict is Verdict.PASS
    assert ((2, 0) in chk.checked) and ((2, 1) in chk.checked)


def test_simple_type_relation_violation():
    chk = check_km_simple_type_relation({(2, 0): Fraction(1), (2, 2): Fraction(5)})
    assert chk.verdict is Verdict.FAIL
    assert chk.failed == ((2, 0),)


def test_simple_type_relation_not_checkable():
    chk = check_km_simple_type_relation({})
    assert chk.verdict is Verdict.NOT_CHECKABLE
    chk = check_km_simple_type_relation({(2, 0): Fraction(1), (4, 1): Fraction(2)})
    assert chk.verdict is Verdict.NOT_CHECKABLE


# ---------------------------------------------------------------------------
# vanishing window

def test_mmp_k3_vacuous():
    k3 = k3_manifold()
    assert mmp_vanishing_check(k3, (0,) * 22) is Verdict.VACUOUS


def test_mmp_nonzero_constant_fails():
    m = simple_manifold(H, 4, -4, [((0, 0), 1)])   # c = 4, window degree 2
    assert mmp_vanishing_check(m, (0, 0)) is Verdict.FAIL


def test_mmp_no_entries_passes():
    m = simple_manifold(H, 4, -4, [])
    assert mmp_vanishing_check(m, (0, 0)) is Verdict.PASS


def test_mmp_override_window():
    m = simple_manifold(H, 4, -4, [((0, 0), 1)])
    assert mmp_vanishing_check(m, (0, 0), n_override=0) is Verdict.VACUOUS


def test_mmp_vanishing_degrees_do_not_depend_on_w():
    # within a fixed mod-2 class for w, the per-class signs flip globally,
    # so the set of degrees carrying a nonzero coefficient is unchanged
    rng = random.Random(31)
    for _ in range(10):
        m = random_manifold(rng, target_c=6, max_rank=4, max_classes=4)
        w0 = tuple(rng.randint(-1, 1) for _ in range(m.rank))
        t = tuple(rng.randint(-1, 1) for _ in range(m.rank))
        w1 = tuple(a + 2 * b for a, b in zip(w0, t))
        s0 = sw_series(m, w0, 6)
        s1 = sw_series(m, w1, 6)
        assert s0.support_degrees() == s1.support_degrees()
        assert s0 == s1 or s0 == -s1


# ---------------------------------------------------------------------------
# exact coefficient recovery

def test_fit_k3_roundtrip():
    k3 = k3_manifold()
    w = (0,) * 22
    target = witten_rhs(k3, w, 6)
    result = fit_km_coefficients(target, [(0,) * 22], w, k3.form, 6)
    assert result.status == "unique"
    assert result.a_values[(0,) * 22] == 1   # 2^(2-2) * 1


def test_fit_zero_target_flags_zero_coefficient():
    target = FormalSeries.zero(2, 6)
    result = fit_km_coefficients(target, [(0, 0)], (0, 0), H, 6)
    assert result.status == "unique"
    assert result.a_values[(0, 0)] == 0
    assert result.zero_classes == ((0, 0),)


def test_fit_unwinds_sign():
    # choose w so the sign on K is -1; fitting 3 e^{Q/2} e^{<K,h>} must
    # then report a = -3
    form = diagonal_form([1])
    k = (1,)
    w = (1,)
    assert sign_exponent(form, w, k) == 1
    target = exp_quadratic(form, 6) * (exp_linear(form, k, 6) * 3)
    result = fit_km_coefficients(target, [k], w, form, 6)
    assert result.status == "unique"
    assert result.a_values[k] == -3


def test_fit_rejects_duplicates():
    with pytest.raises(ValueError):
        fit_km_coefficients(FormalSeries.zero(2, 4), [(0, 0), (0, 0)],
                            (0, 0), H, 4)


def test_fit_underdetermined_when_cap_too_small():
    # at cap 1 both basis series collapse to the constant 1
    target = exp_quadratic(H, 1)
    result = fit_km_coefficients(target, [(0, 0), (2, 0)], (0, 0), H, 1)
    assert result.status == "underdetermined"
    assert result.nullspace_dim == 1
    assert result.determined == frozenset()


def test_fit_inconsistent_reports_witness():
    # a target that is not of the basic-class shape for the candidate set
    target = exp_quadratic(H, 6) * exp_linear(H, (2, 0), 6)
    result = fit_km_coefficients(target, [(0, 0)], (0, 0), H, 6)
    assert result.status == "inconsistent"
    assert result.witness is not None


def test_roundtrip_recovery_randomized():
    rng = random.Random(33)
    for _ in range(12):
        m = random_manifold(rng, max_rank=4, max_classes=4)
        w = tuple(rng.randint(-2, 2) for _ in range(m.rank))
        target = witten_rhs(m, w, 8)
        classes = m.basic_classes()
        result = fit_km_coefficients(target, classes, w, m.form, 8)
        assert result.status == "unique"
        c = int(m.characteristic_number())
        factor = Fraction(2) ** (2 - c)
        for entry in m.spinc:
            assert result.a_values[entry.c1] == factor * entry.sw
        fitted = KMData(w=w, terms=tuple(
            (result.a_values[k], k) for k in classes))
        refit = km_series(fitted, m.form, 8)
        for n in range(9):
            assert refit.congruent_mod_degree(target, n)


def test_roundtrip_recovery_on_valid_manifolds():
    # same identity on fully valid (coupled) manifolds, negative c included
    rng = random.Random(34)
    for _ in range(5):
        m = random_valid_manifold(rng)
        w = tuple(rng.randint(-1, 1) for _ in range(m.rank))
        target = witten_rhs(m, w, 6)
        result = fit_km_coefficients(target, m.basic_classes(), w, m.form, 6)
        assert result.status == "unique"
        c = int(m.characteristic_number())
        for entry in m.spinc:
            assert result.a_values[entry.c1] == Fraction(2) ** (2 - c) * entry.sw


def test_sign_integrality_never_raises_for_characteristic_classes():
    rng = random.Random(35)
    for _ in range(15):
        m = random_manifold(rng, max_rank=4, max_classes=3)
        w = tuple(rng.randint(-3, 3) for _ in range(m.rank))
        sw_series(m, w, 3)   # raises NonCharacteristicError on failure
        km = KMData(w=w, terms=tuple(
            (Fraction(e.sw), e.c1) for e in m.spinc))
        km_series(km, m.form, 3)


# ---------------------------------------------------------------------------
# point values under the x -> 2 convention

def test_point_evaluate_k3_degree_two():
    k3 = k3_manifold()
    km = KMData(w=(0,) * 22, terms=((Fraction(1), (0,) * 22),))
    got = point_evaluate(km, k3.form, 2, 0)
    expected = quadratic_series(k3.form, 3) * Fraction(1, 2)
    assert got.degree == 2
    assert got.terms == expected.terms


def test_point_evaluate_constant():
    km = KMData(w=(0, 0), terms=((Fraction(1), (0, 0)),))
    got = point_evaluate(km, H, 0, 0)
    assert got.degree == 0
    assert got.coefficient((0, 0)) == Fraction(1, 2)


def test_point_evaluate_simple_type_chain():
    km = KMData(w=(0, 0), terms=((Fraction(2), (0, 0)),))
    for delta in (4, 6):
        low = point_evaluate(km, H, delta, 0)
        high = point_evaluate(km, H, delta + 4, 2)
        assert high == low * 4


def test_point_evaluate_requires_m_in_range():
    km = KMData(w=(0, 0), terms=((Fraction(1), (0, 0)),))
    with pytest.raises(ValueError):
        point_evaluate(km, H, 2, 2)


# ---------------------------------------------------------------------------
# hypothesis reports

def test_k3_hypotheses_with_explicit_lambda():
    k3 = k3_manifold()
    lam = (1, -3) + (0,) * 20
    assert k3.form.square(lam) == -6
    report = check_theorem_hypotheses(k3, None, lam, "level0")
    assert report.overall == "pass"
    assert report.w_used == lam   # w defaults to lambda + w2 = lambda
    e, f = report.hyperbolic_pair
    assert k3.form.square(e) == 0 and k3.form.square(f) == 0
    assert k3.form.pairing(e, f) == 1


def test_k3_hypotheses_level1_search():
    k3 = k3_manifold()
    report = check_theorem_hypotheses(k3, None, None, "level1")
    assert report.overall == "pass"
    assert k3.form.square(report.lambda_used) == -4


def test_hypotheses_wrong_square_fails():
    k3 = k3_manifold()
    lam = (1, -2) + (0,) * 20   # square -4, level0 wants -6
    report = check_theorem_hypotheses(k3, None, lam, "level0")
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["lambda_square"] == "fail"
    assert report.overall == "fail"


def test_hypotheses_b_plus_one_fails():
    m = simple_manifold(H, 4, 0, [((0, 0), 1)])
    assert m.b_plus == 1
    report = check_theorem_hypotheses(m, None, None, "level0")
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["b_plus_odd_ge_3"] == "fail"
    assert report.overall == "fail"


def test_hypotheses_bound_too_small_reports_unknown():
    k3 = k3_manifold()
    report = check_theorem_hypotheses(k3, None, None, "level0",
                                      search_bound=20, budget=2)
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["abundant"] == "unknown-bounded"
    assert report.overall in ("unknown-bounded", "fail")
    assert all(e.status != "fail" for e in report.entries)


def test_hypotheses_mod2_congruence_fail():
    k3 = k3_manifold()
    lam = (1, -3) + (0,) * 20
    w = (1, 0) + (0,) * 20   # w - lambda = (0,3,...) = (0,1) mod 2 != 0
    report = check_theorem_hypotheses(k3, w, lam, "level0")
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["mod2_congruence"] == "fail"


def test_hypotheses_report_text_format():
    k3 = k3_manifold()
    report = check_theorem_hypotheses(k3, None, None, "level0")
    text = report.to_text()
    assert "hypothesis=abundant status=pass" in text
    assert text.endswith("overall=pass")
