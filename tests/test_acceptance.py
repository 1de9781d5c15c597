"""Acceptance suite: one test per criterion, exact arithmetic, zero
tolerance. A summary line per criterion is printed at the end of the run
(see conftest.py)."""

import itertools
import random
import time

from wittenform.cli import main
from wittenform.corpus import bundled_path, k3_form, k3_manifold
from wittenform.errors import LevelError
from wittenform.invariants import (ManifoldData, SpincEntry,
                                   check_theorem_hypotheses, point_evaluate)
from wittenform.lattice import congruent_mod2, hyperbolic_plane
from wittenform.manifold_io import witten_consistent_km
from wittenform.monopole_levels import (SpinuData, delta_admissible,
                                        level_index, uhlenbeck_level)
from wittenform.selftest import (check_lattice_oracles, check_parity_lemma,
                                 check_roundtrip_fit, check_series_identities)
from wittenform.series import exp_quadratic
from wittenform.synthetic import random_manifold, random_unimodular_form
from wittenform.universal_fit import (FitProblem, Observation, build_template,
                                      solve_coefficients, validate_solution)

from test_lattice import SMALL_FORMS

H = hyperbolic_plane()


# ---------------------------------------------------------------------------
# 1. K3 pipeline: bundled file -> invariants -> witten series text, < 10 s

def test_criterion_1_k3_pipeline(capsys):
    start = time.monotonic()
    path = bundled_path("k3.manifold")
    from wittenform.manifold_io import load_manifold
    m = load_manifold(path)
    assert m.characteristic_number() == 2
    assert m.rank == 22
    assert m.sigma == -16
    assert m.b_plus == 3

    code = main(["--degree", "8", "witten", path, "--w", "0"])
    out = capsys.readouterr().out
    assert code == 0
    # factor 2^(2-c) = 1 and SW series = 1, so the output is exactly the
    # canonical text of exp(Q/2) truncated to degree 8
    assert out.rstrip("\n") == exp_quadratic(k3_form(), 8).to_text()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"K3 pipeline took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. round-trip recovery of basic-class coefficients on >= 20 synthetics

def test_criterion_2_roundtrip_km_recovery():
    rng = random.Random(1202)
    manifolds = []
    while len(manifolds) < 20:
        c = 2 + (len(manifolds) % 7)          # integral c in [2, 8]
        m = random_manifold(rng, target_c=c, max_rank=6, max_classes=5)
        manifolds.append(m)
    assert any(m.rank == 6 for m in manifolds)
    assert any(len(m.spinc) == 5 for m in manifolds)
    for m in manifolds:
        assert m.rank <= 6 and len(m.spinc) <= 5
        c = m.characteristic_number()
        assert c.denominator == 1 and 2 <= c <= 8
    result = check_roundtrip_fit(rng, manifolds, cap=10, w_max=2)
    assert result.ok, result.detail
    assert result.counts["manifolds"] == 20


# ---------------------------------------------------------------------------
# 3. parity lemma: w^2 + w.K even for every characteristic K, full box sweep

def test_criterion_3_parity_lemma_sweep():
    rng = random.Random(1203)
    forms = [random_unimodular_form(rng, rank)
             for rank, count in ((1, 25), (2, 30), (3, 30), (4, 20))
             for _ in range(count)]
    result = check_parity_lemma(forms, box=3)
    assert result.ok, result.detail
    assert result.counts["forms"] >= 100
    assert result.counts["pairs"] > 1_000_000


# ---------------------------------------------------------------------------
# 4. series algebra: exponential identities at degree 12, derivatives at 11

def test_criterion_4_series_algebra_suite():
    result = check_series_identities(random.Random(1204), cap=12, inverse=50,
                                     additive=50, derivative=10, k_max=3)
    assert result.ok, result.detail
    assert result.counts["forms"] == 110


# ---------------------------------------------------------------------------
# 5. theorem hypothesis checker on K3 with searched witnesses, < 30 s

def test_criterion_5_k3_hypothesis_checker():
    start = time.monotonic()
    k3 = k3_manifold()
    targets = {"level0": -6, "level1": -4}
    for variant, target in targets.items():
        report = check_theorem_hypotheses(k3, None, None, variant,
                                          search_bound=20)
        assert report.overall == "pass", variant
        assert report.target_square == target
        lam = report.lambda_used
        assert k3.form.square(lam) == target
        assert all(k3.form.pairing(lam, b) == 0 for b in k3.basic_classes())
        assert congruent_mod2(k3.form, report.w_used, lam, k3.w2)
        e, f = report.hyperbolic_pair
        assert k3.form.square(e) == 0
        assert k3.form.square(f) == 0
        assert k3.form.pairing(e, f) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"hypothesis checker took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. level arithmetic: composition, integrality sweep, delta-step law

def test_criterion_6_level_arithmetic():
    rng = random.Random(1206)
    for _ in range(100):
        p1 = rng.randint(-60, 60)
        a = rng.randint(0, 8)
        b = rng.randint(0, 8)
        base = SpinuData(p1=p1, w2_class=(0, 1), c1=(1, 0))
        chained = uhlenbeck_level(
            uhlenbeck_level(base, a).spinu_at_level, b).spinu_at_level
        assert chained == uhlenbeck_level(base, a + b).spinu_at_level

    # brute-force integrality sweep on the hyperbolic plane: whenever delta
    # is admissible, c1 is characteristic and w = lambda mod 2 (w2 = 0),
    # the level index is an integer
    admissible_seen = 0
    box = list(itertools.product(range(-3, 4), repeat=2))
    chars = [c for c in box if H.is_characteristic(c)]
    for chi, sigma in ((24, -16), (4, 0)):
        for w in box:
            wsq = H.square(w)
            for lam in box:
                if any((a - b) % 2 for a, b in zip(w, lam)):
                    continue
                for c1 in chars:
                    previous = None
                    for delta in range(0, 13):
                        if not delta_admissible(delta, wsq, chi, sigma):
                            continue
                        admissible_seen += 1
                        try:
                            ell = level_index(delta, c1, lam, H, chi, sigma)
                        except LevelError as err:
                            assert err.reason == "negative", (
                                "admissible data must give integral levels")
                            ell = int(err.value)
                        if previous is not None:
                            assert ell == previous + 1   # delta step 4 -> +1
                        previous = ell
    assert admissible_seen > 10_000


# ---------------------------------------------------------------------------
# 7. universal fit: consistent at delta in {2,4,6}, m in {0,1}; counting;
#    corrupted data is flagged with a witness

def _single_class_instance(delta):
    # c1 = 0 on H, lambda = w = (1, delta/2): admissible, level = delta/2,
    # so the template is rich enough for the expansion to be expressible
    m = ManifoldData(
        name=f"fit-{delta}", chi=2, sigma=-2, b_plus=1, form=H, w2=(0, 0),
        spinc=(SpincEntry((0, 0), 2),), sw_simple_type=True,
        check_topology=False)
    lam = (1, delta // 2)
    return m, lam, lam


def test_criterion_7_universal_fit():
    assert build_template(4, 0, 1).total_unknowns == 8
    assert build_template(2, 1, 0).total_unknowns == 1
    assert build_template(2, 0, 2).total_unknowns == 4

    for delta in (2, 4, 6):
        for mm in (0, 1):
            m, w, lam = _single_class_instance(delta)
            km = witten_consistent_km(m, w)
            obs = Observation(m, w, lam, delta, mm,
                              point_evaluate(km, m.form, delta, mm),
                              provenance="point_evaluate")
            problem = FitProblem((obs,))
            report = solve_coefficients(problem)
            assert report.consistent, (delta, mm, report.status)
            validation = validate_solution(problem, report)
            assert validation.ok
            assert all(validation.residual_zero)

    # an intentionally corrupted observation is inconsistent, with a
    # concrete witness monomial
    m, w, lam = _single_class_instance(4)
    km = witten_consistent_km(m, w)
    good = point_evaluate(km, m.form, 4, 0)
    mono = sorted(good.terms)[0]
    corrupted_terms = dict(good.terms)
    corrupted_terms[mono] += 1
    from wittenform.series import HomogeneousPolynomial
    bad = Observation(
        m, w, lam, 4, 0,
        HomogeneousPolynomial(2, 5, corrupted_terms, degree=4),
        provenance="corrupted")
    good_obs = Observation(m, w, lam, 4, 0, good, provenance="point_evaluate")
    report = solve_coefficients(FitProblem((good_obs, bad)))
    assert report.status == "inconsistent"
    obs_idx, witness_mono = report.witness
    assert obs_idx == 1
    assert sum(witness_mono) == 4


# ---------------------------------------------------------------------------
# 8. bounded-search and complement oracles vs exhaustive brute force,
#    rank <= 3, bound <= 5

def test_criterion_8_search_oracles():
    rng = random.Random(1208)
    forms = list(SMALL_FORMS)
    forms.append(random_unimodular_form(rng, 2))
    forms.append(random_unimodular_form(rng, 3))
    result = check_lattice_oracles(rng, forms, bound=5, targets=range(-9, 10))
    assert result.ok, result.detail
    assert result.counts["forms"] == 14
