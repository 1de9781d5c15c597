import random
from collections import Counter
from fractions import Fraction

import pytest

from wittenform.corpus import (elliptic_manifold, k3_manifold, list_bundled,
                               load_bundled)
from wittenform.errors import (DimensionMismatch, InadmissibleDeltaError,
                               TruncationError)
from wittenform.invariants import ManifoldData, SpincEntry, point_evaluate
from wittenform.lattice import IntersectionForm, hyperbolic_plane
from wittenform.manifold_io import witten_consistent_km
from wittenform.monopole_levels import delta_admissible
from wittenform.series import FormalSeries, HomogeneousPolynomial
from wittenform import universal_fit
from wittenform.universal_fit import (FitProblem, Observation, _span_pivots,
                                      assemble_rough_rhs, build_template,
                                      solve_coefficients, validate_solution)

H = hyperbolic_plane()


def h_manifold(entries, chi=2, sigma=-2, name="fit-test"):
    return ManifoldData(
        name=name, chi=chi, sigma=sigma, b_plus=1, form=H, w2=(0, 0),
        spinc=tuple(SpincEntry(c1, sw) for c1, sw in entries),
        sw_simple_type=True, check_topology=False)


def witten_observation(m, w, lam, delta, mm):
    km = witten_consistent_km(m, w)
    return Observation(m, w, lam, delta, mm,
                       point_evaluate(km, m.form, delta, mm),
                       provenance="point_evaluate")


# single basic class c1 = 0 on H with Lambda = (1, delta/2), w = Lambda:
# admissible, level l = delta/2 >= floor(delta/2) - m, so the template is
# rich enough to express the expansion exactly
def parallel_instance(delta, sw=2):
    m = h_manifold([((0, 0), sw)])
    lam = (1, delta // 2)
    return m, lam, lam


# ---------------------------------------------------------------------------
# template counting

def test_template_counting_examples():
    assert build_template(2, 1, 0).total_unknowns == 1
    assert build_template(4, 0, 1).total_unknowns == 8
    assert build_template(2, 0, 2).total_unknowns == 4


def test_template_degrees():
    t = build_template(6, 1, 3)
    assert [(e.i, e.degree) for e in t.entries] == [(0, 4), (1, 2), (2, 0)]


def test_template_rejects_bad_input():
    with pytest.raises(ValueError):
        build_template(2, 2, 0)
    with pytest.raises(ValueError):
        build_template(2, 0, -1)


# ---------------------------------------------------------------------------
# assembly

def test_assemble_no_entries_is_zero():
    m = h_manifold([], chi=2, sigma=-2)
    rhs = assemble_rough_rhs(m, (1, 1), (1, 1), 2, 0)
    assert rhs.coeffs == {}
    assert rhs.unknowns() == []


def test_assemble_requires_admissible_delta():
    m = h_manifold([((0, 0), 1)])
    # w = (1,1): w^2 = 2, chi+sigma = 0 -> delta = 2 mod 4; delta=4 refused
    with pytest.raises(InadmissibleDeltaError):
        assemble_rough_rhs(m, (1, 1), (1, 1), 4, 0)


def test_assemble_degree_zero_collapses_to_constant():
    # delta = 2m: only i = 0 and the degree-0 form; constant sign*sw*u00
    m = h_manifold([((0, 0), 3)])
    rhs = assemble_rough_rhs(m, (1, 1), (1, 1), 2, 1)
    unknowns = rhs.unknowns()
    assert len(unknowns) == 1
    u = unknowns[0]
    assert (u.i, u.j) == (0, 0)
    const = (0, 0)
    # sign of (w^2 + w.c1)/2 = 1 is -1, sw = 3
    assert rhs.coeffs[const][u] == -3


def test_assemble_k3_like_only_q_survives():
    # c1 = lambda = 0 kills every positive-degree form monomial; only the
    # i = 1 unknown times Q remains at delta = 2
    k3 = k3_manifold()
    zero = (0,) * 22
    rhs = assemble_rough_rhs(k3, zero, zero, 2, 0)
    unknowns = rhs.unknowns()
    assert [(u.i, u.j) for u in unknowns] == [(1, 0)]
    # every surviving monomial is h_i h_j with the Q coefficient
    u = unknowns[0]
    for mono, linear in rhs.coeffs.items():
        assert sum(mono) == 2
        assert set(linear) == {u}


def test_assemble_is_homogeneous():
    m, w, lam = parallel_instance(4)
    rhs = assemble_rough_rhs(m, w, lam, 4, 0)
    for mono in rhs.coeffs:
        assert sum(mono) == 4


def test_assemble_linear_in_unknowns():
    m, w, lam = parallel_instance(4)
    rhs = assemble_rough_rhs(m, w, lam, 4, 0)
    rng = random.Random(51)
    unknowns = rhs.unknowns()
    v1 = {u: Fraction(rng.randint(-5, 5)) for u in unknowns}
    v2 = {u: Fraction(rng.randint(-5, 5)) for u in unknowns}
    vsum = {u: v1[u] + v2[u] for u in unknowns}
    assert rhs.substitute(vsum) == rhs.substitute(v1) + rhs.substitute(v2)


def test_assemble_i_range_respected():
    m, w, lam = parallel_instance(6)
    rhs = assemble_rough_rhs(m, w, lam, 6, 1)
    i_max = min(3, 6 // 2 - 1)   # level l = 3
    for u in rhs.unknowns():
        assert u.i <= i_max
    for sig, template in rhs.templates.items():
        ell = sig[-1]
        for entry in template.entries:
            assert entry.i <= min(ell, 6 // 2 - 1)


def test_distinct_signatures_get_distinct_unknowns():
    # two classes with different c1^2 yield disjoint unknown sets
    m = h_manifold([((0, 0), 1), ((2, 2), 1)])
    w = (1, 3)
    lam = (1, 3)
    rhs = assemble_rough_rhs(m, w, lam, 6, 0)
    sigs = {u.signature for u in rhs.unknowns()}
    assert len(sigs) == 2


# ---------------------------------------------------------------------------
# solving

def test_solve_roundtrip_parallel_case_consistent():
    for delta in (2, 4, 6):
        for mm in (0, 1):
            m, w, lam = parallel_instance(delta)
            obs = witten_observation(m, w, lam, delta, mm)
            report = solve_coefficients(FitProblem((obs,)))
            assert report.consistent, (delta, mm, report.status)
            validation = validate_solution(FitProblem((obs,)), report)
            assert validation.ok
            assert all(validation.residual_zero)


def test_solve_unique_non_parallel_case():
    # c1 = (2,0), lambda = (1,1): A and B are independent linear forms and
    # the level comes out 0, so three unknowns meet three monomials
    m = h_manifold([((2, 0), 1)])
    w = (1, 1)
    lam = (1, 1)
    obs = witten_observation(m, w, lam, 2, 0)
    report = solve_coefficients(FitProblem((obs,)))
    assert report.status == "unique"
    validation = validate_solution(FitProblem((obs,)), report)
    assert validation.ok


def test_solve_underdetermined_counts_nullspace():
    # B dual form vanishes against A-parallel data: delta=4 with lambda
    # of square 0 gives level 1 < 2 but B = lambda != 0... use the
    # parallel instance at delta=6, m=0: 16 unknowns, far fewer equations
    m, w, lam = parallel_instance(6)
    obs = witten_observation(m, w, lam, 6, 0)
    report = solve_coefficients(FitProblem((obs,)))
    assert report.status == "underdetermined"
    assert report.nullspace_dim > 0
    # determined + free partition the unknowns
    free = [u for u in report.unknowns if u not in report.determined]
    assert len(free) >= report.nullspace_dim
    validation = validate_solution(FitProblem((obs,)), report)
    assert validation.ok


def test_solve_inconsistent_with_witness():
    m, w, lam = parallel_instance(2)
    obs = witten_observation(m, w, lam, 2, 0)
    corrupted = Observation(
        m, w, lam, 2, 0,
        obs.observed_lhs + _bump(obs.observed_lhs),
        provenance="corrupted")
    report = solve_coefficients(FitProblem((obs, corrupted)))
    assert report.status == "inconsistent"
    assert report.witness is not None
    obs_idx, mono = report.witness
    assert obs_idx == 1
    assert sum(mono) == 2


def _bump(poly):
    # corrupt exactly one monomial of the observation
    from wittenform.series import HomogeneousPolynomial
    mono = sorted(poly.terms)[0] if poly.terms else (2, 0)
    return HomogeneousPolynomial(
        poly.num_vars, poly.degree_cap, {mono: Fraction(1)},
        degree=poly.degree)


def test_contradictory_identical_observations_inconsistent():
    m, w, lam = parallel_instance(2)
    obs1 = witten_observation(m, w, lam, 2, 0)
    obs2 = Observation(m, w, lam, 2, 0, obs1.observed_lhs * 2,
                       provenance="scaled")
    report = solve_coefficients(FitProblem((obs1, obs2)))
    assert report.status == "inconsistent"


def test_fit_problem_rejects_mixed_delta_m():
    m, w, lam = parallel_instance(2)
    obs1 = witten_observation(m, w, lam, 2, 0)
    obs2 = witten_observation(m, w, lam, 2, 1)
    with pytest.raises(ValueError):
        FitProblem((obs1, obs2))
    with pytest.raises(ValueError, match="at least one observation"):
        FitProblem(())


def test_observation_degree_checked():
    m, w, lam = parallel_instance(2)
    good = witten_observation(m, w, lam, 2, 0)
    with pytest.raises(ValueError):
        Observation(m, w, lam, 4, 0, good.observed_lhs)


def test_truncated_observation_refused():
    # a value at cap 2 holds nothing of degree 2: it is unknown there, not
    # the zero value, which would make the fit unique
    k3 = k3_manifold()
    zero = (0,) * 22
    with pytest.raises(TruncationError):
        Observation(k3, zero, zero, 2, 0, FormalSeries.zero(22, 2))
    obs = Observation(k3, zero, zero, 2, 0, FormalSeries.zero(22, 3))
    assert obs.observed_lhs.degree == 2 and obs.observed_lhs.is_zero()


def test_observation_rank_checked():
    k3 = k3_manifold()
    zero = (0,) * 22
    good = witten_observation(k3, zero, zero, 2, 0)
    small_lhs = HomogeneousPolynomial(3, 3, {(1, 1, 0): Fraction(1)}, degree=2)
    with pytest.raises(DimensionMismatch, match="observed value"):
        Observation(k3, zero, zero, 2, 0, small_lhs)
    with pytest.raises(DimensionMismatch, match="w has 5"):
        Observation(k3, (0,) * 5, zero, 2, 0, good.observed_lhs)
    with pytest.raises(DimensionMismatch, match="lambda has 21"):
        Observation(k3, zero, (0,) * 21, 2, 0, good.observed_lhs)


def test_report_text_lists_template_slots():
    k3 = k3_manifold()
    zero = (0,) * 22
    obs = witten_observation(k3, zero, zero, 2, 0)
    report = solve_coefficients(FitProblem((obs,)))
    text = report.to_text()
    assert "p[2,2,0,1][0] = 1/2" in text
    assert "absent (degenerate form)" in text   # the A=B=0 slots


def test_cross_group_comparison_lines():
    # two groups sharing (i, j) slots: the parallel instance at delta=2
    # plus the same data with sw scaled lives in the same group, so use
    # two different c1 squares instead
    m = h_manifold([((0, 0), 1), ((2, 2), 1)])
    w = (1, 3)
    lam = (1, 3)
    obs = witten_observation(m, w, lam, 6, 1)
    report = solve_coefficients(FitProblem((obs,)))
    assert report.consistent
    # the report renders without error and mentions both groups
    text = report.to_text()
    assert text.count("group ") == 2


# ---------------------------------------------------------------------------
# the Q[u, q] route against the h route

def fit_both_routes(m, w, lam, delta, mm):
    """(report, validation) of one fit whose observation is the km data of
    `witten_consistent_km` (Q[u, q] route unless s = n), and of the same
    fit with that point value passed as a polynomial in h (h route)."""
    km = witten_consistent_km(m, w)
    value = point_evaluate(km, m.form, delta, mm)
    out = []
    for obs in (Observation(m, w, lam, delta, mm, km=km),
                Observation(m, w, lam, delta, mm, value)):
        problem = FitProblem((obs,))
        report = solve_coefficients(problem)
        out.append((report, validate_solution(problem, report)))
    # an explicit value takes the h route, in the n variables h
    assert not on_ring_route(out[1][0], m)
    return out


def on_ring_route(report, m, idx=0):
    """Did observation idx take the Q[u, q] route? It alone writes its
    equations in s < n variables."""
    return report.assembled[idx].num_vars < m.rank


def assert_same_fit(ring, h):
    (r, r_valid), (h, h_valid) = ring, h
    assert r.to_text() == h.to_text()
    assert (r.status, r.nullspace_dim, r.values, r.determined) == (
        h.status, h.nullspace_dim, h.values, h.determined)
    assert r_valid == h_valid


def sparse_vector(rng, rank, nonzero):
    v = [0] * rank
    for i in rng.sample(range(rank), nonzero):
        v[i] = rng.choice((-1, 1))
    return tuple(v)


def seeded_fits(rng):
    """(manifold, w, lambda, delta, m): three on each bundled synthetic at
    delta <= 6, four on K3 at delta <= 6, three on E(4) at delta <= 4."""
    manifolds = [(load_bundled(name), 6, 3) for name in list_bundled()
                 if name.startswith("synthetic")]
    manifolds += [(k3_manifold(), 6, 4), (elliptic_manifold(4), 4, 3)]
    for m, top, count in manifolds:
        for _ in range(count):
            w = sparse_vector(rng, m.rank, rng.randint(0, 2))
            lam = sparse_vector(rng, m.rank, rng.randint(0, 2))
            deltas = [d for d in range(top + 1)
                      if delta_admissible(d, m.form.square(w), m.chi, m.sigma)]
            if deltas:
                delta = rng.choice(deltas)
                yield m, w, lam, delta, rng.randint(0, delta // 2)


def test_ring_route_matches_h_route_on_seeded_fits():
    routes, statuses = Counter(), Counter()
    for m, w, lam, delta, mm in seeded_fits(random.Random(1818)):
        ring, h = fit_both_routes(m, w, lam, delta, mm)
        assert_same_fit(ring, h)
        routes[on_ring_route(ring[0], m)] += 1
        statuses[ring[0].status] += 1
    # both routes taken, every status met (an inconsistent Q[u, q] fit is
    # solved again on the h route, so it counts as h)
    assert routes[True] >= 8 and routes[False] >= 3, routes
    assert set(statuses) == {"unique", "underdetermined", "inconsistent"}


def test_ring_route_underdetermined_on_e4():
    m = elliptic_manifold(4)
    lam = tuple(int(i == 2) for i in range(46))
    ring, h = fit_both_routes(m, (0,) * 46, lam, 4, 0)
    assert_same_fit(ring, h)
    assert on_ring_route(ring[0], m)
    assert (ring[0].status, ring[0].nullspace_dim) == ("underdetermined", 1)
    assert ring[1].ok


def test_span_of_full_rank_takes_h_route():
    # synthetic_01 has rank 4 and three classes spanning a rank-3 lattice;
    # with lambda outside their span, s = n, where u and q are dependent
    m = load_bundled("synthetic_01.manifold")
    ring, h = fit_both_routes(m, (0,) * 4, (-1, -1, -1, 0), 6, 1)
    assert not on_ring_route(ring[0], m)
    assert_same_fit(ring, h)
    assert (ring[0].status, ring[0].nullspace_dim) == ("underdetermined", 6)


def test_ring_validation_sees_a_wrong_value():
    # the Q[u, q] check of a solution is as strict as the h route's
    m = elliptic_manifold(4)
    lam = tuple(int(i == 2) for i in range(46))
    reports = []
    for report, _ in fit_both_routes(m, (0,) * 46, lam, 4, 0):
        u = min(report.determined)
        report.values[u] += 1
        problem = FitProblem((Observation(
            m, (0,) * 46, lam, 4, 0, km=witten_consistent_km(m, (0,) * 46)),))
        reports.append(validate_solution(problem, report))
    assert reports[0] == reports[1]
    assert reports[0].residual_zero == (False,)


def test_degenerate_form_takes_h_route():
    form = IntersectionForm([[2, 0, 0], [0, 0, 0], [0, 0, -2]],
                            require_unimodular=False)
    m = ManifoldData(name="degenerate", chi=2, sigma=-2, b_plus=1, form=form,
                     w2=(0, 0, 0), spinc=(SpincEntry((0, 0, 0), 1),),
                     sw_simple_type=True, check_topology=False)
    ring, h = fit_both_routes(m, (0, 0, 0), (0, 0, 0), 4, 1)
    assert not on_ring_route(ring[0], m)
    assert_same_fit(ring, h)


def test_ring_route_inconsistency_names_an_h_monomial():
    # K3 delta 10, m 0: inconsistent at q^5 in Q[u, q]; solved again on the
    # h route, the witness is the CLI's h22^10
    k3 = k3_manifold()
    zero = (0,) * 22
    ring, h = fit_both_routes(k3, zero, zero, 10, 0)
    assert_same_fit(ring, h)
    assert ring[0].witness == (0, (0,) * 21 + (10,))


def test_ring_route_builds_no_series(monkeypatch):
    # with every series product refused, the golden fits still finish with
    # their statuses; the point value in h is built only when read
    def refuse(*args):
        raise AssertionError("a series product on the Q[u, q] route")

    e4 = elliptic_manifold(4)
    e2_e3 = tuple(int(i in (1, 2)) for i in range(46))
    cases = [(k3_manifold(), (0,) * 22, 10, 1, "unique", 0),
             (e4, e2_e3, 8, 0, "underdetermined", 50)]
    observations = []
    with monkeypatch.context() as patch:
        patch.setattr(FormalSeries, "__mul__", refuse)
        patch.setattr(FormalSeries, "__pow__", refuse)
        for m, lam, delta, mm, status, nullspace in cases:
            w = (0,) * m.rank
            obs = Observation(m, w, lam, delta, mm,
                              km=witten_consistent_km(m, w))
            problem = FitProblem((obs,))
            report = solve_coefficients(problem)
            assert (report.status, report.nullspace_dim) == (status, nullspace)
            assert validate_solution(problem, report).ok
            observations.append(obs)
    # (E(4)'s value in h has 52,836 terms and takes seconds to build)
    k3_obs = observations[0]
    assert k3_obs.observed_lhs == point_evaluate(
        k3_obs.km, k3_obs.manifold.form, k3_obs.delta, k3_obs.m)


def seeded_problems(rng):
    """(manifold, w, lambdas, delta, m) of fit problems of 2-3 observations
    on one manifold with one w and (delta, m), delta <= 6, and a lambda of
    their own: three on each bundled synthetic, five on K3."""
    manifolds = [(load_bundled(name), 3) for name in list_bundled()
                 if name.startswith("synthetic")]
    manifolds.append((k3_manifold(), 5))
    for m, count in manifolds:
        for _ in range(count):
            w = sparse_vector(rng, m.rank, rng.randint(0, 2))
            deltas = [d for d in range(7)
                      if delta_admissible(d, m.form.square(w), m.chi, m.sigma)]
            if deltas:
                delta = rng.choice(deltas)
                lams = [sparse_vector(rng, m.rank, rng.randint(0, 2))
                        for _ in range(rng.randint(2, 3))]
                yield m, w, lams, delta, rng.randint(0, delta // 2)


def test_multi_observation_fits_match_their_h_values():
    # each problem gives the same text and validation with every value as
    # km data (Q[u, q] route where s < n) and as its polynomial in h
    statuses, later_witnesses = Counter(), 0
    for m, w, lams, delta, mm in seeded_problems(random.Random(2121)):
        km = witten_consistent_km(m, w)
        value = point_evaluate(km, m.form, delta, mm)
        fits = []
        for kw in ({"km": km}, {"lhs": value}):
            problem = FitProblem(tuple(
                Observation(m, w, lam, delta, mm, **kw) for lam in lams))
            report = solve_coefficients(problem)
            fits.append((report.to_text(), validate_solution(problem, report)))
            if "km" in kw:
                statuses[report.status] += 1
                k = report.witness[0] if report.witness else 0
                # a witness after an observation solved in Q[u, q]
                later_witnesses += any(
                    on_ring_route(report, m, idx) for idx in range(k))
        assert fits[0] == fits[1], (m.name, w, lams, delta, mm)
    assert set(statuses) == {"unique", "underdetermined", "inconsistent"}
    assert later_witnesses >= 3, later_witnesses


def k3_problem_inconsistent_in_the_middle():
    # lambda = e7 + e8 has square -4, so its level is 2 < delta/2 and
    # nothing matches the q^3 term; lambda = 0 and e1 are consistent
    k3 = k3_manifold()
    zero = (0,) * 22
    km = witten_consistent_km(k3, zero)
    lams = [zero, tuple(int(i in (6, 7)) for i in range(22)),
            tuple(int(i == 0) for i in range(22))]
    return k3, FitProblem(tuple(Observation(k3, zero, lam, 6, 0, km=km)
                                for lam in lams))


def test_resolve_assembles_only_the_failing_observation(monkeypatch):
    calls = []
    original = universal_fit.assemble_rough_rhs

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(universal_fit, "assemble_rough_rhs", spy)
    k3, problem = k3_problem_inconsistent_in_the_middle()
    report = solve_coefficients(problem)
    assert len(calls) == 1
    assert calls[0][2] == problem.observations[1].lambda_
    assert report.witness == (1, (0,) * 21 + (6,))
    assert [on_ring_route(report, k3, idx) for idx in range(3)] == [
        True, False, True]
    # the same as a fit with every observation in h
    h_problem = FitProblem(tuple(
        Observation(o.manifold, o.w, o.lambda_, o.delta, o.m,
                    point_evaluate(o.km, o.manifold.form, o.delta, o.m))
        for o in problem.observations))
    h_report = solve_coefficients(h_problem)
    assert report.to_text() == h_report.to_text()
    assert report.nullspace_dim == h_report.nullspace_dim == 24


def fraction_rank(vectors) -> int:
    """The rank of `vectors` by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_span_pivots_carry_the_rank():
    # restricted to P the vectors have rank |P|, their rank in Q^n
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(1, 7)
        vectors = [tuple(rng.choice((0, 0, 0, 1, -1, 2, -3))
                         for _ in range(n)) for _ in range(rng.randint(0, 6))]
        if len(vectors) >= 2 and rng.random() < 0.5:
            # a combination of two of them, so that some set is dependent
            a, b = rng.sample(vectors, 2)
            c = rng.randint(-2, 2)
            vectors.append(tuple(x + c * y for x, y in zip(a, b)))
        pivots = _span_pivots(vectors, n)
        assert len(set(pivots)) == len(pivots)
        restricted = [[v[p] for p in pivots] for v in vectors]
        assert fraction_rank(restricted) == len(pivots) == fraction_rank(
            vectors)


def test_observation_needs_one_value():
    k3 = k3_manifold()
    zero = (0,) * 22
    km = witten_consistent_km(k3, zero)
    with pytest.raises(ValueError, match="exactly one"):
        Observation(k3, zero, zero, 2, 0)
    with pytest.raises(ValueError, match="exactly one"):
        Observation(k3, zero, zero, 2, 0,
                    point_evaluate(km, k3.form, 2, 0), km=km)
    short = witten_consistent_km(load_bundled("synthetic_10.manifold"),
                                 (0,) * 6)
    with pytest.raises(DimensionMismatch, match="km w has 6"):
        Observation(k3, zero, zero, 2, 0, km=short)
    with pytest.raises(ValueError):
        Observation(k3, zero, zero, 2, 2, km=km)
