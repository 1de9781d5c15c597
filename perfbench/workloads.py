"""The four workloads, each a deck of distinct jobs built from the seed.

A job is one `wittenform` CLI invocation (argv for `wittenform.cli.main`)
or, where the CLI has no command, one call into the public library. Each
job carries its oracle. Slot counts and sizes are fixed per workload; the
seed only changes the concrete forms, classes, vectors and job order, so
runs with different seeds do the same amount of work of the same shape.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles
from inputs import (Manifold, decoupled_manifold,
                    definite_complement_manifold, elliptic_manifold,
                    hyperbolic_complement_manifold, km_text, monomial_label,
                    pair, valid_manifold, witten_km_terms)

WORKLOADS = ("witten-dense", "witten-sparse", "roundtrip-fit",
             "hypotheses-search")


@dataclass
class Job:
    label: str
    argv: Optional[list] = None            # CLI job
    call: Optional[Callable] = None        # library job
    check: Callable = None                 # outcome -> None | reason
    series_terms: Callable = None          # outcome -> number of terms


class Deck:
    def __init__(self, name, seed, workdir, wf):
        self.rng = random.Random(f"{name}:{seed}")
        self.dir = workdir
        self.wf = wf                       # the imported wittenform package
        self.jobs: list[Job] = []
        self.paths: list[str] = []         # files written, in order
        self.expected = {}                 # (manifold, variant) -> witnesses

    def write(self, stem, text):
        path = os.path.join(self.dir, f"{len(self.paths):03d}-{stem}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.paths.append(path)
        return path

    def add(self, job):
        self.jobs.append(job)

    def vector(self, rank, lo=-1, hi=1):
        return tuple(self.rng.randint(lo, hi) for _ in range(rank))


def _csv(v):
    return ",".join(map(str, v))


def _text_terms(outcome):
    code, out = outcome
    return out.count("\n") - 1 if code == 0 and out.startswith("series") else 0


# ---------------------------------------------------------------------------
# witten-dense: low-rank dense Gram matrices, caps 10-12, 2-5 classes

_DENSE_BASES = {
    3: [("+1", "+1", "+1")],
    4: [("+1", "+1", "+1", "-1"), ("H", "+1", "+1")],
    5: [("+1", "+1", "+1", "-1", "-1"), ("H", "+1", "+1", "-1"),
        ("H", "H", "+1")],
    6: [("H", "H", "H"), ("H", "H", "+1", "-1"),
        ("+1", "+1", "+1", "-1", "-1", "-1")],
}

# (rank, cap, classes, mode); mode: text, compare (congruent) or bump.
# The seed changes each job's form and classes but not its shape. Job costs
# vary with the drawn form even at one shape, so the median and the 75th
# percentile each sit in a block of jobs of one shape (rank 4 at caps 11
# and 12, three classes) and average over it; rank 3, the other rank-4
# shapes and ranks 5-6 lie below and above.
_DENSE_PLAN = (
    [(3, cap, k, mode) for cap in (10, 11, 12) for k, mode in
     ((2, "text"), (3, "compare"), (4, "text"), (5, "bump"),
      (2, "compare"), (3, "text"))]
    + [(3, 12, 4, "compare"), (3, 12, 5, "text")]
    + [(4, 10, 2, "text"), (4, 10, 3, "compare"), (4, 10, 4, "text"),
       (4, 10, 5, "bump")]
    + [(4, 11, 3, "text")] * 18
    + [(4, 12, 3, "text")] * 14
    + [(4, 12, 2, "compare"), (4, 12, 4, "bump")]
    + [(5, 10, 2, "text"), (5, 10, 3, "text"), (5, 10, 2, "compare"),
       (5, 10, 3, "bump"), (6, 10, 2, "text"), (6, 10, 3, "text")]
)


# the heaviest dense input, one job per pass: the bundled rank-7 form with
# 4 classes at cap 12, where sw_series and the final product are largest
_DENSE_BUNDLED = (("synthetic_05.manifold", 12),)


def build_dense(deck: Deck, data_dir):
    for idx, (rank, cap, k, mode) in enumerate(_DENSE_PLAN):
        bases = _DENSE_BASES[rank]
        m = valid_manifold(deck.rng, bases[idx % len(bases)], k,
                           f"dense-{idx:02d}")
        _witten_job(deck, m, cap, mode, idx, deck.vector(m.rank))
    for idx, (name, cap) in enumerate(_DENSE_BUNDLED, len(_DENSE_PLAN)):
        (m, path), = _bundled(deck, data_dir, {name})
        _witten_job(deck, m, cap, "text", idx, deck.vector(m.rank), path)


def _witten_job(deck, m: Manifold, cap, mode, seed, w, path=None):
    if path is None:
        path = deck.write(f"{m.name}.manifold", m.text())
    argv = ["--degree", str(cap), "witten", path, f"--w={_csv(w)}"]
    label = f"witten r{m.rank} cap{cap} k{len(m.spinc)} {mode}"
    if mode == "text":
        def check(outcome):
            code, out = outcome
            if code != 0:
                return f"exit {code}"
            return oracles.check_witten_text(out, m, w, cap, seed)
        deck.add(Job(label, argv=argv, series_terms=_text_terms, check=check))
        return
    terms = witten_km_terms(m)
    bump = None
    if mode == "bump":
        j = deck.rng.randrange(len(terms))
        bump = (Fraction(1), terms[j][1])
        terms[j] = (terms[j][0] + 1, terms[j][1])
    km = deck.write(f"{m.name}.km", km_text(w, terms))
    deck.add(Job(label, argv=argv + ["--compare", km],
                 check=lambda o: oracles.check_compare(
                     o[1], o[0], m, w, cap, bump)))


# ---------------------------------------------------------------------------
# witten-sparse: even high-rank forms (2n-1)H + n(-E8), few classes

# (n, cap) for E(n): 21 small jobs, 32 E(4) jobs at cap 6 around the
# median and the 75th percentile, then K3 at cap 8 and the 57,806-term K3
# series at cap 10
_SPARSE_PLAN = ([(4, 4)] * 10 + [(2, 6)] * 11 + [(4, 6)] * 32
                + [(2, 8)] * 6 + [(2, 10)] * 1)


def build_sparse(deck: Deck):
    for idx, (n, cap) in enumerate(_SPARSE_PLAN):
        m = elliptic_manifold(deck.rng, n, f"E{n}-{idx:02d}")
        # w = 0: the parity of w.F would flip the relative signs of the
        # classes and with them the size of the series, seed by seed
        _witten_job(deck, m, cap, "text", idx, (0,) * m.rank)


# ---------------------------------------------------------------------------
# roundtrip-fit: exact recovery of KM coefficients and universal fits

# (rank, cap, classes) of the criterion-2 style round trips. With the 12
# fit jobs below, 16 small jobs sit under the median; 36 chains of one
# shape (rank 4, cap 8, 3 classes) hold the median and most of the 75th
# percentile window, so those quantiles average jobs of equal size; other
# class counts, rank 4 at cap 10 and ranks 5-6 make the tail.
_ROUNDTRIP_PLAN = ([(2, 10, 1), (2, 10, 2), (2, 10, 1), (2, 10, 2)]
                   + [(4, 8, 3)] * 36
                   + [(4, 8, 4), (4, 8, 5), (4, 10, 2), (4, 10, 3)]
                   + [(5, 8, 2), (5, 8, 3), (5, 8, 4), (6, 8, 2)])


def build_roundtrip(deck: Deck):
    for idx, (rank, cap, classes) in enumerate(_ROUNDTRIP_PLAN):
        m = decoupled_manifold(deck.rng, rank, 2 + idx % 7, classes,
                               f"rt-{idx:02d}", hyperbolic=idx % 2 == 0)
        w = deck.vector(rank, -2, 2)
        deck.add(_roundtrip_job(deck.wf, m, w, cap, idx))
    for delta in (2, 4, 6):
        for mm in (0, 1):
            deck.add(_single_class_fit(deck.wf, delta, mm))
    k3 = elliptic_manifold(deck.rng, 2, "K3")
    k3_path = deck.write("k3.manifold", k3.text())
    zero = (0,) * k3.rank
    for delta, mm in ((2, 0), (6, 2), (6, 1), (10, 4)):
        _fit_cli_job(deck, k3, k3_path, zero, zero, delta, mm)
    for rep in range(2):
        _corrupted_fit_job(deck, k3, k3_path, zero, rep)


def _roundtrip_job(wf, m: Manifold, w, cap, seed):
    inv = wf.invariants
    data = _manifold_data(wf, m)
    classes = [k for k, _ in m.basic()]

    def call():
        target = inv.witten_rhs(data, w, cap)
        fit = inv.fit_km_coefficients(target, classes, w, data.form, cap)
        if fit.status != "unique":
            return fit, None
        km = inv.KMData(w=w, terms=tuple((fit.a_values[k], k)
                                         for k in classes))
        return fit, inv.km_series(km, data.form, cap)

    want = {k: a for a, k in witten_km_terms(m)}

    def check(outcome):
        fit, refit = outcome
        if fit.status != "unique":
            return f"fit status {fit.status}"
        if fit.a_values != want:
            return f"recovered {fit.a_values}, generator has {want}"
        return oracles.check_series_object(
            refit.terms, refit.num_vars, refit.degree_cap, m.gram,
            oracles.km_terms(m.gram, w, [(a, k) for k, a in want.items()]),
            cap, seed)

    return Job(f"roundtrip r{m.rank} cap{cap} k{len(classes)}", call=call,
               check=check, series_terms=lambda o: len(o[1].terms) if o[1]
               else 0)


def _manifold_data(wf, m: Manifold):
    inv = wf.invariants
    return inv.ManifoldData(
        name=m.name, chi=m.chi, sigma=m.sigma, b_plus=m.b_plus,
        form=wf.lattice.IntersectionForm(m.gram), w2=m.w2,
        spinc=tuple(inv.SpincEntry(k, sw) for k, sw in m.spinc),
        sw_simple_type=True, check_topology=False)


def _single_class_fit(wf, delta, mm):
    """One H summand, c1 = 0 with SW 2, lambda = w = (1, delta/2): the
    acceptance recipe for universal fits. The CLI cannot load it (b_plus is
    1), so the job calls the functions `wittenform fit` calls."""
    m = Manifold(f"fit-{delta}", [[0, 1], [1, 0]], chi=2, sigma=-2,
                 b_plus=1, b_minus=1, spinc=[((0, 0), 2)])
    lam = (1, delta // 2)
    data = _manifold_data(wf, m)
    uf = wf.universal_fit
    km = wf.manifold_io.witten_consistent_km(data, lam)

    def call():
        obs = uf.Observation(data, lam, lam, delta, mm,
                             wf.invariants.point_evaluate(km, data.form,
                                                          delta, mm))
        problem = uf.FitProblem((obs,))
        report = uf.solve_coefficients(problem)
        return report, uf.validate_solution(problem, report)

    def check(outcome):
        report, validation = outcome
        if not report.consistent or not validation.ok:
            return f"status {report.status}, findings {validation.findings}"
        values = {(u.signature, u.i, u.j): v
                  for u, v in report.values.items()}
        return oracles.check_fit_values(
            values, [(m, lam, lam, delta, mm, None)], delta)

    return Job(f"fit single-class delta{delta} m{mm}", call=call, check=check)


def _fit_cli_job(deck, m, path, w, lam, delta, mm):
    name = os.path.basename(path)
    text = (f"[fit]\ndelta = {delta}\nm = {mm}\n\n[observation]\n"
            f"manifold = {name}\nw = {' '.join(map(str, w))}\n"
            f"lambda = {' '.join(map(str, lam))}\nlhs = witten\n")
    fit = deck.write(f"k3-{delta}-{mm}.fit", text)
    obs = [(m, w, lam, delta, mm, None)]
    deck.add(Job(f"fit K3 delta{delta} m{mm}", argv=["fit", fit],
                 check=lambda o: oracles.check_fit_cli(o[1], o[0], obs,
                                                       delta)))


def _corrupted_fit_job(deck, m, path, w, rep):
    """Two observations at delta 2: the conjectured value Q/2, then a copy
    with one coefficient raised by 1; expected exit 4 naming that monomial."""
    g = m.gram
    n = m.rank
    good = {}
    for i in range(n):
        for j in range(i, n):
            if g[i][j]:
                e = [0] * n
                e[i] += 1
                e[j] += 1
                good[tuple(e)] = Fraction(g[i][j], 2 if i == j else 1)
    mono = deck.rng.choice(sorted(good))
    bad = dict(good)
    bad[mono] += 1
    poly = " + ".join(f"{c} * {monomial_label(e)}"
                      for e, c in sorted(bad.items()))
    zeros = " ".join(["0"] * n)
    name = os.path.basename(path)
    obs = (f"\n[observation]\nmanifold = {name}\nw = {zeros}\n"
           f"lambda = {zeros}\n")
    text = ("[fit]\ndelta = 2\nm = 0\n" + obs + "lhs = witten\n" + obs
            + f"lhs = {poly}\n")
    fit = deck.write(f"k3-corrupt-{rep}.fit", text)
    deck.add(Job("fit K3 corrupted", argv=["fit", fit],
                 check=lambda o: oracles.check_fit_cli(
                     o[1], o[0], None, 0, corrupted=(1, mono))))


# ---------------------------------------------------------------------------
# hypotheses-search: lattice complements and bounded searches

# (blocks, classes) of the manifolds with a known hyperbolic summand
_KNOWN_PASS = [(["H", "H", "+1", "-1", "-1"], 2),
               (["H", "H", "+1", "-1"], 1),
               (["H", "H", "+1", "-1", "-1", "-1"], 3)]

# b_minus <= 2, so the basic classes can span the whole negative part
_SEARCH_BASES = [("+1", "+1", "+1", "-1"), ("H", "+1", "+1"),
                 ("+1", "+1", "+1", "-1", "-1"), ("H", "+1", "+1", "-1")]


def _read_bundled(path) -> Manifold:
    """The bundled corpus in the benchmark's own reader (for the oracles)."""
    kv, gram, spinc, section, w2 = {}, [], [], None, ()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                section = line[1:-1]
                if section == "spinc":
                    spinc.append([None, None])
            elif "=" in line:
                key, value = (s.strip() for s in line.split("=", 1))
                if section == "spinc":
                    if key == "c1":
                        spinc[-1][0] = tuple(map(int, value.split()))
                    else:
                        spinc[-1][1] = int(value)
                else:
                    kv[key] = value
            elif section == "form":
                gram.append([int(x) for x in line.split()])
            elif section == "w2":
                w2 = tuple(int(x) for x in line.split())
    bp = int(kv["b_plus"])
    return Manifold(kv["name"], gram, chi=int(kv["chi"]),
                    sigma=int(kv["sigma"]), b_plus=bp,
                    b_minus=len(gram) - bp,
                    spinc=[tuple(s) for s in spinc], w2=w2)


def _bundled(deck: Deck, data_dir, names=None):
    """The bundled corpus, copied into the run directory, with the
    benchmark's own reading of each file."""
    out = []
    for f in sorted(os.listdir(data_dir)):
        if f.endswith(".manifold") and (names is None or f in names):
            path = os.path.join(data_dir, f)
            with open(path, encoding="utf-8") as fh:
                out.append((_read_bundled(path), deck.write(f, fh.read())))
    return out


def build_search(deck: Deck, data_dir):
    corpus = _bundled(deck, data_dir)
    for m, path in corpus:
        for variant in ("level0", "level1"):
            # bound 20 with the default budget must find every witness the
            # oracle finds; bound 80 with a budget that runs out on the
            # larger complements need not
            _hyp_job(deck, m, path, variant, 20, None)
            _hyp_job(deck, m, path, variant, 80, 20_000)
    seeded = []
    # positive definite complements: nothing to find, so both searches
    # examine exactly `budget` candidates and report unknown-bounded
    for idx in range(8):
        m = definite_complement_manifold(
            deck.rng, _SEARCH_BASES[idx % len(_SEARCH_BASES)],
            f"search-{idx:02d}")
        path = deck.write(f"{m.name}.manifold", m.text())
        seeded.append((m, path))
        for variant in ("level0", "level1"):
            _hyp_job(deck, m, path, variant, 40, 8_000)
    # a hyperbolic summand and vectors of both target squares orthogonal
    # to the classes: both searches must succeed
    for idx in range(6):
        blocks, classes = _KNOWN_PASS[idx % len(_KNOWN_PASS)]
        m, known = hyperbolic_complement_manifold(
            deck.rng, blocks, classes, f"abundant-{idx:02d}")
        g = m.gram
        e, f = known["e"], known["f"]
        assert pair(g, e, e) == pair(g, f, f) == 0 and pair(g, e, f) == 1
        for k, _ in m.basic():
            assert not any(pair(g, k, v) for v in known.values())
        path = deck.write(f"{m.name}.manifold", m.text())
        seeded.append((m, path))
        for variant in ("level0", "level1"):
            lam = known[variant]
            assert pair(g, lam, lam) == oracles.target_square(m, variant)
            _hyp_job(deck, m, path, variant, 20, None, known=True)
    for m, path in (corpus + seeded)[::3]:
        _levels_jobs(deck, m, path)
        deck.add(Job("info", argv=["info", path],
                     check=lambda o, m=m: oracles.check_info(o[1], o[0], m)))


def _hyp_job(deck, m, path, variant, bound, budget, known=False):
    argv = ["hypotheses", path, "--variant", variant, "--bound", str(bound)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    key = (m.name, variant)

    def expect():
        """Which witnesses the report must show, worked out by the oracle
        once per manifold and variant; under a budget only what cannot
        exist is demanded."""
        if known:
            return True, True
        if key not in deck.expected:
            deck.expected[key] = oracles.expected_witnesses(
                m, oracles.target_square(m, variant))
        return tuple(None if budget is not None and v else v
                     for v in deck.expected[key])

    deck.add(Job(f"hypotheses {variant} r{m.rank} bound{bound}", argv=argv,
                 check=lambda o: oracles.check_hypotheses(
                     o[1], o[0], m, variant, bound, expect())))


def _levels_jobs(deck, m, path):
    """A delta/ell sweep at Lambda = 0 and at a random Lambda."""
    for lam, (delta, mm, ell_max) in (((0,) * m.rank, (4, 1, 2)),
                                      (deck.vector(m.rank), (8, 2, 8))):
        w = deck.vector(m.rank)
        argv = ["levels", path, "--delta", str(delta), "--m", str(mm),
                "--ell-max", str(ell_max), f"--lambda={_csv(lam)}",
                f"--w={_csv(w)}"]
        deck.add(Job(f"levels delta{delta}", argv=argv,
                     check=lambda o, a=(m, w, lam, delta, mm, ell_max):
                     oracles.check_levels(o[1], o[0], *a)))


def build(name, seed, workdir, wf, data_dir) -> Deck:
    deck = Deck(name, seed, workdir, wf)
    if name == "witten-dense":
        build_dense(deck, data_dir)
    elif name == "witten-sparse":
        build_sparse(deck)
    elif name == "roundtrip-fit":
        build_roundtrip(deck)
    elif name == "hypotheses-search":
        build_search(deck, data_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    deck.rng.shuffle(deck.jobs)
    return deck
