"""Replay acceptance criterion 2 (KM round trip) under the layer tracer.

    python3 perfbench/criterion2.py [--seed 1202]

Twenty `random_manifold` instances (c = 2..8, rank <= 6, <= 5 classes) at
cap 10, exactly as tests/test_acceptance.py draws them: witten_rhs, then
fit_km_coefficients against the basic classes, then the km_series refit.
Prints run totals (not per-job means) for the series, invariants and
linsolve layers, so counts such as the number of equations fed to
LinearSystem.add_equation can be compared with the test's workload.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1202)
    args = parser.parse_args(argv)
    from wittenform import invariants
    from wittenform.synthetic import random_manifold

    rng = random.Random(args.seed)
    cap = 10
    manifolds = [random_manifold(rng, target_c=2 + i % 7, max_rank=6,
                                 max_classes=5) for i in range(20)]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    failed = 0
    try:
        for job, m in enumerate(manifolds):
            tracer.job = job
            w = tuple(rng.randint(-2, 2) for _ in range(m.rank))
            target = invariants.witten_rhs(m, w, cap)
            classes = m.basic_classes()
            fit = invariants.fit_km_coefficients(target, classes, w, m.form,
                                                 cap)
            factor = Fraction(2) ** (2 - int(m.characteristic_number()))
            ok = fit.status == "unique" and all(
                fit.a_values[e.c1] == factor * e.sw for e in m.spinc)
            if ok:
                km = invariants.KMData(w=w, terms=tuple(
                    (fit.a_values[k], k) for k in classes))
                refit = invariants.km_series(km, m.form, cap)
                ok = refit.terms == target.terms
            failed += not ok
    finally:
        uninstall()
    s = tracer.summary()
    fed = s["linsolve.add_equation"]["calls"]
    added = tracer.counts["linsolve.rows_added"]
    metrics = {
        "linsolve.add_equation.calls": (fed, "count"),
        "linsolve.rows_added": (added, "count"),
        "linsolve.useful_ratio": (added / fed, "ratio"),
        "invariants.fit_km.equations":
            (tracing.equations_by_caller(tracer)["invariants.fit_km"],
             "count"),
        "series.mul.calls": (s["series.mul"]["calls"], "count"),
        "series.mul.pairs": (tracer.counts["series.mul.pairs"], "count"),
    }
    for name in ("invariants.witten_rhs", "invariants.fit_km",
                 "invariants.km_series", "series.exp_quadratic",
                 "series.exp_linear", "linsolve.add_equation",
                 "linsolve.solve"):
        metrics[f"{name}.total_s"] = (s[name]["total"], "s")
    metrics["invariants.fit_km.self_s"] = (s["invariants.fit_km"]["self"],
                                           "s")
    metrics["series.mul.self_s"] = (s["series.mul"]["self"], "s")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(manifolds),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
