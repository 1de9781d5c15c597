"""K3 from file to formula.

Loads the bundled K3 surface, prints its invariants, evaluates the
conjectured identity 2^(2-c) e^(Q/2) SW(h) for the Donaldson series, then
runs the round trip: fit basic-class coefficients back out of the series
and confirm the congruence to every degree.
"""

from wittenform import (KMData, exp_quadratic, fit_km_coefficients,
                        km_series, sw_series, witten_rhs)
from wittenform.corpus import load_bundled

CAP = 8

m = load_bundled("k3.manifold")
print(f"manifold: {m.name}")
print(f"  chi = {m.chi}, sigma = {m.sigma}, b+ = {m.b_plus}, rank = {m.rank}")
print(f"  c = -(7 chi + 11 sigma)/4 = {m.characteristic_number()}")
print(f"  basic classes: {len(m.basic_classes())} (the zero class, SW = 1)")
print()

w = (0,) * m.rank
sw = sw_series(m, w, CAP)
print(f"SW series with w = 0: constant {sw.coefficient((0,) * m.rank)}")

rhs = witten_rhs(m, w, CAP)
print(f"2^(2-c) e^(Q/2) SW(h) to degree {CAP}: {len(rhs.terms)} terms")
print("equals e^(Q/2) exactly:", rhs == exp_quadratic(m.form, CAP))
print()

# round trip: recover the basic-class coefficients from the series alone
result = fit_km_coefficients(rhs, m.basic_classes(), w, m.form, CAP)
print(f"fit status: {result.status}")
for k, a in result.a_values.items():
    print(f"  class {k[:4]}...  a = {a}   (expected 2^(2-c) SW = 1)")

fitted = KMData(w=w, terms=tuple(
    (result.a_values[k], k) for k in m.basic_classes()))
refit = km_series(fitted, m.form, CAP)
for n in (2, 4, 6, 8):
    print(f"refit congruent to the series mod degree {n}:",
          refit.congruent_mod_degree(rhs, n))

print()
print("first few terms of the series:")
for line in rhs.to_text().splitlines()[:6]:
    print(" ", line)
