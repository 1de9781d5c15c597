"""Independent checks of every job's output.

None of these functions import the program under test. Series outputs are
parsed from their text and restricted to random lines h = t*v: the
restriction of exp(Q/2) * sum_r a_r exp(<K_r, h>) is a product of two
univariate exponentials whose coefficients are plain Fraction sums, computed
here straight from the Gram matrix. Lattice witnesses and level rows are
re-verified from the Gram matrix and the level formula. Each check returns
None on success or a one-line reason.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd, isqrt

from inputs import Manifold, monomial_label, pair

LINES_PER_CHECK = 3
# the oracle's own search for witnesses in a basic-class complement: shells
# of max norm up to SEARCH_RADIUS in its LLL-reduced basis, at most
# ISOTROPIC_MAX isotropic vectors paired against each other
SEARCH_RADIUS = 6
ISOTROPIC_MAX = 300
KERNEL_WEIGHT = 10 ** 6


def sign(gram, w, k) -> int:
    t = pair(gram, w, w) + pair(gram, w, k)
    if t % 2:
        raise ValueError("w^2 + w.k is odd: k is not characteristic")
    return -1 if (t // 2) % 2 else 1


def witten_terms(m: Manifold, w):
    """(coefficient, class) pairs with 2^(2-c) sign(s) SW(s) folded in."""
    factor = Fraction(2) ** (2 - int(m.c))
    return [(factor * sw * sign(m.gram, w, k), k) for k, sw in m.basic()]


def km_terms(gram, w, terms):
    return [(Fraction(a) * sign(gram, w, k), k) for a, k in terms]


def line_coefficients(gram, v, terms, cap):
    """[t^d] of exp(t^2 v.v / 2) * sum_r a_r exp(t K_r.v), d < cap."""
    half = Fraction(pair(gram, v, v), 2)
    quad = [Fraction(0)] * cap
    for i in range(0, (cap + 1) // 2):
        if 2 * i < cap:
            quad[2 * i] = half ** i / factorial(i)
    out = [Fraction(0)] * cap
    for a, k in terms:
        b = pair(gram, k, v)
        lin = [Fraction(b ** j, factorial(j)) for j in range(cap)]
        for d in range(cap):
            out[d] += a * sum(quad[i] * lin[d - i] for i in range(0, d + 1, 2))
    return out


_HEADER = re.compile(r"^series vars=(\d+) cap=(\d+)$")
_FACTOR = re.compile(r"^h(\d+)\^(\d+)$")


def parse_series(text: str):
    """Series text -> (vars, cap, [(degree, coeff, [(index, power)])])."""
    lines = text.strip("\n").split("\n")
    head = _HEADER.match(lines[0])
    if not head:
        raise ValueError(f"bad series header {lines[0]!r}")
    terms = []
    body = lines[1:]
    if body == ["0"]:
        body = []
    for line in body:
        coeff, _, mono = line.partition(" * ")
        factors = []
        for tok in mono.split():
            f = _FACTOR.match(tok)
            if not f:
                raise ValueError(f"bad factor {tok!r}")
            factors.append((int(f.group(1)) - 1, int(f.group(2))))
        terms.append((sum(p for _, p in factors), Fraction(coeff), factors))
    return int(head.group(1)), int(head.group(2)), terms


def restrict(terms, v, cap):
    """sum over |e| = d of c_e v^e, for each d < cap."""
    out = [Fraction(0)] * cap
    for deg, coeff, factors in terms:
        if deg >= cap:
            raise ValueError(f"term of degree {deg} at cap {cap}")
        x = coeff
        for idx, power in factors:
            x *= v[idx] ** power
        out[deg] += x
    return out


def random_lines(rank, seed, count=LINES_PER_CHECK):
    rng = random.Random(seed)
    return [tuple(rng.choice((-2, -1, 1, 2)) for _ in range(rank))
            for _ in range(count)]


def check_series(parsed, gram, terms, cap, seed):
    """Compare a parsed series with exp(Q/2) sum_r a_r exp(<K_r,h>) on lines."""
    nvars, got_cap, body = parsed
    if nvars != len(gram) or got_cap != cap:
        return f"header vars={nvars} cap={got_cap}, expected {len(gram)}/{cap}"
    for v in random_lines(len(gram), seed):
        got = restrict(body, v, cap)
        want = line_coefficients(gram, v, terms, cap)
        for d, (g, e) in enumerate(zip(got, want)):
            if g != e:
                return f"degree {d} on line {v}: {g} != {e}"
    return None


def check_witten_text(out: str, m: Manifold, w, cap, seed):
    try:
        parsed = parse_series(out)
    except ValueError as exc:
        return str(exc)
    return check_series(parsed, m.gram, witten_terms(m, w), cap, seed)


def check_series_object(terms_dict, num_vars, degree_cap, gram, terms, cap,
                        seed):
    """Same check for a returned series object's (exponents -> coeff) map."""
    body = [(sum(e), Fraction(c), [(i, p) for i, p in enumerate(e) if p])
            for e, c in terms_dict.items()]
    return check_series((num_vars, degree_cap, body), gram, terms, cap, seed)


def check_compare(out: str, code: int, m: Manifold, w, cap, bump):
    """--compare against the predicted KM file, with one coefficient raised
    by `bump` (0 = untouched). A bumped class K changes the difference series
    by bump*sign(K)*exp(Q/2)exp(<K,h>), whose first nonzero coefficient is
    the constant term."""
    if bump is None:
        if code != 0 or out.strip() != f"congruent mod {cap}":
            return f"exit {code}, output {out.strip()[:80]!r}"
        return None
    k = bump[1]
    witten_const = sum(a for a, _ in witten_terms(m, w))
    km_const = witten_const + bump[0] * sign(m.gram, w, k)
    want = (f"first differing monomial: 1 (km={km_const}, "
            f"witten={witten_const})")
    if code != 4 or out.strip() != want:
        return f"exit {code}, output {out.strip()[:120]!r}, want {want!r}"
    return None


# ---------------------------------------------------------------------------
# lattice reports

def _vec(text):
    return tuple(int(x) for x in text.split(","))


def target_square(m: Manifold, variant: str) -> int:
    return {"level0": 2, "level1": 4}[variant] - (m.chi + m.sigma)


def _lll(basis):
    """LLL reduction of integer vectors under the Euclidean inner product."""
    b = [list(v) for v in basis]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gram_schmidt():
        star, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = dot(b[i], star[j]) / dot(star[j], star[j])
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                star, mu = gram_schmidt()
        if dot(star[k], star[k]) >= (Fraction(3, 4) - mu[k][k - 1] ** 2) \
                * dot(star[k - 1], star[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gram_schmidt()
            k = max(k - 1, 1)
    return [tuple(v) for v in b]


def complement_basis(m: Manifold):
    """An LLL-reduced basis of the vectors orthogonal to the basic classes.

    The unit vectors, each extended by KERNEL_WEIGHT times their pairings
    with the classes, are LLL-reduced; the reduced vectors whose extension
    vanishes form a basis of the orthogonal lattice (Pohst's kernel
    method)."""
    n = m.rank
    g = m.gram
    classes = [k for k, _ in m.basic()]
    rows = [tuple(int(i == j) for j in range(n))
            + tuple(KERNEL_WEIGHT * sum(g[i][j] * k[j] for j in range(n))
                    for k in classes)
            for i in range(n)]
    return [v[:n] for v in _lll(rows) if not any(v[n:])]


def inertia(gram):
    """(positive, negative, zero) eigenvalue counts of a symmetric rational
    matrix, by symmetric Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    pos = neg = 0
    while n:
        i = next((i for i in range(n) if a[i][i]), None)
        if i is None:
            j = next(((i, j) for i in range(n) for j in range(n) if a[i][j]),
                     None)
            if j is None:
                break
            # replace x_i by x_i + x_j: the new diagonal entry is 2 a_ij
            i, j = j
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            continue
        p = a[i][i]
        pos, neg = pos + (p > 0), neg + (p < 0)
        a = [[a[r][c] - a[r][i] * a[i][c] / p for c in range(n) if c != i]
             for r in range(n) if r != i]
        n -= 1
    return pos, neg, len(gram) - pos - neg


def _vectors_of_square(sub, target, radius):
    """Nonzero x with x.sub.x == target: every coordinate but the last in
    [-radius, radius], in shells of growing max norm, the last solved for
    exactly (any size)."""
    r = len(sub)
    a = sub[-1][-1]
    for shell in range(radius + 1):
        for head in product(range(-shell, shell + 1), repeat=r - 1):
            if max(map(abs, head), default=0) != shell:
                continue
            b = 2 * sum(x * sub[i][-1] for i, x in enumerate(head))
            c = sum(x * sub[i][j] * y for i, x in enumerate(head) if x
                    for j, y in enumerate(head) if y) - target
            if a == 0:
                roots = ([-c // b] if b and c % b == 0 else
                         [0, 1] if not b and not c else [])
            else:
                disc = b * b - 4 * a * c
                if disc < 0 or isqrt(disc) ** 2 != disc:
                    continue
                root = isqrt(disc)
                roots = [t // (2 * a) for t in {-b + root, -b - root}
                         if t % (2 * a) == 0]
            for t in roots:
                if shell or t:
                    yield head + (t,)


def expected_witnesses(m: Manifold, target: int):
    """What the oracle knows, from its own complement basis, about the two
    searches of `hypotheses`: (a hyperbolic pair exists, a vector of square
    `target` exists), each True (one was found here), False (the
    complement's inertia rules it out) or None (neither)."""
    basis = complement_basis(m)
    if not basis:
        return False, False
    sub = [[pair(m.gram, u, v) for v in basis] for u in basis]
    pos, neg, _ = inertia(sub)
    pair_exists = False if (pos == 0 or neg == 0) else None
    lam_exists = (False if (target < 0 and neg == 0)
                  or (target > 0 and pos == 0) else None)
    if len(sub) == 1 and lam_exists is None:
        # every vector is t b, and t^2 b.b == target is solved exactly
        lam_exists = next(_vectors_of_square(sub, target, 0),
                          None) is not None
    if len(sub) == 2 and pair_exists is None:
        # a hyperbolic pair spans the whole lattice, so it exists exactly
        # when the lattice is even of determinant -1
        even = sub[0][0] % 2 == 0 and sub[1][1] % 2 == 0
        pair_exists = even and sub[0][0] * sub[1][1] - sub[0][1] ** 2 == -1
    if lam_exists is None:
        if next(_vectors_of_square(sub, target, SEARCH_RADIUS),
                None) is not None:
            lam_exists = True
    if pair_exists is None:
        isotropic = []
        for u in _vectors_of_square(sub, 0, SEARCH_RADIUS):
            if any(abs(pair(sub, u, e)) == 1 for e in isotropic):
                pair_exists = True
                break
            isotropic.append(u)
            if len(isotropic) >= ISOTROPIC_MAX:
                break
    return pair_exists, lam_exists


def check_hypotheses(out: str, code: int, m: Manifold, variant: str,
                     bound: int, expect=(None, None)):
    """`expect` = (a hyperbolic pair exists, a lambda exists), each True
    (the report must show a witness), False (none exists: the report must
    show none) or None (the oracle cannot tell). Every printed witness is
    verified from the Gram matrix."""
    if code != 0:
        return f"exit {code}"
    lines = out.strip().split("\n")
    target = target_square(m, variant)
    head = (f"manifold={m.name} variant={variant} bound={bound} "
            f"target_square={target}")
    if lines[0] != head:
        return f"header {lines[0]!r}, want {head!r}"
    wit = {}
    status = {}
    overall = None
    for line in lines[1:]:
        if line.startswith("witness "):
            key, _, val = line[len("witness "):].partition("=")
            wit[key] = _vec(val)
        elif line.startswith("hypothesis="):
            name, _, rest = line[len("hypothesis="):].partition(" status=")
            status[name] = rest.split(" ", 1)[0]
        elif line.startswith("overall="):
            overall = line[len("overall="):]
    g = m.gram
    basics = [k for k, _ in m.basic()]
    want = {"b_plus_odd_ge_3": "pass" if m.b_plus % 2 and m.b_plus >= 3
            else "fail", "sw_simple_type": "pass"}
    pair_exists, lambda_exists = expect
    if pair_exists is not None and ("e" in wit) != pair_exists:
        return (f"hyperbolic pair {'missing' if pair_exists else 'reported'}"
                f", but {'one' if pair_exists else 'none'} exists")
    if lambda_exists is not None and ("lambda" in wit) != lambda_exists:
        return (f"lambda {'missing' if lambda_exists else 'reported'}, but "
                f"{'one' if lambda_exists else 'none'} exists")
    if "e" in wit:
        e, f = wit["e"], wit["f"]
        if pair(g, e, e) or pair(g, f, f) or pair(g, e, f) != 1:
            return f"bad hyperbolic pair e={e} f={f}"
        if any(pair(g, e, b) or pair(g, f, b) for b in basics):
            return "hyperbolic pair not orthogonal to the basic classes"
        want["abundant"] = "pass"
    else:
        want["abundant"] = "unknown-bounded"
    names = ("lambda_exists", "lambda_in_complement", "lambda_square",
             "mod2_congruence")
    if "lambda" in wit:
        lam = wit["lambda"]
        if pair(g, lam, lam) != target:
            return f"lambda^2 = {pair(g, lam, lam)}, target {target}"
        if any(pair(g, lam, b) for b in basics):
            return "lambda not orthogonal to the basic classes"
        # w defaults to lambda + w2, so w - lambda = w2 mod 2 holds
        want.update({n: "pass" for n in names})
    else:
        want.update({n: "unknown-bounded" for n in names})
    if status != want:
        return f"statuses {status}, want {want}"
    values = set(want.values())
    want_overall = ("fail" if "fail" in values else "unknown-bounded"
                    if "unknown-bounded" in values else "pass")
    if overall != want_overall:
        return f"overall={overall}, want {want_overall}"
    return None


def level_rows(m: Manifold, w, lam, delta, mm, ell_max):
    """Expected contribution rows from the level formula
    l = (delta + (c1 - Lambda)^2 + 3(chi+sigma)/4) / 4."""
    rows = []
    for k, sw in sorted(m.basic()):
        d = tuple(a - b for a, b in zip(k, lam))
        num = 4 * (delta + pair(m.gram, d, d)) + 3 * (m.chi + m.sigma)
        if num % 16 or num < 0 or num // 16 > ell_max:
            continue
        ell = num // 16
        rows.append((ell, k, sw, sign(m.gram, w, k),
                     min(ell, delta // 2 - mm)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [f"contribution c1={','.join(map(str, k))} sw={sw} ell={ell} "
            f"sign={s} i_range_max={imax}" for ell, k, sw, s, imax in rows]


def check_levels(out: str, code: int, m: Manifold, w, lam, delta, mm,
                 ell_max):
    if code != 0:
        return f"exit {code}"
    lines = out.strip().split("\n")
    g = m.gram
    t = 3 * (m.chi + m.sigma) // 4
    admissible = (delta + pair(g, w, w) + t) % 4 == 0
    i_lam = Fraction(pair(g, lam, lam)) - Fraction(m.chi + m.sigma, 4)
    head = [f"delta={delta} m={mm} ell_max={ell_max} w={','.join(map(str, w))} "
            f"lambda={','.join(map(str, lam))}",
            f"delta_admissible={'true' if admissible else 'false'}",
            f"i_lambda={i_lam}",
            f"delta_window={'true' if delta < i_lam else 'false'}"]
    if lines[:4] != head:
        return f"header {lines[:4]}, want {head}"
    rows = [ln for ln in lines if ln.startswith("contribution ")]
    want = level_rows(m, w, lam, delta, mm, ell_max)
    if rows != want:
        return f"rows {rows}, want {want}"
    return None


def check_info(out: str, code: int, m: Manifold):
    if code != 0:
        return f"exit {code}"
    want = [f"name={m.name}", f"chi={m.chi}", f"sigma={m.sigma}",
            f"b_plus={m.b_plus}", f"b_minus={m.b_minus}", f"rank={m.rank}",
            f"c={m.c}", f"w2={','.join(map(str, m.w2))}",
            "w2_matches_characteristic_class=true",
            "sw_simple_type=true (asserted)", f"spinc_count={len(m.spinc)}"]
    for k, sw in m.spinc:
        dim = Fraction(pair(m.gram, k, k) - (2 * m.chi + 3 * m.sigma), 4)
        want.append(f"spinc c1={','.join(map(str, k))} sw={sw} "
                    f"characteristic=true expected_dim={dim}")
    got = out.strip().split("\n")
    return None if got == want else f"info {got[:3]}..., want {want[:3]}..."


# ---------------------------------------------------------------------------
# universal-coefficient fits

def point_value_on_line(m: Manifold, w, delta, mm, v):
    """2^m (d!/2) [t^d] of the conjectured series on the line h = t v."""
    d = delta - 2 * mm
    coeffs = line_coefficients(m.gram, v, witten_terms(m, w), d + 1)
    return coeffs[d] * 2 ** mm * Fraction(factorial(d), 2)


def polynomial_on_line(terms, v):
    total = Fraction(0)
    for exps, c in terms.items():
        x = Fraction(c)
        for vi, e in zip(v, exps):
            if e:
                x *= vi ** e
        total += x
    return total


def model_on_line(m: Manifold, w, lam, delta, mm, values, v):
    """sum_s sign SW sum_i sum_j u[sig,i,j] <A,v>^j <B,v>^(d_i-j) (v.v)^i with
    A = c1 - Lambda, B = Lambda, d_i = delta - 2m - 2i; unknowns missing from
    `values` multiply an identically zero form."""
    g = m.gram
    q = pair(g, v, v)
    b = pair(g, lam, v)
    total = Fraction(0)
    for k, sw in sorted(m.basic()):
        diff = tuple(x - y for x, y in zip(k, lam))
        num = 4 * (delta + pair(g, diff, diff)) + 3 * (m.chi + m.sigma)
        if num % 16 or num < 0:
            continue
        ell = num // 16
        sig = (m.chi, m.sigma, pair(g, k, k), pair(g, lam, lam),
               pair(g, k, lam), delta, mm, ell)
        a = pair(g, diff, v)
        part = Fraction(0)
        for i in range(min(ell, delta // 2 - mm) + 1):
            di = delta - 2 * mm - 2 * i
            for j in range(di + 1):
                u = values.get((sig, i, j))
                if u:
                    part += u * a ** j * b ** (di - j) * q ** i
        total += sign(g, w, k) * sw * part
    return total


_GROUP = re.compile(r"^group chi=(-?\d+) sigma=(-?\d+) c1_sq=(-?\d+) "
                    r"lambda_sq=(-?\d+) c1_dot_lambda=(-?\d+) delta=(\d+) "
                    r"m=(\d+) ell=(\d+)$")
_UNKNOWN = re.compile(r"^  p\[\d+,\d+,\d+,(\d+)\]\[(\d+)\] = (.+)$")


def parse_fit_values(lines):
    values = {}
    sig = None
    for line in lines:
        g = _GROUP.match(line)
        if g:
            sig = tuple(int(x) for x in g.groups())
            continue
        u = _UNKNOWN.match(line)
        if u and sig is not None:
            i, j, val = int(u.group(1)), int(u.group(2)), u.group(3)
            if val.startswith("absent"):
                continue
            if val in ("free", "?"):
                raise ValueError(f"unknown p[..,{i}][{j}] is {val}")
            values[(sig, i, j)] = Fraction(val)
    return values


def check_fit_values(values, observations, seed):
    """Substitute the fitted unknowns into the structure formula and compare
    with each observation on random lines. observations: (manifold, w,
    lambda, delta, m, lhs) with lhs None for the conjectured value."""
    for idx, (m, w, lam, delta, mm, lhs) in enumerate(observations):
        for v in random_lines(m.rank, seed + idx):
            want = (point_value_on_line(m, w, delta, mm, v) if lhs is None
                    else polynomial_on_line(lhs, v))
            got = model_on_line(m, w, lam, delta, mm, values, v)
            if got != want:
                return f"observation {idx} on line {v}: model {got} != {want}"
    return None


def check_fit_cli(out: str, code: int, observations, seed, corrupted=None):
    """`fit` output: a unique solution reproducing every observation, or
    (corrupted = (observation index, monomial)) exit 4 with that witness."""
    lines = out.strip().split("\n")
    status = next((ln for ln in lines if ln.startswith("status=")), "")
    if corrupted is not None:
        obs_idx, mono = corrupted
        want = f"witness observation={obs_idx} monomial={monomial_label(mono)}"
        if code != 4 or not status.startswith("status=inconsistent") \
                or want not in lines:
            return f"exit {code}, {status!r}, want {want!r}"
        return None
    if code != 0 or not status.startswith("status=unique"):
        return f"exit {code}, {status!r}"
    try:
        values = parse_fit_values(lines)
    except ValueError as exc:
        return str(exc)
    return check_fit_values(values, observations, seed)
