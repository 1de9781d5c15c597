"""Plain-text file formats: manifold data, basic-class data, fit problems.

Sectioned key = value text with bare integer rows for matrices; `#` starts
a comment. The format favors line-number diagnostics and human diffability
over nesting. All semantic invariants are re-checked on load and reported
as LoadError with the offending line.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Optional

from .errors import LoadError, WittenformError
from .invariants import (KMData, ManifoldData, SpincEntry, point_evaluate,
                         witten_consistent_km)
from .lattice import IntersectionForm
from .series import HomogeneousPolynomial, _parse_term
from .universal_fit import FitProblem, Observation


class _Lines:
    def __init__(self, text: str, path: Optional[str]):
        self.path = path
        self.items = []  # (line_no, content)
        for no, raw in enumerate(text.splitlines(), start=1):
            content = raw.split("#", 1)[0].strip()
            if content:
                self.items.append((no, content))

    def error(self, message, line=None):
        return LoadError(message, path=self.path, line=line)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise LoadError(str(exc), path=path) from None


def _split_sections(lines: _Lines):
    sections = []  # (name, header_line, [(line_no, content), ...])
    current = None
    for no, content in lines.items:
        if content.startswith("[") and content.endswith("]"):
            current = (content[1:-1], no, [])
            sections.append(current)
        else:
            if current is None:
                raise lines.error(f"content before any section: {content!r}", no)
            current[2].append((no, content))
    return sections


def _parse_kv(body, lines, section):
    seen = {}
    rows = []
    for no, content in body:
        if "=" in content:
            key, value = content.split("=", 1)
            key = key.strip()
            if key in seen:
                raise lines.error(f"duplicate key {key!r} in [{section}]", no)
            seen[key] = (no, value.strip())
        else:
            rows.append((no, content))
    return seen, rows


def _get(kv, key, lines, section, header_line):
    if key not in kv:
        raise lines.error(f"missing key {key!r} in [{section}]", header_line)
    return kv[key]


def _parse_int(value, lines, no, what):
    try:
        return int(value)
    except ValueError:
        raise lines.error(f"bad integer for {what}: {value!r}", no) from None


def _parse_int_row(value, lines, no, what, expected_len=None):
    try:
        row = [int(tok) for tok in value.split()]
    except ValueError:
        raise lines.error(f"bad integer row for {what}: {value!r}", no) from None
    if expected_len is not None and len(row) != expected_len:
        raise lines.error(
            f"{what} has {len(row)} entries, expected {expected_len}", no)
    return row


def _parse_bool(value, lines, no, what):
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise lines.error(f"bad boolean for {what}: {value!r}", no)


def parse_manifold(text: str, path: Optional[str] = None) -> ManifoldData:
    lines = _Lines(text, path)
    sections = _split_sections(lines)
    manifold_kv = form_rows = w2_row = None
    form_header = w2_header = manifold_header = None
    rank = None
    spinc = []
    for name, header, body in sections:
        if name == "manifold":
            if manifold_kv is not None:
                raise lines.error("duplicate [manifold] section", header)
            manifold_header = header
            manifold_kv, extra = _parse_kv(body, lines, "manifold")
            if extra:
                raise lines.error("unexpected bare row in [manifold]", extra[0][0])
        elif name == "form":
            if form_rows is not None:
                raise lines.error("duplicate [form] section", header)
            form_header = header
            kv, rows = _parse_kv(body, lines, "form")
            no, value = _get(kv, "rank", lines, "form", header)
            rank = _parse_int(value, lines, no, "rank")
            if len(rows) != rank:
                raise lines.error(
                    f"[form] has {len(rows)} rows, expected rank = {rank}", header)
            form_rows = [_parse_int_row(content, lines, no, "gram row", rank)
                         for no, content in rows]
        elif name == "w2":
            if w2_row is not None:
                raise lines.error("duplicate [w2] section", header)
            w2_header = header
            kv, rows = _parse_kv(body, lines, "w2")
            if kv or len(rows) != 1:
                raise lines.error("[w2] must hold exactly one bit row", header)
            w2_row = rows[0]
        elif name == "spinc":
            kv, rows = _parse_kv(body, lines, "spinc")
            if rows:
                raise lines.error("unexpected bare row in [spinc]", rows[0][0])
            no_c1, c1_value = _get(kv, "c1", lines, "spinc", header)
            no_sw, sw_value = _get(kv, "sw", lines, "spinc", header)
            spinc.append((no_c1,
                          _parse_int_row(c1_value, lines, no_c1, "c1"),
                          _parse_int(sw_value, lines, no_sw, "sw")))
        else:
            raise lines.error(f"unknown section [{name}]", header)
    if manifold_kv is None:
        raise lines.error("missing [manifold] section")
    if form_rows is None:
        raise lines.error("missing [form] section")
    if w2_row is None:
        raise lines.error("missing [w2] section")

    no, name_value = _get(manifold_kv, "name", lines, "manifold", manifold_header)
    no_chi, chi_v = _get(manifold_kv, "chi", lines, "manifold", manifold_header)
    chi = _parse_int(chi_v, lines, no_chi, "chi")
    no_sig, sig_v = _get(manifold_kv, "sigma", lines, "manifold", manifold_header)
    sigma = _parse_int(sig_v, lines, no_sig, "sigma")
    no_bp, bp_v = _get(manifold_kv, "b_plus", lines, "manifold", manifold_header)
    b_plus = _parse_int(bp_v, lines, no_bp, "b_plus")
    no_st, st_v = _get(manifold_kv, "sw_simple_type", lines, "manifold",
                       manifold_header)
    simple_type = _parse_bool(st_v, lines, no_st, "sw_simple_type")

    try:
        form = IntersectionForm(form_rows)
    except WittenformError as exc:
        raise lines.error(str(exc), form_header) from None
    w2 = _parse_int_row(w2_row[1], lines, w2_row[0], "w2 row", rank)
    if any(b not in (0, 1) for b in w2):
        raise lines.error("w2 entries must be bits (0 or 1)", w2_row[0])

    for no_c1, c1, sw in spinc:
        if len(c1) != rank:
            raise lines.error(
                f"c1 has {len(c1)} entries, expected rank = {rank}", no_c1)
    for no_c1, c1, sw in spinc:
        if not form.is_characteristic(c1):
            raise lines.error(f"c1 {tuple(c1)} of manifold {name_value!r} "
                              "is not characteristic", no_c1)
    try:
        return ManifoldData(
            name=name_value, chi=chi, sigma=sigma, b_plus=b_plus, form=form,
            w2=tuple(w2), spinc=tuple(SpincEntry(c1, sw) for _, c1, sw in spinc),
            sw_simple_type=simple_type)
    except (ValueError, WittenformError) as exc:
        raise lines.error(str(exc), manifold_header) from None


def manifold_to_text(m: ManifoldData) -> str:
    lines = ["[manifold]",
             f"name = {m.name}",
             f"chi = {m.chi}",
             f"sigma = {m.sigma}",
             f"b_plus = {m.b_plus}",
             f"sw_simple_type = {'true' if m.sw_simple_type else 'false'}",
             "",
             "[form]",
             f"rank = {m.rank}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.form.gram)
    lines.append("")
    lines.append("[w2]")
    lines.append(" ".join(str(b) for b in m.w2))
    for entry in m.spinc:
        lines.append("")
        lines.append("[spinc]")
        lines.append("c1 = " + " ".join(str(x) for x in entry.c1))
        lines.append(f"sw = {entry.sw}")
    return "\n".join(lines) + "\n"


def load_manifold(path: str) -> ManifoldData:
    return parse_manifold(_read(path), path=path)


# ---------------------------------------------------------------------------
# basic-class data files

def parse_km(text: str, path: Optional[str] = None) -> KMData:
    lines = _Lines(text, path)
    sections = _split_sections(lines)
    w = None
    terms = []
    for name, header, body in sections:
        if name == "km":
            kv, rows = _parse_kv(body, lines, "km")
            no, value = _get(kv, "w", lines, "km", header)
            w = _parse_int_row(value, lines, no, "w")
        elif name == "term":
            kv, rows = _parse_kv(body, lines, "term")
            no_a, a_v = _get(kv, "a", lines, "term", header)
            try:
                a = Fraction(a_v)
            except ValueError:
                raise lines.error(f"bad rational for a: {a_v!r}", no_a) from None
            no_k, k_v = _get(kv, "k", lines, "term", header)
            k = _parse_int_row(k_v, lines, no_k, "k")
            terms.append((header, a, k))
        else:
            raise lines.error(f"unknown section [{name}]", header)
    if w is None:
        raise lines.error("missing [km] section")
    for header, a, k in terms:
        if len(k) != len(w):
            raise lines.error("k length does not match w length", header)
        if a == 0:
            raise lines.error("coefficient a must be nonzero", header)
    try:
        return KMData(w=tuple(w), terms=tuple((a, tuple(k)) for _, a, k in terms))
    except (ValueError, WittenformError) as exc:
        raise lines.error(str(exc)) from None


def km_to_text(km: KMData) -> str:
    lines = ["[km]", "w = " + " ".join(str(x) for x in km.w)]
    for a, k in km.terms:
        lines.append("")
        lines.append("[term]")
        lines.append(f"a = {a}")
        lines.append("k = " + " ".join(str(x) for x in k))
    return "\n".join(lines) + "\n"


def load_km(path: str) -> KMData:
    return parse_km(_read(path), path=path)


# ---------------------------------------------------------------------------
# fit-problem files

def _parse_inline_polynomial(value, num_vars, degree, lines, no):
    terms = {}
    for chunk in value.split(" + "):
        try:
            exps, coeff = _parse_term(chunk.strip(), num_vars)
        except ValueError as exc:
            raise lines.error(str(exc), no) from None
        if sum(exps) != degree:
            raise lines.error(
                f"term of degree {sum(exps)} in a degree-{degree} observation", no)
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return HomogeneousPolynomial(num_vars, degree + 1, terms, degree=degree)


def parse_fit_problem(text: str, path: Optional[str] = None,
                      base_dir: Optional[str] = None) -> FitProblem:
    lines = _Lines(text, path)
    sections = _split_sections(lines)
    delta = mm = None
    observations = []
    if base_dir is None:
        base_dir = os.path.dirname(path) if path else "."
    for name, header, body in sections:
        if name == "fit":
            kv, rows = _parse_kv(body, lines, "fit")
            no, value = _get(kv, "delta", lines, "fit", header)
            delta = _parse_int(value, lines, no, "delta")
            no, value = _get(kv, "m", lines, "fit", header)
            mm = _parse_int(value, lines, no, "m")
        elif name == "observation":
            if delta is None:
                raise lines.error("[fit] section must precede observations", header)
            kv, rows = _parse_kv(body, lines, "observation")
            no_m, mpath = _get(kv, "manifold", lines, "observation", header)
            manifold = load_manifold(os.path.join(base_dir, mpath))
            no_w, w_v = _get(kv, "w", lines, "observation", header)
            w = _parse_int_row(w_v, lines, no_w, "w", manifold.rank)
            no_l, l_v = _get(kv, "lambda", lines, "observation", header)
            lam = _parse_int_row(l_v, lines, no_l, "lambda", manifold.rank)
            no_lhs, lhs_v = _get(kv, "lhs", lines, "observation", header)
            if lhs_v.strip() == "witten":
                km = witten_consistent_km(manifold, w)
                observed = point_evaluate(km, manifold.form, delta, mm)
                provenance = "point_evaluate (x->2 convention, witten-consistent)"
            else:
                observed = _parse_inline_polynomial(
                    lhs_v, manifold.rank, delta - 2 * mm, lines, no_lhs)
                provenance = "user table"
            observations.append(Observation(
                manifold=manifold, w=tuple(w), lambda_=tuple(lam),
                delta=delta, m=mm, observed_lhs=observed,
                provenance=provenance))
        else:
            raise lines.error(f"unknown section [{name}]", header)
    if delta is None:
        raise lines.error("missing [fit] section")
    if not observations:
        raise lines.error("no [observation] sections")
    try:
        return FitProblem(tuple(observations))
    except ValueError as exc:
        raise lines.error(str(exc)) from None


def load_fit_problem(path: str) -> FitProblem:
    return parse_fit_problem(_read(path), path=path)
