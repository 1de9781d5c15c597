import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

import wittenform
from wittenform.cli import main, parse_cli_vector
from wittenform.corpus import (bundled_path, elliptic_manifold, k3_form,
                               k3_manifold, list_bundled, load_bundled)
from wittenform.errors import DimensionMismatch, LoadError
from wittenform.invariants import KMData, fit_km_coefficients, witten_rhs
from wittenform.manifold_io import km_to_text, manifold_to_text, witten_consistent_km
from wittenform.series import FormalSeries, exp_quadratic

K3_PATH = bundled_path("k3.manifold")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_cli_vector():
    assert parse_cli_vector("0", 4) == (0, 0, 0, 0)
    assert parse_cli_vector("1,-3,0", 3) == (1, -3, 0)
    with pytest.raises(DimensionMismatch):
        parse_cli_vector("1,2", 3)
    with pytest.raises(LoadError):
        parse_cli_vector("1,x", 2)


def test_info_k3(capsys):
    code, out, err = run_cli(capsys, "info", K3_PATH)
    assert code == 0
    assert "name=K3" in out
    assert "c=2" in out
    assert "rank=22" in out
    assert "b_minus=19" in out
    assert "w2_matches_characteristic_class=true" in out
    assert "spinc_count=1" in out


def test_witten_k3_text_matches_library(capsys):
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--w", "0")
    assert code == 0
    assert out.rstrip("\n") == exp_quadratic(k3_form(), 4).to_text()


def test_witten_zero_for_no_entries(capsys, tmp_path):
    m = k3_manifold()
    empty = type(m)(name="empty", chi=24, sigma=-16, b_plus=3, form=m.form,
                    w2=m.w2, spinc=(), sw_simple_type=True)
    path = tmp_path / "empty.manifold"
    path.write_text(manifold_to_text(empty))
    code, out, _ = run_cli(capsys, "--degree", "4", "witten", str(path))
    assert code == 0
    assert out.splitlines()[1] == "0"


def test_witten_output_file(capsys, tmp_path):
    target = tmp_path / "series.txt"
    code, out, _ = run_cli(capsys, "--degree", "3", "witten", K3_PATH,
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().rstrip("\n") == exp_quadratic(k3_form(), 3).to_text()
    # the file holds the bytes that stdout gets: at cap 8 two chunks, at
    # cap 0 the zero series
    for cap in ("8", "0"):
        argv = ["--degree", cap, "witten", K3_PATH]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        code, printed, err = run_cli(capsys, *argv, "--output", str(target))
        assert (code, printed, err) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("target", ["missing/series.txt", "."])
def test_witten_output_that_cannot_be_written_exits_2(capsys, tmp_path,
                                                      target):
    # a missing directory and a directory: a line naming the path, no
    # traceback
    path = tmp_path / target
    code, out, err = run_cli(capsys, "--degree", "3", "witten", K3_PATH,
                             "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: [Errno ")
    assert err.count("\n") == 1


def witten_golden_cases(tmp_path):
    """The witten runs pinned in witten_golden.json: name -> argv. Each
    bundled synthetic at cap 10 with w = 0 and w = w2, synthetic_05 at cap
    12, K3 at caps 6, 8 and 10, E(4) at caps 6, 8 and 10, E(4) at cap 6
    with w = e2 (the partner of the fiber F in the first H, so w.F = 1 and
    the classes' relative signs flip: 2,387 terms against w = 0's 69),
    E(6) and E(8) (ranks 70 and 94) at cap 8, and two --compare runs of
    synthetic_05 at cap 10 against km files written here: the
    witten-consistent data, and the same data with 1/3 moved from the
    second class's coefficient to the first (degree 0 still agrees)."""
    cases = {}
    for name in list_bundled():
        if name.startswith("synthetic_"):
            stem, path = name.split(".")[0], bundled_path(name)
            w2 = ",".join(map(str, load_bundled(name).w2))
            for label, w in (("w0", "0"), ("w2", w2)):
                cases[f"{stem}_cap10_{label}"] = [
                    "--degree", "10", "witten", path, "--w", w]
    syn05 = bundled_path("synthetic_05.manifold")
    cases["synthetic_05_cap12_w0"] = ["--degree", "12", "witten", syn05]
    for cap in (6, 8, 10):
        cases[f"k3_cap{cap}_w0"] = ["--degree", str(cap), "witten", K3_PATH]
    e4 = tmp_path / "e4.manifold"
    e4.write_text(manifold_to_text(elliptic_manifold(4)))
    for cap in (6, 8, 10):
        cases[f"e4_cap{cap}_w0"] = ["--degree", str(cap), "witten", str(e4)]
    e2 = ",".join("1" if i == 1 else "0" for i in range(46))
    cases["e4_cap6_we2"] = ["--degree", "6", "witten", str(e4), "--w", e2]
    for n in (6, 8):
        path = tmp_path / f"e{n}.manifold"
        path.write_text(manifold_to_text(elliptic_manifold(n)))
        cases[f"e{n}_cap8_w0"] = ["--degree", "8", "witten", str(path)]
    km = witten_consistent_km(load_bundled("synthetic_05.manifold"),
                              (0,) * 7)
    (a1, k1), (a2, k2), *rest = km.terms
    bumped = KMData(w=km.w, terms=((a1 + Fraction(1, 3), k1),
                                   (a2 - Fraction(1, 3), k2), *rest))
    for label, data in (("congruent", km), ("bumped", bumped)):
        path = tmp_path / f"{label}.km"
        path.write_text(km_to_text(data))
        cases[f"synthetic_05_cap10_compare_{label}"] = [
            "--degree", "10", "witten", syn05, "--compare", str(path)]
    return cases


def test_witten_golden_stdout(capsys, tmp_path):
    # sha256 of witten stdout and the exit code, recorded before the text
    # was formatted from the kernel's integers; stderr stays empty
    golden = os.path.join(os.path.dirname(__file__), "witten_golden.json")
    with open(golden, encoding="utf-8") as fh:
        expected = json.load(fh)
    cases = witten_golden_cases(tmp_path)
    assert sorted(cases) == sorted(expected)
    for name, argv in cases.items():
        code, out, err = run_cli(capsys, *argv)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert ({"code": code, "sha256": digest}, err) == (expected[name],
                                                           ""), name


class Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_witten_streams_stdout_in_bounded_chunks(monkeypatch):
    def whole_text(self):
        raise AssertionError("witten built the whole text")

    monkeypatch.setattr(FormalSeries, "to_text", whole_text)
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["--degree", "8", "witten", K3_PATH]) == 0
    monkeypatch.undo()
    # the header and 4,096 term lines, then the other 2,568 of K3's 6,664
    assert [w.count("\n") for w in out.writes] == [1 + 4096, 2568]
    golden = os.path.join(os.path.dirname(__file__), "witten_golden.json")
    with open(golden, encoding="utf-8") as fh:
        want = json.load(fh)["k3_cap8_w0"]["sha256"]
    text = "".join(out.writes)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


def test_witten_into_a_closed_pipe_exits_0():
    # the reader closes the pipe after the header: the rest of the writes
    # fail, and main's broken-pipe path ends the run quietly
    package_root = os.path.dirname(os.path.dirname(wittenform.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.Popen(
        [sys.executable, "-m", "wittenform.cli", "--degree", "10", "witten",
         K3_PATH], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert first == b"series vars=22 cap=10\n"
    assert b"Traceback" not in err


def test_witten_compare_congruent(capsys, tmp_path):
    km = witten_consistent_km(k3_manifold(), (0,) * 22)
    km_path = tmp_path / "k3.km"
    km_path.write_text(km_to_text(km))
    code, out, _ = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                           "--compare", str(km_path))
    assert code == 0
    assert out.strip() == "congruent mod 4"


def test_witten_compare_mismatch_exits_4(capsys, tmp_path):
    km = KMData(w=(0,) * 22, terms=((2, (0,) * 22),))   # wrong coefficient
    km_path = tmp_path / "bad.km"
    km_path.write_text(km_to_text(km))
    code, out, _ = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                           "--compare", str(km_path))
    assert code == 4
    assert "first differing monomial: 1 " in out


@pytest.fixture
def fraction_views(monkeypatch):
    """(unpacked, views): the degrees each `FormalSeries._fractions` call
    unpacks, and one entry per read of a series' whole `terms` view."""
    unpacked, views = [], []
    fractions, terms = FormalSeries._fractions, FormalSeries.terms

    def spy_fractions(self, degrees, keys=None):
        unpacked.append(tuple(degrees))
        return fractions(self, degrees, keys)

    def spy_terms(self):
        views.append("terms")
        return terms.fget(self)

    monkeypatch.setattr(FormalSeries, "_fractions", spy_fractions)
    monkeypatch.setattr(FormalSeries, "terms", property(spy_terms))
    return unpacked, views


def test_compare_and_km_fit_build_no_fraction_view(capsys, tmp_path,
                                                   fraction_views):
    # both read the kernel's integers: no series' `terms` is read, and
    # nothing is unpacked (a witness's two coefficients are read one
    # monomial each)
    unpacked, views = fraction_views
    m = k3_manifold()
    zero, k = (0,) * 22, (2,) + (0,) * 21
    good = tmp_path / "good.km"
    good.write_text(km_to_text(witten_consistent_km(m, zero)))
    # plus 1/3 (e^<k,h> + e^-<k,h> - 2), which starts at degree 2
    bumped = tmp_path / "bumped.km"
    bumped.write_text(km_to_text(KMData(zero, (
        (1, zero), (Fraction(1, 3), k), (Fraction(1, 3), tuple(-x for x in k)),
        (Fraction(-2, 3), zero)))))
    code, out, _ = run_cli(capsys, "--degree", "8", "witten", K3_PATH,
                           "--compare", str(good))
    assert (code, out, unpacked, views) == (0, "congruent mod 8\n", [], [])
    code, out, _ = run_cli(capsys, "--degree", "8", "witten", K3_PATH,
                           "--compare", str(bumped))
    assert code == 4 and out == ("first differing monomial: h2^2 "
                                 "(km=4/3, witten=0)\n")
    assert (unpacked, views) == ([], [])
    target = witten_rhs(m, zero, 8)
    fit = fit_km_coefficients(target, [zero, k], zero, m.form, 8)
    assert fit.status == "unique" and fit.a_values == {zero: 1, k: 0}
    fit = fit_km_coefficients(target, [k], zero, m.form, 8)
    # b = 1 from the constant term, then <k, h> = 2 h2 is not in the target
    assert fit.status == "inconsistent" and fit.witness == (0, 1) + (0,) * 20
    assert (unpacked, views) == ([], [])


def test_reads_across_key_layouts_build_no_fraction_view(fraction_views):
    # a K3 series at cap 9 or 10 (4-bit key fields) read at cap 8 (3-bit
    # fields) is re-keyed in integers; read at cap 9 (the same fields) it
    # hands over its own slices
    unpacked, views = fraction_views
    m = k3_manifold()
    zero, k = (0,) * 22, (2,) + (0,) * 21
    at8, at9, at10 = (witten_rhs(m, zero, cap) for cap in (8, 9, 10))
    fit = fit_km_coefficients(at10, [zero, k], zero, m.form, 8)
    assert fit.status == "unique" and fit.a_values == {zero: 1, k: 0}
    fit = fit_km_coefficients(at10, [k], zero, m.form, 8)
    assert fit.status == "inconsistent" and fit.witness == (0, 1) + (0,) * 20
    truncated = at9.truncate_to(8)
    assert truncated.to_text() == at8.to_text()
    assert truncated.homogeneous_part(6).to_text() == (
        at10.homogeneous_part(6).truncate_to(8).to_text())
    assert all(x is y for x, y in zip(at10.truncate_to(9).slices, at10.slices))
    assert not any(x is y for x, y in zip(truncated.slices, at9.slices))
    assert (unpacked, views) == ([], [])


@pytest.fixture
def no_series(monkeypatch):
    """Fail the test if `witten` computes its series: a bad km file or
    comparison degree is reported before `witten_rhs` runs."""
    def refuse(*args):
        raise AssertionError("witten_rhs ran before the km file was checked")

    monkeypatch.setattr(wittenform.cli, "witten_rhs", refuse)


def test_witten_compare_zero_denominator_exits_2(capsys, tmp_path, no_series):
    km_path = tmp_path / "bad.km"
    km_path.write_text("[km]\nw = " + " ".join(["0"] * 22)
                       + "\n\n[term]\na = 1/0\nk = " + " ".join(["0"] * 22)
                       + "\n")
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--compare", str(km_path))
    assert (code, out) == (2, "")
    assert err == f"error: {km_path}:5: bad rational for a: '1/0'\n"


@pytest.mark.parametrize("text, line, message", [
    # a second [km] would replace the first one's w
    ("[km]\nw = {z}\n\n[term]\na = 1\nk = {z}\n\n[km]\nw = {z}\n", 8,
     "duplicate [km] section"),
    ("[km]\nw = {z}\n1 2\n\n[term]\na = 1\nk = {z}\n", 3,
     "unexpected bare row in [km]"),
    ("[km]\nw = {z}\n\n[term]\na = 1\nk = {z}\n5 5\n", 7,
     "unexpected bare row in [term]"),
    ("[km]\nw = {z}\n\n[term]\na = 1\nk = {z}\n\n[extra]\n", 8,
     "unknown section [extra]"),
    ("[term]\na = 1\nk = {z}\n", None, "missing [km] section"),
    # parse_km names the [term] line of a class shorter than w
    ("[km]\nw = {z}\n\n[term]\na = 1\nk = 0 0\n", 4,
     "k length does not match w length"),
], ids=["second km", "row in km", "row in term", "unknown section", "no km",
        "short class"])
def test_witten_compare_km_file_structure_exits_2(capsys, tmp_path, text,
                                                  line, message, no_series):
    km_path = tmp_path / "bad.km"
    km_path.write_text(text.format(z=" ".join(["0"] * 22)))
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--compare", str(km_path))
    assert (code, out) == (2, "")
    where = f"{km_path}:{line}:" if line else f"{km_path}:"
    assert err == f"error: {where} {message}\n"


@pytest.mark.parametrize("w, k, message", [
    ("0 " * 21, "0 " * 21, "w has wrong rank"),
    # K3 is even, and G e1 = e2 is odd at index 1
    ("0 " * 22, "1 " + "0 " * 21,
     "class 1" + ",0" * 21 + " is not characteristic for this form"),
], ids=["w of rank 21", "non-characteristic class"])
def test_witten_compare_km_that_misfits_the_form_exits_2(capsys, tmp_path, w,
                                                         k, message,
                                                         no_series):
    km_path = tmp_path / "bad.km"
    km_path.write_text(f"[km]\nw = {w}\n\n[term]\na = 1\nk = {k}\n")
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--compare", str(km_path))
    assert (code, out) == (2, "")
    assert err == f"error: {km_path}: {message}\n"


def test_witten_compare_inclusive_flag(capsys, tmp_path):
    km = witten_consistent_km(k3_manifold(), (0,) * 22)
    km_path = tmp_path / "k3.km"
    km_path.write_text(km_to_text(km))
    code, out, _ = run_cli(capsys, "--degree", "6", "--inclusive", "witten",
                           K3_PATH, "--compare", str(km_path),
                           "--mod-degree", "5")
    assert code == 0
    assert out.strip() == "congruent mod 6"   # <= 5 means < 6


def test_witten_compare_beyond_cap_refused(capsys, tmp_path, no_series):
    km = witten_consistent_km(k3_manifold(), (0,) * 22)
    km_path = tmp_path / "k3.km"
    km_path.write_text(km_to_text(km))
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--compare", str(km_path), "--mod-degree", "9")
    assert code == 3
    assert "refused" in err


def test_witten_compare_elliptic_surface_at_its_window(capsys, tmp_path):
    # E(4): c = 4, so the paper's congruence is mod degree c + 2 = 6
    m = elliptic_manifold(4)
    path = tmp_path / "e4.manifold"
    path.write_text(manifold_to_text(m))
    km = witten_consistent_km(m, (0,) * m.rank)
    km_path = tmp_path / "e4.km"
    km_path.write_text(km_to_text(km))
    code, out, _ = run_cli(capsys, "--degree", "6", "witten", str(path),
                           "--compare", str(km_path))
    assert (code, out) == (0, "congruent mod 6\n")
    bumped = KMData(w=km.w, terms=tuple(
        (a + 1 if not any(k) else a, k) for a, k in km.terms))
    km_path.write_text(km_to_text(bumped))
    code, out, _ = run_cli(capsys, "--degree", "6", "witten", str(path),
                           "--compare", str(km_path))
    assert (code, out) == (
        4, "first differing monomial: 1 (km=1, witten=0)\n")


def test_witten_compare_negative_mod_degree_exits_2(capsys, tmp_path):
    km = witten_consistent_km(k3_manifold(), (0,) * 22)
    km_path = tmp_path / "k3.km"
    km_path.write_text(km_to_text(km))
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--compare", str(km_path), "--mod-degree", "-2")
    assert (code, out) == (2, "")
    assert err == "error: --mod-degree -2 is negative\n"


def test_hypotheses_k3_pass(capsys):
    code, out, _ = run_cli(capsys, "hypotheses", K3_PATH,
                           "--variant", "level0")
    assert code == 0
    assert "overall=pass" in out
    assert "hypothesis=lambda_square status=pass" in out


def test_hypotheses_small_budget_unknown(capsys):
    code, out, _ = run_cli(capsys, "hypotheses", K3_PATH,
                           "--variant", "level0", "--budget", "2")
    assert code == 0
    assert "status=unknown-bounded" in out
    assert "overall=unknown-bounded" in out


def test_hypotheses_with_a_supplied_lambda(capsys):
    # the class that the search finds, supplied: the same report, but
    # lambda_exists says where lambda came from
    code, searched, _ = run_cli(capsys, "hypotheses", K3_PATH,
                                "--variant", "level0")
    assert code == 0
    lam = "0,0,0,0,0,0,1,0,-1" + ",0" * 13
    assert f"witness lambda={lam}\n" in searched
    code, out, err = run_cli(capsys, "hypotheses", K3_PATH,
                             "--variant", "level0", "--lambda", lam)
    assert (code, err) == (0, "")
    assert "hypothesis=lambda_exists status=pass detail=supplied\n" in out
    assert out == searched.replace("lambda_exists status=pass detail=searched",
                                   "lambda_exists status=pass detail=supplied")


def test_hypotheses_negative_budget_exit_2(capsys):
    code, out, err = run_cli(capsys, "hypotheses", K3_PATH,
                             "--variant", "level0", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "budget must be >= 1" in err


def test_hypotheses_golden_on_the_bundled_corpus(capsys):
    # hypotheses stdout on the 11 bundled files, both variants, at bound 20
    # with the default budget, at bound 80 with budget 20000, and at the
    # small budgets of bound 5 with budget 300 and bound 40 with budget
    # 2000, which mix pass and unknown-bounded answers
    golden = os.path.join(os.path.dirname(__file__), "hypotheses_golden.json")
    with open(golden, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 88
    for case in cases:
        code, out, err = run_cli(capsys, "hypotheses",
                                 bundled_path(case["file"]), *case["args"])
        assert (code, out, err) == (0, case["stdout"], ""), (case["file"],
                                                             case["args"])


def fit_golden_files():
    """The fit files pinned in fit_golden.json: name -> (manifold file, fit
    text), with w = 0. The manifolds are K3 and E(4), written by
    manifold_to_text; lambda = e3 is the third basis vector. `more` holds
    (lambda, lhs) of further observations on the same manifold."""
    def fit(man, rank, delta, lam=(), lhs="witten", m=0, more=()):
        def vec(idx):
            return " ".join("1" if i in idx else "0" for i in range(rank))
        return man, f"[fit]\ndelta = {delta}\nm = {m}\n" + "".join(
            f"\n[observation]\nmanifold = {man}\nw = {vec(())}\n"
            f"lambda = {vec(o_lam)}\nlhs = {o_lhs}\n"
            for o_lam, o_lhs in ((lam, lhs), *more))
    inline = "1 * h1^2 + 1/3 * h2^1 h5^1"
    return {
        "k3_delta2": fit("k3.manifold", 22, 2),
        "k3_delta6": fit("k3.manifold", 22, 6),
        "e4_delta4_e3": fit("e4.manifold", 46, 4, (2,)),
        "e4_delta4_e2_e3": fit("e4.manifold", 46, 4, (1, 2)),
        "k3_delta2_inline_inconsistent": fit("k3.manifold", 22, 2,
                                             lhs=inline),
        "k3_delta10_m1": fit("k3.manifold", 22, 10, m=1),
        "k3_delta10": fit("k3.manifold", 22, 10),
        "e4_delta8_e3": fit("e4.manifold", 46, 8, (2,)),
        "e4_delta6": fit("e4.manifold", 46, 6),
        "k3_delta2_witten_then_inline": fit("k3.manifold", 22, 2,
                                            more=(((), inline),)),
        "k3_delta10_two_lambdas": fit("k3.manifold", 22, 10,
                                      more=(((0, 1, 2, 3), "witten"),)),
    }


def test_fit_golden_on_k3_and_e4(capsys, tmp_path):
    # fit stdout, stderr and exit code on generated K3 and E(4) files; an
    # entry with no "stderr" key wants an empty stderr
    golden = os.path.join(os.path.dirname(__file__), "fit_golden.json")
    with open(golden, encoding="utf-8") as fh:
        cases = json.load(fh)
    files = fit_golden_files()
    assert sorted(cases) == sorted(files)
    for name, m in (("k3.manifold", k3_manifold()),
                    ("e4.manifold", elliptic_manifold(4))):
        (tmp_path / name).write_text(manifold_to_text(m))
    for name, (_, text) in files.items():
        path = tmp_path / f"{name}.fit"
        path.write_text(text)
        code, out, err = run_cli(capsys, "fit", str(path))
        assert (code, out, err) == (cases[name]["code"], cases[name]["stdout"],
                                    cases[name].get("stderr", "")), name


def test_levels_k3(capsys):
    code, out, _ = run_cli(capsys, "levels", K3_PATH, "--delta", "2",
                           "--ell-max", "4")
    assert code == 0
    assert "delta_admissible=true" in out
    assert "ell=2" in out
    assert "i_range_max=1" in out
    assert "caveat i(lambda) <= 0" in out


def test_levels_inadmissible_flag(capsys):
    code, out, _ = run_cli(capsys, "levels", K3_PATH, "--delta", "1")
    assert code == 0
    assert "delta_admissible=false" in out


def test_levels_negative_ell_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "levels", K3_PATH, "--delta", "4",
                             "--ell-max", "-1")
    assert (code, out) == (2, "")
    assert err == "error: need ell_max >= 0, got -1\n"


def test_repeated_calls_start_from_the_defaults(capsys):
    # one parser serves every call in a process; flags that one call sets
    # must not carry over into the next
    from wittenform.cli import build_parser
    assert build_parser() is build_parser()
    _, out, _ = run_cli(capsys, "levels", K3_PATH, "--delta", "2", "--m", "1",
                        "--ell-max", "2")
    assert out.startswith("delta=2 m=1 ell_max=2 ")
    code, out, _ = run_cli(capsys, "levels", K3_PATH, "--delta", "2")
    assert code == 0
    assert out.startswith("delta=2 m=0 ell_max=4 ")


def test_fit_consistent(capsys, tmp_path):
    (tmp_path / "k3.manifold").write_text(manifold_to_text(k3_manifold()))
    zeros = " ".join(["0"] * 22)
    obs = (tmp_path / "obs.fit")
    obs.write_text(
        "[fit]\ndelta = 2\nm = 0\n\n[observation]\nmanifold = k3.manifold\n"
        f"w = {zeros}\nlambda = {zeros}\nlhs = witten\n")
    code, out, _ = run_cli(capsys, "fit", str(obs))
    assert code == 0
    assert "status=unique" in out
    assert "p[2,2,0,1][0] = 1/2" in out
    assert "residual observation=0 exact_zero=true" in out


def test_fit_inline_zero_is_the_zero_polynomial(capsys, tmp_path):
    # "lhs = 0" has no term of the wrong degree: it is the zero polynomial,
    # which the K3 slot fits with 0
    (tmp_path / "k3.manifold").write_text(manifold_to_text(k3_manifold()))
    zeros = " ".join(["0"] * 22)
    obs = tmp_path / "obs.fit"
    obs.write_text(
        "[fit]\ndelta = 2\nm = 0\n\n[observation]\nmanifold = k3.manifold\n"
        f"w = {zeros}\nlambda = {zeros}\nlhs = 0\n")
    code, out, err = run_cli(capsys, "fit", str(obs))
    assert (code, err) == (0, "")
    assert "status=unique" in out
    assert "  p[2,2,0,1][0] = 0\n" in out
    assert "residual observation=0 exact_zero=true" in out


@pytest.mark.parametrize("delta,mm", [(2, 0), (6, 0), (6, 1), (6, 2)])
def test_fit_k3_matches_closed_form(capsys, tmp_path, delta, mm):
    # with w = lambda = 0 the point value is 2^m (d!/2) (Q/2)^(d/2) / (d/2)!,
    # so only the Q^(d/2) slot is present
    (tmp_path / "k3.manifold").write_text(manifold_to_text(k3_manifold()))
    zeros = " ".join(["0"] * 22)
    obs = tmp_path / "obs.fit"
    obs.write_text(
        f"[fit]\ndelta = {delta}\nm = {mm}\n\n[observation]\n"
        f"manifold = k3.manifold\nw = {zeros}\nlambda = {zeros}\n"
        "lhs = witten\n")
    code, out, _ = run_cli(capsys, "fit", str(obs))
    d = delta - 2 * mm
    want = Fraction(2 ** mm * factorial(d),
                    2 ** (d // 2 + 1) * factorial(d // 2))
    assert code == 0
    assert "status=unique" in out
    slots = [ln.strip() for ln in out.splitlines() if ln.startswith("  p[")]
    present = [ln for ln in slots if not ln.endswith("= absent (degenerate form)")]
    assert len(present) == 1 and len(slots) > 1
    label, value = present[0].split(" = ")
    assert re.fullmatch(rf"p\[{delta},\d+,{mm},{d // 2}\]\[0\]", label)
    assert Fraction(value) == want
    assert "residual observation=0 exact_zero=true" in out


def test_fit_inconsistent_exits_4(capsys, tmp_path):
    (tmp_path / "k3.manifold").write_text(manifold_to_text(k3_manifold()))
    zeros = " ".join(["0"] * 22)
    obs = (tmp_path / "obs.fit")
    # the true value is Q/2; claim something off the Q-span
    obs.write_text(
        "[fit]\ndelta = 2\nm = 0\n\n[observation]\nmanifold = k3.manifold\n"
        f"w = {zeros}\nlambda = {zeros}\nlhs = 1 * h1^2\n")
    code, out, _ = run_cli(capsys, "fit", str(obs))
    assert code == 4
    assert "status=inconsistent" in out
    assert "witness observation=0" in out


def test_load_error_exit_2_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.manifold"
    text = manifold_to_text(k3_manifold()).replace("chi = 24", "chi = vingt")
    bad.write_text(text)
    code, out, err = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert "bad.manifold:3" in err


# a rank-4 manifold, diag(1, 1, 1, -1): line 1 is [manifold], 6 its
# sw_simple_type, 8 [form], 10-13 the Gram rows, 15 [w2], 18 [spinc], 19 c1
TINY = ("[manifold]\nname = tiny\nchi = 6\nsigma = 2\nb_plus = 3\n"
        "sw_simple_type = true\n\n[form]\nrank = 4\n1 0 0 0\n0 1 0 0\n"
        "0 0 1 0\n0 0 0 -1\n\n[w2]\n1 1 1 1\n\n[spinc]\nc1 = 1 1 1 1\n"
        "sw = 1\n")


@pytest.mark.parametrize("old, new, line, message", [
    ("[manifold]\n", "stray\n[manifold]\n", 1,
     "content before any section: 'stray'"),
    ("name = tiny\n", "", 1, "missing key 'name' in [manifold]"),
    ("0 1 0 0\n", "0 1 0\n", 11, "gram row has 3 entries, expected 4"),
    ("= true", "= maybe", 6, "bad boolean for sw_simple_type: 'maybe'"),
    ("sw = 1\n", "sw = 1\n\n[manifold]\nname = again\n", 22,
     "duplicate [manifold] section"),
    ("sw = 1\n", "sw = 1\n\n[form]\nrank = 4\n", 22,
     "duplicate [form] section"),
    ("sw = 1\n", "sw = 1\n\n[w2]\n1 1 1 1\n", 22, "duplicate [w2] section"),
    ("1 1 1 1\n\n", "1 1 1 1\n0 0 0 0\n\n", 15,
     "[w2] must hold exactly one bit row"),
    ("sw = 1\n", "sw = 1\n\n[extra]\n", 22, "unknown section [extra]"),
    (TINY[:TINY.index("[form]")], "", None, "missing [manifold] section"),
    ("[w2]\n1 1 1 1\n", "", None, "missing [w2] section"),
    ("c1 = 1 1 1 1", "c1 = 1 1 1", 19, "c1 has 3 entries, expected rank = 4"),
    ("sigma = 2", "sigma = 0", 1, "form signature 2 != declared sigma 0"),
    ("b_plus = 3", "b_plus = 5", 1, "form b_plus 3 != declared b_plus 5"),
], ids=["content before sections", "missing key", "short gram row",
        "bad boolean", "second manifold", "second form", "second w2",
        "two-row w2", "unknown section", "no manifold", "no w2", "short c1",
        "sigma contradicted", "b_plus contradicted"])
def test_manifold_file_exits_2_with_line(capsys, tmp_path, old, new, line,
                                         message):
    path = tmp_path / "bad.manifold"
    assert old in TINY
    path.write_text(TINY.replace(old, new, 1))
    code, out, err = run_cli(capsys, "info", str(path))
    assert (code, out) == (2, "")
    where = f"{path}:{line}:" if line else f"{path}:"
    assert err == f"error: {where} {message}\n"


@pytest.mark.parametrize("simple_type, c1, warning", [
    # an entry of positive expected dimension contradicts simple type
    ("true", "5 1 1 1", "warning entry c1=5,1,1,1 has sw=1 but expected "
                        "dimension 2; inconsistent with simple type\n"),
    # without simple type there is nothing to contradict
    ("false", "5 1 1 1", ""),
])
def test_info_warns_of_positive_dimension_under_simple_type(
        capsys, tmp_path, simple_type, c1, warning):
    path = tmp_path / "tiny.manifold"
    path.write_text(TINY.replace("= true", f"= {simple_type}")
                    .replace("c1 = 1 1 1 1", f"c1 = {c1}"))
    code, out, err = run_cli(capsys, "info", str(path))
    assert (code, err) == (0, warning)
    assert f"sw_simple_type={simple_type} (asserted)\n" in out
    assert "spinc c1=5,1,1,1 sw=1 characteristic=true expected_dim=2\n" in out


def test_missing_file_exit_2(capsys):
    code, out, err = run_cli(capsys, "info", "no-such-file.manifold")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("info", "{bad}"),
    ("--degree", "4", "witten", K3_PATH, "--compare", "{bad}"),
    ("fit", "{bad}"),
], ids=["manifold", "km", "fit"])
def test_undecodable_file_exits_2_naming_it(capsys, tmp_path, argv):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, *(a.format(bad=bad) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


def test_negative_degree_exit_2(capsys):
    code, out, err = run_cli(capsys, "--degree", "-1", "witten", K3_PATH)
    assert code == 2
    assert out == ""
    assert err == "error: num_vars and degree_cap must be non-negative\n"


def test_bad_vector_exit_2(capsys):
    code, out, err = run_cli(capsys, "witten", K3_PATH, "--w", "1,2,3")
    assert code == 2
    assert "error" in err


def test_hypotheses_has_no_search_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hypotheses", K3_PATH, "--variant", "level0", "--search"])
    assert exc.value.code == 2
    assert "--search" in capsys.readouterr().err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("selftest ")]
    assert len(lines) == 5
    assert all(": ok" in ln for ln in lines)


def test_selftest_fails_on_broken_suite(capsys, monkeypatch):
    import wittenform.selftest as st

    def broken(rng):
        return st.SuiteResult("broken", False, "injected failure")

    monkeypatch.setattr(st, "SUITES", st.SUITES + (broken,))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "selftest broken: FAIL" in out


def test_outputs_are_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--degree", "4", "witten", K3_PATH)
    code2, out2, _ = run_cli(capsys, "--degree", "4", "witten", K3_PATH)
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("mm, lhs", [(0, "1/0 * h1^2"), (2, "witten"),
                                     (2, "1 * h1^2")])
def test_fit_bad_file_exits_2_with_line(capsys, tmp_path, mm, lhs):
    (tmp_path / "k3.manifold").write_text(manifold_to_text(k3_manifold()))
    zeros = " ".join(["0"] * 22)
    obs = tmp_path / "obs.fit"
    obs.write_text(
        f"[fit]\ndelta = 2\nm = {mm}\n\n[observation]\nmanifold = k3.manifold\n"
        f"w = {zeros}\nlambda = {zeros}\nlhs = {lhs}\n")
    code, out, err = run_cli(capsys, "fit", str(obs))
    assert (code, out) == (2, "")
    line = 3 if mm else 9
    assert err.startswith(f"error: {obs}:{line}: ")


@pytest.mark.parametrize("head, tail, line, message", [
    # a second [fit] would set the delta of every observation after it
    ("", "\n[fit]\ndelta = 6\nm = 0\n", 11, "duplicate [fit] section"),
    ("7\n", "", 4, "unexpected bare row in [fit]"),
    ("", "1 2\n", 10, "unexpected bare row in [observation]"),
    ("", "\n[extra]\n", 11, "unknown section [extra]"),
], ids=["second fit", "row in fit", "row in observation", "unknown section"])
def test_fit_file_structure_exits_2_with_line(capsys, tmp_path, head, tail,
                                             line, message):
    (tmp_path / "s1.manifold").write_text(
        manifold_to_text(load_bundled("synthetic_01.manifold")))
    zeros = " ".join(["0"] * load_bundled("synthetic_01.manifold").rank)
    obs = tmp_path / "obs.fit"
    obs.write_text(
        f"[fit]\ndelta = 4\nm = 0\n{head}\n[observation]\n"
        f"manifold = s1.manifold\nw = {zeros}\nlambda = {zeros}\n"
        f"lhs = witten\n{tail}")
    code, out, err = run_cli(capsys, "fit", str(obs))
    assert (code, out) == (2, "")
    assert err == f"error: {obs}:{line}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("# no section\n", "missing [fit] section"),
    ("[fit]\ndelta = 4\nm = 0\n", "no [observation] sections"),
], ids=["no fit", "no observation"])
def test_fit_file_without_its_sections_exits_2(capsys, tmp_path, text,
                                               message):
    obs = tmp_path / "obs.fit"
    obs.write_text(text)
    code, out, err = run_cli(capsys, "fit", str(obs))
    assert (code, out) == (2, "")
    assert err == f"error: {obs}: {message}\n"
