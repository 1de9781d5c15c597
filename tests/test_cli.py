import json
import os
import re
from fractions import Fraction
from math import factorial

import pytest

from wittenform.cli import main, parse_cli_vector
from wittenform.corpus import bundled_path, k3_form, k3_manifold
from wittenform.errors import DimensionMismatch, LoadError
from wittenform.invariants import KMData, witten_rhs
from wittenform.manifold_io import km_to_text, manifold_to_text, witten_consistent_km
from wittenform.series import exp_quadratic

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


def test_witten_compare_zero_denominator_exits_2(capsys, tmp_path):
    km_path = tmp_path / "bad.km"
    km_path.write_text("[km]\nw = " + " ".join(["0"] * 22)
                       + "\n\n[term]\na = 1/0\nk = " + " ".join(["0"] * 22)
                       + "\n")
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--compare", str(km_path))
    assert (code, out) == (2, "")
    assert err == f"error: {km_path}:5: bad rational for a: '1/0'\n"


def test_witten_compare_inclusive_flag(capsys, tmp_path):
    km = witten_consistent_km(k3_manifold(), (0,) * 22)
    km_path = tmp_path / "k3.km"
    km_path.write_text(km_to_text(km))
    code, out, _ = run_cli(capsys, "--degree", "6", "--inclusive", "witten",
                           K3_PATH, "--compare", str(km_path),
                           "--mod-degree", "5")
    assert code == 0
    assert out.strip() == "congruent mod 6"   # <= 5 means < 6


def test_witten_compare_beyond_cap_refused(capsys, tmp_path):
    km = witten_consistent_km(k3_manifold(), (0,) * 22)
    km_path = tmp_path / "k3.km"
    km_path.write_text(km_to_text(km))
    code, out, err = run_cli(capsys, "--degree", "4", "witten", K3_PATH,
                             "--compare", str(km_path), "--mod-degree", "9")
    assert code == 3
    assert "refused" in err


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


def test_hypotheses_negative_budget_exit_2(capsys):
    code, out, err = run_cli(capsys, "hypotheses", K3_PATH,
                             "--variant", "level0", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "budget must be >= 1" in err


def test_hypotheses_golden_on_the_bundled_corpus(capsys):
    # hypotheses stdout on the 11 bundled files, both variants, at bound 20
    # with the default budget and at bound 80 with budget 20000
    golden = os.path.join(os.path.dirname(__file__), "hypotheses_golden.json")
    with open(golden, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 44
    for case in cases:
        code, out, err = run_cli(capsys, "hypotheses",
                                 bundled_path(case["file"]), *case["args"])
        assert (code, out, err) == (0, case["stdout"], ""), (case["file"],
                                                             case["args"])


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


def test_missing_file_exit_2(capsys):
    code, out, err = run_cli(capsys, "info", "no-such-file.manifold")
    assert code == 2


def test_negative_degree_exit_2(capsys):
    code, out, err = run_cli(capsys, "--degree", "-1", "witten", K3_PATH)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
