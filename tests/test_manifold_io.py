import random
from fractions import Fraction

import pytest

from wittenform.corpus import (bundled_path, k3_manifold, list_bundled,
                               load_bundled)
from wittenform.errors import LoadError
from wittenform.invariants import KMData
from wittenform.manifold_io import (km_to_text, manifold_to_text,
                                    parse_fit_problem, parse_km,
                                    parse_manifold, witten_consistent_km)
from wittenform.synthetic import random_valid_manifold

K3_TEXT = manifold_to_text(k3_manifold())


def test_manifold_roundtrip_k3():
    assert parse_manifold(K3_TEXT) == k3_manifold()


def test_manifold_roundtrip_random():
    rng = random.Random(61)
    for _ in range(8):
        m = random_valid_manifold(rng, name=f"rt-{rng.randint(0, 999)}")
        assert parse_manifold(manifold_to_text(m)) == m


def test_bundled_corpus_loads():
    names = list_bundled()
    assert "k3.manifold" in names
    assert len(names) >= 11
    for name in names:
        load_bundled(name)


def test_bundled_k3_matches_code():
    assert load_bundled("k3.manifold") == k3_manifold()
    assert bundled_path("k3.manifold").endswith("k3.manifold")


def test_bundled_fixtures_are_witten_consistent():
    # every synthetic fixture survives the round trip: fitting the
    # conjectured series recovers 2^(2-c) SW(s) exactly
    from wittenform.invariants import fit_km_coefficients, witten_rhs
    for name in list_bundled():
        if name == "k3.manifold":
            continue
        m = load_bundled(name)
        w = (0,) * m.rank
        target = witten_rhs(m, w, 5)
        result = fit_km_coefficients(target, m.basic_classes(), w, m.form, 5)
        assert result.status == "unique", name
        factor = Fraction(2) ** (2 - int(m.characteristic_number()))
        for entry in m.spinc:
            assert result.a_values[entry.c1] == factor * entry.sw, name


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + K3_TEXT.replace(
        "[manifold]", "[manifold]  # trailing comment")
    assert parse_manifold(text) == k3_manifold()


def _tiny_manifold_text(**overrides):
    base = {
        "chi": 6, "sigma": 2, "b_plus": 3,
        "rows": ["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 -1"],
        "w2": "1 1 1 1", "c1": "1 1 1 1", "sw": "1",
    }
    base.update(overrides)
    lines = ["[manifold]", "name = tiny", f"chi = {base['chi']}",
             f"sigma = {base['sigma']}", f"b_plus = {base['b_plus']}",
             "sw_simple_type = true", "", "[form]",
             f"rank = {len(base['rows'])}"]
    lines += base["rows"]
    lines += ["", "[w2]", base["w2"], "", "[spinc]",
              f"c1 = {base['c1']}", f"sw = {base['sw']}"]
    return "\n".join(lines) + "\n"


def test_tiny_manifold_parses():
    m = parse_manifold(_tiny_manifold_text())
    assert m.rank == 4
    assert m.b_plus == 3


def test_error_non_symmetric_gram_has_line():
    text = _tiny_manifold_text(rows=["1 5 0 0", "0 1 0 0",
                                     "0 0 1 0", "0 0 0 -1"])
    with pytest.raises(LoadError) as err:
        parse_manifold(text, path="tiny.manifold")
    assert err.value.line is not None
    assert "symmetric" in str(err.value)
    assert "tiny.manifold" in str(err.value)


def test_error_wrong_row_count():
    text = _tiny_manifold_text().replace("rank = 4\n1 0 0 0\n",
                                         "rank = 4\n")
    with pytest.raises(LoadError) as err:
        parse_manifold(text)
    assert "expected rank" in str(err.value)


def test_error_bad_integer_reports_line():
    text = _tiny_manifold_text(chi="six")
    with pytest.raises(LoadError) as err:
        parse_manifold(text)
    assert err.value.line == 3


def test_error_non_characteristic_c1():
    text = _tiny_manifold_text(c1="1 1 1 0")
    with pytest.raises(LoadError) as err:
        parse_manifold(text)
    assert "characteristic" in str(err.value)


def test_error_non_characteristic_second_c1_has_its_line():
    text = _tiny_manifold_text() + "\n[spinc]\nc1 = 1 1 1 0\nsw = 2\n"
    bad_line = text.splitlines().index("c1 = 1 1 1 0") + 1
    with pytest.raises(LoadError) as err:
        parse_manifold(text)
    assert err.value.line == bad_line
    assert "not characteristic" in str(err.value)


def test_error_bad_coupling_rejected():
    text = _tiny_manifold_text(chi=10)   # rank 4 != chi - 2
    with pytest.raises(LoadError):
        parse_manifold(text)


def test_error_w2_bits():
    text = _tiny_manifold_text(w2="2 0 0 0")
    with pytest.raises(LoadError) as err:
        parse_manifold(text)
    assert "bits" in str(err.value)


def test_error_missing_section():
    with pytest.raises(LoadError) as err:
        parse_manifold("[manifold]\nname = x\nchi = 2\nsigma = 0\n"
                       "b_plus = 1\nsw_simple_type = true\n")
    assert "missing [form]" in str(err.value)


def test_error_duplicate_key():
    text = K3_TEXT.replace("chi = 24", "chi = 24\nchi = 24", 1)
    with pytest.raises(LoadError) as err:
        parse_manifold(text)
    assert "duplicate key" in str(err.value)


# ---------------------------------------------------------------------------
# basic-class files

def test_km_roundtrip():
    km = KMData(w=(1, 0, 0, 0),
                terms=((Fraction(3, 2), (1, 1, 1, 1)),
                       (Fraction(-1), (1, 1, 1, -1))))
    assert parse_km(km_to_text(km)) == km


def test_km_rejects_zero_coefficient():
    text = "[km]\nw = 0 0\n\n[term]\na = 0\nk = 0 0\n"
    with pytest.raises(LoadError):
        parse_km(text)


def test_km_rejects_length_mismatch():
    text = "[km]\nw = 0 0\n\n[term]\na = 1\nk = 0 0 0\n"
    with pytest.raises(LoadError):
        parse_km(text)


def test_witten_consistent_km_k3():
    k3 = k3_manifold()
    km = witten_consistent_km(k3, (0,) * 22)
    assert km.terms == ((Fraction(1), (0,) * 22),)


# ---------------------------------------------------------------------------
# fit-problem files

def test_fit_problem_witten_lhs(tmp_path):
    (tmp_path / "k3.manifold").write_text(K3_TEXT)
    zeros = " ".join(["0"] * 22)
    obs_text = (
        "[fit]\ndelta = 2\nm = 0\n\n"
        "[observation]\nmanifold = k3.manifold\n"
        f"w = {zeros}\nlambda = {zeros}\nlhs = witten\n")
    problem = parse_fit_problem(obs_text, base_dir=str(tmp_path))
    assert problem.delta == 2 and problem.m == 0
    assert len(problem.observations) == 1
    assert "x->2" in problem.observations[0].provenance


def test_fit_problem_inline_lhs(tmp_path):
    (tmp_path / "k3.manifold").write_text(K3_TEXT)
    zeros = " ".join(["0"] * 22)
    obs_text = (
        "[fit]\ndelta = 2\nm = 0\n\n"
        "[observation]\nmanifold = k3.manifold\n"
        f"w = {zeros}\nlambda = {zeros}\n"
        "lhs = 1 * h1^1 h2^1 + -3/4 * h3^2\n")
    problem = parse_fit_problem(obs_text, base_dir=str(tmp_path))
    lhs = problem.observations[0].observed_lhs
    e12 = tuple(1 if i in (0, 1) else 0 for i in range(22))
    e33 = tuple(2 if i == 2 else 0 for i in range(22))
    assert lhs.terms[e12] == 1
    assert lhs.terms[e33] == Fraction(-3, 4)


def test_fit_problem_inline_wrong_degree(tmp_path):
    (tmp_path / "k3.manifold").write_text(K3_TEXT)
    zeros = " ".join(["0"] * 22)
    obs_text = (
        "[fit]\ndelta = 2\nm = 0\n\n"
        "[observation]\nmanifold = k3.manifold\n"
        f"w = {zeros}\nlambda = {zeros}\n"
        "lhs = 1 * h1^3\n")
    with pytest.raises(LoadError) as err:
        parse_fit_problem(obs_text, base_dir=str(tmp_path))
    assert "degree" in str(err.value)


def test_fit_problem_requires_fit_header(tmp_path):
    (tmp_path / "k3.manifold").write_text(K3_TEXT)
    obs_text = "[observation]\nmanifold = k3.manifold\n"
    with pytest.raises(LoadError):
        parse_fit_problem(obs_text, base_dir=str(tmp_path))
