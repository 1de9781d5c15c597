import gc
import itertools
import operator
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from wittenform import invariants, lattice
from wittenform.cli import main
from wittenform.corpus import (bundled_path, elliptic_manifold, k3_form,
                               list_bundled, load_bundled)
from wittenform.errors import DimensionMismatch, UnimodularityError
from wittenform.lattice import (IntersectionForm, Sublattice, bounded_vectors,
                                characteristic_base, congruent_mod2,
                                diagonal_form, direct_sum, e8_form,
                                find_hyperbolic_pair, find_vector_with_square,
                                find_witnesses, gram_components,
                                hyperbolic_plane, integer_kernel,
                                orthogonal_complement)
from wittenform.selftest import (box_vectors, brute_pairing,
                                 check_lattice_oracles, check_parity_lemma,
                                 random_forms)
from wittenform.synthetic import random_unimodular_form, shear_conjugate

H = hyperbolic_plane()


# ---------------------------------------------------------------------------
# independent oracles, written directly against the definitions

def minor_signature(gram):
    # Jacobi: if every leading principal minor is nonzero, b_minus equals the
    # number of sign changes in 1, D1, ..., Dn
    n = len(gram)
    dets = [Fraction(1)]
    for k in range(1, n + 1):
        sub = [row[:k] for row in gram[:k]]
        dets.append(_det(sub))
    if any(d == 0 for d in dets[1:]):
        return None
    changes = sum(1 for a, b in zip(dets, dets[1:]) if (a > 0) != (b > 0))
    return n - 2 * changes, n - changes, changes


def _det(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


SMALL_FORMS = [
    diagonal_form([1]),
    diagonal_form([-1]),
    H,
    diagonal_form([1, 1]),
    diagonal_form([1, -1]),
    diagonal_form([-1, -1]),
    direct_sum(H, diagonal_form([1])),
    direct_sum(H, diagonal_form([-1])),
    diagonal_form([1, 1, 1]),
    diagonal_form([1, 1, -1]),
    diagonal_form([1, -1, -1]),
    diagonal_form([-1, -1, -1]),
]


# ---------------------------------------------------------------------------
# pairing

def test_pairing_hyperbolic_basis():
    assert H.pairing((1, 0), (0, 1)) == 1


def test_pairing_zero_vector():
    for form in SMALL_FORMS:
        z = (0,) * form.rank
        v = tuple(range(1, form.rank + 1))
        assert form.pairing(z, v) == 0


def test_pairing_hand_expansion():
    # (e - 3f)^2 = 2 * 1 * (-3)
    assert H.pairing((1, -3), (1, -3)) == -6


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        H.pairing((1, 0, 0), (0, 1))


def test_pairing_symmetric_and_bilinear():
    rng = random.Random(11)
    for _ in range(40):
        form = random_unimodular_form(rng, rng.randint(1, 4))
        n = form.rank
        u = tuple(rng.randint(-5, 5) for _ in range(n))
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        w = tuple(rng.randint(-5, 5) for _ in range(n))
        a = rng.randint(-3, 3)
        assert form.pairing(u, v) == form.pairing(v, u)
        uav = tuple(x + a * y for x, y in zip(u, w))
        assert form.pairing(uav, v) == form.pairing(u, v) + a * form.pairing(w, v)


# ---------------------------------------------------------------------------
# signature

def test_signature_hyperbolic():
    assert H.signature_decomposition() == (0, 1, 1)


def test_signature_e8():
    assert e8_form().signature_decomposition() == (8, 8, 0)
    assert e8_form(negative=True).signature_decomposition() == (-8, 0, 8)


def test_signature_k3_block_sum():
    k3 = direct_sum(H, H, H, e8_form(negative=True), e8_form(negative=True))
    assert k3.signature_decomposition() == (-16, 3, 19)


def test_signature_against_minor_oracle():
    rng = random.Random(5)
    checked = 0
    forms = SMALL_FORMS + [e8_form(), e8_form(negative=True)]
    forms += [random_unimodular_form(rng, rng.randint(1, 4)) for _ in range(30)]
    for form in forms:
        expected = minor_signature(form.gram)
        if expected is None:
            continue  # oracle needs nonzero leading minors
        assert form.signature_decomposition() == expected
        checked += 1
    assert checked >= 20


def test_signature_sums_to_rank():
    rng = random.Random(6)
    for _ in range(25):
        form = random_unimodular_form(rng, rng.randint(1, 5))
        sigma, bp, bm = form.signature_decomposition()
        assert bp + bm == form.rank
        assert sigma == bp - bm


# ---------------------------------------------------------------------------
# construction invariants

def test_unimodularity_enforced():
    with pytest.raises(UnimodularityError):
        IntersectionForm([[2]])
    with pytest.raises(UnimodularityError):
        IntersectionForm([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(UnimodularityError):
        IntersectionForm([[1, 0, 0], [0, 1, 0]])  # not square
    # explicit opt-out for series-level experiments
    assert IntersectionForm([[2]], require_unimodular=False).rank == 1


def test_asymmetry_is_reported_at_its_first_entry():
    # (i, j) with i < j, first in row order, also where G_ij is a zero
    # that the sparse rows hold no entry for and only G_ji is nonzero
    for gram, where in (([[0, 1, 5], [2, 0, 0], [3, 0, 0]], (0, 1)),
                        ([[1, 0, 0], [0, 1, 7], [0, 8, 1]], (1, 2)),
                        ([[1, 0, 4], [0, 1, 6], [0, 6, 1]], (0, 2)),
                        ([[1, 0, 0], [0, 1, 0], [5, 0, 1]], (0, 2)),
                        ([[1, 0, 0], [0, 1, 4], [2, 0, 1]], (0, 2)),
                        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0],
                          [0, 0, 0, 1]], (1, 2)),
                        ([[1, 0, 0, 0], [0, 1, 0, 9], [0, 0, 1, 0],
                          [0, 0, 2, 1]], (1, 3))):
        with pytest.raises(UnimodularityError,
                           match=rf"not symmetric at \({where[0]},{where[1]}\)"):
            IntersectionForm(gram, require_unimodular=False)
    form = IntersectionForm([(1.0, 0), (0, True)])
    assert form.gram == ((1, 0), (0, 1))
    assert {type(x) for row in form.gram for x in row} == {int}
    assert form.sparse_rows == (((0, 1),), ((1, 1),))
    assert {type(g) for row in form.sparse_rows for _, g in row} == {int}


def test_sparse_rows_hold_the_nonzero_entries():
    rng = random.Random(26)
    for gram in random_symmetric_grams(rng, per_rank=8):
        form = IntersectionForm(gram, require_unimodular=False)
        assert form.sparse_rows == tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in gram)
        assert form.gram == tuple(map(tuple, gram))
        assert form == IntersectionForm(form.gram, require_unimodular=False)
    e4 = elliptic_manifold(4).form
    assert sum(map(len, e4.sparse_rows)) == 7 * 2 + 4 * (8 + 2 * 7)


def permutation_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


def eigenvalue_sign_counts(rows):
    # Faddeev-LeVerrier gives det(tI - G) = sum_k c[k] t^k exactly; the roots
    # of a symmetric matrix's characteristic polynomial are all real, so
    # Descartes' rule of signs counts the positive and negative ones exactly
    n = len(rows)
    c = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(rows[i][t] * m[t][j] for t in range(n))
              + (c[n - k + 1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        trace = sum(rows[i][t] * m[t][i] for i in range(n) for t in range(n))
        c[n - k] = -trace / k

    def sign_changes(coeffs):
        signs = [x > 0 for x in coeffs if x != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    pos = sign_changes(c)
    neg = sign_changes([x if k % 2 == 0 else -x for k, x in enumerate(c)])
    return pos - neg, pos, neg


def random_symmetric_grams(rng, per_rank=40):
    for rank in range(1, 6):
        for trial in range(per_rank):
            g = [[0] * rank for _ in range(rank)]
            for i in range(rank):
                for j in range(i, rank):
                    g[i][j] = g[j][i] = rng.randint(-2, 2)
            if trial % 4 == 0:  # force a singular matrix
                for i in range(rank):
                    g[i][-1] = g[i][0]
                for j in range(rank):
                    g[-1][j] = g[0][j]
            yield g
        for _ in range(per_rank // 4):
            yield [list(row) for row in random_unimodular_form(rng, rank).gram]


def test_unimodularity_matches_permutation_determinant():
    rng = random.Random(2718)
    accepted = rejected = singular = 0
    for gram in random_symmetric_grams(rng):
        det = permutation_det(gram)
        if det in (1, -1):
            assert IntersectionForm(gram).rank == len(gram)
            accepted += 1
            continue
        with pytest.raises(UnimodularityError) as err:
            IntersectionForm(gram)
        assert str(err.value) == f"Gram determinant is {det}, not +-1"
        rejected += 1
        singular += det == 0
    assert accepted >= 50 and rejected >= 50 and singular >= 50


def test_signature_matches_eigenvalue_signs():
    rng = random.Random(3141)
    for gram in random_symmetric_grams(rng):
        expected = eigenvalue_sign_counts(gram)
        form = IntersectionForm(gram, require_unimodular=False)
        assert form.signature_decomposition() == expected, gram
        if permutation_det(gram) in (1, -1):
            assert IntersectionForm(gram).signature_decomposition() == expected


def test_diagonalization_of_block_sums_matches_the_oracles():
    # direct sums of random blocks, singular ones and ones whose diagonal is
    # all zero included, with the basis shuffled so that the blocks
    # interleave: the det is the product of the blocks' dets, the signature
    # the sum of theirs
    rng = random.Random(1968)
    special = [[list(row) for row in H.gram], [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
               # in this order: pivot -1, a skipped index, then the form
               # [[0, 1, 1], [1, 0, 1], [1, 1, 0]] of signature -1
               [[-1, 1, 1, 0, 0], [1, -1, -1, 0, 0], [1, -1, -1, 1, 1],
                [0, 0, 1, 0, 1], [0, 0, 1, 1, 0]]]
    pool = list(random_symmetric_grams(rng, per_rank=12)) + special
    oracle = [(permutation_det(g), eigenvalue_sign_counts(g)) for g in pool]
    singular = 0
    for trial in range(300):
        picks = [rng.randrange(len(pool)) for _ in range(rng.randint(1, 4))]
        if trial % 2 == 0:
            picks.append(rng.randrange(len(pool) - len(special), len(pool)))
        # each index's block, its place in it and its Gram, shuffled
        where = [(b, i, pool[p]) for b, p in enumerate(picks)
                 for i in range(len(pool[p]))]
        rng.shuffle(where)
        gram = [[g[i][j] if b == c else 0 for c, j, _ in where]
                for b, i, g in where]
        det, signature = diagonalize(gram)
        assert type(det) is int
        assert det == prod(oracle[p][0] for p in picks), gram
        assert signature == tuple(map(sum, zip(*(oracle[p][1] for p in picks),
                                               (0, 0, 0)))), gram
        singular += det == 0
    assert 50 <= singular <= 250
    assert diagonalize(special[-1]) == (0, (-2, 1, 3))
    k3, e4 = k3_form(), elliptic_manifold(4).form
    assert lattice._diagonalize(k3.sparse_rows, k3.blocks) == (
        -1, (-16, 3, 19))
    assert lattice._diagonalize(e4.sparse_rows, e4.blocks) == (
        -1, (-32, 7, 39))


def diagonalize(gram):
    """`_diagonalize` of a dense Gram, on its sparse rows and all of its
    blocks."""
    rows = lattice._sparse(gram)
    return lattice._diagonalize(rows, gram_components(rows))


def components(gram):
    """`gram_components` of a dense Gram."""
    return gram_components(lattice._sparse(gram))


# ---------------------------------------------------------------------------
# one elimination per distinct block

@pytest.fixture
def eliminations(monkeypatch):
    """The blocks that `_diagonalize` eliminates, in order, as lists."""
    runs = []
    real = lattice._eliminate

    def counted(rows, block):
        runs.append(list(block))
        return real(rows, block)

    monkeypatch.setattr(lattice, "_eliminate", counted)
    return runs


def block_by_block(gram):
    """(det, signature) from `_diagonalize` run on each block alone: no
    block can share another's elimination."""
    det, signature = 1, (0, 0, 0)
    rows = lattice._sparse(gram)
    for block in gram_components(rows):
        d, sig = lattice._diagonalize(rows, [block])
        det *= d
        signature = tuple(map(sum, zip(signature, sig)))
    return det, signature


def own_gram(gram, block):
    return tuple(tuple(gram[a][b] for b in block) for a in block)


def block_sum(parts, order=None):
    """The dense Gram of the direct sum of `parts` (dense Grams), with the
    basis in `order` (a permutation of the indices) when one is given."""
    n = sum(map(len, parts))
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for part in parts:
        for i, row in enumerate(part):
            gram[offset + i][offset:offset + len(row)] = row
        offset += len(part)
    order = order or range(n)
    return [[gram[a][b] for b in order] for a in order]


def test_elliptic_surfaces_eliminate_two_blocks(eliminations):
    for n in (2, 4, 6, 8):
        form = elliptic_manifold(n).form
        eliminations.clear()
        want = (-1, (-8 * n, 2 * n - 1, 10 * n - 1))
        assert lattice._diagonalize(form.sparse_rows, form.blocks) == want
        # one H and one -E8, each the first copy of its kind
        assert eliminations == [[0, 1], list(range(4 * n - 2, 4 * n + 6))]
        assert block_by_block(form.gram) == want
        assert form.signature_decomposition() == want[1]


def test_repeated_blocks_share_their_elimination(eliminations):
    rng = random.Random(2600)
    for trial in range(24):
        rank, copies = rng.randint(1, 4), rng.randint(2, 5)
        part = [list(row) for row in
                random_unimodular_form(rng, rank, ops=3 * rank).gram]
        parts = [part] * copies
        changed = trial % 2
        if changed:
            # one copy with a diagonal entry moved: a block of its own,
            # unimodular or not as the determinant oracle says
            other = [list(row) for row in part]
            i = rng.randrange(rank)
            other[i][i] += rng.choice((-1, 1))
            at = rng.randrange(copies)
            parts = parts[:at] + [other] + parts[at + 1:]
        gram = block_sum(parts)
        want = block_by_block(gram)
        assert want[0] == prod(_det(p) for p in parts)
        assert want[1] == tuple(map(sum, zip(
            *(eigenvalue_sign_counts(p) for p in parts))))
        eliminations.clear()
        assert diagonalize(gram) == want
        # a random part may itself split: one run per distinct block Gram
        assert len(eliminations) == len(
            {own_gram(gram, block) for block in components(gram)})
        if not changed:
            assert len(eliminations) == len(
                {own_gram(part, block) for block in components(part)})
        det = want[0]
        if det in (1, -1):
            assert IntersectionForm(gram).signature_decomposition() == want[1]
        else:
            # the message names the determinant of the whole sum
            with pytest.raises(UnimodularityError) as err:
                IntersectionForm(gram)
            assert str(err.value) == f"Gram determinant is {det}, not +-1"


def test_interleaved_blocks_match_block_by_block(eliminations):
    # two H on the indices 0, 2 and 1, 3 are translates: one elimination
    gram = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert block_by_block(gram) == (1, (0, 2, 2))
    eliminations.clear()
    assert diagonalize(gram) == (1, (0, 2, 2))
    assert eliminations == [[0, 2]]
    # shuffled sums of repeated and changed blocks, so that the blocks
    # interleave: only translates share, and each block's own Gram decides
    rng = random.Random(2601)
    e8 = [list(row) for row in e8_form(negative=True).gram]
    for trial in range(30):
        part = [list(row) for row in random_unimodular_form(
            rng, rng.randint(1, 3), ops=6).gram]
        other = [list(row) for row in part]
        other[0][0] += 2
        parts = [part] * rng.randint(1, 3) + [[[0, 1], [1, 0]]] * 2
        if trial % 3 == 0:
            parts += [other]
        if trial % 5 == 0:
            parts += [e8]
        n = sum(map(len, parts))
        order = list(range(n))
        rng.shuffle(order)
        gram = block_sum(parts, order if trial % 4 else None)
        want = block_by_block(gram)
        eliminations.clear()
        got = diagonalize(gram)
        assert got == want, gram
        assert got[0] == prod(_det(p) for p in parts)
        assert got[1] == tuple(map(sum, zip(
            *(eigenvalue_sign_counts(p) for p in parts))))
        blocks = components(gram)
        # blocks of one Gram but not translates of each other each run
        keys = {(tuple(b - block[0] for b in block), own_gram(gram, block))
                for block in blocks}
        assert len(eliminations) == len(keys)


# ---------------------------------------------------------------------------
# orthogonal blocks

def block_sizes(form):
    return [len(block) for block in gram_components(form.sparse_rows)]


def test_gram_components_of_the_corpus():
    assert block_sizes(k3_form()) == [2, 2, 2, 8, 8]
    assert block_sizes(elliptic_manifold(4).form) == [2] * 7 + [8] * 4
    assert block_sizes(load_bundled("synthetic_05.manifold").form) == [2, 4, 1]


def reference_components(gram):
    """Blocks by merging any two that a nonzero entry joins, until none
    does: the connected components straight off the definition."""
    blocks = [{i} for i in range(len(gram))]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(blocks)), 2):
            if any(gram[i][j] for i in blocks[a] for j in blocks[b]):
                blocks[a] |= blocks.pop(b)
                merged = True
                break
    return sorted(sorted(block) for block in blocks)


def test_gram_components_match_the_reference():
    # direct sums of random forms and of a degenerate block, with the basis
    # shuffled so that the blocks interleave in index order
    rng = random.Random(15)
    for _ in range(30):
        parts = [random_unimodular_form(rng, rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))]
        gram = direct_sum(*parts).gram
        if rng.random() < 0.5:
            gram = [list(row) + [0] for row in gram] + [[0] * (len(gram) + 1)]
        order = list(range(len(gram)))
        rng.shuffle(order)
        gram = [[gram[a][b] for b in order] for a in order]
        # ascending blocks in order of their least index
        assert components(gram) == reference_components(gram)
    assert components([]) == []
    assert components([[0]]) == [[0]]


# ---------------------------------------------------------------------------
# characteristic vectors

def test_is_characteristic_examples():
    assert H.is_characteristic((0, 0))       # even form
    assert not H.is_characteristic((1, 0))   # K.f = 1 but f.f = 0
    assert diagonal_form([1]).is_characteristic((1,))


def test_characteristic_base_is_characteristic():
    rng = random.Random(3)
    for _ in range(25):
        form = random_unimodular_form(rng, rng.randint(1, 4))
        base = characteristic_base(form)
        assert form.is_characteristic(base)


def test_characteristic_vectors_form_one_mod2_class():
    rng = random.Random(4)
    for _ in range(10):
        form = random_unimodular_form(rng, rng.randint(1, 3))
        base = characteristic_base(form)
        for v in box_vectors(form.rank, 2):
            expected = all((a - b) % 2 == 0 for a, b in zip(v, base))
            assert form.is_characteristic(v) == expected


def test_parity_lemma_small_ranks():
    # for characteristic K: w.w + w.K is even, which keeps the sign
    # exponents of the series formulas integral
    small = [diagonal_form([1]), diagonal_form([-1]), H,
             diagonal_form([1, -1]), direct_sum(H, diagonal_form([1])),
             diagonal_form([1, 1, -1])]
    for forms, bound in ((small, 3), ([diagonal_form([1, 1, 1, -1])], 2)):
        result = check_parity_lemma(forms, bound)
        assert result.ok, result.detail


# ---------------------------------------------------------------------------
# orthogonal complements

def test_complement_of_empty_set_is_full():
    comp = orthogonal_complement(H, [])
    assert comp.rank == 2


def test_complement_hand_examples():
    comp = orthogonal_complement(H, [(1, 0)])
    # (1,0) pairs as x -> x_2, so the complement is spanned by (1,0)
    assert comp.rank == 1
    assert comp.basis[0] in ((1, 0), (-1, 0))

    comp = orthogonal_complement(diagonal_form([1, -1]), [(1, 1)])
    assert comp.rank == 1
    assert comp.basis[0] in ((1, 1), (-1, -1))


def _rational_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                for k in range(cols):
                    m[i][k] -= f * m[r][k]
        r += 1
        rank += 1
    return rank


def test_complement_orthogonality_and_rank():
    rng = random.Random(9)
    for _ in range(25):
        form = random_unimodular_form(rng, rng.randint(1, 5))
        n = form.rank
        spanning = [tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(rng.randint(0, 3))]
        comp = orthogonal_complement(form, spanning)
        for b in comp.basis:
            for s in spanning:
                assert form.pairing(b, s) == 0
        span_rank = _rational_rank(spanning) if spanning else 0
        assert comp.rank == n - span_rank


def test_induced_form_is_the_basis_pairings():
    # the induced Gram, paired on the basis vectors' nonzero entries,
    # against the dense pairings: every bundled complement (K3's is the
    # whole lattice on unit vectors), seeded complements whose bases hold
    # entries of both signs and above 1, a rank-0 complement and a basis
    # holding the zero vector
    rng = random.Random(11)
    subs = [orthogonal_complement(m.form, m.basic_classes())
            for m in map(load_bundled, list_bundled())]
    for _ in range(25):
        form = random_unimodular_form(rng, rng.randint(1, 6))
        subs.append(orthogonal_complement(
            form, [tuple(rng.randint(-3, 3) for _ in range(form.rank))
                   for _ in range(rng.randint(0, 3))]))
    subs.append(orthogonal_complement(H, [(1, 0), (0, 1)]))
    subs.append(Sublattice(H, ((1, 1), (0, 0), (2, -3))))
    assert any(abs(x) > 1 for sub in subs for b in sub.basis for x in b)
    for sub in subs:
        want = tuple(tuple(brute_pairing(sub.parent.gram, u, v)
                           for v in sub.basis) for u in sub.basis)
        assert sub.form.gram == want
        assert sub.form.sparse_rows == lattice._sparse(want)


def test_complement_membership_matches_brute_force():
    # box vector is orthogonal to the spanning set iff it is an integer
    # combination of the returned basis (saturation)
    rng = random.Random(10)
    result = check_lattice_oracles(rng, random_forms(rng, 12), bound=3,
                                   targets=())
    assert result.ok, result.detail


def test_integer_kernel_trivial_cases():
    assert integer_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel([(0, 0, 0)], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert integer_kernel([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == []


# ---------------------------------------------------------------------------
# bounded searches

def test_bounded_vectors_cover_box_exactly_once():
    seen = list(bounded_vectors(2, 2))
    expected = {v for v in box_vectors(2, 2) if any(v)}
    assert set(seen) == expected
    assert len(seen) == len(expected)


# reference implementations of the searches: the box filtered by top
# magnitude and the search loops with their budget accounting, written
# against the brute-force pairing. Each search also returns the budget it
# spent, so that the budget sweep below can stop just past the witness.

def reference_bounded_vectors(rank, bound):
    if rank == 0 or bound < 1:
        return
    for support_size in range(1, rank + 1):
        for max_mag in range(1, bound + 1):
            vals = [s * m for m in range(1, max_mag + 1) for s in (1, -1)]
            for support in itertools.combinations(range(rank), support_size):
                for assign in itertools.product(vals, repeat=support_size):
                    if max(abs(a) for a in assign) != max_mag:
                        continue
                    vec = [0] * rank
                    for pos, val in zip(support, assign):
                        vec[pos] = val
                    yield tuple(vec)


def reference_vector_with_square(sub, target, bound, budget=None):
    gram = sub.induced_gram()
    spent = 0
    for v in reference_bounded_vectors(sub.rank, bound):
        if budget is not None and spent == budget:
            return None, spent
        spent += 1
        if brute_pairing(gram, v, v) == target:
            return sub.to_parent(v), spent
    return None, spent


def completable(gram, e):
    """True iff the isotropic e lies in a copy of H, i.e. some x has
    e.x == 1 and an even square. Some x has e.x == 1 iff the pairings of e
    with the basis have gcd 1. And x.x == e.x mod 2 for every x iff e is
    characteristic, i.e. e.b == b.b mod 2 for each basis vector b; if
    e.b != b.b mod 2 and x.x is odd, x' = b + (1 - e.b) x has e.x' == 1
    and x'.x' == b.b + 1 - e.b == 0 mod 2."""
    basis = [tuple(int(i == j) for j in range(len(gram)))
             for i in range(len(gram))]
    pairings = [brute_pairing(gram, e, b) for b in basis]
    return gcd(*pairings) == 1 and any(
        (p - brute_pairing(gram, b, b)) % 2 for p, b in zip(pairings, basis))


def reference_hyperbolic_pair(sub, bound, budget=None):
    """(e, spent): e the first isotropic draw that `completable` accepts, in
    parent coordinates, or None; a draw costs 1 and nothing else does."""
    gram = sub.induced_gram()
    spent = 0
    for v in reference_bounded_vectors(sub.rank, bound):
        if budget is not None and spent == budget:
            return None, spent
        spent += 1
        if brute_pairing(gram, v, v) == 0 and completable(gram, v):
            return sub.to_parent(v), spent
    return None, spent


def pair_e(sub, pair):
    """The e of `pair`, a search's (e, f) or None, once the pair is checked
    in parent coordinates: e.e == f.f == 0 and e.f == 1. f is built, not
    drawn, so only these pairings pin it."""
    if pair is None:
        return None
    e, f = pair
    gram = sub.parent.gram
    assert [brute_pairing(gram, u, v) for u in pair for v in pair] == [
        0, 1, 1, 0], (sub.basis, pair)
    return e


def walk_answers(sub, *args, **kwargs):
    """find_witnesses(sub, ...) as (vector, e), the pair checked by
    `pair_e`."""
    vector, pair = find_witnesses(sub, *args, **kwargs)
    return vector, pair_e(sub, pair)


def test_bounded_vectors_match_reference():
    for rank in range(6):
        for bound in range(6):
            assert (list(bounded_vectors(rank, bound))
                    == list(reference_bounded_vectors(rank, bound)))
    assert (list(itertools.islice(bounded_vectors(6, 30), 50_000))
            == list(itertools.islice(reference_bounded_vectors(6, 30),
                                     50_000)))
    # rank 22 is K3's complement: each piece places 22 pools
    assert (list(itertools.islice(bounded_vectors(22, 3), 50_000))
            == list(itertools.islice(reference_bounded_vectors(22, 3),
                                     50_000)))


def test_a_pull_that_drops_its_vectors_sees_the_reference():
    # each piece is an itertools.product, which reuses its result tuple
    # when the consumer has dropped it: a consumer that drops every vector
    # still sees the reference sequence, and vectors it keeps are fresh
    # tuples that later vectors do not overwrite
    for rank in range(6):
        for bound in range(6):
            assert (sum(1 for _ in bounded_vectors(rank, bound))
                    == sum(1 for _ in reference_bounded_vectors(rank, bound)))
            assert all(map(operator.eq, bounded_vectors(rank, bound),
                           reference_bounded_vectors(rank, bound)))
            vectors = bounded_vectors(rank, bound)
            kept = list(itertools.islice(vectors, 0, None, 7))
            assert next(vectors, None) is None
            assert kept == list(itertools.islice(
                reference_bounded_vectors(rank, bound), 0, None, 7))


def test_bounded_vectors_cost_is_linear_in_the_bound():
    # a rank-1 box is 2*bound vectors; a filter over every magnitude's
    # products would make this quadratic in the bound and take minutes
    bound = 50_000
    assert list(bounded_vectors(1, bound)) == [
        (s * m,) for m in range(1, bound + 1) for s in (1, -1)]


def scoring_grams(rng):
    """Seeded symmetric Grams of ranks 1-5, three of each kind: entries in
    [-3, 3], the same with a zero diagonal, degenerate (the last basis
    vector repeats the first), indefinite (a diagonal of both signs), and
    the zero form."""
    for rank in range(1, 6):
        for kind in ("random", "zero diagonal", "degenerate", "indefinite",
                     "zero"):
            for _ in range(3):
                gram = [[0] * rank for _ in range(rank)]
                for i in range(rank):
                    for j in range(i, rank):
                        gram[i][j] = gram[j][i] = rng.randint(-3, 3)
                for i in range(rank):
                    if kind == "zero diagonal":
                        gram[i][i] = 0
                    elif kind == "indefinite":
                        gram[i][i] = (-1) ** i * rng.randint(1, 3)
                if kind == "degenerate":
                    gram[-1] = list(gram[0])
                    for row in gram:
                        row[-1] = row[0]
                elif kind == "zero":
                    gram = [[0] * rank for _ in range(rank)]
                yield kind, gram


def scored_pieces(gram, bound):
    """(count, hits, args, want) for the pieces of `_scored_pieces`, want
    being the piece's `count` vectors of `bounded_vectors` with the square
    of each from a full pairing; read to its end, the pieces must hold
    every vector of the box."""
    rows = lattice._sparse(gram)
    vectors = bounded_vectors(len(gram), bound)
    for count, hits, args in lattice._scored_pieces(gram, bound):
        want = [(v, lattice._gram_pairing(rows, v, v))
                for v in itertools.islice(vectors, count)]
        assert len(want) == count
        yield count, hits, args, want
    assert next(vectors, None) is None


def test_scored_pieces_match_the_pairing():
    # each piece's count, and its vectors and their squares from its hits
    # when it is asked for every square it takes, against bounded_vectors
    # with a full pairing per vector: every box up to bound 7 in ranks 1
    # and 2 and up to the bound given below in ranks 3-5, where the pieces
    # that hold the first 5,000 vectors of the bound-7 box are compared
    rng = random.Random(150)
    bounds = {1: 7, 2: 7, 3: 4, 4: 2, 5: 2}
    for kind, gram in scoring_grams(rng):
        rank = len(gram)
        if kind == "degenerate" and rank > 1:
            assert _det(gram) == 0
        for bound in sorted({*range(1, bounds[rank] + 1), 7}):
            seen = 0
            for count, hits, args, want in scored_pieces(gram, bound):
                goals = tuple({q for _, q in want})
                assert [(k, v, q) for k, q, v in hits(*args, goals)] == [
                    (k, v, q) for k, (v, q) in enumerate(want, 1)], (
                        gram, bound, args)
                seen += count
                if bound > bounds[rank] and seen >= 5_000:
                    break


def test_piece_hits_are_the_places_of_the_goals():
    # the hits of every piece up to bound 8 in ranks 1 and 2 and bound 4
    # in rank 3, for each pair of goals, against the piece's squares value
    # by value: the band, and pieces whose square in the solved entry is
    # quadratic, linear or constant, solved along either pool
    kinds = set()
    bounds = {1: 8, 2: 8, 3: 4}
    for _, gram in scoring_grams(random.Random(150)):
        if len(gram) > 3:
            continue
        for count, hits, args, want in scored_pieces(gram, bounds[len(gram)]):
            squares = {q for _, q in want} | {-2, 0, 3}
            for goals in itertools.combinations(squares, 2):
                assert hits(*args, goals) == [
                    (k, q, v) for k, (v, q) in enumerate(want, 1)
                    if q in goals], (gram, args, goals)
            if hits is lattice._band_hits:
                kinds.add("band")
                continue
            _, gii, gjj, gij2, _, ci, lin0, _, xs, ys = args
            if len(xs) >= len(ys):
                kinds.add("x at each y")
                quads = [(gii, ci + gij2 * y) for y in ys]
            else:
                kinds.add("y at each x")
                quads = [(gjj, lin0 + gij2 * x) for x in xs]
            kinds.update("quadratic" if a else "linear" if b else "constant"
                         for a, b in quads)
    assert kinds == {"band", "x at each y", "y at each x", "quadratic",
                     "linear", "constant"}


def test_stretch_roots_match_brute_force():
    # the stretch of an outer assignment o on a support whose last two
    # places are i, j: (a, b) over low x (m, -m), with the square
    # G_ii a^2 + (ci + 2 G_ij b) a + (c0 + lin0 b + G_jj b^2). Its roots,
    # one quadratic in a for each b, against that square at every a and
    # b: seeded coefficients, among them G_ii = 0, a zero linear or
    # constant term and every a hitting, with one or two goals and m from
    # 2 to 12
    rng = random.Random(3101)
    kinds = set()
    for m in range(2, 13):
        low = [x for a in range(1, m) for x in (a, -a)]
        for _ in range(150):
            gii, gij2, gjj = (rng.choice((0, rng.randint(-4, 4)))
                              for _ in range(3))
            c0, ci, lin0 = (rng.choice((0, rng.randint(-40, 40)))
                            for _ in range(3))
            if rng.random() < 0.1:
                ci = -gij2 * m     # a zero linear term at b = m

            def square(a, b):
                return (gii * a * a + (ci + gij2 * b) * a
                        + (c0 + lin0 * b + gjj * b * b))

            quads = [(gii, ci + gij2 * b, c0 + lin0 * b + gjj * m * m)
                     for b in (m, -m)]
            squares = [square(a, b) for a in low for b in (m, -m)]
            goals = tuple(rng.choice(squares + [rng.randint(-20, 20), 0,
                                                quads[0][2]])
                          for _ in range(rng.choice((1, 2))))
            want = {a for a in low for b in (m, -m) if square(a, b) in goals}
            assert lattice._integer_roots(quads, goals, m - 1) == want, (
                quads, goals, m)
            kinds.add(f"{len(goals)} goals")
            kinds.add("hit" if want else "miss")
            if gii == 0:
                kinds.add("G_ii = 0")
            if any(b == 0 for _, b, _ in quads):
                kinds.add("zero linear term")
            if any(c == 0 for _, _, c in quads):
                kinds.add("zero constant")
            if want == set(low):
                kinds.add("every a")
    assert kinds == {"1 goals", "2 goals", "hit", "miss", "G_ii = 0",
                     "zero linear term", "zero constant", "every a"}


def test_placers_are_built_once_per_support_reached(monkeypatch):
    # bounded_vectors builds each support's placer in the m = 1 pass and
    # only for the supports it reaches: all 22 of size 1 and the first 5
    # of size 2 on a rank-22 box, not the C(22, 11) = 705,432 of size 11;
    # _scored_pieces reads each support of size >= 2 once
    calls = []
    for name in ("_placer", "_support"):
        original = getattr(lattice, name)
        monkeypatch.setattr(lattice, name,
                            lambda *args, original=original, name=name: (
                                calls.append(name) or original(*args)))
    head = list(itertools.islice(bounded_vectors(22, 20), 22 * 40 + 5 * 4))
    assert head == list(itertools.islice(reference_bounded_vectors(22, 20),
                                         len(head)))
    assert calls == ["_placer"] * 27
    calls.clear()
    assert len(list(bounded_vectors(5, 3))) == 7 ** 5 - 1
    assert calls == ["_placer"] * (2 ** 5 - 1)
    calls.clear()
    gram = [[(i * j) % 5 - 2 for j in range(5)] for i in range(5)]
    for item in lattice._scored_pieces(gram, 3):
        pass
    assert calls.count("_support") == 2 ** 5 - 1 - 5
    assert calls.count("_placer") == 2 ** 5 - 1


def test_the_band_is_one_piece_per_m():
    # on K3's complement, rank 22, the size-1 vectors at each m are one
    # piece of 44 candidates: the walk at bound 80 takes 80 band pieces
    # before its first size-2 piece, not 1,760 pieces of one support each
    m = load_bundled("k3.manifold")
    sub = orthogonal_complement(m.form, m.basic_classes())
    assert sub.rank == 22
    head = list(itertools.islice(
        lattice._scored_pieces(sub.induced_gram(), 80), 81))
    assert [(count, hits, args[0]) for count, hits, args in head[:80]] == [
        (44, lattice._band_hits, k) for k in range(1, 81)]
    count, hits, args = head[80]
    assert hits is lattice._piece_hits
    assert args[7] == (0,)      # a size-2 support: no outer entries


def search_sublattices(rng):
    """Seeded small sublattices: definite, indefinite, and with a hyperbolic
    summand, as full lattices and as complements."""
    def vector(n):
        return tuple(rng.randint(-1, 1) for _ in range(n))

    for sign in (1, -1, 1, -1):
        k = rng.randint(1, 3)
        yield Sublattice.full(diagonal_form([sign] * k))
        yield orthogonal_complement(diagonal_form([sign] * (k + 1)),
                                    [vector(k + 1)])
    for _ in range(6):
        form = random_unimodular_form(rng, rng.randint(2, 4))
        if 0 in form.signature_decomposition()[1:]:
            continue
        yield Sublattice.full(form)
        yield orthogonal_complement(form, [vector(form.rank)])
    for extra in ([1], [-1], [1, -1], [-1, -1]):
        form = direct_sum(H, diagonal_form(extra))
        yield Sublattice.full(shear_conjugate(form, rng, 4))
        # the last basis vector is orthogonal to H
        yield orthogonal_complement(form, [(0,) * (form.rank - 1) + (1,)])
    # inputs of the exact early returns: definite of rank >= 3 (one with a
    # non-unimodular Gram), rank 2 forms that are not H, a sheared H, and
    # degenerate complements whose radical is an isotropic class
    for sign in (1, -1):
        yield Sublattice.full(shear_conjugate(diagonal_form([sign] * 3),
                                              rng, 4))
        yield orthogonal_complement(diagonal_form([sign] * 4), [(1, 1, 1, 1)])
    yield Sublattice.full(diagonal_form([1, -1]))
    yield Sublattice.full(shear_conjugate(diagonal_form([1, -1]), rng, 4))
    for gram in ([[0, 2], [2, 0]], [[2, 1], [1, -2]], [[2, 3], [3, 2]]):
        yield Sublattice.full(IntersectionForm(gram, require_unimodular=False))
    yield Sublattice.full(shear_conjugate(H, rng, 4))
    e = (1, 0, 0, 0)
    yield orthogonal_complement(direct_sum(H, diagonal_form([1, 1])), [e])
    yield orthogonal_complement(direct_sum(H, H), [e])
    yield orthogonal_complement(direct_sum(H, diagonal_form([1])), [e[:3]])
    # rank 2, degenerate, with a positive diagonal: [[1, 1], [1, 1]]
    yield Sublattice(direct_sum(H, diagonal_form([1])),
                     ((1, 0, 1), (0, 0, 1)))


def test_searches_match_reference_at_every_budget():
    rng = random.Random(5150)
    checked = found = 0
    for sub in search_sublattices(rng):
        for bound in (1, 2):
            runs = [(lambda b, t=t: find_vector_with_square(
                        sub, t, bound=bound, budget=b),
                     lambda b, t=t: reference_vector_with_square(
                        sub, t, bound, b)) for t in (-2, -1, 0, 1, 3)]
            runs.append((lambda b: pair_e(sub, find_hyperbolic_pair(
                             sub, bound=bound, budget=b)),
                         lambda b: reference_hyperbolic_pair(sub, bound, b)))
            for mine, ref in runs:
                witness, spent = ref(None)
                assert mine(None) == witness
                for budget in range(1, spent + 3):
                    assert mine(budget) == ref(budget)[0], (sub, budget)
                checked += 1
                found += witness is not None
    assert found >= 40 and checked - found >= 40


def test_joint_walk_matches_reference_at_every_budget():
    # both questions at once, each with the budget: every answer is the
    # one the reference gives for that question alone
    rng = random.Random(5151)
    checked = 0
    for sub in search_sublattices(rng):
        for bound in (1, 2):
            pairs = {}  # budget -> the reference's pair, for every target
            pair, pair_spent = reference_hyperbolic_pair(sub, bound)
            for target in range(-2, 4):
                vector, spent = reference_vector_with_square(sub, target,
                                                             bound)
                assert (walk_answers(sub, bound, target=target, pair=True)
                        == (vector, pair))
                for budget in range(1, max(spent, pair_spent) + 3):
                    if budget not in pairs:
                        pairs[budget] = reference_hyperbolic_pair(
                            sub, bound, budget)[0]
                    # past spent + 2 the square reference answers `vector`
                    if budget < spent + 3:
                        vector = reference_vector_with_square(
                            sub, target, bound, budget)[0]
                    assert walk_answers(
                        sub, bound, budget, target=target, pair=True) == (
                        vector, pairs[budget]), (sub, bound, target, budget)
                checked += 1
    assert checked >= 300


def counting(enumerate_vectors, counts):
    """`enumerate_vectors` that appends to `counts` the candidates each
    walk draws from it."""
    def counted_vectors(rank, bound):
        n = 0
        try:
            for v in enumerate_vectors(rank, bound):
                n += 1
                yield v
        finally:
            counts.append(n)
    return counted_vectors


@pytest.fixture
def drawn(monkeypatch):
    """The candidates drawn from bounded_vectors, one count per walk."""
    counts = []
    monkeypatch.setattr(lattice, "bounded_vectors",
                        counting(lattice.bounded_vectors, counts))
    return counts


@pytest.fixture
def reference_draws(monkeypatch):
    """The candidates the reference searches draw, one count per search."""
    counts = []
    monkeypatch.setitem(globals(), "reference_bounded_vectors",
                        counting(reference_bounded_vectors, counts))
    return counts


def walk_against_references(sub, bound, target, budget, drawn,
                            reference_draws):
    """Each search alone and the joint walk at `budget` against the
    references: both answers; each search alone draws the candidates its
    reference draws, or none when the form rules its witness out, and the
    joint walk draws those of the longer one. Returns the references'
    (vector, spent, pair, pair_spent)."""
    reference_draws.clear()
    vector, spent = reference_vector_with_square(sub, target, bound, budget)
    pair, pair_spent = reference_hyperbolic_pair(sub, bound, budget)
    alone = []
    for search, want in ((find_vector_with_square, vector),
                         (find_hyperbolic_pair, pair)):
        drawn.clear()
        if search is find_vector_with_square:
            got = search(sub, target, bound=bound, budget=budget)
        else:
            got = pair_e(sub, search(sub, bound=bound, budget=budget))
        assert got == want, (search.__name__, sub.induced_gram(), bound,
                             target, budget)
        assert drawn in ([], [reference_draws[len(alone)]])
        alone += drawn
    drawn.clear()
    assert walk_answers(sub, bound, budget, target=target,
                        pair=True) == (vector, pair), (
        sub.induced_gram(), bound, target, budget)
    assert drawn == ([max(alone)] if alone else [])
    return vector, spent, pair, pair_spent


def test_joint_walk_matches_reference_at_larger_bounds(drawn,
                                                       reference_draws):
    # bounds 5-7, whose runs are up to 14 long: quadratic hits deep in
    # long runs, budgets that end mid-run, linear runs (zero diagonals)
    # and runs where every value hits (the zero forms). On a seeded sample
    # of the scoring Grams, every budget up to spent + 2 answers both
    # questions as the references do, and each walk draws the candidates
    # they draw; the sweep stops at 250 and then tries 5,000, which
    # reaches rank 3's full supports, since no isotropic draw of a zero
    # form can be completed and its pair reference spends the box
    rng = random.Random(5152)
    checked = set()
    for kind, gram in scoring_grams(random.Random(150)):
        rank = len(gram)
        if rank > 3 or rng.random() < 0.4:
            continue
        sub = Sublattice.full(IntersectionForm(gram, require_unimodular=False))
        bound = rng.choice((5, 6, 7)) if rank < 3 else 5
        # mostly the square of a box vector, so that hits come deep in runs
        point = [rng.randint(-bound, bound) for _ in range(rank)]
        target = rng.choice((brute_pairing(gram, point, point),) * 2
                            + (rng.randint(-3, 4),))
        for budget in [*range(1, 251), 5_000]:
            vector, spent, pair, pair_spent = walk_against_references(
                sub, bound, target, budget, drawn, reference_draws)
            if spent <= budget - 2 and pair_spent <= budget - 2:
                assert walk_answers(sub, bound, target=target,
                                    pair=True) == (vector, pair)
                break
        checked.add((kind, budget == 5_000))
    # the sample holds each kind with a distinct run shape, and a zero
    # form swept to 5,000
    assert {kind for kind, _ in checked} >= {"random", "zero diagonal",
                                              "indefinite", "zero"}
    assert ("zero", True) in checked


def gram_times(gram, v):
    """G v, by the rows of the dense Gram."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in gram)


def sheared(gram, rng, ops):
    """`gram` after `ops` seeded unimodular changes of basis e_i <- e_i +
    s e_j (row and column i gain s times j's), which keep the lattice, its
    parity and every gcd(G u) but move its vectors in the box order."""
    gram = [list(row) for row in gram]
    if len(gram) < 2:
        return gram
    for _ in range(ops):
        i, j = rng.sample(range(len(gram)), 2)
        s = rng.choice((1, -1))
        gram[i] = [a + s * b for a, b in zip(gram[i], gram[j])]
        for row in gram:
            row[i] += s * row[j]
    return gram


def block_gram(*parts):
    """The Gram of the orthogonal sum of the dense Grams `parts`."""
    n = sum(map(len, parts))
    gram = [[0] * n for _ in range(n)]
    at = 0
    for part in parts:
        for i, row in enumerate(part):
            gram[at + i][at:at + len(row)] = row
        at += len(part)
    return gram


HG, H2, ONE, MINUS, TWO = ([[0, 1], [1, 0]], [[0, 2], [2, 0]], [[1]], [[-1]],
                           [[2]])


def completion_grams(rng):
    """Seeded Grams of ranks 1-5 for the pair question: sheared block
    sums, odd and even, unimodular or not (H(2), <2>), with isotropic
    vectors that cannot be completed because gcd(G u) > 1 (H(2),
    <2> + <-2>) or because they are characteristic (<1> + <-1> + <2>);
    random unimodular forms; and a sample of `scoring_grams`, degenerate
    and zero ones among them."""
    for parts in ((ONE,), (HG,), (ONE, MINUS), (HG, ONE), (HG, MINUS),
                  (ONE, ONE, MINUS), (ONE, MINUS, TWO), (H2, HG), (HG, HG),
                  ([[2, 0], [0, -2]], HG), (TWO, MINUS, HG), (H2, ONE, MINUS),
                  (ONE, MINUS, TWO, HG), (H2, HG, ONE), (ONE, ONE, MINUS,
                                                         MINUS, MINUS)):
        block = block_gram(*parts)
        for _ in range(2):
            yield sheared(block, rng, rng.randint(1, 6))
    for rank in range(1, 6):
        yield [list(row) for row in random_unimodular_form(rng, rank).gram]
    for _, gram in scoring_grams(rng):
        if rng.random() < 0.3:
            yield gram


def test_the_pair_is_the_first_completable_draw_at_every_budget(drawn):
    # the walk answers the first isotropic draw that `completable` accepts,
    # with f checked, or None, at every budget up to spent + 2, and draws
    # the candidates up to that draw, or budget + 1 (none when the form
    # rules the pair out). Every isotropic draw of the box is completed by
    # `_partner` exactly when `completable` accepts it
    kinds, skipped = set(), set()
    bounds = {1: 3, 2: 3, 3: 3, 4: 2, 5: 1}
    for gram in completion_grams(random.Random(3737)):
        rank = len(gram)
        sub = Sublattice.full(IntersectionForm(gram,
                                               require_unimodular=False))
        bound = bounds[rank]
        e, spent = reference_hyperbolic_pair(sub, bound)
        for budget in range(1, spent + 3):
            drawn.clear()
            assert pair_e(sub, find_hyperbolic_pair(sub, bound, budget)) == (
                e if spent <= budget else None), (gram, budget)
            assert drawn == [min(spent, budget + 1)] or (
                drawn == [] and e is None), (gram, budget, drawn)
        for k, v in enumerate(reference_bounded_vectors(rank, bound), 1):
            if brute_pairing(gram, v, v) != 0:
                continue
            f = lattice._partner(sub.form, v)
            assert (f is not None) == completable(gram, v), (gram, v)
            if f is not None:
                assert (brute_pairing(gram, f, f),
                        brute_pairing(gram, v, f)) == (0, 1)
            elif k < spent:
                skipped.add("gcd" if gcd(*gram_times(gram, v)) != 1
                            else "characteristic")
        det = _det(gram)
        kinds.add((rank, "even" if all(gram[i][i] % 2 == 0
                                       for i in range(rank)) else "odd",
                   "unimodular" if det in (1, -1) else "not unimodular",
                   "found" if e is not None else "none"))
    assert skipped == {"gcd", "characteristic"}
    assert {rank for rank, *_ in kinds} == {1, 2, 3, 4, 5}
    assert {kind[1:3] for kind in kinds} == {
        (parity, modulus) for parity in ("even", "odd")
        for modulus in ("unimodular", "not unimodular")}
    assert {kind[3] for kind in kinds if kind[0] == 5} == {"found", "none"}


def test_no_pair_where_every_isotropic_draw_is_characteristic(drawn):
    # on <1> + <-1> + <2> an isotropic u = (a, b, c) has a^2 - b^2 = -2c^2,
    # so gcd(G u) = gcd(a, b, 2c) is 1 only when a and b are odd, and then
    # u is characteristic: every x with u.x == 1 has an odd square. The
    # walk spends the box, sheared or not, and finds no pair
    rng = random.Random(12)
    for bound in (1, 2, 3, 4):
        for gram in (block_gram(ONE, MINUS, TWO),
                     sheared(block_gram(ONE, MINUS, TWO), rng, 4)):
            sub = Sublattice.full(IntersectionForm(
                gram, require_unimodular=False))
            drawn.clear()
            assert find_hyperbolic_pair(sub, bound) is None
            assert drawn == [(2 * bound + 1) ** 3 - 1]
            box = list(reference_bounded_vectors(3, bound))
            units = [v for v in box if brute_pairing(gram, v, v) == 0
                     and gcd(*gram_times(gram, v)) == 1]
            assert units and not any(completable(gram, v) for v in units)
            for v in units:
                assert all(brute_pairing(gram, x, x) % 2 == 1 for x in box
                           if brute_pairing(gram, v, x) == 1)


def test_characteristic_draws_before_the_pair_are_skipped(drawn):
    # sheared <1> + <-1> + <2> + H: the walk skips the isotropic draws of
    # gcd 1 that are characteristic and answers the first completable
    # draw, after skipping 4 on some forms
    rng = random.Random(0)
    base = block_gram(ONE, MINUS, TWO, HG)
    most = 0
    for _ in range(40):
        gram = sheared(base, rng, rng.randint(2, 6))
        sub = Sublattice.full(IntersectionForm(gram, require_unimodular=False))
        units = [v for v in reference_bounded_vectors(5, 2)
                 if brute_pairing(gram, v, v) == 0
                 and gcd(*gram_times(gram, v)) == 1]
        first = next(k for k, v in enumerate(units) if completable(gram, v))
        drawn.clear()
        e, f = find_hyperbolic_pair(sub, 2)
        assert e == units[first]
        assert (brute_pairing(gram, f, f), brute_pairing(gram, e, f)) == (0, 1)
        assert drawn == [reference_hyperbolic_pair(sub, 2)[1]]
        most = max(most, first)
    assert most >= 4


def test_walk_cost_is_linear_in_the_bound(drawn):
    # on <1> the square 2 is out of reach: the walk passes every run of
    # the box and pulls all of its 100,000 candidates; a walk that rebuilt
    # the run values for each magnitude would be quadratic in the bound
    sub = Sublattice.full(diagonal_form([1]))
    assert find_witnesses(sub, 50_000, target=2, pair=True) == (None, None)
    assert drawn == [100_000]


def test_joint_walk_draws_the_longer_search_only(drawn):
    # the complement of e in H + H + <1> + <-1> is <e> + H + <1> + <-1>:
    # the pair comes at draw 3, the first vector of the H (draws 1 and 2,
    # +-e, have G u == 0), square 0 at draw 1, squares 1 and -2 at draws
    # 7 and 48, square 100 never (the whole box of 7^5 - 1); budgets stop
    # the square question (5, 40), the pair question (0, 2) or both,
    # one draw after the budget is spent
    sub = orthogonal_complement(direct_sum(H, H, diagonal_form([1, -1])),
                                [(1, 0, 0, 0, 0, 0)])
    for target, budget, alone in ((0, None, [1, 3]), (1, None, [7, 3]),
                                  (-2, None, [48, 3]),
                                  (100, None, [7 ** 5 - 1, 3]),
                                  (5, 40, [41, 3]), (0, 2, [1, 3]),
                                  (-2, 3, [4, 3]), (1, 1, [2, 2])):
        for search, draws in ((lambda: find_vector_with_square(
                                   sub, target, 3, budget), alone[0]),
                              (lambda: find_hyperbolic_pair(sub, 3, budget),
                               alone[1])):
            drawn.clear()
            search()
            assert drawn == [draws], (target, budget)
        drawn.clear()
        find_witnesses(sub, 3, budget, target=target, pair=True)
        assert drawn == [max(alone)], (target, budget)


def test_the_count_lands_before_the_walk_returns(monkeypatch):
    # with the cycle collector off, only reference counting can finish the
    # pulled iterator: each walk has appended exactly one count, the
    # candidates it passed, by the time it returns (the draws of
    # test_joint_walk_draws_the_longer_search_only)
    counts = []
    monkeypatch.setattr(lattice, "bounded_vectors",
                        counting(bounded_vectors, counts))
    sub = orthogonal_complement(direct_sum(H, H, diagonal_form([1, -1])),
                                [(1, 0, 0, 0, 0, 0)])
    box = list(reference_bounded_vectors(3, 3))
    collecting = gc.isenabled()
    gc.disable()
    try:
        for target, budget, passed in ((0, None, 3), (1, None, 7),
                                       (-2, None, 48), (100, None, 7 ** 5 - 1),
                                       (5, 40, 41), (0, 2, 3), (-2, 3, 4),
                                       (1, 1, 2)):
            counts.clear()
            find_witnesses(sub, 3, budget, target=target, pair=True)
            assert counts == [passed], (target, budget)
        # a pull that stops inside a piece of the chain yields the box's
        # first k vectors
        for k in range(len(box) + 1):
            assert list(itertools.islice(bounded_vectors(3, 3), k)) == box[:k]
    finally:
        if collecting:
            gc.enable()


def test_searches_ruled_out_by_the_form_draw_no_candidate(monkeypatch,
                                                          capsys):
    drawn = []
    monkeypatch.setattr(lattice, "bounded_vectors",
                        counting(lattice.bounded_vectors, drawn))

    def candidates(search, *args, **kwargs):
        drawn.clear()
        assert search(*args, **kwargs) is None
        return sum(drawn)

    positive = Sublattice.full(shear_conjugate(diagonal_form([1] * 4),
                                               random.Random(3), 6))
    negative = orthogonal_complement(diagonal_form([-1] * 4), [(1, 1, 1, 1)])
    for sub, sign in ((positive, 1), (negative, -1)):
        assert candidates(find_hyperbolic_pair, sub, bound=5) == 0
        for target in (0, -sign, -5 * sign):
            assert candidates(find_vector_with_square, sub, target,
                              bound=5) == 0
        assert find_vector_with_square(sub, 2 * sign, bound=2) is not None
    for gram in ([[1, 0], [0, -1]], [[0, 2], [2, 0]], [[2, 1], [1, -2]]):
        sub = Sublattice.full(IntersectionForm(gram, require_unimodular=False))
        assert candidates(find_hyperbolic_pair, sub, bound=5) == 0
    degenerate = Sublattice(direct_sum(H, diagonal_form([1])),
                            ((1, 0, 1), (0, 0, 1)))
    assert candidates(find_hyperbolic_pair, degenerate, bound=5) == 0
    # searches the form does not settle still enumerate: the whole box of
    # the even H for an odd square, and budget + 1 draws on the degenerate
    # form (the last draw finds the budget spent)
    assert candidates(find_vector_with_square, Sublattice.full(H), 1,
                      bound=5) == 11 ** 2 - 1
    assert candidates(find_vector_with_square, degenerate, -1, bound=3,
                      budget=7) == 8

    form = direct_sum(H, diagonal_form([1, -1]), e8_form(negative=True))
    sub = orthogonal_complement(form, [(1, 0, 1, 1) + (0,) * 8])
    gram = sub.induced_gram()
    assert sub.induced_gram() is gram
    assert gram == tuple(tuple(brute_pairing(form.gram, u, v)
                               for v in sub.basis) for u in sub.basis)

    # argument checks still come first on a definite complement
    path = bundled_path("synthetic_01.manifold")
    for flag, message in (("--bound", "bound must be >= 1"),
                          ("--budget", "budget must be >= 1")):
        code = main(["hypotheses", path, "--variant", "level0", flag, "0"])
        err = capsys.readouterr().err
        assert code == 2 and message in err


@pytest.mark.parametrize("name", list_bundled())
def test_complement_is_eliminated_once(name, eliminations, monkeypatch):
    # the complement's induced form is an IntersectionForm, whose signature
    # is cached: the search's definiteness test and a later read of the
    # signature share one elimination of each distinct block
    m = load_bundled(name)
    subs = []
    search = invariants.find_witnesses

    def spy(sub, *args, **kwargs):
        subs.append(sub)
        return search(sub, *args, **kwargs)

    monkeypatch.setattr(invariants, "find_witnesses", spy)
    for variant in invariants.THEOREM_TARGETS:
        subs.clear()
        eliminations.clear()
        invariants.check_theorem_hypotheses(m, None, None, variant)
        (sub,) = subs
        during = len(eliminations)
        assert isinstance(sub.form, IntersectionForm)
        assert sub.induced_gram() is sub.form.gram
        signature = sub.form.signature_decomposition()
        after = len(eliminations) - during
        # a second read runs none
        assert sub.form.signature_decomposition() == signature
        assert len(eliminations) == during + after
        # the same count as a fresh form of the same Gram runs
        eliminations.clear()
        fresh = IntersectionForm(sub.form.gram, require_unimodular=False)
        assert fresh.signature_decomposition() == signature
        assert during in (0, len(eliminations))
        assert during + after == len(eliminations) <= len(sub.form.blocks)
        if during:
            assert after == 0


def test_find_hyperbolic_pair_on_h():
    pair = find_hyperbolic_pair(Sublattice.full(H), bound=1)
    assert pair == ((1, 0), (0, 1))


def test_find_hyperbolic_pair_odd_lattice():
    # diag(1,-1) has no hyperbolic pair: e.f is always even for isotropic
    # e, f; the exhaustive oracle agrees
    form = diagonal_form([1, -1])
    assert find_hyperbolic_pair(Sublattice.full(form), bound=2) is None
    assert check_lattice_oracles(random.Random(0), [form], 2, ()).ok


def test_find_hyperbolic_pair_rank_zero():
    comp = orthogonal_complement(H, [(1, 0), (0, 1)])
    assert comp.rank == 0
    assert find_hyperbolic_pair(comp, bound=3) is None


def test_find_vector_with_square_examples():
    sub = Sublattice.full(H)
    assert find_vector_with_square(sub, -6, bound=5) == (1, -3)
    assert find_vector_with_square(sub, 0, bound=5) == (1, 0)
    assert find_vector_with_square(
        Sublattice.full(diagonal_form([1])), 2, bound=10) is None


def test_search_budget_cancellation():
    sub = Sublattice.full(direct_sum(H, H, H))
    assert find_vector_with_square(sub, -6, bound=20, budget=3) is None
    # on <1> + <-1> + H the pair comes at draw 5, the first vector of the H
    sub = Sublattice.full(direct_sum(diagonal_form([1, -1]), H))
    assert find_hyperbolic_pair(sub, bound=20, budget=4) is None
    assert find_hyperbolic_pair(sub, bound=20, budget=5) == (
        (0, 0, 1, 0), (0, 0, 0, 1))


def test_search_rejects_budget_below_one():
    sub = Sublattice.full(direct_sum(H, H))
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget"):
            find_vector_with_square(sub, -2, bound=3, budget=budget)
        with pytest.raises(ValueError, match="budget"):
            find_hyperbolic_pair(sub, bound=3, budget=budget)


def test_searches_agree_with_oracles():
    # smaller edition of the acceptance sweep
    for bound in (2, 3):
        result = check_lattice_oracles(random.Random(12), SMALL_FORMS[:8],
                                       bound, range(-5, 6))
        assert result.ok, result.detail


def test_search_in_proper_sublattice_returns_parent_coords():
    # complement of (1,0) in H is spanned by (1,0); squares there are all 0
    comp = orthogonal_complement(H, [(1, 0)])
    v = find_vector_with_square(comp, 0, bound=3)
    assert v is not None
    assert H.square(v) == 0
    assert H.pairing(v, (1, 0)) == 0


# ---------------------------------------------------------------------------
# mod-2 congruences

def test_congruent_mod2_examples():
    assert congruent_mod2(H, (1, 0), (1, 0), (0, 0))          # w = lambda
    assert congruent_mod2(H, (1, 0), (0, 0), (1, 0))
    assert not congruent_mod2(H, (1, 0), (1, 1), (0, 0))      # (0,-1) = (0,1) mod 2
    with pytest.raises(DimensionMismatch):
        congruent_mod2(H, (1, 0, 0), (0, 0), (0, 0))
    with pytest.raises(DimensionMismatch, match="w2 length"):
        congruent_mod2(H, (1, 0), (0, 0), (0, 0, 1))


def test_to_parent_checks_the_coordinate_length():
    sub = orthogonal_complement(direct_sum(H, H), [(1, 0, 0, 0)])
    assert sub.rank == 3
    for coords in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionMismatch, match="coordinate length"):
            sub.to_parent(coords)
