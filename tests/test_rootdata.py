from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmverify.errors import (
    CapacityExceeded,
    GroupMismatch,
    InvalidCartan,
)
from csmverify.cohomology import FlagCohomology
from csmverify.rootdata import (
    CartanDatum,
    WeylGroup,
    canonical_cartan_matrix,
    invariant_degrees,
    weyl_order,
)


# -- Cartan data ---------------------------------------------------------------

def test_canonical_matrices_validate():
    for series, rank in [("A", 1), ("A", 4), ("B", 2), ("B", 4), ("C", 3),
                         ("D", 4), ("F", 4), ("G", 2)]:
        datum = CartanDatum.from_series(series, rank)
        assert datum.matrix == canonical_cartan_matrix(series, rank)


def test_invalid_series_and_rank():
    with pytest.raises(InvalidCartan):
        CartanDatum.from_series("Z", 9)
    with pytest.raises(InvalidCartan):
        CartanDatum.from_series("E", 9)
    with pytest.raises(InvalidCartan):
        CartanDatum.from_series("G", 3)
    with pytest.raises(InvalidCartan):
        CartanDatum.from_series("D", 2)


def test_matrix_must_match_canonical():
    with pytest.raises(InvalidCartan):
        CartanDatum("A", 2, ((2, -2), (-1, 2)))  # that is B2's shape, mislabeled


def test_affine_matrix_rejected():
    # symmetrizable but only positive semidefinite
    with pytest.raises(InvalidCartan):
        CartanDatum("A", 2, ((2, -2), (-2, 2)))


def test_bad_diagonal_and_positive_offdiagonal():
    with pytest.raises(InvalidCartan):
        CartanDatum("A", 1, ((1,),))
    with pytest.raises(InvalidCartan):
        CartanDatum("A", 2, ((2, 1), (1, 2)))


def test_g2_convention():
    datum = CartanDatum.from_series("G", 2)
    # first root short: pairing of a2 against a1-coroot is -3
    assert datum.matrix == ((2, -3), (-1, 2))


# -- root systems ----------------------------------------------------------------

def test_root_closure_a1():
    g = WeylGroup(CartanDatum.from_series("A", 1))
    assert list(g._root_coords) == [(1,)]
    assert g.elements[g._reflection_index[0]] == g.simple_reflection(1)


def test_root_closure_a2():
    roots = WeylGroup(CartanDatum.from_series("A", 2))._root_coords
    assert set(roots) == {(1, 0), (0, 1), (1, 1)}


def test_root_closure_g2():
    group = WeylGroup(CartanDatum.from_series("G", 2))
    assert len(group._root_coords) == 6
    assert group.longest.length == 6
    assert max(group._root_coords, key=sum) == (3, 2)


def test_reflections_are_involutions(group, root_image):
    g = group("B", 2)
    for b, beta in enumerate(g._root_coords):
        s = g.elements[g._reflection_index[b]]
        assert g.from_word(s.word + s.word) == g.identity
        assert root_image(g, s.index, beta) == tuple(-c for c in beta)


# -- enumeration --------------------------------------------------------------------

@pytest.mark.parametrize("series,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("B", 2, 8), ("G", 2, 12), ("A", 3, 24),
    ("A", 4, 120), ("B", 3, 48), ("D", 4, 192),
])
def test_orders(series, rank, order):
    assert weyl_order(series, rank) == order
    g = WeylGroup(CartanDatum.from_series(series, rank))
    assert g.order == order
    assert len(set(g.elements)) == order


def test_a2_length_histogram(group):
    assert Counter(w.length for w in group("A", 2)) == {0: 1, 1: 2, 2: 2, 3: 1}


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 2), ("G", 2), ("B", 3)])
def test_poincare_polynomial_factorizes(series, rank):
    g = WeylGroup(CartanDatum.from_series(series, rank))
    poly = [1]
    for d in invariant_degrees(series, rank):
        factor = [1] * d
        out = [0] * (len(poly) + d - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    assert Counter(w.length for w in g) == dict(enumerate(poly))


def test_capacity_cap():
    with pytest.raises(CapacityExceeded):
        WeylGroup(CartanDatum.from_series("A", 5), max_order=100)
    with pytest.raises(CapacityExceeded):
        WeylGroup(CartanDatum.from_series("E", 6))  # 51840 > default cap
    assert WeylGroup(CartanDatum.from_series("A", 5), max_order=720).order == 720


def test_longest_element(group):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        g = group(*key)
        w0 = g.longest
        assert w0.length == len(g._root_coords)
        assert g.from_word(w0.word + w0.word) == g.identity
        for w in g:
            assert g.w0_times(w).length == w0.length - w.length


# -- canonical words ------------------------------------------------------------------

def _all_reduced_words(g, w):
    if w.length == 0:
        return [()]
    out = []
    for i in range(1, g.rank + 1):
        rest = g.from_word((i,) + w.word)
        if rest.length < w.length:
            out.extend([(i,) + tail for tail in _all_reduced_words(g, rest)])
    return out


def test_canonical_word_is_lex_min(group):
    for key in [("A", 2), ("B", 2)]:
        g = group(*key)
        for w in g:
            words = _all_reduced_words(g, w)
            assert w.word == min(words)
            # idempotence: rebuilding from the word lands on the same element
            assert g.from_word(w.word) == w
            assert len(w.word) == w.length


def _left_action(C, cols, i):
    """s_i x from x's images of the simple roots."""
    n = len(C)
    out = []
    for col in cols:
        p = sum(col[k] * C[i][k] for k in range(n))
        out.append(tuple(col[k] - p if k == i else col[k] for k in range(n)))
    return tuple(out)


def _right_action(C, cols, i):
    """x s_i from x's images of the simple roots."""
    n = len(C)
    return tuple(tuple(cols[j][k] - C[i][j] * cols[i][k] for k in range(n)) for j in range(n))


def _reference_construction(g):
    """Canonical tables by the three-pass construction: enumerate elements by
    left multiplication, name each by peeling its smallest left descent,
    then sort by (length, word)."""
    C, n = g.datum.matrix, g.rank
    ident = tuple(tuple(int(k == j) for k in range(n)) for j in range(n))
    elems, found, lengths, left = [ident], {ident: 0}, [0], []
    for x, cols in enumerate(elems):        # grows while it is walked
        left.append([])
        for i in range(n):
            y = _left_action(C, cols, i)
            if y not in found:
                found[y] = len(elems)
                elems.append(y)
                lengths.append(lengths[x] + 1)
            left[x].append(found[y])
    words = []
    for x in range(len(elems)):
        word, cur = [], x
        while lengths[cur]:
            i = next(i for i in range(n) if lengths[left[cur][i]] < lengths[cur])
            word.append(i + 1)
            cur = left[cur][i]
        words.append(tuple(word))
    order = sorted(range(len(elems)), key=lambda x: (lengths[x], words[x]))
    rank = {x: k for k, x in enumerate(order)}
    w0 = []
    for x in order:
        for i in reversed(words[order[-1]]):
            x = left[x][i - 1]
        w0.append(rank[x])
    reflections = []
    for b, cor in zip(g._root_coords, g._coroot_coords):
        cols = []
        for j in range(n):
            p = sum(cor[k] * C[k][j] for k in range(n))
            cols.append(tuple(int(k == j) - p * b[k] for k in range(n)))
        reflections.append(rank[found[tuple(cols)]])
    return {
        "_words": [words[x] for x in order],
        "_right": [[rank[found[_right_action(C, elems[x], i)]] for i in range(n)]
                   for x in order],
        "_left": [[rank[y] for y in left[x]] for x in order],
        "_w0": w0,
        "_reflection_index": reflections,
    }


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4),
])
def test_construction_matches_reference(series, rank):
    """The one-pass search yields the canonical order, words and tables of
    the peel-and-sort construction."""
    g = WeylGroup(CartanDatum.from_series(series, rank))
    for name, table in _reference_construction(g).items():
        assert getattr(g, name) == table, name


def test_action_determines_element(group):
    g = group("A", 2)
    # two different words for the same element canonicalize identically
    assert g.from_word([1, 2, 1]) == g.from_word([2, 1, 2])
    assert g.from_word([1, 1]) == g.identity


# -- multiplication, inversion, lengths ------------------------------------------------

def test_multiply_examples(group):
    g1 = group("A", 1)
    s = g1.simple_reflection(1)
    assert g1.from_word(s.word + s.word) == g1.identity

    g2 = group("A", 2)
    s1 = g2.simple_reflection(1)
    assert g2.from_word(g2.from_word([1, 2]).word + s1.word) == g2.longest
    assert g2.from_word(g2.longest.word + (2, 1)) == g2.simple_reflection(2)


def test_inverse(group):
    for key in [("A", 2), ("B", 2), ("G", 2)]:
        g = group(*key)
        for w in g:
            inv = g.from_word(reversed(w.word))
            assert g.from_word(w.word + inv.word) == g.identity
            assert inv.length == w.length


def test_length_changes_by_one(group):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        g = group(*key)
        for w in g:
            for i in range(1, g.rank + 1):
                t = g.from_word(w.word + (i,))
                assert abs(t.length - w.length) == 1


def test_inversion_count_is_length(group, inversions):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)]:
        g = group(*key)
        for w in g:
            assert len(inversions(g, w.index)) == w.length
            assert len(inversions(g, g.from_word(reversed(w.word)).index)) == w.length


def test_group_mismatch(group):
    a, b = group("A", 2), group("B", 2)
    with pytest.raises(GroupMismatch):
        a.w0_times(b.identity)
    with pytest.raises(GroupMismatch):
        a.bruhat_leq(a.identity, b.longest)


# -- Bruhat order ------------------------------------------------------------------------

def test_bruhat_examples(group):
    g = group("A", 2)
    s1 = g.simple_reflection(1)
    for w in g:
        assert g.bruhat_leq(g.identity, w)
    assert g.bruhat_leq(s1, g.from_word([1, 2]))
    assert not g.bruhat_leq(g.from_word([1, 2]), g.from_word([2, 1]))


def test_bruhat_agrees_with_subword_oracle(group):
    for key in [("A", 2), ("B", 2), ("A", 3)]:
        g = group(*key)
        for w in g:
            below = g.subword_products(w)
            for v in g:
                assert g.bruhat_leq(v, w) == (v.index in below)


# -- pairings ------------------------------------------------------------------------------

def test_pair_examples(group):
    g = group("A", 2)
    coh = FlagCohomology(g)
    # <a1, beta^v> for each positive root beta
    assert dict(zip(g._root_coords, coh._pairings((1, 0)))) == {
        (1, 0): 2, (0, 1): -1, (1, 1): 1}
    # <omega_1, beta^v>: the coefficient of a1^v in beta^v
    assert dict(zip(g._root_coords, (cor[0] for cor in g._coroot_coords))) == {
        (1, 0): 1, (0, 1): 0, (1, 1): 1}


# -- randomized properties -----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=12))
def test_word_products_canonicalize(word):
    g = _A3()
    w = g.from_word(word)
    assert g.from_word(w.word) == w
    assert (w.length - len(word)) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=8), st.lists(st.integers(1, 3), max_size=8))
def test_multiplication_associates(word1, word2):
    g = _A3()
    x, y = g.from_word(word1), g.from_word(word2)
    xy = g.from_word(x.word + y.word)
    assert xy == g.from_word(tuple(word1) + tuple(word2))
    # (xy)^-1 = y^-1 x^-1, each inverse the reversed word
    assert g.from_word(reversed(xy.word)) == g.from_word(y.word[::-1] + x.word[::-1])


_A3_CACHE = None


def _A3():
    global _A3_CACHE
    if _A3_CACHE is None:
        _A3_CACHE = WeylGroup(CartanDatum.from_series("A", 3))
    return _A3_CACHE
