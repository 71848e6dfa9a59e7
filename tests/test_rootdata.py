import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmverify.errors import (
    CapacityExceeded,
    GroupMismatch,
    InvalidCartan,
    NotARoot,
)
from csmverify.rootdata import (
    CartanDatum,
    RootVector,
    WeylGroup,
    build_root_system,
    canonical_cartan_matrix,
    enumerate_weyl,
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
    roots, refl = build_root_system(CartanDatum.from_series("A", 1))
    assert [r.coords for r in roots] == [(1,)]
    assert refl[roots[0]].length == 1


def test_root_closure_a2():
    roots, _ = build_root_system(CartanDatum.from_series("A", 2))
    assert {r.coords for r in roots} == {(1, 0), (0, 1), (1, 1)}


def test_root_closure_g2():
    group = WeylGroup(CartanDatum.from_series("G", 2))
    assert len(group.positive_roots) == 6
    assert group.longest.length == 6
    highest = max(group.positive_roots, key=lambda r: sum(r.coords))
    assert highest.coords == (3, 2)


def test_reflections_are_involutions(group):
    g = group("B", 2)
    for beta in g.positive_roots:
        s = g.reflection(beta)
        assert g.multiply(s, s) == g.identity
        assert g.apply(s, beta).coords == (-beta).coords


def test_root_vector_signs():
    assert RootVector((1, 0)).is_positive
    assert RootVector((-1, -1)).is_negative
    assert not RootVector((1, -1)).is_positive
    assert not RootVector((0, 0)).is_positive


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
    assert group("A", 2).poincare_polynomial() == [1, 2, 2, 1]


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
    assert g.poincare_polynomial() == poly


def test_capacity_cap():
    with pytest.raises(CapacityExceeded):
        enumerate_weyl(CartanDatum.from_series("A", 5), max_order=100)
    with pytest.raises(CapacityExceeded):
        enumerate_weyl(CartanDatum.from_series("E", 6))  # 51840 > default cap
    assert enumerate_weyl(CartanDatum.from_series("A", 5), max_order=720).order == 720


def test_longest_element(group):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        g = group(*key)
        w0 = g.longest
        assert w0.length == len(g.positive_roots)
        assert g.multiply(w0, w0) == g.identity
        for w in g:
            assert g.w0_times(w).length == w0.length - w.length


# -- canonical words ------------------------------------------------------------------

def _all_reduced_words(g, w):
    if w.length == 0:
        return [()]
    out = []
    for i in g.descents_left(w):
        rest = g.multiply(g.simple_reflection(i), w)
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
    assert g1.multiply(s, s) == g1.identity

    g2 = group("A", 2)
    s1 = g2.simple_reflection(1)
    assert g2.multiply(g2.from_word([1, 2]), s1) == g2.longest
    assert g2.multiply(g2.longest, g2.from_word([2, 1])) == g2.simple_reflection(2)


def test_inverse(group):
    for key in [("A", 2), ("B", 2), ("G", 2)]:
        g = group(*key)
        for w in g:
            assert g.multiply(w, g.inverse(w)) == g.identity
            assert g.inverse(w).length == w.length


def test_length_changes_by_one(group):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        g = group(*key)
        for w in g:
            for i in range(1, g.rank + 1):
                t = g.multiply(w, g.simple_reflection(i))
                assert abs(t.length - w.length) == 1


def test_inversion_count_is_length(group):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)]:
        g = group(*key)
        for w in g:
            assert len(g.inversions(w)) == w.length
            assert len(g.left_inversions(w)) == w.length


def test_group_mismatch(group):
    a, b = group("A", 2), group("B", 2)
    with pytest.raises(GroupMismatch):
        a.multiply(a.identity, b.identity)
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
        for v in g:
            for w in g:
                assert g.bruhat_leq(v, w) == g.bruhat_leq_subword(v, w)


# -- pairings ------------------------------------------------------------------------------

def test_pair_examples(group):
    g = group("A", 2)
    a1, a2 = g.simple_root(1), g.simple_root(2)
    assert g.pair((1, 0), a1) == 2
    assert g.pair((1, 0), a2) == -1
    assert g.pair((1, 0), RootVector((1, 1)), basis="weight") == 1


def test_pair_not_a_root(group):
    g = group("A", 2)
    with pytest.raises(NotARoot):
        g.pair((1, 0), RootVector((2, 0)))
    with pytest.raises(NotARoot):
        g.coroot_coords(RootVector((1, -1)))


def test_pair_negative_root(group):
    g = group("B", 2)
    beta = g.positive_roots[-1]
    assert g.pair((1, 0), -beta) == -g.pair((1, 0), beta)


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
    assert g.multiply(x, y) == g.from_word(tuple(word1) + tuple(word2))
    assert g.inverse(g.multiply(x, y)) == g.multiply(g.inverse(y), g.inverse(x))


_A3_CACHE = None


def _A3():
    global _A3_CACHE
    if _A3_CACHE is None:
        _A3_CACHE = WeylGroup(CartanDatum.from_series("A", 3))
    return _A3_CACHE
