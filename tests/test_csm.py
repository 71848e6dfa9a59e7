from functools import reduce

import pytest

from csmverify.cohomology import CohomologyClass, Multiplier
from csmverify.csm import CsmCalculator
from csmverify.errors import (
    CalibrationFailure,
    CsmVerifyError,
    GroupMismatch,
    InternalInvariantError,
)
from csmverify.verify import build_engines


def _csm(engines, series, rank):
    return engines(series, rank).csm


def _along_word(csm, word):
    """The operator recursion from the point class along any word."""
    return reduce(lambda a, i: csm.dl_operator(i, a), word,
                  csm.coh.schubert_class(csm.group.longest))


# -- operators ------------------------------------------------------------------

@pytest.mark.parametrize("op", ["bgg_A", "weyl_action", "dl_operator"])
@pytest.mark.parametrize("i", [0, 3])
def test_operator_letter_out_of_range(engines, op, i):
    """On A2 a letter outside 1..2 is refused with an error naming it and
    the range: i = 0 does not act as the last letter, and i = 3 raises no
    bare IndexError."""
    csm = _csm(engines, "A", 2)
    point = csm.coh.schubert_class(csm.group.longest)
    with pytest.raises(GroupMismatch, match=f"simple index {i} out of range 1..2") as info:
        getattr(csm, op)(i, point)
    assert isinstance(info.value, CsmVerifyError)


def test_bgg_examples(engines):
    c1 = _csm(engines, "A", 1)
    g = c1.group
    s, e = g.simple_reflection(1), g.identity
    assert c1.bgg_A(1, c1.coh.schubert_class(s)) == c1.coh.schubert_class(e)
    assert not c1.bgg_A(1, c1.coh.schubert_class(e))

    c2 = _csm(engines, "A", 2)
    g2 = c2.group
    assert c2.bgg_A(1, c2.coh.schubert_class(g2.longest)) == \
        c2.coh.schubert_class(g2.from_word([1, 2]))


def test_weyl_action_examples(engines):
    c1 = _csm(engines, "A", 1)
    g = c1.group
    s, e = g.simple_reflection(1), g.identity
    assert c1.weyl_action(1, c1.coh.schubert_class(e)) == c1.coh.schubert_class(e)
    assert c1.weyl_action(1, c1.coh.schubert_class(s)) == -1 * c1.coh.schubert_class(s)

    c2 = _csm(engines, "A", 2)
    w0 = c2.group.longest
    assert c2.weyl_action(1, c2.coh.schubert_class(w0)) == -1 * c2.coh.schubert_class(w0)


def test_dl_examples(engines):
    c1 = _csm(engines, "A", 1)
    g = c1.group
    s, e = g.simple_reflection(1), g.identity
    eps_s = c1.coh.schubert_class(s)
    assert c1.dl_operator(1, eps_s) == c1.coh.from_dict({e: 1, s: 1})
    assert c1.dl_operator(1, c1.dl_operator(1, eps_s)) == eps_s

    c2 = _csm(engines, "A", 2)
    g2 = c2.group
    assert c2.dl_operator(1, c2.coh.schubert_class(g2.longest)) == c2.coh.from_dict({
        g2.from_word([1, 2]): 1, g2.longest: 1,
    })


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2)])
def test_dl_operator_is_bgg_minus_weyl(engines, key):
    """T_i, computed in one pass of its own, equals A_i - s_i on every basis
    class and every letter."""
    csm = _csm(engines, *key)
    for i in range(1, csm.group.rank + 1):
        for w in csm.group:
            basis = csm.coh.schubert_class(w)
            assert csm.dl_operator(i, basis) == csm.bgg_A(i, basis) - csm.weyl_action(i, basis)


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_operator_relations(engines, key):
    csm = _csm(engines, *key)
    g = csm.group
    for i in range(1, g.rank + 1):
        for w in g:
            basis = csm.coh.schubert_class(w)
            assert csm.dl_operator(i, csm.dl_operator(i, basis)) == basis
            assert not csm.bgg_A(i, csm.bgg_A(i, basis))
            assert csm.weyl_action(i, csm.weyl_action(i, basis)) == basis


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2)])
def test_braid_relations(engines, key):
    csm = _csm(engines, *key)
    g = csm.group
    C = g.datum.matrix
    braid_order = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(1, g.rank + 1):
        for j in range(i + 1, g.rank + 1):
            m = braid_order[C[i - 1][j - 1] * C[j - 1][i - 1]]
            word_a = [(i if k % 2 == 0 else j) for k in range(m)]
            word_b = [(j if k % 2 == 0 else i) for k in range(m)]
            for op in (csm.dl_operator, csm.bgg_A, csm.weyl_action):
                for w in g:
                    a = b = csm.coh.schubert_class(w)
                    for k in word_a:
                        a = op(k, a)
                    for k in word_b:
                        b = op(k, b)
                    assert a == b


# -- operator order -----------------------------------------------------------------

def test_transposed_operator_order_fails_the_invariants(engines):
    """Applying a canonical word's letters last to first breaks the cell
    invariants in A2 exactly at the two elements that are not involutions."""
    csm = _csm(engines, "A", 2)
    failing = []
    for u in csm.group:
        try:
            csm._check_cell_invariants(u, _along_word(csm, reversed(u.word)))
        except CalibrationFailure:
            failing.append(str(u))
    assert sorted(failing) == ["s1 s2", "s2 s1"]


# -- cell classes -----------------------------------------------------------------------

def test_csm_cell_examples(engines):
    c1 = _csm(engines, "A", 1)
    g1 = c1.group
    s, e = g1.simple_reflection(1), g1.identity
    assert c1.csm_schubert_cell(e) == c1.coh.schubert_class(s)
    assert c1.csm_schubert_cell(s) == c1.coh.from_dict({e: 1, s: 1})

    c2 = _csm(engines, "A", 2)
    g2 = c2.group
    assert c2.csm_schubert_cell(g2.identity) == c2.coh.schubert_class(g2.longest)
    assert c2.csm_schubert_cell(g2.simple_reflection(1)) == c2.coh.from_dict({
        g2.from_word([1, 2]): 1, g2.longest: 1,
    })


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_cell_invariants_exhaustive(engines, key):
    csm = _csm(engines, *key)
    g = csm.group
    for u in g:
        cell = csm.csm_schubert_cell(u)  # invariant-checked internally
        dual = g.w0_times(u)
        assert cell.coeffs.get(dual.index) == 1
        assert cell.coeffs.get(g.longest.index) == 1
        for w, c in cell.coeffs.items():
            assert c >= 0
            assert g.bruhat_leq(dual, g.elements[w])


def test_support_outside_schubert_variety_fails(engines):
    """A cell class with one extra positive coefficient outside the
    Schubert variety of u, its leading and top coefficients still 1, fails
    the support check: on A3, u = s1 s2 s3 and w = w0 s2 s1, where
    w0*w = s2 s1 is not below u though shorter than it."""
    stack = engines("A", 3)
    g, csm = stack.group, stack.csm
    u = g.from_word([1, 2, 3])
    outside = g.w0_times(g.from_word([2, 1]))
    cell = csm.csm_schubert_cell(u)
    assert outside.index not in cell.coeffs
    assert not g.bruhat_leq(g.w0_times(u), outside)
    with pytest.raises(CalibrationFailure, match=f"cell class of {u}: support below"):
        csm._check_cell_invariants(u, cell + stack.coh.schubert_class(outside))


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_completeness(engines, key):
    csm = _csm(engines, *key)
    assert csm.completeness_check()


def _all_reduced_words(g, w):
    if w.length == 0:
        return [()]
    out = []
    for i in range(1, g.rank + 1):
        rest = g.from_word(w.word + (i,))
        if rest.length < w.length:
            out.extend([tail + (i,) for tail in _all_reduced_words(g, rest)])
    return out


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_reduced_word_independence(engines, key):
    csm = _csm(engines, *key)
    g = csm.group
    for u in g:
        expected = csm.csm_schubert_cell(u)
        for word in _all_reduced_words(g, u):
            assert _along_word(csm, word) == expected


# -- Chern class machinery ------------------------------------------------------------------

def test_tangent_chern_a1(engines):
    csm = _csm(engines, "A", 1)
    g = csm.group
    assert csm.tangent_chern() == csm.coh.from_dict({
        g.identity: 1, g.simple_reflection(1): 2,
    })


@pytest.mark.parametrize("key,order", [(("A", 2), 6), (("B", 2), 8), (("G", 2), 12),
                                       (("A", 3), 24)])
def test_tangent_chern_integrates_to_order(engines, key, order):
    csm = _csm(engines, *key)
    assert csm.coh.integrate(csm.tangent_chern()) == order
    g = csm.group
    top = [c for w, c in csm.tangent_chern().coeffs.items() if g._lengths[w] == g.num_positive]
    assert top  # top part nonzero


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2)])
def test_root_factors_multiply_as_the_table(engines, key):
    """c(T) . eps^w through the root factors, the one c(T) product of the
    calculator, equals the product through the structure table,
    Multiplier(coh, c(T)), for every basis class; a run compares the two
    routes only through chern-inverse and completeness."""
    stack = engines(*key)
    g, csm = stack.group, stack.csm
    times_t = Multiplier(stack.coh, csm.tangent_chern())
    for w in g:
        vec = [0] * g.order
        vec[w.index] = 1
        product = CohomologyClass(g, dict(enumerate(csm._times_tangent(vec))))
        assert product == times_t(stack.coh.schubert_class(w))


def test_chern_inverse(engines):
    for key in [("A", 2), ("B", 2)]:
        csm = _csm(engines, *key)
        assert csm.coh.cup(csm.tangent_chern(), csm.chern_inverse()) == csm.coh.unit()
        assert csm.chern_inverse().coeffs.get(csm.group.identity.index) == 1


# -- Segre and the sign involution --------------------------------------------------------------

def test_segre_examples_a1(engines):
    csm = _csm(engines, "A", 1)
    g = csm.group
    s, e = g.simple_reflection(1), g.identity
    assert csm.segre_schubert_cell(s) == csm.coh.from_dict({e: 1, s: -1})
    assert csm.segre_schubert_cell(e) == csm.coh.schubert_class(s)
    assert csm.chern_inverse() == csm.coh.from_dict({e: 1, s: -2})   # (1 + 2h)^-1, h^2 = 0


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_segre_sign_twist_exhaustive(engines, key):
    csm = _csm(engines, *key)
    g = csm.group
    for u in g:
        seg = csm.segre_schubert_cell(u)  # hard-asserts the twist internally
        base = g.w0_times(u).length
        cell = csm.csm_schubert_cell(u)
        for w, c in seg.coeffs.items():
            assert c == cell.coeffs.get(w, 0) * (1 if (g._lengths[w] - base) % 2 == 0 else -1)
        # the same identity phrased through the sign involution
        sign = 1 if base % 2 == 0 else -1
        assert seg == sign * csm.phi_involution(cell)


def test_phi_involution(engines):
    csm = _csm(engines, "A", 2)
    g = csm.group
    s1 = g.simple_reflection(1)
    assert csm.phi_involution(csm.coh.schubert_class(g.identity)) == csm.coh.unit()
    assert csm.phi_involution(csm.coh.schubert_class(s1)) == -1 * csm.coh.schubert_class(s1)
    s12 = g.from_word([1, 2])
    assert csm.phi_involution(csm.coh.schubert_class(s12)) == csm.coh.schubert_class(s12)


def test_phi_is_ring_map(engines):
    csm = _csm(engines, "A", 2)
    g = csm.group
    coh = csm.coh
    for u in g:
        for v in g:
            a, b = coh.schubert_class(u), coh.schubert_class(v)
            assert csm.phi_involution(coh.cup(a, b)) == \
                coh.cup(csm.phi_involution(a), csm.phi_involution(b))
    cls = csm.csm_schubert_cell(g.simple_reflection(1))
    assert csm.phi_involution(csm.phi_involution(cls)) == cls


# -- opposite cells ------------------------------------------------------------------------------

def test_opposite_cell_examples(engines):
    c1 = _csm(engines, "A", 1)
    g1 = c1.group
    assert c1.csm_opposite_cell(g1.longest) == c1.coh.schubert_class(g1.longest)
    assert c1.csm_opposite_cell(g1.identity) == c1.coh.from_dict({
        g1.identity: 1, g1.simple_reflection(1): 1,
    })

    c2 = _csm(engines, "A", 2)
    g2 = c2.group
    s2 = g2.simple_reflection(2)
    # definition unfold: translate by the longest element
    assert c2.csm_opposite_cell(s2) == c2.csm_schubert_cell(g2.w0_times(s2))
    assert g2.w0_times(s2) == g2.from_word([2, 1])


# -- the column index and AMSS duality ------------------------------------------------

@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2)])
def test_column_index_is_the_cell_table_cut_by_length(key):
    """At every reach, a fresh index holds exactly the columns of length at
    most reach of the CSM cell table, read off the cell classes, and the
    duality check passes there."""
    stack = build_engines(*key)
    g = stack.group
    cells = [stack.csm.csm_schubert_cell(w).coeffs for w in g]
    table = [[(w, cell[x]) for w, cell in enumerate(cells) if x in cell] for x in range(g.order)]
    for reach in range(g.num_positive + 1):
        csm = CsmCalculator(stack.coh)
        assert [list(zip(*col)) for col in csm.cell_columns(reach)] \
            == [col if g._lengths[x] <= reach else [] for x, col in enumerate(table)]
        csm.segre_duality(reach)
        assert csm.dual_reach == reach
    assert csm.cell_columns(1) is csm.cell_columns()


def test_one_entry_off_fails_the_duality_check(monkeypatch):
    """Each entry of the index, one unit off, fails the duality check at
    every reach that reads its column, naming a cell; on A3 all the same."""
    stack = build_engines("A", 3)
    g, real = stack.group, CsmCalculator.cell_columns
    table = list(real(CsmCalculator(stack.coh)))
    for x, (ws, cs) in enumerate(table):
        for j in range(len(ws)):
            columns = list(table)
            columns[x] = ws, (*cs[:j], cs[j] + 1, *cs[j + 1:])
            monkeypatch.setattr(CsmCalculator, "cell_columns", lambda self, reach=None: columns)
            for reach in range(g._lengths[x], g.num_positive + 1):
                with pytest.raises(InternalInvariantError, match="break AMSS duality at the cell"):
                    CsmCalculator(stack.coh).segre_duality(reach)
