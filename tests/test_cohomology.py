import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmverify.cohomology import CohomologyClass, FlagCohomology, Multiplier
from csmverify.errors import GroupMismatch
from csmverify.rootdata import CartanDatum, WeylGroup
from chi_oracle import pairing
from expansion_oracle import EquivariantClass, ExpansionOracle
from localization_oracle import LocalizationOracle
from polynomial import InexactDivision, IntPolynomial


def _coh(engines, series, rank):
    return engines(series, rank).coh


def _oracle(engines, series, rank):
    return ExpansionOracle(_coh(engines, series, rank))


# -- Billey restrictions ----------------------------------------------------------

def test_billey_examples(engines):
    oracle = _oracle(engines, "A", 2)
    g = oracle.group
    s1 = g.simple_reflection(1)
    s12 = g.from_word([1, 2])
    one = IntPolynomial.constant(2, 1)
    for v in g:
        assert oracle.billey_restriction(g.identity, v) == one
    assert oracle.billey_restriction(s1, s12) == IntPolynomial.linear((1, 0))

    oracle1 = _oracle(engines, "A", 1)
    s = oracle1.group.simple_reflection(1)
    assert oracle1.billey_restriction(s, s) == IntPolynomial.linear((1,))


def test_billey_diagonal_is_inversion_product(engines, inversions):
    for key in [("A", 2), ("B", 2), ("G", 2)]:
        oracle = _oracle(engines, *key)
        g = oracle.group
        for w in g:
            prod = IntPolynomial.constant(g.rank, 1)
            for beta in inversions(g, g.from_word(reversed(w.word)).index):
                prod = prod * IntPolynomial.linear(beta)
            assert oracle.billey_restriction(w, w) == prod


def test_billey_support_is_bruhat_interval(engines):
    for key in [("A", 2), ("B", 2)]:
        oracle = _oracle(engines, *key)
        g = oracle.group
        for w in g:
            for v in g:
                vanishes = oracle.billey_restriction(w, v).is_zero
                assert vanishes == (not g.bruhat_leq(w, v))


def test_billey_nonnegative_coefficients(engines):
    oracle = _oracle(engines, "B", 2)
    for w in oracle.group:
        for v in oracle.group:
            p = oracle.billey_restriction(w, v)
            assert all(c > 0 for c in p.terms.values()) or p.is_zero


# -- equivariant classes and expansion ----------------------------------------------

def test_expand_equivariant_basis_element(engines):
    oracle = _oracle(engines, "A", 1)
    g = oracle.group
    s = g.simple_reflection(1)
    f = oracle.equivariant_schubert_class(s)
    out = oracle.expand_equivariant(f)
    assert out == {s: IntPolynomial.constant(1, 1)}


def test_expand_equivariant_square(engines):
    oracle = _oracle(engines, "A", 1)
    g = oracle.group
    s = g.simple_reflection(1)
    xi = oracle.equivariant_schubert_class(s)
    out = oracle.expand_equivariant(xi.pointwise_product(xi))
    assert out == {s: IntPolynomial.linear((1,))}


def test_expand_equivariant_unit(engines):
    oracle = _oracle(engines, "A", 1)
    g = oracle.group
    one = IntPolynomial.constant(1, 1)
    f = EquivariantClass(g, {w: one for w in g})
    assert oracle.expand_equivariant(f) == {g.identity: one}


def test_gkm_condition_rank2(engines):
    for key in [("A", 2), ("B", 2)]:
        oracle = _oracle(engines, *key)
        g = oracle.group
        classes = [oracle.equivariant_schubert_class(w) for w in g]
        for f in classes:
            assert f.check_gkm()
        # pointwise products stay in the image of cohomology
        f = classes[1].pointwise_product(classes[2])
        assert f.check_gkm()


def test_gkm_violation_detected(engines):
    oracle = _oracle(engines, "A", 2)
    g = oracle.group
    f = EquivariantClass(g, {g.longest: IntPolynomial.constant(2, 1)})
    assert not f.check_gkm()


def test_expand_equivariant_rejects_non_gkm_input(engines):
    oracle = _oracle(engines, "A", 2)
    g = oracle.group
    # constant 1 stuck at a length-2 point: not in the image of cohomology
    f = EquivariantClass(g, {g.from_word([1, 2]): IntPolynomial.constant(2, 1)})
    with pytest.raises(InexactDivision):
        oracle.expand_equivariant(f)


# -- cup products -------------------------------------------------------------------

def test_cup_examples_a2(engines):
    coh = _coh(engines, "A", 2)
    g = coh.group
    s1, s2 = g.simple_reflection(1), g.simple_reflection(2)
    e1 = coh.schubert_class(s1)
    e2 = coh.schubert_class(s2)
    assert coh.cup(e1, e1) == coh.schubert_class(g.from_word([2, 1]))
    assert coh.cup(e1, e2) == coh.from_dict({
        g.from_word([1, 2]): 1, g.from_word([2, 1]): 1,
    })


def test_cup_degree_overflow_vanishes(engines):
    coh = _coh(engines, "A", 1)
    s = coh.group.simple_reflection(1)
    assert not coh.cup(coh.schubert_class(s), coh.schubert_class(s))


def test_cup_structure_constants_nonnegative(engines):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        coh = _coh(engines, *key)
        coh.build_structure_table()
        # one dict per unordered pair
        for u in coh.group:
            for v in coh.group:
                row = coh.structure_constants_idx(u.index, v.index)
                assert all(c > 0 for c in row.values())
                assert row is coh.structure_constants_idx(v.index, u.index)


def test_cup_unit_row(engines):
    coh = _coh(engines, "B", 2)
    g = coh.group
    for v in g:
        assert coh.structure_constants_idx(g.identity.index, v.index) == {v.index: 1}


def test_cup_commutative_and_associative_sampled(engines):
    for key in [("A", 3), ("B", 2)]:
        coh = _coh(engines, *key)
        g = coh.group
        rng = random.Random(7)
        basis = list(g.elements)
        for _ in range(12):
            u, v, w = (coh.schubert_class(rng.choice(basis)) for _ in range(3))
            assert coh.cup(u, v) == coh.cup(v, u)
            assert coh.cup(coh.cup(u, v), w) == coh.cup(u, coh.cup(v, w))


_A3_CLASSES = st.dictionaries(st.integers(0, 23), st.integers(-9, 9), max_size=12)


@settings(max_examples=60, deadline=None)
@given(a=_A3_CLASSES, b=_A3_CLASSES, c=_A3_CLASSES)
def test_multiplier_matches_double_loop(engines, product_oracle, a, b, c):
    coh = _coh(engines, "A", 3)
    a, b, c = (CohomologyClass(coh.group, x) for x in (a, b, c))
    times_a = Multiplier(coh, a)
    assert times_a(b) == product_oracle(coh, a, b)     # fills columns
    assert times_a(c) == product_oracle(coh, a, c)     # reuses them
    # only the terms within reach of the factor's shortest term fill a column
    lengths, top = coh.group._lengths, coh.group.num_positive
    reach = top - min((lengths[u] for u in a.coeffs), default=top + 1)
    assert set(times_a.columns) == {v for v in set(b.coeffs) | set(c.coeffs)
                                    if lengths[v] <= reach}
    for v, col in times_a.columns.items():
        assert CohomologyClass(coh.group, col) == product_oracle(
            coh, a, CohomologyClass(coh.group, {v: 1}))
    assert coh.cup(b, c) == product_oracle(coh, b, c)


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2)])
def test_degree_cut_is_exact(engines, product_oracle, key):
    """The degree cut rests on c_uv^w = 0 for l(u) + l(v) > N: every such
    table entry is empty.  Through it, products by the dense factors (c(T),
    its inverse, the CSM and Segre cell classes) equal the double loop on
    every basis class and on the dense classes, and eps^u still reaches the
    top at the edge l(u) + l(v) = N."""
    stack = engines(*key)
    coh, csm, g = stack.coh, stack.csm, stack.group
    top, lengths = g.num_positive, g._lengths
    coh.build_structure_table()
    assert all(not coh._table[u][v] for u in range(g.order) for v in range(g.order)
               if lengths[u] + lengths[v] > top)
    dense = [csm.tangent_chern(), csm.chern_inverse()]
    cells = [cell(u) for u in g for cell in (csm.csm_schubert_cell, csm.segre_schubert_cell)]
    basis = [coh.schubert_class(v) for v in g]
    for factor in dense + cells:
        times = Multiplier(coh, factor)
        for b in basis + dense:
            assert times(b) == product_oracle(coh, factor, b)
    point = coh.schubert_class(g.longest)
    for u in g:
        times_u = Multiplier(coh, coh.schubert_class(u))
        assert times_u.reach == top - u.length
        assert times_u(coh.schubert_class(g.w0_times(u))) == point


def test_integrate_group_mismatch(engines):
    """integrate refuses a class of another group: the A3 class eps^w with w
    of index 5 (length 2) sits at A2's top index."""
    a2, a3 = _coh(engines, "A", 2), _coh(engines, "A", 3)
    foreign = a3.schubert_class(a3.group.elements[5])
    assert a3.group.elements[5].length == 2 and a2.group.longest.index == 5
    with pytest.raises(GroupMismatch):
        a2.integrate(foreign)


def test_cup_group_mismatch(engines):
    a = _coh(engines, "A", 2)
    b = _coh(engines, "B", 2)
    with pytest.raises(GroupMismatch):
        a.cup(a.unit(), b.unit())
    # a second enumeration of the same datum is the same group
    twin = FlagCohomology(WeylGroup(a.group.datum))
    s1 = twin.schubert_class(twin.group.simple_reflection(1))
    assert a.cup(a.unit(), s1) == a.schubert_class(a.group.simple_reflection(1))
    assert a.cup(s1, s1) == twin.cup(s1, s1)
    assert a.schubert_class(twin.group.longest) == a.schubert_class(a.group.longest)


# -- Chevalley rule --------------------------------------------------------------------

def _omega_pairings(g, i):
    """<omega_i, beta^v> for every positive root beta, in root order."""
    return [cor[i - 1] for cor in g._coroot_coords]


def test_chevalley_examples(engines):
    coh = _coh(engines, "A", 2)
    g = coh.group
    assert coh._chevalley_idx(_omega_pairings(g, 1), g.identity.index) == {
        g.simple_reflection(1).index: 1}
    assert coh._chevalley_idx(coh._pairings((1, 0)), g.from_word([1, 2]).index) == {
        g.longest.index: 2}
    assert coh._chevalley_idx(_omega_pairings(g, 2), g.from_word([2, 1]).index) == {
        g.longest.index: 1}


def test_chevalley_matches_cup_on_degree_two(engines):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        coh = _coh(engines, *key)
        g = coh.group
        for i in range(1, g.rank + 1):
            pairings = _omega_pairings(g, i)
            si = coh.schubert_class(g.simple_reflection(i))
            for v in g:
                assert coh.cup(si, coh.schubert_class(v)).coeffs == \
                    coh._chevalley_idx(pairings, v.index)


def _symmetrizer(matrix):
    """d_i = (a_i, a_i) / 2 up to one common factor, so that the form
    (a_i, a_j) = d_i matrix[i][j] is symmetric; spread along the diagram."""
    n = len(matrix)
    d = {0: Fraction(1)}
    while len(d) < n:
        for i, j in [(i, j) for i in list(d) for j in range(n) if j not in d and matrix[j][i]]:
            d[j] = d[i] * matrix[i][j] / matrix[j][i]
    return [d[i] for i in range(n)]


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("G", 2), ("F", 4),
])
def test_pairings_match_the_invariant_form(series, rank):
    """Both pairings the degree-2 rule reads, against <lam, beta^v> =
    2 (lam, beta) / (beta, beta) from the positive roots and the Cartan
    matrix alone: ``_pairings`` for lam a simple root (the alpha table) or
    a positive root (the tangent Chern class), and <omega_i, beta^v> =
    beta_i d_i / d_beta for ``chevalley_agreement``."""
    g = WeylGroup(CartanDatum.from_series(series, rank))
    coh, C = FlagCohomology(g), g.datum.matrix
    d = _symmetrizer(C)

    def form(x, y):
        return sum(x[i] * y[j] * d[i] * C[i][j] for i in range(rank) for j in range(rank))

    roots = list(g._root_coords)
    simple = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    for lam in simple + roots:
        assert coh._pairings(lam) == [2 * form(lam, b) / form(b, b) for b in roots]
    for i in range(1, rank + 1):
        assert _omega_pairings(g, i) == [2 * b[i - 1] * d[i - 1] / form(b, b) for b in roots]


# -- integration ------------------------------------------------------------------------

def test_integrate_basics(engines):
    coh = _coh(engines, "A", 2)
    g = coh.group
    assert coh.integrate(coh.schubert_class(g.longest)) == 1
    assert coh.integrate(coh.schubert_class(g.simple_reflection(1))) == 0


def test_triple_integral_examples(engines):
    coh = _coh(engines, "A", 2)
    g = coh.group
    e, w0 = g.identity, g.longest
    s1, s2 = g.simple_reflection(1), g.simple_reflection(2)
    assert coh.triple_integral(e, e, w0) == 1
    assert coh.triple_integral(s1, s2, s1) == 1
    assert coh.triple_integral(s1, s1, s2) == 1
    assert coh.triple_integral(e, e, e) == 0  # degree filter


def test_triple_integral_symmetric_and_matches_cup_path(engines):
    for key in [("A", 2), ("B", 2)]:
        coh = _coh(engines, *key)
        g = coh.group
        rng = random.Random(3)
        for _ in range(20):
            u, v, w = (rng.choice(g.elements) for _ in range(3))
            t = coh.triple_integral(u, v, w)
            assert t == coh.triple_integral(w, u, v) == coh.triple_integral(v, u, w)
            composed = coh.integrate(coh.cup(
                coh.cup(coh.schubert_class(u), coh.schubert_class(v)),
                coh.schubert_class(w)))
            assert t == composed


def test_poincare_duality(engines):
    for key in [("A", 2), ("B", 2), ("A", 3)]:
        coh = _coh(engines, *key)
        g = coh.group
        for u in g:
            for v in g.elements_of_length(g.num_positive - u.length):
                got = coh.integrate(coh.cup(coh.schubert_class(u), coh.schubert_class(v)))
                assert got == (1 if v == g.w0_times(u) else 0)
    # the chi oracle's duality pairing is the integral of the cup product, in
    # mixed degree
    for key in [("A", 2), ("B", 2)]:
        stack = engines(*key)
        coh = stack.coh
        cells = [stack.csm.csm_schubert_cell(u) for u in coh.group]
        for a in cells:
            for b in cells:
                assert pairing(a, b) == coh.integrate(coh.cup(a, b))
    coh = _coh(engines, "A", 3)
    order = coh.group.order
    rng = random.Random(11)

    def random_class():
        return CohomologyClass(coh.group, {rng.randrange(order): rng.randint(-5, 5)
                                           for _ in range(rng.randint(1, 12))})

    for _ in range(50):
        a, b = random_class(), random_class()
        assert pairing(a, b) == coh.integrate(coh.cup(a, b))


# -- engine cross-validation ----------------------------------------------------------------

def test_localization_matches_expansion_oracle(engines):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        coh = _coh(engines, *key)
        oracle = ExpansionOracle(coh)
        g = coh.group
        for u in g:
            for v in g:
                assert coh.structure_constants_idx(u.index, v.index) == \
                    oracle.structure_constants_via_expansion(u, v)


@pytest.mark.long
def test_table_matches_expansion_oracle_b3():
    from csmverify.verify import build_engines
    coh = build_engines("B", 3).coh
    oracle = ExpansionOracle(coh)
    g = coh.group
    for u in g:
        for v in g:
            assert coh.structure_constants_idx(u.index, v.index) == \
                oracle.structure_constants_via_expansion(u, v)


def test_second_evaluation_point_agrees(engines):
    """The fixed-point sums are point-independent: at a second generic
    point, every degree-matching triple integral is the one the table
    gives."""
    for key in [("A", 2), ("B", 2)]:
        coh = _coh(engines, *key)
        g = coh.group
        oracle = LocalizationOracle(coh, tuple(101 ** (i + 1) for i in range(g.rank)))
        checked = nonzero = 0
        for u in g:
            for v in g:
                for w in g.elements_of_length(g.num_positive - u.length - v.length):
                    got = coh.triple_integral(u, v, w)
                    assert oracle.triple(u.index, v.index, w.index) == got
                    checked += 1
                    nonzero += got != 0
        # the sums ran at the second point, not at the all-ones one
        assert oracle.pos_product != math.prod(sum(c) for c in g._root_coords)
        assert checked > nonzero > g.order


# -- the table against localization ---------------------------------------------------------

@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
                                 ("A", 4), ("D", 4),
                                 *(pytest.param(k, marks=pytest.mark.long)
                                   for k in [("B", 4), ("A", 5)])],
                         ids=lambda key: f"{key[0]}{key[1]}")
def test_table_matches_localization_oracle(key):
    from csmverify.verify import build_engines
    coh = build_engines(*key).coh
    coh.build_structure_table()
    assert coh._table == LocalizationOracle(coh).table()
    # dict equality ignores order: every row, computed or filled, lists its w
    # in index order, the order each product iterates, which keeps reports
    # byte-identical
    assert all(list(d) == sorted(d) for row in coh._table for d in row)


def test_table_build_runs_no_localization(monkeypatch):
    """The build path reads no fixed-point data: with every localization
    entry point raising, the B3 and A4 tables still build and check."""
    from csmverify.verify import build_engines, materialize_tables

    def refuse(*args):
        raise AssertionError("localization on the table build path")

    monkeypatch.setattr(FlagCohomology, "triple_integral", refuse)
    monkeypatch.setattr(LocalizationOracle, "triple", refuse)
    for key in [("B", 3), ("A", 4)]:
        stack = build_engines(*key)
        materialize_tables(stack)
        assert stack.coh._table is not None
        assert set(vars(stack.coh)) == {"group", "_alpha", "_table"}


def test_recursion_stops_at_two_thirds_of_the_dimension(monkeypatch):
    """The BGG recursion computes no pair above T = floor(2N/3): a step at
    l(u) + l(v) = t multiplies alpha_i into row (u s_i, v s_i), whose eps^y
    have l(y) = t - 2.  With every read of alpha_i . eps^y at l(y) > T - 2
    raising, the B3 and A4 tables still build, fill and check, and equal
    the localization oracle's."""
    real = FlagCohomology._alpha_row

    class Guarded(list):
        def __getitem__(self, y):
            assert self.lengths[y] <= self.bound, "recursion step above 2N/3"
            return super().__getitem__(y)

    def guarded(self, i):
        row = Guarded(real(self, i))
        row.lengths, row.bound = self.group._lengths, 2 * self.group.num_positive // 3 - 2
        return row

    monkeypatch.setattr(FlagCohomology, "_alpha_row", guarded)
    for key in [("B", 3), ("A", 4)]:
        coh = FlagCohomology(WeylGroup(CartanDatum.from_series(*key)))
        coh.build_structure_table()
        assert coh._table == LocalizationOracle(coh).table()


# -- class container ---------------------------------------------------------------------------

def test_class_arithmetic(engines):
    coh = _coh(engines, "A", 2)
    g = coh.group
    a = coh.schubert_class(g.simple_reflection(1))
    b = coh.schubert_class(g.simple_reflection(2))
    assert (a + b) - a == b
    assert 0 * a == coh.zero()
    assert (2 * a).coeffs == {g.simple_reflection(1).index: 2}
    assert a != b


def test_rendering(engines):
    coh = _coh(engines, "A", 1)
    g = coh.group
    cls = coh.from_dict({g.identity: 1, g.simple_reflection(1): -1})
    assert cls.epsilon_string() == "eps^e - eps^{s1}"
    assert cls.schubert_variety_string() == "[X_s1] - [X_e]"
    assert coh.zero().epsilon_string() == "0"
