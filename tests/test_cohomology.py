import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmverify.cohomology import CohomologyClass, FlagCohomology, Multiplier
from csmverify.errors import GroupMismatch
from csmverify.rootdata import WeylGroup
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


def test_billey_diagonal_is_inversion_product(engines):
    for key in [("A", 2), ("B", 2), ("G", 2)]:
        oracle = _oracle(engines, *key)
        g = oracle.group
        for w in g:
            prod = IntPolynomial.constant(g.rank, 1)
            for beta in g.inversions(g.inverse(w)):
                prod = prod * IntPolynomial.linear(beta.coords)
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
    assert set(times_a.columns) == set(b.coeffs) | set(c.coeffs)
    assert coh.cup(b, c) == product_oracle(coh, b, c)


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

def test_chevalley_examples(engines):
    coh = _coh(engines, "A", 2)
    g = coh.group
    e = g.identity
    assert coh.chevalley_multiply((1, 0), e, basis="weight") == coh.schubert_class(
        g.simple_reflection(1))
    assert coh.chevalley_multiply((1, 0), g.from_word([1, 2])) == coh.from_dict(
        {g.longest: 2})
    assert coh.chevalley_multiply((0, 1), g.from_word([2, 1]), basis="weight") == \
        coh.schubert_class(g.longest)


def test_chevalley_matches_cup_on_degree_two(engines):
    for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        coh = _coh(engines, *key)
        g = coh.group
        for i in range(1, g.rank + 1):
            omega = tuple(1 if k == i - 1 else 0 for k in range(g.rank))
            si = coh.schubert_class(g.simple_reflection(i))
            for v in g:
                assert coh.cup(si, coh.schubert_class(v)) == \
                    coh.chevalley_multiply(omega, v, basis="weight")


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
    # the duality pairing is the integral of the cup product, in mixed degree
    for key in [("A", 2), ("B", 2)]:
        stack = engines(*key)
        coh = stack.coh
        cells = [stack.csm.csm_schubert_cell(u) for u in coh.group]
        for a in cells:
            for b in cells:
                assert coh.pairing(a, b) == coh.integrate(coh.cup(a, b))
    coh = _coh(engines, "A", 3)
    order = coh.group.order
    rng = random.Random(11)

    def random_class():
        return CohomologyClass(coh.group, {rng.randrange(order): rng.randint(-5, 5)
                                           for _ in range(rng.randint(1, 12))})

    for _ in range(50):
        a, b = random_class(), random_class()
        assert coh.pairing(a, b) == coh.integrate(coh.cup(a, b))


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


# -- class container ---------------------------------------------------------------------------

def test_class_arithmetic(engines):
    coh = _coh(engines, "A", 2)
    g = coh.group
    a = coh.schubert_class(g.simple_reflection(1))
    b = coh.schubert_class(g.simple_reflection(2))
    assert (a + b) - a == b
    assert 0 * a == coh.zero()
    assert (2 * a).coefficient(g.simple_reflection(1)) == 2
    assert a != b


def test_rendering(engines):
    coh = _coh(engines, "A", 1)
    g = coh.group
    cls = coh.from_dict({g.identity: 1, g.simple_reflection(1): -1})
    assert cls.epsilon_string() == "eps^e - eps^{s1}"
    assert cls.schubert_variety_string() == "[X_s1] - [X_e]"
    assert coh.zero().epsilon_string() == "0"
