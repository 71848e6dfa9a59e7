import pytest

from csmverify.boxproduct import BoxCalculator, ChiProvenance
from csmverify.errors import PathDisagreement


def _box(engines, series, rank):
    return engines(series, rank).box


# Frozen A1 table, computed by hand from the three identities:
#   chi(e,e,e) = 1, chi(e,e,s) = -1, chi(e,s,s) = 1, chi(s,e,s) = 1,
#   everything else zero.
A1_CHI = {
    ("e", "e", "e"): 1,
    ("e", "e", "s1"): -1,
    ("e", "s1", "s1"): 1,
    ("s1", "e", "s1"): 1,
}


def test_a1_chi_table(engines):
    box = _box(engines, "A", 1)
    g = box.group
    for u in g:
        for v in g:
            for w in g:
                want = A1_CHI.get((str(u), str(v), str(w)), 0)
                assert box.chi_via_triple_sum(u, v, w) == want
                assert box.chi_via_pairing(u, v, w) == want
                assert box.chi_via_richardson(u, v, w) == want
                assert box.chi_provenance(u, v, w) == ChiProvenance(want, want, want)
                assert box.chi(u, v, w) == want


def test_box_product_examples_a1(engines):
    box = _box(engines, "A", 1)
    g = box.group
    e, s = g.identity, g.simple_reflection(1)
    coh = box.coh
    assert box.box_product(e, e) == coh.from_dict({e: 1, s: -1})
    assert box.box_product(e, s) == coh.schubert_class(s)
    assert not box.box_product(s, s)


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("B", 2)])
def test_three_paths_agree_exhaustive(engines, key):
    box = _box(engines, *key)
    g = box.group
    for u in g:
        for v in g:
            for w in g:
                assert box.chi_provenance(u, v, w).agree


@pytest.mark.parametrize("key", [("A", 2), ("B", 2)])
def test_graded_part_is_cup(engines, key):
    box = _box(engines, *key)
    g = box.group
    coh = box.coh
    for u in g:
        for v in g:
            for w in g.elements_of_length(u.length + v.length):
                cup_c = coh.structure_constants_idx(u.index, v.index).get(w.index, 0)
                assert box.chi(u, v, w) == cup_c


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("B", 2)])
def test_vanishing_below_dimension_threshold(engines, key):
    box = _box(engines, *key)
    g = box.group
    for u in g:
        for v in g:
            for w in g:
                if w.length < u.length + v.length:
                    assert box.chi(u, v, w) == 0


def test_box_product_leading_part_is_cup(engines):
    box = _box(engines, "A", 2)
    g = box.group
    coh = box.coh
    for u in g:
        for v in g:
            prod = box.box_product(u, v)
            lead = prod.degree_part(u.length + v.length)
            assert lead == coh.cup(coh.schubert_class(u), coh.schubert_class(v))


def test_chi_equals_mirrored_expansion_coefficient(engines):
    """The stored chi is the expansion coefficient of the mirrored
    Richardson pair, entry for entry."""
    box = _box(engines, "B", 2)
    g = box.group
    for u in g:
        for v in g:
            d = box.rich.csm_basis_coeffs(g.w0_times(u), v).d
            for w in g:
                assert box.chi(u, v, w) == d.get(g.w0_times(w), 0)


def test_chi_provenance_object():
    p = ChiProvenance(1, 1, 1)
    assert p.agree and p.value == 1
    q = ChiProvenance(1, 2, 1)
    assert not q.agree


def test_path_disagreement_raises(engines, monkeypatch):
    """An earlier call that skipped validation cannot hide a later one."""
    box = _box(engines, "A", 1)
    e = box.group.identity
    assert box.chi(e, e, e, cross_validate=False) == 1
    monkeypatch.setattr(box, "chi_via_triple_sum", lambda u, v, w: 999)
    with pytest.raises(PathDisagreement):
        box.chi(e, e, e)


def test_box_product_validates_every_w_above_order_48(engines, monkeypatch):
    """On A4 (|W| = 120) box_product cross-validates each w of length at
    least l(u) + l(v) exactly once, from one triple-sum row for the pair."""
    stack = engines("A", 4)
    box = BoxCalculator(stack.rich)
    g = box.group
    u, v = g.parse("s1"), g.parse("s2 s3")
    calls = []
    real = box.chi_via_triple_sum

    def counted(x, y, w):
        calls.append(w.index)
        return real(x, y, w)

    monkeypatch.setattr(box, "chi_via_triple_sum", counted)
    box.box_product(u, v)
    box.box_product(u, v)
    floor = u.length + v.length
    assert sorted(calls) == [w.index for w in g if w.length >= floor]
    assert list(box._triple_rows) == [(u.index, v.index)]
