import json
from dataclasses import replace

import pytest

from chi_oracle import chi_paths
from csmverify import boxproduct, cli
from csmverify.boxproduct import BoxCalculator, ChiProvenance, _slot_bits
from csmverify.cohomology import CohomologyClass, Multiplier
from csmverify.csm import CsmCalculator
from csmverify.errors import PathDisagreement
from csmverify.richardson import RichardsonCalculator
from csmverify.rootdata import parity_sign
from csmverify.verify import _run_suites, build_engines, materialize_tables


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
                assert box.chi_provenance(u, v, w) == ChiProvenance(want, want)
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
    """The two checked paths agree on every triple, and the pairing with
    seg(cell w), which no check reads, gives the same value."""
    box = _box(engines, *key)
    g = box.group
    for u in g:
        for v in g:
            for w in g:
                prov = box.chi_provenance(u, v, w)
                assert prov.agree
                assert box.chi_via_pairing(u, v, w) == prov.value


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
            lead = {w: c for w, c in prod.coeffs.items() if g._lengths[w] == u.length + v.length}
            assert CohomologyClass(g, lead) == coh.cup(coh.schubert_class(u), coh.schubert_class(v))


def test_chi_equals_mirrored_expansion_coefficient(engines):
    """The stored chi is the expansion coefficient of the mirrored
    Richardson pair, entry for entry."""
    box = _box(engines, "B", 2)
    g = box.group
    for u in g:
        for v in g:
            d = box.rich.csm_basis_coeffs(g.w0_times(u), v).coeffs
            for w in g:
                assert box.chi(u, v, w) == d.get(g.w0_times(w).index, 0)


def test_chi_provenance_object():
    p = ChiProvenance(1, 1)
    assert p.agree and p.value == 1
    q = ChiProvenance(2, 1)
    assert not q.agree and q.value == 1
    assert str(q) == "triple-sum 2, expansion 1"


def test_path_disagreement_raises(engines, monkeypatch):
    """An earlier unvalidated read of the expansion path cannot hide a
    later disagreement from chi."""
    box = _box(engines, "A", 1)
    e = box.group.identity
    assert box.chi_via_richardson(e, e, e) == 1
    monkeypatch.setattr(box, "chi_via_triple_sum", lambda u, v, w: 999)
    with pytest.raises(PathDisagreement):
        box.chi(e, e, e)


def test_box_product_validates_every_w_above_order_48(engines, monkeypatch):
    """On A4 (|W| = 120) box_product reads one row, from the Richardson row
    of w0*u, and cross-validates each w of length at least l(u) + l(v):
    one unit more in the triple sum or the expansion at any such w raises,
    at a w below that floor it does not."""
    stack = engines("A", 4)
    box = BoxCalculator(stack.rich)
    g = box.group
    u, v = g.parse("s1"), g.parse("s2 s3")
    floor = u.length + v.length
    real, rows = box.chi_row, []

    def counted(x, y):
        rows.append((x, y))
        return real(x, y)

    monkeypatch.setattr(box, "chi_row", counted)
    product = box.box_product(u, v)
    assert rows == [(u, v)]
    assert g.w0_times(u).index in stack.rich._rows

    row = real(u, v)
    for w in g:
        for path in ("triple_sum", "expansion"):
            entries = dict(getattr(row, path))
            entries[w.index] = entries.get(w.index, 0) + 1
            perturbed = replace(row, **{path: entries})
            monkeypatch.setattr(box, "chi_row", lambda x, y: perturbed)
            if w.length >= floor:
                with pytest.raises(PathDisagreement, match=rf"^chi\(s1, s2 s3, {w}\): "):
                    box.box_product(u, v)
            else:
                assert box.box_product(u, v) == product


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)],
                         ids=lambda key: f"{key[0]}{key[1]}")
def test_chi_row_matches_the_per_triple_oracle(engines, key):
    """Both paths of every pair's row equal their per-triple formulas at
    every w, zeros included, and so does the pairing of the Richardson
    class with seg(cell w); a row holds nonzero entries only."""
    stack = engines(*key)
    box, g = stack.box, stack.group
    for u in g:
        for v in g:
            row = box.chi_row(u, v)
            assert [row.provenance(w.index) for w in g] == chi_paths(stack, u, v)
            assert [box.chi_via_pairing(u, v, w) for w in g] \
                == [row.triple_sum.get(w.index, 0) for w in g]
            assert all(all(path.values()) for path in (row.triple_sum, row.expansion))


def test_cell_column_mutation_fails_cross_paths(engines, monkeypatch, tmp_path):
    """One unit more in one entry of the CSM cell column index, the
    coefficient at eps^x of csm(cell w) for x = s1 s2, w = s1 s2 s1, moves
    the triple sum by the signed R[w0 x] at exactly the triples (u, v, w)
    whose Richardson class R of (w0 u, v) is nonzero at w0 x: cross-paths
    fails there and nowhere else, and box_product on such a pair raises.
    The expansion path reads the cell classes, not the column index, so the
    check is independent of it.  The last box_product runs on a Richardson
    calculator of its own, so the triple sums it keeps leave the shared
    stack's rows as they were."""
    stack = engines("B", 2)
    g, rich = stack.group, stack.rich
    x, w = g.parse("s1 s2"), g.parse("s1 s2 s1")
    columns = list(stack.csm.cell_columns())
    ws, cs = columns[x.index]
    columns[x.index] = ws, tuple(c + (wi == w.index) for wi, c in zip(ws, cs))
    assert columns != stack.csm.cell_columns()
    expected = []
    for u in g:
        for v in g:
            r = rich.csm_richardson(g.w0_times(u), v).coeffs.get(g.w0_times(x).index, 0)
            if r:
                chi = stack.box.chi(u, v, w)
                moved = chi + parity_sign(w.length - u.length - v.length) * r
                expected.append({"check": "chi-paths", "u": str(u), "v": str(v), "w": str(w),
                                 "error": f"triple-sum {moved}, expansion {chi}"})
    assert 0 < len(expected) < len(g.elements) ** 2

    monkeypatch.setattr(CsmCalculator, "cell_columns", lambda self, reach=None: columns)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--type", "B", "--rank", "2", "--suite", "cross-paths",
                     "--output", str(out)]) == 2
    suite = json.loads(out.read_text())["suites"]["cross-paths"]
    assert suite["status"] == "FAIL"
    assert suite["hard_failure_count"] == len(expected)
    assert suite["hard_failures"] == expected

    u, v = g.parse(expected[0]["u"]), g.parse(expected[0]["v"])
    assert w.length >= u.length + v.length
    with pytest.raises(PathDisagreement, match=rf"^chi\({u}, {v}, {w}\): triple-sum -?\d+, "
                                               r"expansion -?\d+$"):
        BoxCalculator(RichardsonCalculator(stack.csm)).box_product(u, v)


def test_cross_paths_builds_only_the_segre_classes_it_reads():
    """A serial cross-paths sweep up to length 1 on B3 builds seg(cell w0 x)
    for the filtered x alone: the mirror products read seg(cell w0 v) and
    the Richardson rows seg(cell w0 u), and no chi path reads a Segre class
    of its own."""
    stack = build_engines("B", 3)
    materialize_tables(stack)
    _run_suites(stack, ["cross-paths"], 1, 1)
    g = stack.group
    assert set(stack.csm._segre_cells) == {g._w0[x.index] for x in g if x.length <= 1}


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("C", 3), ("G", 2),
                                 pytest.param(("A", 4), marks=pytest.mark.long)],
                         ids=lambda key: f"{key[0]}{key[1]}")
def test_triple_sum_product_is_the_richardson_class(engines, key):
    """The triple sum's own product, T_u . csm(cell w0 v) with T_u times
    sum (-1)^(l(u) - l(u1)) c_u1 eps^u1 and c the coefficients of
    csm(cell w0 u), is the Richardson class of (w0 u, v) on every pair."""
    stack = engines(*key)
    g, csm, rich = stack.group, stack.csm, stack.rich
    for u in g:
        w0u = g.w0_times(u)
        signed = {u1: parity_sign(u.length - g._lengths[u1]) * c
                  for u1, c in csm.csm_schubert_cell(w0u).coeffs.items()}
        times_t = Multiplier(stack.coh, CohomologyClass(g, signed))
        for v in g:
            assert times_t(csm.csm_schubert_cell(g.w0_times(v))) == rich.csm_richardson(w0u, v)


def test_triple_sum_makes_no_product(engines, monkeypatch):
    """With the pair's Richardson class and every cell class in hand, the
    triple-sum path multiplies nothing and still agrees with the expansion."""
    stack = engines("B", 2)
    box, g = stack.box, stack.group
    for w in g:
        stack.csm.csm_schubert_cell(w)

    def refuse(self, b):
        raise AssertionError("the triple-sum path made a product")

    for u in g:
        for v in g:
            expected = [box.chi_via_richardson(u, v, w) for w in g]
            with monkeypatch.context() as m:
                m.setattr(Multiplier, "__call__", refuse)
                assert [box.chi_via_triple_sum(u, v, w) for w in g] == expected


def test_box_product_class_is_the_bilinear_extension(engines):
    """On basis classes box_product_class is box_product; on a two-term
    class it is linear in either argument."""
    box = _box(engines, "B", 2)
    g, coh = box.group, box.coh
    for u in g:
        for v in g:
            assert box.box_product_class(coh.schubert_class(u), coh.schubert_class(v)) \
                == box.box_product(u, v)
    a, b = g.parse("s1"), g.parse("s2 s1")
    mixed = 2 * coh.schubert_class(a) - 3 * coh.schubert_class(b)
    for v in g:
        basis = coh.schubert_class(v)
        expected = 2 * box.box_product(a, v) - 3 * box.box_product(b, v)
        assert box.box_product_class(mixed, basis) == expected
        expected = 2 * box.box_product(v, a) - 3 * box.box_product(v, b)
        assert box.box_product_class(basis, mixed) == expected


def _class_level_associativity(stack, max_length, monkeypatch, perturb=None):
    """The class-level associativity count, each triple through
    box_product_class, on a BoxCalculator of its own whose box_product is
    memoized (and perturbed when asked)."""
    box = BoxCalculator(stack.rich)
    real, memo = box.box_product, {}

    def memoized(u, v):
        key = (u.index, v.index)
        if key not in memo:
            memo[key] = (perturb or real)(u, v)
        return memo[key]

    monkeypatch.setattr(box, "box_product", memoized)
    coh = box.coh
    els = [w for w in box.group if max_length is None or w.length <= max_length]
    failures = 0
    for u in els:
        for v in els:
            left_uv = box.box_product(u, v)
            for w in els:
                lhs = box.box_product_class(left_uv, coh.schubert_class(w))
                rhs = box.box_product_class(coh.schubert_class(u), box.box_product(v, w))
                failures += lhs != rhs
    return failures, len(els) ** 3


def _perturbed(stack, monkeypatch, max_length, change=lambda out: 2 * out):
    """A BoxCalculator whose rows of (s1, s2) and (s2, s1) are changed alike
    (doubled unless told otherwise), so that the product stays commutative,
    and the class-level associativity count of that product."""
    g = stack.group
    pair = {g.simple_reflection(1), g.simple_reflection(2)}

    def perturbed_product():
        real = BoxCalculator(stack.rich).box_product
        return lambda u, v: change(real(u, v)) if {u, v} == pair else real(u, v)

    oracle = _class_level_associativity(stack, max_length, monkeypatch, perturbed_product())
    box = BoxCalculator(stack.rich)
    monkeypatch.setattr(box, "box_product", perturbed_product())
    return box, oracle


@pytest.mark.parametrize("key,max_length", [
    (("A", 3), None), (("A", 3), 2), (("B", 2), None), (("B", 2), 1),
    (("G", 2), None), (("G", 2), 1), (("B", 3), None)])
def test_associativity_matches_class_level_oracle(engines, monkeypatch, key, max_length):
    """The index-space count equals the class-level one, as given and with
    one pair of swapped box rows perturbed, where both must see failures.
    The index-space count computes only the rows (x, y) with x <= y and
    halves the triple loop by commutativity, so the perturbation keeps the
    product commutative.  G2 is the rank-2 type with a triple bond, and
    unfiltered B3 is the shape of the b3-triples bench workload."""
    stack = engines(*key)
    status = BoxCalculator(stack.rich).associativity_status(max_length)
    assert status == _class_level_associativity(stack, max_length, monkeypatch)
    assert status[0] == 0

    box, oracle = _perturbed(stack, monkeypatch, max_length)
    status = box.associativity_status(max_length)
    assert status == oracle
    assert status[0] > 0


@pytest.mark.parametrize("key", [("A", 3), ("B", 2)])
def test_packed_associativity_is_exact_beyond_a_machine_word(engines, monkeypatch, key):
    """With one swapped pair of box rows scaled by 2^70, every packed slot
    holds values beyond any machine word; the slot width follows the
    entries, so the count still equals the class-level oracle."""
    box, oracle = _perturbed(engines(*key), monkeypatch, None, lambda out: 2 ** 70 * out)
    widths = []
    monkeypatch.setattr(boxproduct, "_slot_bits",
                        lambda l1, big: widths.append(_slot_bits(l1, big)) or widths[-1])
    assert box.associativity_status() == oracle
    assert oracle[0] > 0
    assert widths and widths[0] > 70


@pytest.mark.parametrize("key", [("A", 3), ("B", 2)])
def test_narrow_packing_slot_misses_failures(engines, monkeypatch, key):
    """A slot too narrow for its table lets one slot carry into the next.
    One swapped pair of box rows gains 2^70 eps^a - eps^(a+1), a the first
    element of length 2, so it stays within degree; box(e, e) reaches every
    element, so slots are element indices, and at 70 bits the gain packs to
    0: the count misses failures the class-level oracle sees, while the
    shipped width, wider than 70 bits here, agrees with the oracle."""
    stack = engines(*key)
    g = stack.group
    assert len(BoxCalculator(stack.rich).box_product(g.identity, g.identity).coeffs) == g.order
    a = next(w.index for w in g if w.length == 2)
    bump = CohomologyClass(g, {a: 2 ** 70, a + 1: -1})
    box, oracle = _perturbed(stack, monkeypatch, None, lambda out: out + bump)
    assert box.associativity_status() == oracle
    assert oracle[0] > 0
    monkeypatch.setattr(boxproduct, "_slot_bits", lambda l1, big: 70)
    assert box.associativity_status()[0] < oracle[0]


def test_associativity_builds_no_degree_empty_row(engines, monkeypatch):
    """u box v keeps only w of length at least l(u) + l(v), so a box row
    (x, y) with l(x) + l(y) > N is empty: associativity stores it empty
    without calling box_product, and still counts every triple of A3."""
    stack = engines("A", 3)
    box, g = BoxCalculator(stack.rich), stack.group
    real, calls = box.box_product, []

    def counted(x, y):
        calls.append(x.length + y.length)
        return real(x, y)

    monkeypatch.setattr(box, "box_product", counted)
    assert box.associativity_status() == (0, g.order ** 3)
    assert calls and max(calls) == g.num_positive
    assert not real(g.longest, g.simple_reflection(1)).coeffs


def test_associativity_holds_no_box_rows(engines):
    """The box rows associativity reads live only inside the call: the
    calculator keeps no state of its own, the Richardson calculator one
    row, and the engine no triple-integral memo."""
    stack = engines("B", 2)
    box = BoxCalculator(stack.rich)
    assert box.associativity_status() == (0, stack.group.order ** 3)
    assert set(vars(box)) == {"rich", "csm", "coh", "group"}
    assert len(stack.rich._rows) == 1
    assert set(vars(stack.coh)) == {"group", "_alpha", "_table"}
