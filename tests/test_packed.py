"""A sweep unit's packed pass (``verify._packed_pairs``) against the per-pair
record steps it stands in for: the same tallies on every unit, every slot of
the packed products equal to the class made alone, the classes and triple
sums it unpacks for the chi rows equal to theirs, the per-pair steps' report
where a mask fails, a slot width that tells cancelling faults apart and
bounds the products on every unit row, and a pack cut to its first slots
that reads them exactly."""

import json
from dataclasses import replace

import pytest

import csmverify.richardson as richardson_module
import csmverify.verify as verify_mod
from csmverify.cohomology import _pack, _slot_bits
from csmverify.verify import SUITE_NAMES, build_engines, materialize_tables, run_verification

PAIR_SUITES = ["theorem-invariants", "conjB", "conjC"]
CHI_SUITES = [["conjD"], ["cross-paths"], ["conjD", "cross-paths"]]


def _check_units(series, rank, names, max_length, monkeypatch):
    """Run the named suites on the group through _run_suites, and check
    each unit there, with the pack the run built: its tallies equal those
    of the same unit read pair by pair; its packed pass runs on every unit
    that computes a pair of any kind, and holds; every slot of A and of C
    that a computed pair reads is that pair's class, resp. its lemma-E
    product L_u . seg(w0 v), made alone, and every slot of T its unsigned
    triple sum; and the classes and sums the pass leaves in the row record,
    before any step runs, are those of the chi rows' pairs, equal to the
    ones the chi rows make pair by pair."""
    stack = build_engines(series, rank)
    materialize_tables(stack)
    g, rich = stack.group, stack.rich
    els, w0, lengths = g.elements, g._w0, g._lengths
    real_unit, real_pass = verify_mod._sweep_unit, verify_mod._packed_pairs
    passes, units = [], []      # units: those that compute a pair of any kind
    held = {}                   # by unit: the row's classes and sums after its pass

    def packed_pass(engines, sweep, r, pairs):
        ok = real_pass(engines, sweep, r, pairs)
        passes.append(ok)
        rec = rich._rows[r]
        held[r] = dict(rec[2]), dict(rec[4])
        return ok

    def unit(engines, sweep, r):
        got = real_unit(engines, sweep, r)
        pack = sweep.pack
        chi = [v for v in sweep.filtered
               if True in sweep.kinds and sweep.copies((r, v), True) is not None]
        own = [v for v in sweep.filtered
               if False in sweep.kinds and sweep.copies((r, v), False) is not None]
        rich._rows.clear()
        plain = real_unit(engines, replace(sweep, pack=None), r)
        assert {n: t.to_dict() for n, t in got.items()} \
            == {n: t.to_dict() for n, t in plain.items()}, r
        if pack is not None and (own or chi):
            unpacked = held[r]
            assert set(unpacked[0]) == set(chi)
            assert set(unpacked[1]) == (set(chi) if pack.reach is not None else set())
            a, _, c, t = rich.packed_products(r, pack, True)
            for v in {*own, *chi}:
                j, u, x = pack.slot[v], els[r], els[v]
                cls = rich.csm_richardson(u, x)
                assert {y: val for y, z in a.items() if (val := pack.read(z, j))} == cls.coeffs
                lemma = rich._row(r)[0](stack.csm.segre_opposite_cell(x))
                assert {w: val for w, z in c.items() if (val := pack.read(z, j))} \
                    == lemma.coeffs
                if pack.reach is not None:
                    base = u.length + x.length
                    signed = {w0[w]: (-1) ** (base - lengths[w0[w]]) * val
                              for w, z in t.items() if (val := pack.read(z, j))}
                    assert signed == rich._triple_sum(u, x, pack.reach)
                if v in chi:
                    assert unpacked[0][v] == cls
                    if pack.reach is not None:
                        assert unpacked[1][v] == rich._triple_sum(u, x)
            units.append(r)
        return got

    monkeypatch.setattr(verify_mod, "_packed_pairs", packed_pass)
    monkeypatch.setattr(verify_mod, "_sweep_unit", unit)
    results = verify_mod._run_suites(stack, names, max_length, 1)
    assert all(r.status == "PASS" for r in results.values())
    assert units and all(passes) and len(passes) == len(units)


@pytest.mark.parametrize("max_length", [None, 2], ids=["all-lengths", "max-length-2"])
@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("G", 2), ("C", 3), ("D", 4)],
                         ids=["A3", "B3", "G2", "C3", "D4"])
def test_packed_units_equal_per_pair_pair_suites(series, rank, max_length, monkeypatch):
    """The pair suites, with and without a length filter; D4 has sigma
    copies under its S3."""
    _check_units(series, rank, PAIR_SUITES, max_length, monkeypatch)


@pytest.mark.parametrize("series,rank,max_length", [
    ("A", 3, None), ("B", 3, None), ("G", 2, None), ("C", 3, 2), ("D", 4, 1)],
    ids=["A3", "B3", "G2", "C3-2", "D4-1"])
def test_packed_units_equal_per_pair_every_suite(series, rank, max_length, monkeypatch):
    """Every suite: the chi rows read the classes and triple sums that the
    packed pass unpacks."""
    _check_units(series, rank, SUITE_NAMES, max_length, monkeypatch)


@pytest.mark.parametrize("names", CHI_SUITES, ids=["conjD", "cross-paths", "conjD-cross-paths"])
@pytest.mark.parametrize("series,rank,max_length", [
    ("A", 3, None), ("B", 3, None), ("G", 2, None), ("C", 3, 2), ("D", 4, 1)],
    ids=["A3", "B3", "G2", "C3-2", "D4-1"])
def test_packed_units_equal_per_pair_chi_suites(series, rank, max_length, names, monkeypatch):
    """The chi suites alone: every unit computes chi pairs only, whose row
    w0*u lies outside a length filter, and its packed pass checks the
    mirror, parity and reach and hands the chi rows their classes and
    triple sums."""
    _check_units(series, rank, names, max_length, monkeypatch)


@pytest.mark.long
@pytest.mark.parametrize("series,rank,names", [
    ("A", 4, PAIR_SUITES), ("B", 4, PAIR_SUITES), ("A", 4, ["conjD", "cross-paths"])],
    ids=["A4", "B4", "A4-chi"])
def test_packed_units_equal_per_pair_long(series, rank, names, monkeypatch):
    """As above, the exhaustive pair suites of A4 and B4, and the chi
    suites of A4."""
    _check_units(series, rank, names, None, monkeypatch)


def test_pack_width_bounds_every_unit_row(monkeypatch):
    """D4 conjD --max-length 1: each unit's row is w0*u for a filtered u,
    a long element outside the filter.  The slot width k of the run's pack
    must bound the products on those rows, by the L1 norms of their seg
    and csm cell classes; bounded over the filtered rows alone it would be
    narrower."""
    stack = build_engines("D", 4)
    materialize_tables(stack)
    real, sweeps = verify_mod._sweep_unit, []

    def unit(engines, sweep, r):
        sweeps.append(sweep)
        return real(engines, sweep, r)

    monkeypatch.setattr(verify_mod, "_sweep_unit", unit)
    assert verify_mod._run_suites(stack, ["conjD"], 1, 1)["conjD"].status == "PASS"
    sweep = sweeps[0]
    pack, units, filtered = sweep.pack, sweep.units(), sweep.filtered
    assert not set(units) & set(filtered)
    csm, els = stack.csm, stack.group.elements

    def l1(classes, xs):
        return max(sum(map(abs, c(els[x]).coeffs.values())) for x in xs for c in classes)

    l1_in = l1((csm.csm_opposite_cell, csm.segre_opposite_cell), filtered)
    big = stack.group.order * max(max(map(abs, cs)) for _, cs in csm.cell_columns(pack.reach)
                                  if cs)
    rows = (csm.segre_schubert_cell, csm.csm_schubert_cell)
    need = _slot_bits(l1_in * l1(rows, units) * stack.coh.max_constant, big)
    assert pack.k >= need
    assert _slot_bits(l1_in * l1(rows, filtered) * stack.coh.max_constant, big) < need


def _per_pair(monkeypatch):
    """Send every unit to its per-pair steps, as if each packed pass failed."""
    monkeypatch.setattr(verify_mod, "_packed_pairs", lambda *args: False)


def _report(series, rank, suites, max_length=None) -> dict:
    report = json.loads(run_verification(series, rank, suites=suites,
                                         max_length=max_length).to_json())
    report.pop("timings")
    return report


def test_planted_negative_coefficient_reads_as_per_pair(class_fault, monkeypatch):
    """-1 [X_s1] planted in the class of (s1 s2, s1) on A3, and in its mirror
    product, a term of the pair's parity: conjB's mask fails in that unit,
    which then runs pair by pair, so every suite reports what the per-pair
    steps report: the witnesses at the pair, its sigma copy (s3 s2, s3)
    and the partners (w0*v, w0*u) of both."""
    g = build_engines("A", 3).group
    class_fault("s1 s2", "s1", coeff=-1, term=str(g.w0_times(g.parse("s1"))))
    packed = _report("A", 3, PAIR_SUITES)
    assert packed["exit_code"] == 1
    witnesses = set()
    for u, v, w in (("s1 s2", "s1", "s1"), ("s3 s2", "s3", "s3")):
        partner = (g.w0_times(g.parse(v)), g.w0_times(g.parse(u)))
        witnesses |= {(u, v, w), (*map(str, partner), w)}
    assert {(e["u"], e["v"], e["w"]) for e in packed["suites"]["conjB"]["violations"]
            if e["value"] == -1} == witnesses
    _per_pair(monkeypatch)
    assert _report("A", 3, PAIR_SUITES) == packed


def test_packed_pass_fails_only_where_a_mask_does(class_fault, monkeypatch):
    """A fault of the pair's parity in one class, given to its mirror
    product too, is seen by no mask, and the run passes; an odd-parity term
    is seen by the parity mask of its unit alone, which the per-pair steps
    then report as they would."""
    real, units = verify_mod._packed_pairs, {}

    def spied(engines, sweep, r, pairs):
        units[r] = real(engines, sweep, r, pairs)
        return units[r]

    g = build_engines("A", 2).group
    monkeypatch.setattr(verify_mod, "_packed_pairs", spied)
    class_fault("s1", "e", coeff=2, term=str(g.w0_times(g.parse("s1"))))
    assert _report("A", 2, PAIR_SUITES)["exit_code"] == 0
    assert units and all(units.values())
    monkeypatch.undo()
    units.clear()
    monkeypatch.setattr(verify_mod, "_packed_pairs", spied)
    class_fault("s1", "e")
    packed = _report("A", 2, PAIR_SUITES)
    assert packed["exit_code"] == 2
    s1 = g.parse("s1").index
    assert [r for r, held in units.items() if not held] == [s1]
    _per_pair(monkeypatch)
    assert _report("A", 2, PAIR_SUITES) == packed


def test_chi_pair_fault_reads_as_per_pair(class_fault, monkeypatch):
    """B3 cross-paths alone: eps^w0 planted in the class of (s1 s2, s1),
    which the chi row of (w0 s1 s2, s1) reads, without its mirror
    product.  That unit's mirror mask fails and it runs pair by pair, the
    others hold; cross-paths reports chi-paths at every w of the pair and
    of its swap (s1, w0 s1 s2), as a run with no packed pass does."""
    g = build_engines("B", 3).group
    real, units = verify_mod._packed_pairs, {}

    def spied(engines, sweep, r, pairs):
        units[r] = real(engines, sweep, r, pairs)
        return units[r]

    monkeypatch.setattr(verify_mod, "_packed_pairs", spied)
    class_fault("s1 s2", "s1", mirror=False)
    packed = _report("B", 3, ["cross-paths"])
    assert packed["exit_code"] == 2
    r = g.parse("s1 s2").index
    assert [x for x, ok in units.items() if not ok] == [r]
    u = str(g.w0_times(g.parse("s1 s2")))
    hard = packed["suites"]["cross-paths"]["hard_failures"]
    assert {e["check"] for e in hard} == {"chi-paths"}
    every = {str(w) for w in g.elements}
    for pair in ((u, "s1"), ("s1", u)):
        assert {e["w"] for e in hard if (e["u"], e["v"]) == pair} == every
    _per_pair(monkeypatch)
    assert _report("B", 3, ["cross-paths"]) == packed


def test_one_bit_narrower_pack_passes_cancelling_faults(class_fault, monkeypatch):
    """On A2, with the slot width k that ``pack_cells`` gives a conjB run,
    the class of (e, e) gaining 2^(k-1) eps^w0 and the class of (e, s1)
    losing eps^w0, both without their mirror products, fail the mirror
    comparison (slots 0 and 1 of row e's packed int): the unit runs pair
    by pair and reports both pairs and their copies.  One bit narrower,
    k - 1, the two faults cancel in the packed int, 2^(k-1) 2^(0 (k-1))
    against 2^(1 (k-1)), and the run passes with both classes wrong."""
    stack = build_engines("A", 2)
    materialize_tables(stack)
    g, every = stack.group, list(range(stack.group.order))
    stack.csm.segre_cells([*every])
    pack = stack.rich.pack_cells(every, every, None)
    k, e, s1 = pack.k, g.identity.index, g.parse("s1").index
    assert (pack.slot[e], pack.slot[s1]) == (0, 1)
    class_fault("e", "e", coeff=2 ** (k - 1), mirror=False)
    class_fault("e", "s1", coeff=-1, mirror=False)
    report = _report("A", 2, ["conjB"])
    assert report["exit_code"] == 2
    assert {(f["u"], f["v"]) for f in report["suites"]["conjB"]["hard_failures"]} == {
        ("e", "e"), ("e", "s1"), ("s1 s2 s1", "s1 s2 s1"), ("s2 s1", "s1 s2 s1"),
        ("e", "s2"), ("s1 s2", "s1 s2 s1")}
    monkeypatch.setattr(richardson_module, "_slot_bits", lambda l1, big: k - 1)
    narrow = _report("A", 2, ["conjB"])
    assert narrow["exit_code"] == 0
    assert narrow["suites"]["conjB"]["status"] == "PASS"


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3)], ids=["A3", "B3"])
def test_prefix_is_the_pack_of_the_first_slots(series, rank):
    """A pack cut to its first m slots equals the pack of the first m
    classes alone, for every m: the Segre classes, whose signs alternate,
    put negative slots below the cut, which must not borrow from it."""
    stack = build_engines(series, rank)
    materialize_tables(stack)
    order, csm = stack.group.order, stack.csm
    every = list(range(order))
    pack = stack.rich.pack_cells(every, every, None)
    assert pack.prefix(order) is pack
    seg = [csm.segre_opposite_cell(stack.group.elements[v]).coeffs for v in every]
    assert any(c < 0 for cls in seg for c in cls.values())
    for m in range(1, order + 1):
        cut = pack.prefix(m)
        assert cut.seg == {y: x for y, x in enumerate(_pack(seg[:m], pack.k, order)) if x}
        assert cut.slot == {v: j for v, j in pack.slot.items() if j < m}
        assert all(cut.read(x, j) == pack.read(pack.csm[y], j)
                   for y, x in cut.csm.items() for j in range(m))
