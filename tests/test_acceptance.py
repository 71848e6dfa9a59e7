"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion constructs its calculators from scratch inside the timed
block, so the reported time is the honest cold cost (run with -s to see
the lines).  Tolerances are exact integer equality throughout; the stated
runtime bounds are asserted.  The desk-scale sweeps (the 120x120 pair sweep
on A4 and the exhaustive rank-3 box tables) carry the ``long`` marker and
run with ``pytest -m long``.
"""

import time
from contextlib import contextmanager

import pytest

from csmverify.cache import TableCache, chunks_checksum, structure_chunks
from csmverify.verify import build_engines, materialize_tables, run_suite, run_verification
from payload_oracle import structure_payload


@contextmanager
def criterion(number, description, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def _fresh(series, rank):
    stack = build_engines(series, rank)
    materialize_tables(stack)
    return stack


def test_criterion_01_sl2_box_example():
    with criterion(1, "SL2 deformed product: eps^e [] eps^e = eps^e - eps^s", budget_s=1.0):
        stack = _fresh("A", 1)
        g = stack.group
        e, s = g.identity, g.simple_reflection(1)
        assert stack.box.box_product(e, e) == stack.coh.from_dict({e: 1, s: -1})


def test_criterion_02_cell_class_invariants():
    with criterion(2, "cell-class invariants + Segre twist on A2 B2 G2 A3", budget_s=10.0):
        for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
            stack = _fresh(*key)
            g = stack.group
            for u in g:
                cell = stack.csm.csm_schubert_cell(u)
                dual = g.w0_times(u)
                assert cell.coefficient(dual) == 1
                assert cell.coefficient(g.longest) == 1
                for w, c in cell.coeffs.items():
                    assert c >= 0 and g.bruhat_leq(dual, g.elements[w])
                seg = stack.csm.segre_schubert_cell(u)
                for w, c in seg.coeffs.items():
                    expect = cell.coeffs.get(w, 0)
                    if (g._lengths[w] - dual.length) % 2:
                        expect = -expect
                    assert c == expect


def test_criterion_03_parity_all_pairs():
    with criterion(3, "coefficient parity on all |W|^2 pairs of A2 B2 G2 A3", budget_s=60.0):
        for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
            stack = _fresh(*key)
            g = stack.group
            checked = 0
            for u in g:
                for v in g:
                    stack.rich.richardson_coeffs(u, v)
                    checked += 1
            assert checked == g.order ** 2


def test_criterion_04_nonnegativity_rank2_and_a3():
    with criterion(4, "nonnegativity sweep PASS on rank-2 groups and A3"):
        for key in [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3)]:
            stack = _fresh(*key)
            result = run_suite(stack, "conjB")
            assert result.status == "PASS"
            assert result.instances == stack.group.order ** 2
            assert result.violations == []


def test_criterion_05_three_path_agreement():
    with criterion(5, "three-path chi agreement on all triples of A1 A2 B2", budget_s=300.0):
        for key in [("A", 1), ("A", 2), ("B", 2)]:
            stack = _fresh(*key)
            result = run_suite(stack, "cross-paths")
            assert result.status == "PASS"
            assert result.instances == stack.group.order ** 3
            assert result.hard_failure_count == 0


def test_criterion_06_graded_box_is_cup():
    with criterion(6, "graded part of the deformed product equals cup on A2 B2"):
        for key in [("A", 2), ("B", 2)]:
            stack = _fresh(*key)
            g = stack.group
            for u in g:
                for v in g:
                    for w in g.elements_of_length(u.length + v.length):
                        cup_c = stack.coh.structure_constants_idx(
                            u.index, v.index).get(w.index, 0)
                        assert stack.box.chi(u, v, w) == cup_c


def test_criterion_07_twisted_segre_signs_rank_le_3():
    with criterion(7, "twisted Segre sign condition on all pairs, rank <= 3"):
        for key in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2),
                    ("A", 3), ("B", 3), ("C", 3)]:
            stack = _fresh(*key)
            g = stack.group
            for u in g:
                for v in g:
                    stack.rich.verify_lemma_e(u, v)  # raises on violation


def test_criterion_08_completeness():
    with criterion(8, "cell classes sum to the tangent Chern class on A2 B2 G2 A3"):
        for key, order in [(("A", 2), 6), (("B", 2), 8), (("G", 2), 12), (("A", 3), 24)]:
            stack = _fresh(*key)
            assert stack.csm.completeness_check()
            assert stack.coh.integrate(stack.csm.tangent_chern()) == order


def test_criterion_09_implication_meta_check():
    with criterion(9, "nonnegativity PASS coexists with sign-pattern PASS (meta)"):
        for key in [("A", 1), ("A", 2), ("B", 2)]:
            report = run_verification(*key, suites=["conjB", "conjC", "conjD"])
            assert report.exit_code == 0
            assert report.meta_checks["b-implies-c"] == "PASS"
            assert report.meta_checks["b-implies-d"] == "PASS"
            assert report.suites["conjB"].status == "PASS"
            assert report.suites["conjC"].status == "PASS"
            assert report.suites["conjD"].status == "PASS"


def test_criterion_10_property_suites(tmp_path):
    with criterion(10, "operator, order, duality, and cache property suites, rank <= 3"):
        for key in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)]:
            stack = _fresh(*key)
            g, csm, coh = stack.group, stack.csm, stack.coh
            # operator quadratic + braid on every basis vector
            braid_order = {0: 2, 1: 3, 2: 4, 3: 6}
            C = g.datum.matrix
            for i in range(1, g.rank + 1):
                for w in g:
                    basis = coh.schubert_class(w)
                    assert csm.dl_operator(i, csm.dl_operator(i, basis)) == basis
                    assert not csm.bgg_A(i, csm.bgg_A(i, basis))
                for j in range(i + 1, g.rank + 1):
                    m = braid_order[C[i - 1][j - 1] * C[j - 1][i - 1]]
                    wa = [(i if k % 2 == 0 else j) for k in range(m)]
                    wb = [(j if k % 2 == 0 else i) for k in range(m)]
                    for w in g:
                        a = b = coh.schubert_class(w)
                        for k in wa:
                            a = csm.dl_operator(k, a)
                        for k in wb:
                            b = csm.dl_operator(k, b)
                        assert a == b
            # Bruhat order equals the subword oracle
            for w in g:
                below = g.subword_products(w)
                for v in g:
                    assert g.bruhat_leq(v, w) == (v.index in below)
            # Poincare pairing is the anti-diagonal identity
            for u in g:
                for v in g.elements_of_length(g.num_positive - u.length):
                    got = coh.integrate(coh.cup(coh.schubert_class(u),
                                                coh.schubert_class(v)))
                    assert got == (1 if v == g.w0_times(u) else 0)
        # cache round-trip byte identity
        cache = TableCache(tmp_path)
        stack = _fresh("B", 2)
        checksum = chunks_checksum(structure_chunks(stack.coh))
        p1 = cache.store("B", 2, "structure", structure_chunks(stack.coh), checksum)
        first = p1.read_bytes()
        assert cache.load("B", 2, "structure") == structure_payload(stack.coh)
        p2 = cache.store("B", 2, "structure", structure_chunks(stack.coh), checksum)
        assert p2.read_bytes() == first


# -- long suite ------------------------------------------------------------------------

@pytest.mark.long
def test_long_a4_nonnegativity_sweep():
    """The 120x120 pair sweep on A4; budget overruns are reported."""
    budget_s = 3600.0
    t0 = time.perf_counter()
    stack = _fresh("A", 4)
    result_b = run_suite(stack, "conjB")
    result_c = run_suite(stack, "conjC")
    elapsed = time.perf_counter() - t0
    over = "OVER BUDGET" if elapsed > budget_s else "within budget"
    print(f"A4 sweep: {elapsed:.1f}s of {budget_s:.0f}s allowed ({over})")
    assert result_b.status == "PASS"
    assert result_b.instances == 14400
    assert result_b.violations == []
    assert result_c.status == "PASS"
    assert result_c.violations == []


@pytest.mark.long
def test_long_a4_theorem_invariants():
    stack = _fresh("A", 4)
    result = run_suite(stack, "theorem-invariants")
    assert result.status == "PASS"


@pytest.mark.long
def test_long_rank3_cross_paths_exhaustive():
    """Exhaustive three-path agreement for G2 and A3."""
    for key in [("G", 2), ("A", 3)]:
        stack = _fresh(*key)
        result = run_suite(stack, "cross-paths")
        assert result.status == "PASS"
        assert result.instances == stack.group.order ** 3


@pytest.mark.long
def test_long_a4_box_sample():
    """Filtered box sweep on A4 (u, v of length <= 2), all three paths."""
    stack = _fresh("A", 4)
    result = run_suite(stack, "cross-paths", max_length=2)
    assert result.status == "PASS"
    short = len([w for w in stack.group if w.length <= 2])
    assert result.instances == short ** 2 * stack.group.order
