import json

import pytest

from csmverify import cli
from csmverify.cohomology import CohomologyClass
from csmverify.errors import (
    GroupMismatch,
    LemmaViolation,
    MirrorMismatch,
    ParityViolation,
    SingularSystem,
)
from csmverify.richardson import RichardsonCalculator
from csmverify.verify import build_engines, materialize_tables


def _rich(engines, series, rank):
    return engines(series, rank).rich


# -- Richardson classes -------------------------------------------------------------

def test_richardson_examples_a1(engines):
    rich = _rich(engines, "A", 1)
    g = rich.group
    s, e = g.simple_reflection(1), g.identity
    coh = rich.coh
    assert rich.csm_richardson(s, e) == coh.schubert_class(e)
    assert rich.csm_richardson(s, s) == coh.schubert_class(s)
    assert rich.csm_richardson(e, e) == coh.schubert_class(s)
    assert not rich.csm_richardson(e, s)  # empty cell


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2)])
def test_empty_cells_vanish(engines, key):
    rich = _rich(engines, *key)
    g = rich.group
    for u in g:
        for v in g:
            if not g.bruhat_leq(v, u):
                assert not rich.csm_richardson(u, v)


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2)])
def test_diagonal_is_point_class(engines, key):
    rich = _rich(engines, *key)
    g = rich.group
    point = rich.coh.schubert_class(g.longest)
    for u in g:
        assert rich.csm_richardson(u, u) == point


def test_mirror_agreement_is_enforced(engines, monkeypatch):
    rich = _rich(engines, "A", 2)
    g = rich.group
    csm = rich.csm
    real = csm.segre_opposite_cell

    def corrupted(v):
        out = real(v)
        return out + rich.coh.schubert_class(g.longest)

    monkeypatch.setattr(csm, "segre_opposite_cell", corrupted)
    rich._rows.clear()
    with pytest.raises(MirrorMismatch):
        rich.csm_richardson(g.longest, g.identity)
    monkeypatch.undo()
    rich._rows.clear()


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2)])
def test_partner_pairs_have_equal_classes(key):
    """w0 maps the Richardson cell of (u, v) onto that of (w0*v, w0*u) and
    acts trivially on cohomology, so the two classes are equal; the pair
    suites copy a computed pair's entries to its partner on this.  Every
    class is computed on a fresh calculator, row by row."""
    stack = build_engines(*key)
    materialize_tables(stack)
    g, rich = stack.group, RichardsonCalculator(stack.csm)
    classes = {(u, v): rich.csm_richardson(u, v) for u in g for v in g}
    for (u, v), cls in classes.items():
        assert cls == classes[g.w0_times(v), g.w0_times(u)], (u, v)


# -- row operators ---------------------------------------------------------------------

@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2)])
def test_row_operators_match_double_loop(engines, product_oracle, key):
    """L_u . csm(w0 v), M_u . seg(w0 v) and L_u . seg(w0 v) on every pair."""
    stack = engines(*key)
    rich, csm, coh = stack.rich, stack.csm, stack.coh
    for u in rich.group:
        seg_u, csm_u = csm.segre_schubert_cell(u), csm.csm_schubert_cell(u)
        times_seg, times_csm, _, _, _ = rich._row(u.index)
        for v in rich.group:
            seg_v, csm_v = csm.segre_opposite_cell(v), csm.csm_opposite_cell(v)
            richardson = product_oracle(coh, seg_u, csm_v)
            assert times_seg(csm_v) == richardson == rich.csm_richardson(u, v)
            assert times_csm(seg_v) == product_oracle(coh, csm_u, seg_v)
            segre = product_oracle(coh, seg_u, seg_v)
            assert times_seg(seg_v) == segre
            assert rich.verify_lemma_e(u, v) == csm.phi_involution(segre).coeffs


def test_second_row_drops_the_first(engines):
    """A row record holds L_u, M_u and the row's classes, expansions and
    triple sums; asking for a second row drops the held one, whatever it
    holds."""
    rich = _rich(engines, "A", 3)
    g = rich.group
    rich._rows.clear()
    for v in g:
        rich.csm_basis_coeffs(g.elements[3], v)
        rich._expansion(g.elements[3], v)
    assert list(rich._rows) == [3]
    _, _, classes, expansions, sums = rich._rows[3]
    assert len(classes) == len(expansions) == len(sums) == g.order
    rich.verify_lemma_e(g.elements[g._w0[3]], g.identity)
    assert list(rich._rows) == [g._w0[3]]
    assert rich._rows[g._w0[3]][2:] == ({}, {}, {})


def test_corrupt_mirror_operator_is_caught(monkeypatch, tmp_path, capsys):
    """A wrong M_u fails every Richardson class: the mirror check is not
    vacuous, in process or through the command."""
    real = RichardsonCalculator._row

    def corrupted(self, ui):
        times_seg, times_csm, *held = real(self, ui)
        off = CohomologyClass(self.group, {self.group.longest.index: 7})
        # every mirror product M_u . seg(w0 v) gains 7 eps^{w0}
        return times_seg, lambda b: times_csm(b) + off, *held

    monkeypatch.setattr(RichardsonCalculator, "_row", corrupted)
    stack = build_engines("A", 2)
    materialize_tables(stack)
    g = stack.group
    with pytest.raises(MirrorMismatch):
        stack.rich.csm_richardson(g.longest, g.identity)

    out = tmp_path / "report.json"
    assert cli.main(["verify", "--type", "A", "--rank", "2", "--suite", "theorem-invariants",
                     "--cache-dir", str(tmp_path / "cache"), "--output", str(out)]) == 2
    failures = json.loads(out.read_text())["suites"]["theorem-invariants"]["hard_failures"]
    assert len(failures) == g.order ** 2
    assert all(f["error"].startswith("mirror product mismatch") for f in failures)
    capsys.readouterr()


# -- coefficients and parity ------------------------------------------------------------

def test_richardson_coeffs_a1(engines):
    rich = _rich(engines, "A", 1)
    g = rich.group
    s, e = g.simple_reflection(1), g.identity
    rc = rich.richardson_coeffs(s, e)
    assert rc.coeffs == {s.index: 1}
    assert rc.violations == []
    rc = rich.richardson_coeffs(e, e)
    assert rc.coeffs == {e.index: 1}
    rc = rich.richardson_coeffs(e, s)
    assert rc.coeffs == {}


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_parity_exhaustive(engines, key):
    rich = _rich(engines, *key)
    g = rich.group
    for u in g:
        for v in g:
            rc = rich.richardson_coeffs(u, v)
            for w, c in rc.coeffs.items():
                if c:
                    assert (g.elements[w].length + u.length + v.length) % 2 == 0


def test_parity_violation_raises(engines, class_fault):
    rich = _rich(engines, "A", 1)
    g = rich.group
    s, e = g.simple_reflection(1), g.identity
    class_fault("s1", "e")  # eps^e + eps^s: mixed parity coefficients
    with pytest.raises(ParityViolation):
        rich.richardson_coeffs(s, e)


def test_failing_class_never_enters_the_row(engines, class_fault):
    """A class of the wrong parity raises where it is made, and the row does
    not keep it: the next read makes it again, and raises again."""
    rich = _rich(engines, "A", 2)
    g = rich.group
    s1, e = g.simple_reflection(1), g.identity
    class_fault("s1", "e")
    for _ in range(2):
        with pytest.raises(ParityViolation, match=r"Richardson cell \(s1, e\)"):
            rich.csm_richardson(s1, e)
        assert e.index not in rich._rows[s1.index][2]


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3)])
def test_nonnegativity_sweep(engines, key):
    rich = _rich(engines, *key)
    g = rich.group
    for u in g:
        for v in g:
            assert rich.richardson_coeffs(u, v).violations == []


def test_euler_characteristic_consistency(engines):
    rich = _rich(engines, "A", 2)
    g = rich.group
    for u in g:
        for v in g:
            cls = rich.csm_richardson(u, v)
            rc = rich.richardson_coeffs(u, v)
            assert rich.coh.integrate(cls) == rc.coeffs.get(g.identity.index, 0)
            if u == v:
                assert rich.coh.integrate(cls) == 1


# -- CSM-basis expansion ------------------------------------------------------------------

def test_expand_basis_element(engines):
    rich = _rich(engines, "B", 2)
    for w in rich.group:
        out = rich.expand_in_csm_basis(rich.csm.csm_schubert_cell(w))
        assert out == {w.index: 1}


def test_expand_point_class_a1(engines):
    rich = _rich(engines, "A", 1)
    g = rich.group
    s, e = g.simple_reflection(1), g.identity
    out = rich.expand_in_csm_basis(rich.coh.schubert_class(e))
    assert out == {s.index: 1, e.index: -1}


def test_csm_basis_coeffs_a1(engines):
    rich = _rich(engines, "A", 1)
    g = rich.group
    s, e = g.simple_reflection(1), g.identity
    out = rich.csm_basis_coeffs(s, e)
    assert out.coeffs == {s.index: 1, e.index: -1}
    assert out.violations == []


def test_expand_residual_catches_bad_cell_class(engines, monkeypatch):
    """A cell class off the unitriangular shape (here csm(cell s2) gains a
    term at s1 s2, outside the support above its leading term s2 s1) still
    lets the peel of eps^{s1} terminate, by peeling s2 twice; the expansion,
    which keeps only the last of those coefficients, fails the residual
    check.  The peel reads cell classes by index, so the bad class is
    injected there."""
    rich = _rich(engines, "A", 2)
    g, csm, coh = rich.group, rich.csm, rich.coh
    s1, s2 = g.simple_reflection(1), g.simple_reflection(2)
    real = csm._cell_idx
    bad = real(s2.index) + coh.schubert_class(g.w0_times(s1))
    assert rich.expand_in_csm_basis(coh.schubert_class(s1))
    monkeypatch.setattr(csm, "_cell_idx", lambda i: bad if i == s2.index else real(i))
    with pytest.raises(SingularSystem, match="residual"):
        rich.expand_in_csm_basis(coh.schubert_class(s1))


def test_expand_unitriangularity(engines):
    """Expansion of a cell class against the basis is supported below the
    label, with leading coefficient one."""
    rich = _rich(engines, "A", 3)
    g = rich.group
    for u in g:
        for v in g:
            d = rich.csm_basis_coeffs(u, v).coeffs
            for w, c in d.items():
                if c:
                    assert g.bruhat_leq(g.elements[w], u)


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2),
                                 pytest.param(("A", 4), marks=pytest.mark.long),
                                 pytest.param(("B", 4), marks=pytest.mark.long)],
                         ids=lambda key: f"{key[0]}{key[1]}")
def test_duality_read_equals_the_peel(key):
    """conjC's expansion, read by duality off the triple sum, equals the
    unitriangular peel of the same class on every Richardson pair; a fresh
    stack, so the duality check runs at N."""
    stack = build_engines(*key)
    materialize_tables(stack)
    g, rich = stack.group, stack.rich
    for u in g:
        for v in g:
            assert rich.csm_basis_coeffs(u, v).coeffs \
                == rich.expand_in_csm_basis(rich.csm_richardson(u, v)), (u, v)
    assert stack.csm.dual_reach == g.num_positive


def test_duality_read_refuses_a_term_beyond_the_check():
    """Checked at length 1 on A3, the read expands the classes whose terms
    all lie within length 1 and refuses one with a longer term, and no
    check at N runs after it."""
    stack = build_engines("A", 3)
    materialize_tables(stack)
    g, rich = stack.group, stack.rich
    stack.csm.segre_duality(1)
    s1 = g.simple_reflection(1)
    assert rich.csm_basis_coeffs(s1, g.identity).coeffs \
        == rich.expand_in_csm_basis(rich.csm_richardson(s1, g.identity))
    u = g.parse("s1 s2")
    with pytest.raises(SingularSystem, match=r"^Richardson cell \(s1 s2, e\) has a term at "
                                             r"\[X_s1 s2\], beyond the duality check's length 1$"):
        rich.csm_basis_coeffs(u, g.identity)
    assert stack.csm.dual_reach == 1


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_alternating_signs_sweep(engines, key):
    rich = _rich(engines, *key)
    g = rich.group
    for u in g:
        for v in g:
            assert rich.csm_basis_coeffs(u, v).violations == []


# -- twisted Segre expansion ------------------------------------------------------------------

def test_lemma_examples_a1(engines):
    rich = _rich(engines, "A", 1)
    g = rich.group
    s, e = g.simple_reflection(1), g.identity
    assert rich.verify_lemma_e(s, e) == {e.index: 1, s.index: 2}
    assert rich.verify_lemma_e(e, e) == {s.index: -1}
    assert rich.verify_lemma_e(e, s) == {}


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_lemma_exhaustive(engines, key):
    rich = _rich(engines, *key)
    g = rich.group
    for u in g:
        for v in g:
            e = rich.verify_lemma_e(u, v)
            sign = 1 if (g.w0_times(u).length + v.length) % 2 == 0 else -1
            for val in e.values():
                assert sign * val >= 0


def test_lemma_violation_raises(engines, monkeypatch):
    rich = _rich(engines, "A", 1)
    g = rich.group
    s = g.simple_reflection(1)
    bad = rich.coh.from_dict({g.identity: 1, s: 1})

    monkeypatch.setattr(rich.csm, "phi_involution", lambda cls: -1 * cls)
    with pytest.raises(LemmaViolation):
        rich.verify_lemma_e(s, g.identity)


# -- operands of another group ------------------------------------------------------------------

@pytest.mark.parametrize("method", ["csm_basis_coeffs", "expand_in_csm_basis",
                                    "phi_involution", "bgg_A", "weyl_action"])
def test_operand_of_another_group_is_refused(engines, method):
    """An operand of another group is refused, not read with this group's
    tables: B2 elements whose indices name a pair A2 has already expanded,
    or the A3 class eps^{s1}, whose index is in range for A2."""
    a2, b2, a3 = engines("A", 2), engines("B", 2), engines("A", 3)
    a2.rich.csm_basis_coeffs(a2.group.elements[5], a2.group.identity)
    foreign = a3.coh.schubert_class(a3.group.simple_reflection(1))
    calls = {
        "csm_basis_coeffs": lambda: a2.rich.csm_basis_coeffs(b2.group.elements[5],
                                                             b2.group.identity),
        "expand_in_csm_basis": lambda: a2.rich.expand_in_csm_basis(foreign),
        "phi_involution": lambda: a2.csm.phi_involution(foreign),
        "bgg_A": lambda: a2.csm.bgg_A(1, foreign),
        "weyl_action": lambda: a2.csm.weyl_action(1, foreign),
    }
    with pytest.raises(GroupMismatch):
        calls[method]()
