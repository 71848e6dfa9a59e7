"""Fault injections for hard checks that no other test shows firing.

Each test breaks one computation with a monkeypatch, runs the CLI on A2,
and asserts that the run exits 2 and that its report names the check
that caught the fault; a check that stops the run before the report is
written names itself on stderr instead.
"""

import json

from csmverify import cli, verify
from csmverify.boxproduct import BoxCalculator
from csmverify.cohomology import CohomologyClass, FlagCohomology
from csmverify.csm import CsmCalculator
from csmverify.richardson import Coefficients, RichardsonCalculator


def _main(tmp_path, *suites) -> int:
    """Exit code of an A2 verify run of the given suites, its report written
    to tmp_path / "report.json"."""
    argv = ["verify", "--type", "A", "--rank", "2", "--output", str(tmp_path / "report.json")]
    for name in suites:
        argv += ["--suite", name]
    return cli.main(argv)


def _run(tmp_path, *suites):
    """Exit code and JSON report of an A2 verify run of the given suites."""
    rc = _main(tmp_path, *suites)
    return rc, json.loads((tmp_path / "report.json").read_text())


def _stopped(tmp_path, capsys, message: str) -> None:
    """A run of conjB alone exits 2 with message on stderr, before any
    report is written."""
    assert _main(tmp_path, "conjB") == 2
    assert f"internal invariant failure: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_nonzero_empty_cell_fails_empty_cell(tmp_path, monkeypatch):
    """The cell of (e, s1) is empty, so its class must vanish.  Made eps^e
    instead, whose only coefficient is at [X_w0], of the pair's parity, it
    passes the parity check and fails empty-cell."""
    real = RichardsonCalculator.csm_richardson

    def nonzero(self, u, v):
        if u.length == 0 and v.word == (1,):
            return self.coh.unit()
        return real(self, u, v)

    monkeypatch.setattr(RichardsonCalculator, "csm_richardson", nonzero)
    rc, report = _run(tmp_path, "theorem-invariants")
    assert rc == 2
    assert {"check": "empty-cell", "u": "e", "v": "s1",
            "error": "empty Richardson cell has nonzero class"} \
        in report["suites"]["theorem-invariants"]["hard_failures"]


def test_wrong_cell_expansion_fails_unitriangular(tmp_path, monkeypatch):
    """The cell class of s1 expanded as twice itself fails
    csm-basis-unitriangular."""
    real = RichardsonCalculator.expand_in_csm_basis

    def doubled(self, a):
        d = real(self, a)
        return {u: 2 for u in d} if a == self.csm.csm_schubert_cell(self.group.parse("s1")) else d

    monkeypatch.setattr(RichardsonCalculator, "expand_in_csm_basis", doubled)
    rc, report = _run(tmp_path, "theorem-invariants")
    assert rc == 2
    assert report["suites"]["theorem-invariants"]["hard_failures"] == [
        {"check": "csm-basis-unitriangular", "u": "s1",
         "error": "cell class does not expand to itself"}]


def test_raised_top_degree_chi_fails_graded_vs_cup(tmp_path, monkeypatch):
    """A chi value at l(w) = l(u) + l(v) raised by 1 breaks the graded
    comparison with the cup product, and no sign check: conjD alone
    fails through graded-vs-cup."""
    real = BoxCalculator.expansion_row

    def raised(self, u, v):
        row = dict(real(self, u, v))
        top = self.group.indices_of_length(u.length + v.length)
        if top:
            row[top[0]] = row.get(top[0], 0) + 1
        return row

    monkeypatch.setattr(BoxCalculator, "expansion_row", raised)
    rc, report = _run(tmp_path, "conjD")
    assert rc == 2
    assert report["suites"]["conjD"]["status"] == "FAIL"
    assert {f["check"] for f in report["suites"]["conjD"]["hard_failures"]} == {"graded-vs-cup"}


def test_uncounted_pair_fails_the_instance_guard(tmp_path, monkeypatch):
    """A record step that records a pair without counting its instance
    leaves conjB with no violation and no hard failure, and still FAIL:
    its instances fall short of the prediction."""
    real = verify._RECORD_STEPS["conjB"]

    def uncounted(engines, out, u, v):
        real(engines, out, u, v)
        if u.length == 0 and v.length == 0:
            out.instances -= 1

    monkeypatch.setitem(verify._RECORD_STEPS, "conjB", uncounted)
    rc, report = _run(tmp_path, "conjB")
    suite = report["suites"]["conjB"]
    assert rc == 2
    assert suite["status"] == "FAIL"
    assert suite["violations"] == suite["hard_failures"] == []
    assert suite["instances"] < suite["predicted_instances"] == 36


def test_sign_break_with_conjb_passing_fails_b_implies_c(tmp_path, monkeypatch):
    """conjB implies conjC, so one conjC sign break while conjB passes
    makes the b-implies-c meta-check FAIL."""
    real = RichardsonCalculator.csm_basis_coeffs

    def broken(self, u, v):
        out = real(self, u, v)
        if u.length == 0 and v.length == 0:
            return Coefficients(out.coeffs, out.violations + [(u.index, -1)])
        return out

    monkeypatch.setattr(RichardsonCalculator, "csm_basis_coeffs", broken)
    rc, report = _run(tmp_path, "conjB", "conjC")
    assert rc == 2
    assert report["suites"]["conjB"]["status"] == "PASS"
    assert report["suites"]["conjC"]["status"] == "VIOLATIONS"
    assert report["meta_checks"]["b-implies-c"] == "FAIL"


def test_extra_expansion_sign_break_fails_pairwise_equivalence(tmp_path, monkeypatch):
    """One extra conjC violation at the Richardson pair (e, e), which no chi
    row shows, makes the two sign verdicts of conjD disagree at its chi
    pairs (w0, e) and, by the swap, (e, w0): conjD alone fails through
    pairwise-equivalence."""
    real = RichardsonCalculator.csm_basis_coeffs

    def broken(self, u, v):
        out = real(self, u, v)
        if u.length == 0 and v.length == 0:
            return Coefficients(out.coeffs, out.violations + [(0, -1)])
        return out

    monkeypatch.setattr(RichardsonCalculator, "csm_basis_coeffs", broken)
    rc, report = _run(tmp_path, "conjD")
    assert rc == 2
    error = "sign verdicts disagree: chi True, expansion False"
    assert report["suites"]["conjD"]["hard_failures"] == [
        {"check": "pairwise-equivalence", "u": u, "v": v, "error": error}
        for u, v in (("e", "s1 s2 s1"), ("s1 s2 s1", "e"))]


def test_negative_cell_coefficient_fails_the_cell_invariants(tmp_path, monkeypatch, capsys):
    """csm(cell s1 s2) = eps^{s1} + eps^{s1 s2} + 2 eps^{s2 s1} + eps^{w0}
    with its middle coefficient at s2 s1 negated keeps its leading and top
    coefficients and its support: the negativity check alone stops the
    table build."""
    plain = verify.build_engines("A", 2)
    target = plain.csm.csm_schubert_cell(plain.group.parse("s1 s2"))
    real = CsmCalculator.dl_operator

    def flipped(self, i, a):
        out = real(self, i, a)
        if out == target:
            x = self.group.parse("s2 s1").index
            out = CohomologyClass(self.group, {**out.coeffs, x: -out.coeffs[x]})
        return out

    assert target.coeffs[plain.group.parse("s2 s1").index] == 2
    monkeypatch.setattr(CsmCalculator, "dl_operator", flipped)
    _stopped(tmp_path, capsys, "cell class of s1 s2: negative coefficient at s2 s1")


def test_raised_degree_two_constant_fails_the_table_check(tmp_path, monkeypatch, capsys):
    """c_{s1,s2}^w raised by 1 at its least w breaks the degree-2 rule the
    structure table checks itself against, before any suite runs."""
    real = FlagCohomology._computed_rows

    def raised(self):
        table = real(self)
        s1, s2 = self.group.parse("s1").index, self.group.parse("s2").index
        w = min(table[s1][s2])
        table[s1][s2] = table[s2][s1] = {**table[s1][s2], w: table[s1][s2][w] + 1}
        return table

    monkeypatch.setattr(FlagCohomology, "_computed_rows", raised)
    _stopped(tmp_path, capsys, "degree-2 products disagree at (s1, s2)")


def test_tripled_alpha_rows_raise_a_negative_constant(tmp_path, monkeypatch, capsys):
    """Every alpha_i . eps^y tripled drives a constant of the BGG recursion
    negative, and the raise names its (u, v, w) by reduced words."""
    real = FlagCohomology._alpha_row

    def tripled(self, i):
        return [{z: 3 * m for z, m in row.items()} for row in real(self, i)]

    monkeypatch.setattr(FlagCohomology, "_alpha_row", tripled)
    _stopped(tmp_path, capsys, "negative cup structure constant at (s1, s1, e)")
