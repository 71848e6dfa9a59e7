"""Fault injections for hard checks that no other test shows firing.

Each test breaks one computation with a monkeypatch, runs the CLI on A2,
and asserts that the run exits 2 and that its report names the check
that caught the fault.
"""

import json

from csmverify import cli, verify
from csmverify.boxproduct import BoxCalculator
from csmverify.richardson import Coefficients, RichardsonCalculator


def _run(tmp_path, *suites):
    """Exit code and JSON report of an A2 verify run of the given suites."""
    out_path = tmp_path / "report.json"
    argv = ["verify", "--type", "A", "--rank", "2", "--output", str(out_path)]
    for name in suites:
        argv += ["--suite", name]
    rc = cli.main(argv)
    return rc, json.loads(out_path.read_text())


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
            return Coefficients(out.coeffs, out.violations + [(u, -1)])
        return out

    monkeypatch.setattr(RichardsonCalculator, "csm_basis_coeffs", broken)
    rc, report = _run(tmp_path, "conjB", "conjC")
    assert rc == 2
    assert report["suites"]["conjB"]["status"] == "PASS"
    assert report["suites"]["conjC"]["status"] == "VIOLATIONS"
    assert report["meta_checks"]["b-implies-c"] == "FAIL"
