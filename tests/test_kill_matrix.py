"""Fault injections for hard checks that no other test shows firing.

Each test breaks one computation with a monkeypatch, runs the CLI on A2
(A3 where it says so), and asserts that the run exits 2 and that its
report names the check that caught the fault; a check that stops the run
before the report is written names itself on stderr instead.
"""

import ast
import json
import re
from pathlib import Path

from csmverify import cli, verify
from csmverify.boxproduct import BoxCalculator
from csmverify.cohomology import CohomologyClass, FlagCohomology
from csmverify.csm import CsmCalculator
from csmverify.errors import SingularSystem
from csmverify.richardson import Coefficients, RichardsonCalculator

ROOT = Path(__file__).resolve().parents[1]


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


def _checks(report, suite) -> set[str]:
    """The checks named by a suite's listed hard failures."""
    return {f["check"] for f in report["suites"][suite]["hard_failures"]}


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
    """Orbit copies that miss the first image of the Richardson pair (e, e)
    leave conjB one pair short and conjD one chi row short.  No record step
    sees the fault, so neither suite records an entry, and both FAIL on the
    instance count alone."""
    real = verify._Sweep.copies

    def dropped(self, key, triple):
        out = real(self, key, triple)
        if key == (0, 0) and out:
            del out[next(iter(out))]
        return out

    monkeypatch.setattr(verify._Sweep, "copies", dropped)
    rc, report = _run(tmp_path, "conjB", "conjD")
    assert rc == 2
    for name, counts in (("conjB", (35, 36)), ("conjD", (210, 216))):
        suite = report["suites"][name]
        assert suite["status"] == "FAIL"
        assert suite["violations"] == suite["hard_failures"] == []
        assert (suite["instances"], suite["predicted_instances"]) == counts


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


def _alpha_rows_mapped(monkeypatch, f) -> None:
    """Every coefficient m of every alpha_i . eps^y replaced by f(m)."""
    real = FlagCohomology._alpha_row
    monkeypatch.setattr(FlagCohomology, "_alpha_row", lambda self, i: [
        {z: f(m) for z, m in row.items()} for row in real(self, i)])


def test_tripled_alpha_rows_raise_a_descent_term(tmp_path, monkeypatch, capsys):
    """Every alpha_i . eps^y tripled leaves d_1(eps^s1 . eps^s1) a nonzero
    term at s1, which s1 shortens: the recursion stops there and names the
    letter, y and (u, v), before it writes a constant at a w of the wrong
    length."""
    _alpha_rows_mapped(monkeypatch, lambda m: 3 * m)
    _stopped(tmp_path, capsys,
             "d_1(eps^u . eps^v) has a term at s1, whose s1 is a descent, for (s1, s1)")


def test_absolute_alpha_rows_raise_a_negative_constant(tmp_path, monkeypatch, capsys):
    """Every alpha_i . eps^y by its absolute values drives a constant of the
    BGG recursion negative, and the raise names its (u, v, w) by reduced
    words, w of length l(u) + l(v)."""
    _alpha_rows_mapped(monkeypatch, abs)
    _stopped(tmp_path, capsys, "negative cup structure constant at (s1, s1, s2 s1)")


def test_raised_constant_breaks_the_symmetry_of_triple_integrals(tmp_path, monkeypatch, capsys):
    """On A3 (N = 6, T = 4) c_uv^w with u = s1 s2, v = s2 s3 and l(w) = 4
    lies in a triple of lengths 2, 2 and 2, whose three rows the recursion
    computes.  Raised by 1 before the fill, it disagrees with the partner
    row the fill compares it with, and the build stops before `table`
    writes anything."""
    real = FlagCohomology._fill_upper

    def raised(self, table, top):
        u, v = self.group.parse("s1 s2").index, self.group.parse("s2 s3").index
        w = min(table[u][v])
        table[u][v] = table[v][u] = {**table[u][v], w: table[u][v][w] + 1}
        real(self, table, top)

    monkeypatch.setattr(FlagCohomology, "_fill_upper", raised)
    cache = tmp_path / "cache"
    assert cli.main(["table", "--type", "A", "--rank", "3", "--cache-dir", str(cache)]) == 2
    assert capsys.readouterr().err == (
        "csmverify: internal invariant failure: cup structure constants at (s1 s2, s2 s1, "
        "s1 s3 s2 s1) and (s1 s2, s2 s3, s1 s2 s3 s2) break the symmetry of triple "
        "integrals\n")
    assert not cache.exists()


def test_odd_parity_term_fails_richardson_pair(tmp_path, class_fault):
    """The class of (s1, e) with eps^{w0} ([X_e]) added has a term of the
    wrong parity: the pair block records the raise as richardson-pair, at
    the pair and at its orbit's copies, under the computed pair's words."""
    class_fault("s1", "e")
    rc, report = _run(tmp_path, "theorem-invariants")
    assert rc == 2
    assert _checks(report, "theorem-invariants") == {"richardson-pair"}
    assert {"check": "richardson-pair", "u": "s1", "v": "e",
            "error": "odd-parity coefficient in Richardson cell (s1, e)"} \
        in report["suites"]["theorem-invariants"]["hard_failures"]


def _run_a3_all(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--type", "A", "--rank", "3", "--suite", "all",
                   "--output", str(out)])
    return rc, json.loads(out.read_text())


def test_same_parity_class_fault_is_seen_by_the_mirror_alone(tmp_path, monkeypatch,
                                                               class_fault):
    """A fault in one Richardson class that keeps its parity is caught by the
    mirror product and by nothing else.  With the mirror, verify --suite all
    on A3 exits 2: theorem-invariants names richardson-pair, and every hard
    failure of every suite is the mirror's raise, recorded by the steps that
    read the class.  With the mirror product given the same fault, every
    suite passes with no finding, so no other check guards it.  The fault is
    +2 eps^{w0} in the class of (s1 s2 s1, s1), a term of the pair's
    parity, given to the mirror product too in the second run."""
    class_fault("s1 s2 s1", "s1", coeff=2, mirror=False)
    rc, report = _run_a3_all(tmp_path)
    assert rc == 2
    assert _checks(report, "theorem-invariants") == {"richardson-pair"}
    failures = [f for s in report["suites"].values() for f in s["hard_failures"]]
    assert failures
    assert {f["error"] for f in failures} \
        == {"mirror product mismatch for Richardson cell (s1 s2 s1, s1)"}

    monkeypatch.undo()
    class_fault("s1 s2 s1", "s1", coeff=2)
    rc, report = _run_a3_all(tmp_path)
    assert rc == 0
    assert all(s["status"] == "PASS" for s in report["suites"].values())


def test_failed_expansion_fails_csm_basis_expansion(tmp_path, monkeypatch):
    """A CSM-basis expansion of the point class that fails, in conjC's
    duality read, fails conjC alone through csm-basis-expansion, at the
    pairs whose class it is: (u, u) for every u."""
    real = RichardsonCalculator._dual_expansion

    def failing(self, u, v):
        if self.csm_richardson(u, v) == self.coh.schubert_class(self.group.longest):
            raise SingularSystem("CSM-basis expansion residual is nonzero")
        return real(self, u, v)

    monkeypatch.setattr(RichardsonCalculator, "_dual_expansion", failing)
    rc, report = _run(tmp_path, "conjC")
    assert rc == 2
    words = ["e", "s1", "s2", "s1 s2", "s2 s1", "s1 s2 s1"]
    assert report["suites"]["conjC"]["hard_failures"] == [
        {"check": "csm-basis-expansion", "u": w, "v": w,
         "error": "CSM-basis expansion residual is nonzero"} for w in words]


def test_wrong_column_entry_fails_csm_segre_duality(tmp_path, monkeypatch):
    """The coefficient at eps^{s1} of csm(cell s1 s2), 1, one unit off in
    the column index alone: the duality check, which reads the index
    conjC's read uses, fails once per run, and is conjC's one hard
    failure."""
    real = CsmCalculator.cell_columns

    def off(self, reach=None):
        columns = list(real(self, reach))
        x, w = self.group.parse("s1").index, self.group.parse("s1 s2").index
        ws, cs = columns[x]
        assert (w, 1) in zip(ws, cs)
        columns[x] = ws, tuple(c + (wi == w) for wi, c in zip(ws, cs))
        return columns

    monkeypatch.setattr(CsmCalculator, "cell_columns", off)
    rc, report = _run(tmp_path, "conjC")
    assert rc == 2
    assert report["suites"]["conjC"]["hard_failures"] == [
        {"check": "csm-segre-duality",
         "error": "CSM and Segre cell classes break AMSS duality at the cell of s1"}]


def test_term_beyond_the_filter_fails_csm_basis_expansion(tmp_path, class_fault):
    """Under --max-length 1 the duality is checked on the cells of length at
    most 1, and the class of (s1, e) lives in the Schubert variety of s1.
    Given eps^e, [X_w0], a term of the pair's parity beyond the filter, it
    is refused by conjC's read: a hard failure at the pair and its sigma
    copy (s2, e), and no finding."""
    class_fault("s1", "e", term="e")
    argv = ["verify", "--type", "A", "--rank", "2", "--suite", "conjC", "--max-length", "1",
            "--output", str(tmp_path / "report.json")]
    assert cli.main(argv) == 2
    suite = json.loads((tmp_path / "report.json").read_text())["suites"]["conjC"]
    error = ("Richardson cell (s1, e) has a term at [X_s1 s2 s1], beyond the duality "
             "check's length 1")
    assert suite["violations"] == []
    assert suite["hard_failures"] == [
        {"check": "csm-basis-expansion", "u": u, "v": "e", "error": error} for u in ("s1", "s2")]


def test_wrong_parity_term_fails_csm_basis_expansion(tmp_path, class_fault):
    """The class of (s1, e) given eps^{w0}, the point class, a term of the
    wrong parity: the class refuses it where conjC's read makes it, at the
    pair and its copies."""
    class_fault("s1", "e")
    rc, report = _run(tmp_path, "conjC")
    assert rc == 2
    assert _checks(report, "conjC") == {"csm-basis-expansion"}
    assert {"check": "csm-basis-expansion", "u": "s1", "v": "e",
            "error": "odd-parity coefficient in Richardson cell (s1, e)"} \
        in report["suites"]["conjC"]["hard_failures"]


def test_unbalanced_tangent_class_fails_completeness(tmp_path, monkeypatch):
    """c(T) + eps^{s1} - eps^{s2} keeps its integral and is no longer the sum
    of the cell classes: completeness fails, and so does chern-inverse,
    which multiplies this class by the inverse that the series builds from
    the root factors.  The Segre checks multiply by the root factors, not
    by this class, so they pass."""
    real = CsmCalculator.tangent_chern

    def unbalanced(self):
        s1, s2 = (self.coh.schubert_class(self.group.parse(w)) for w in ("s1", "s2"))
        return real(self) + s1 - s2

    monkeypatch.setattr(CsmCalculator, "tangent_chern", unbalanced)
    rc, report = _run(tmp_path, "theorem-invariants")
    assert rc == 2
    assert {"check": "completeness", "error": "cell classes do not sum to the tangent Chern class"} \
        in report["suites"]["theorem-invariants"]["hard_failures"]
    assert _checks(report, "theorem-invariants") == {"completeness", "chern-inverse"}


def test_dropped_root_fails_the_chern_integral(tmp_path, monkeypatch):
    """With the pairings of every non-simple root zeroed, c(T) loses the
    factor of the highest root and does not integrate to |W|.  The global
    chern-integral check is the one place that asks it; tangent_chern
    returns the class unchecked, so chern-machinery stays silent, and the
    Segre twists and completeness, which read c(T), fail with it."""
    real = FlagCohomology._pairings

    def dropped(self, lam):
        out = real(self, lam)
        return out if sum(lam) == 1 else [0] * len(out)

    monkeypatch.setattr(FlagCohomology, "_pairings", dropped)
    rc, report = _run(tmp_path, "theorem-invariants")
    assert rc == 2
    assert {"check": "chern-integral", "error": "tangent Chern class does not integrate to |W|"} \
        in report["suites"]["theorem-invariants"]["hard_failures"]
    assert _checks(report, "theorem-invariants") \
        == {"cell-invariants", "richardson-pair", "completeness", "chern-integral"}


def test_wrong_twist_in_one_cell_fails_its_cell_invariants(tmp_path, monkeypatch):
    """On A3 the sign twist made wrong at length difference 6, in
    ``segre_cells`` alone: only the cell of w0 has that difference (its top
    term), so the packed check of the element block's batch of all 24 cells
    fails, each class is then checked alone, and cell-invariants names w0
    and no other cell; every hard failure is that class's."""
    from csmverify import csm as csm_module

    real_sign, real_cells = csm_module.parity_sign, CsmCalculator.segre_cells

    def wrong_at_six(self, indices):
        csm_module.parity_sign = lambda k: -real_sign(k) if k == 6 else real_sign(k)
        try:
            return real_cells(self, indices)
        finally:
            csm_module.parity_sign = real_sign

    monkeypatch.setattr(CsmCalculator, "segre_cells", wrong_at_six)
    rc = cli.main(["verify", "--type", "A", "--rank", "3", "--suite", "theorem-invariants",
                   "--output", str(tmp_path / "report.json")])
    assert rc == 2
    failures = json.loads((tmp_path / "report.json").read_text())["suites"][
        "theorem-invariants"]["hard_failures"]
    w0 = str(verify.build_engines("A", 3).group.longest)
    error = f"Segre class of cell {w0} does not match the sign-twisted CSM class"
    assert [f for f in failures if f["check"] == "cell-invariants"] == [
        {"check": "cell-invariants", "u": w0, "error": error}]
    assert all(f["error"] == error for f in failures)


def test_wrong_bgg_of_the_unit_fails_the_bgg_and_dl_relations(tmp_path, monkeypatch):
    """A_i(eps^e) made eps^{w0} in place of 0, on a class that no cell
    recursion reaches, fails A_i^2 = 0 and the braid relation of the A_i,
    and those of T_i = A_i - s_i.  T_i is computed in a pass of its own,
    so the fault goes into it too: T_i(eps^e) gains eps^{w0}."""
    real, real_dl = CsmCalculator.bgg_A, CsmCalculator.dl_operator

    def wrong(self, i, a):
        return self.coh.schubert_class(self.group.longest) if a == self.coh.unit() \
            else real(self, i, a)

    def wrong_dl(self, i, a):
        out = real_dl(self, i, a)
        return out + self.coh.schubert_class(self.group.longest) if a == self.coh.unit() \
            else out

    monkeypatch.setattr(CsmCalculator, "bgg_A", wrong)
    monkeypatch.setattr(CsmCalculator, "dl_operator", wrong_dl)
    rc, report = _run(tmp_path, "theorem-invariants")
    assert rc == 2
    assert _checks(report, "theorem-invariants") \
        == {"bgg-quadratic", "braid-bgg", "dl-quadratic", "braid-dl"}


def test_wrong_reflection_of_the_unit_fails_the_weyl_and_dl_relations(tmp_path, monkeypatch):
    """s_1(eps^e) given an extra eps^{w0} fails s_1^2 = id and the braid
    relation of the s_i, and those of the T_i.  T_i is computed in a pass
    of its own, so the fault goes into it too: T_1(eps^e) loses eps^{w0}."""
    real, real_dl = CsmCalculator.weyl_action, CsmCalculator.dl_operator

    def wrong(self, i, a):
        out = real(self, i, a)
        return out + self.coh.schubert_class(self.group.longest) \
            if i == 1 and a == self.coh.unit() else out

    def wrong_dl(self, i, a):
        out = real_dl(self, i, a)
        return out - self.coh.schubert_class(self.group.longest) \
            if i == 1 and a == self.coh.unit() else out

    monkeypatch.setattr(CsmCalculator, "weyl_action", wrong)
    monkeypatch.setattr(CsmCalculator, "dl_operator", wrong_dl)
    rc, report = _run(tmp_path, "theorem-invariants")
    assert rc == 2
    assert _checks(report, "theorem-invariants") \
        == {"weyl-involution", "braid-weyl", "dl-quadratic", "braid-dl"}


# -- the README's table of hard checks ----------------------------------------------


def _hard_check_names() -> tuple[set[str], list[re.Pattern]]:
    """The check names verify.py gives hard failures: the literal first
    argument of each ``.hard(_entry(...))`` and, where that argument is a
    parameter of the enclosing function, the literal each caller passes for
    it (through ``partial`` too).  An f-string name is a pattern."""
    tree = ast.parse((ROOT / "src" / "csmverify" / "verify.py").read_text(encoding="utf-8"))
    names, patterns, params = set(), [], {}

    def take(node):
        if isinstance(node, ast.Constant):
            names.add(node.value)
        elif isinstance(node, ast.JoinedStr):
            patterns.append(re.compile("".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
                for part in node.values)))

    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = [a.arg for a in fn.args.args]
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "hard" and isinstance(call.args[0], ast.Call)
                    and getattr(call.args[0].func, "id", None) == "_entry"):
                first = call.args[0].args[0]
                if isinstance(first, ast.Name) and first.id in args:
                    params[fn.name] = args.index(first.id)
                else:
                    take(first)
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            if call.func.id in params:
                take(call.args[params[call.func.id]])
            elif call.func.id == "partial" and getattr(call.args[0], "id", None) in params:
                take(call.args[1 + params[call.args[0].id]])
    return names, patterns


def _readme_hard_checks() -> dict[str, str]:
    """The README's table of hard checks: each row's check name and the
    test that shows it firing."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Hard checks", 1)[1].split("\n\n|", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[2].strip("`")
    return rows


def test_readme_lists_every_hard_check():
    """Every hard-failure check name in verify.py has a row in the README
    table, every row names such a check, and the test each row names
    exists."""
    names, patterns = _hard_check_names()
    rows = _readme_hard_checks()
    assert len(names) >= 20 and patterns
    assert names <= rows.keys()
    for pattern in patterns:
        assert any(pattern.fullmatch(row) for row in rows), pattern.pattern
    for row, test in rows.items():
        assert row in names or any(p.fullmatch(row) for p in patterns), row
        path, name = test.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), test
