import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from csmverify import cli
from csmverify.boxproduct import BoxCalculator, ChiRow
from csmverify.cache import TableCache, payload_checksum
from csmverify import csm as csm_module
from csmverify.cohomology import FlagCohomology, Multiplier
from csmverify.csm import CsmCalculator
from csmverify.errors import InternalInvariantError, MirrorMismatch, ParityViolation, UsageError
from csmverify.richardson import RichardsonCalculator
from csmverify.rootdata import CartanDatum, WeylGroup
from csmverify.verify import (
    HARD_FAILURE_LIST_CAP,
    SUITE_NAMES,
    _run_suites,
    build_engines,
    materialize_tables,
    pool_size,
    resolve_suites,
    run_suite,
    run_verification,
)


def _strip_timings(report_json: str) -> dict:
    d = json.loads(report_json)
    d.pop("timings", None)
    return d


# -- suite mechanics ----------------------------------------------------------------

def test_resolve_suites():
    assert resolve_suites(["all"]) == list(SUITE_NAMES)
    assert resolve_suites(["conjB", "conjB", "conjC"]) == ["conjB", "conjC"]
    with pytest.raises(UsageError):
        resolve_suites(["nonsense"])


@pytest.mark.parametrize("name", ["conjB", "all"])
def test_bare_string_suites_are_refused(name):
    # a string would be read letter by letter, as the suites "c", "o", ...
    with pytest.raises(UsageError, match=f"not the string '{name}'"):
        run_verification("A", 2, suites=name)


def test_empty_suite_list_is_refused():
    # no suite would pass on zero instances
    with pytest.raises(UsageError, match="no suite requested"):
        run_verification("A", 1, suites=())


def test_run_suite_refuses_an_unknown_name(engines):
    with pytest.raises(UsageError, match="unknown suite 'conjZ'"):
        run_suite(engines("A", 1), "conjZ")


def test_instance_counts_a2(engines):
    stack = engines("A", 2)
    order = stack.group.order
    assert run_suite(stack, "conjB").instances == order ** 2
    assert run_suite(stack, "conjC").instances == order ** 2
    assert run_suite(stack, "conjD").instances == order ** 3
    assert run_suite(stack, "cross-paths").instances == order ** 3
    r = run_suite(stack, "theorem-invariants")
    assert r.instances == r.predicted_instances


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_sweep_holds_one_unit(monkeypatch, name):
    """During and after a suite's sweep on A3, one Richardson row (one
    unit's) is held; the deformed product holds nothing of its own."""
    stack = build_engines("A", 3)
    materialize_tables(stack)
    peak = {"rich": 0}
    real_row = RichardsonCalculator._row

    def row(self, ui):
        rec = real_row(self, ui)
        peak["rich"] = max(peak["rich"], len(self._rows))
        return rec

    monkeypatch.setattr(RichardsonCalculator, "_row", row)
    assert run_suite(stack, name).status == "PASS"
    assert peak["rich"] == 1
    assert len(stack.rich._rows) == 1
    assert set(vars(stack.box)) == {"rich", "csm", "coh", "group"}


def test_max_length_filter(engines):
    stack = engines("A", 2)
    short = len([w for w in stack.group if w.length <= 1])
    r = run_suite(stack, "conjB", max_length=1)
    assert r.instances == r.predicted_instances == short ** 2
    r = run_suite(stack, "conjD", max_length=1)
    assert r.instances == short ** 2 * stack.group.order


def test_full_verification_a1_passes():
    report = run_verification("A", 1, suites=["all"])
    assert report.exit_code == 0
    assert all(s.status == "PASS" for s in report.suites.values())
    assert report.suites["conjB"].instances == 4
    assert report.meta_checks["b-implies-c"] == "PASS"
    assert report.meta_checks["b-implies-d"] == "PASS"
    assert report.meta_checks["box-associativity"] == "holds on 8/8 filtered triples"
    assert report.timings["meta_s"] >= 0


def test_verification_a2_conjb():
    report = run_verification("A", 2, suites=["conjB"])
    assert report.exit_code == 0
    assert report.suites["conjB"].instances == 36
    assert report.meta_checks["b-implies-c"] == "SKIPPED"


def test_report_determinism():
    a = run_verification("A", 2, suites=["conjB", "conjC"]).to_json()
    b = run_verification("A", 2, suites=["conjB", "conjC"]).to_json()
    assert _strip_timings(a) == _strip_timings(b)
    assert json.dumps(_strip_timings(a), sort_keys=True) == \
        json.dumps(_strip_timings(b), sort_keys=True)


def test_report_names_the_series_in_capitals():
    """The series is reported as the datum's, however it was typed."""
    lower, upper = (run_verification(series, 2, suites=["conjB"]) for series in ("a", "A"))
    assert _strip_timings(lower.to_json()) == _strip_timings(upper.to_json())
    assert lower.summary_lines()[0].startswith("group A2 ")


def test_bruhat_state_is_one_interval_per_element():
    """After an exhaustive A4 theorem-invariants run, which asks the Bruhat
    order on every pair, the group holds at most one lower interval per
    element, each one int."""
    stack = build_engines("A", 4)
    materialize_tables(stack)
    _run_suites(stack, ["theorem-invariants"], None, 1)
    g = stack.group
    assert len(g._below) <= g.order
    assert all(type(mask) is int for mask in g._below.values())


def test_pool_size_is_clamped(monkeypatch):
    import csmverify.verify as verify_mod

    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert pool_size(1, 100) == 1
    assert pool_size(3, 100) == 3
    assert pool_size(10**6, 10**9) == 4      # never more than the usable CPUs
    assert pool_size(8, 2) == 2              # nor more than the chunks of work
    assert pool_size(8, 0) == 1


def test_parallel_equals_serial():
    suites = ["theorem-invariants", "conjB", "conjD"]
    serial = run_verification("A", 2, suites=suites, jobs=1)
    parallel = run_verification("A", 2, suites=suites, jobs=3)
    a, b = _strip_timings(serial.to_json()), _strip_timings(parallel.to_json())
    # identical apart from the echoed invocation parameter
    assert a["options"].pop("jobs") == 1 and b["options"].pop("jobs") == 3
    assert a == b
    assert parallel.exit_code == 0


def test_serial_run_imports_no_multiprocessing(tmp_path):
    """Only a run that forks a pool imports multiprocessing, whose import
    costs start-up time: a serial verify in a fresh process leaves it out."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from csmverify import cli; "
            "cli.main(['verify', '--type', 'A', '--rank', '2', '--output', sys.argv[1]]); "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "report.json")],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_one_pool_per_run(monkeypatch):
    """Every requested suite shares one sweep and one pool of at most
    --jobs workers, and the report equals the serial one."""
    import multiprocessing.pool

    import csmverify.verify as verify_mod

    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    pools = []
    real_init = multiprocessing.pool.Pool.__init__

    def counting_init(self, processes=None, *args, **kwargs):
        pools.append(processes)
        real_init(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
    serial = run_verification("A", 3, suites=["all"])
    assert pools == []
    pooled = run_verification("A", 3, suites=["all"], jobs=2)
    assert pools == [2]
    a, b = _strip_timings(serial.to_json()), _strip_timings(pooled.to_json())
    assert a["options"].pop("jobs") == 1 and b["options"].pop("jobs") == 2
    assert a == b
    assert set(pooled.timings["per_suite_s"]) == set(SUITE_NAMES)


def test_hard_failure_cap_across_units(monkeypatch):
    """576 failing pairs on A3, split over pool workers: the report keeps
    the first HARD_FAILURE_LIST_CAP in pair order and counts them all."""
    import csmverify.verify as verify_mod

    def faulty(self, u, v):
        raise ParityViolation(f"injected at ({u}, {v})")

    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    # forked workers inherit the patched class
    monkeypatch.setattr(RichardsonCalculator, "richardson_coeffs", faulty)
    serial, pooled = (run_verification("A", 3, suites=["conjB", "conjC"], jobs=jobs)
                      for jobs in (1, 2))
    words = [str(w) for w in WeylGroup(CartanDatum.from_series("A", 3))]
    pairs = [(u, v) for u in words for v in words]
    for report in (serial, pooled):
        conjb = report.suites["conjB"]
        assert conjb.hard_failure_count == len(pairs) == 576
        assert [(e["u"], e["v"]) for e in conjb.hard_failures] == pairs[:HARD_FAILURE_LIST_CAP]
    assert serial.suites["conjB"].hard_failures == pooled.suites["conjB"].hard_failures
    assert serial.suites["conjC"].to_dict() == pooled.suites["conjC"].to_dict()


def test_workers_build_no_shared_segre_class(tmp_path, monkeypatch):
    """Under --jobs 2 the parent builds, in one batch before it forks,
    seg(cell r) for every unit row r and seg(cell w0*v) for every filtered
    v, so no worker builds any Segre class: every class that
    ``segre_cells`` builds in a B3 conjB conjC sweep of length <= 2 is
    logged with its process."""
    import csmverify.verify as verify_mod

    log, real = tmp_path / "builds", CsmCalculator.segre_cells

    def logged(self, indices):
        with open(log, "a") as f:
            for u in indices:
                if u not in self._segre_cells:
                    f.write(f"{os.getpid()} {u}\n")
        return real(self, indices)

    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(CsmCalculator, "segre_cells", logged)
    report = run_verification("B", 3, suites=["conjB", "conjC"], max_length=2, jobs=2)
    assert report.exit_code == 0
    group = WeylGroup(CartanDatum.from_series("B", 3))
    filtered = {w.index for w in group if w.length <= 2}
    builds = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert {pid for pid, _ in builds} == {os.getpid()}
    assert {i for _, i in builds} == filtered | {group._w0[i] for i in filtered}


@pytest.mark.parametrize("suites,reach", [(["conjB", "conjC"], 2), (["conjC", "cross-paths"], 9),
                                          (["cross-paths"], None)])
def test_parent_builds_the_columns_and_checks_duality_once(tmp_path, monkeypatch, suites, reach):
    """Under --jobs 2 on B3 (N = 9) up to length 2, the parent builds the
    column index once, before it forks, for the columns of length at most
    L, L the filter when no chi suite runs and N otherwise, and checks AMSS
    duality once at L when conjC or conjD reads it; no worker builds a
    column or checks again.  cross-paths alone checks no duality."""
    import csmverify.verify as verify_mod

    log = tmp_path / "calls"
    real_columns, real_duality = CsmCalculator.cell_columns, CsmCalculator.segre_duality

    def columns(self, reach=None):
        if self._cell_columns is None or self._cell_columns[0] < (reach or 0):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} columns {reach}\n")
        return real_columns(self, reach)

    def duality(self, reach=None):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} duality {reach}\n")
        return real_duality(self, reach)

    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(CsmCalculator, "cell_columns", columns)
    monkeypatch.setattr(CsmCalculator, "segre_duality", duality)
    report = run_verification("B", 3, suites=suites, max_length=2, jobs=2)
    assert report.exit_code == 0
    width = reach or 9
    assert log.read_text().splitlines() == (
        [f"{os.getpid()} duality {reach}"] if reach else []) + [f"{os.getpid()} columns {width}"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unbuilt_segre_class_fails_the_same_pairs(tmp_path, monkeypatch, jobs):
    """seg(cell w0*s1) made to raise on A3: the parent's build before the
    fork leaves it unbuilt, so serially and pooled the steps that read it
    list the same hard failures, the sigma copies at v = s3 included."""
    import csmverify.verify as verify_mod

    real = CsmCalculator.segre_schubert_cell

    def faulty(self, u):
        if self.group.w0_times(u).word == (1,):
            raise InternalInvariantError(f"injected at the Segre class of {u}")
        return real(self, u)

    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(CsmCalculator, "segre_schubert_cell", faulty)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--type", "A", "--rank", "3", "--suite", "conjB", "--suite",
                     "conjC", "--max-length", "1", "--jobs", jobs, "--output", str(out)]) == 2
    suites = json.loads(out.read_text())["suites"]
    pairs = [("e", "s1"), ("e", "s3"), ("s1", "s1"), ("s2", "s1"), ("s2", "s3"), ("s3", "s3")]
    for name, check in (("conjB", "richardson"), ("conjC", "csm-basis-expansion")):
        assert suites[name]["hard_failure_count"] == len(pairs)
        assert suites[name]["hard_failures"] == [
            {"check": check, "error": "injected at the Segre class of s1 s2 s1 s3 s2",
             "u": u, "v": v} for u, v in pairs]


def test_pair_suite_computes_each_class_once(monkeypatch):
    """conjB on A3 computes one Richardson class per orbit of the partner
    map (u, v) -> (w0*v, w0*u) and the diagram flip sigma: by Burnside,
    (576 + 24 + 64 + 24) / 4 = 172 main products, each reading the
    opposite-cell class of its v once, and still counts 576 instances.
    The partner fixes the 24 pairs (u, w0*u), sigma the 8^2 pairs of its
    8 fixed elements, and the partner through sigma 24 pairs."""
    from csmverify.csm import CsmCalculator
    real, calls = CsmCalculator.csm_opposite_cell, []

    def counted(self, v):
        calls.append(v.index)
        return real(self, v)

    monkeypatch.setattr(CsmCalculator, "csm_opposite_cell", counted)
    report = run_verification("A", 3, suites=["conjB"])
    assert report.exit_code == 0
    assert report.suites["conjB"].instances == 576
    assert len(calls) == 172


@pytest.mark.parametrize("max_length", [None, 1, 3])
def test_partners_under_filter_and_pool(monkeypatch, max_length):
    """The pair suites on A3, exhaustive, with every partner filtered out
    (length <= 1) and with some partners kept (length <= 3: pairs with
    l(u) = l(v) = 3): the pooled report equals the serial one, every pair
    is counted, and the findings equal those read off every filtered pair.
    So that there are findings, the classes are negated on the diagonal and
    where l(u) + l(v) is odd, sets closed under taking partners; under
    length <= 3 the partners kept are those of the diagonal pairs."""
    import csmverify.verify as verify_mod

    real = RichardsonCalculator.csm_richardson

    def negated(self, u, v):
        out = real(self, u, v)
        return -1 * out if u == v or (u.length + v.length) % 2 else out

    monkeypatch.setattr(RichardsonCalculator, "csm_richardson", negated)
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    suites = ["theorem-invariants", "conjB", "conjC"]
    serial, pooled = (run_verification("A", 3, suites=suites, max_length=max_length, jobs=jobs)
                      for jobs in (1, 2))
    a, b = _strip_timings(serial.to_json()), _strip_timings(pooled.to_json())
    assert a["options"].pop("jobs") == 1 and b["options"].pop("jobs") == 2
    assert a == b
    rich = build_engines("A", 3).rich
    kept = [w for w in rich.group if max_length is None or w.length <= max_length]
    assert serial.suites["theorem-invariants"].hard_failures == [
        {"check": "diagonal-point", "u": str(w), "v": str(w),
         "error": "diagonal cell class is not the point class"} for w in kept]
    expected, els = {"conjB": [], "conjC": []}, rich.group.elements
    for u in kept:
        for v in kept:
            for name, read in (("conjB", rich.richardson_coeffs), ("conjC", rich.csm_basis_coeffs)):
                expected[name] += [{"check": name, "u": str(u), "v": str(v), "w": str(els[w]),
                                    "value": c} for w, c in read(u, v).violations]
    for name, result in serial.suites.items():
        assert result.instances == result.predicted_instances
        if name in expected:
            assert expected[name] and result.violations == expected[name]


def test_global_failure_messages(monkeypatch):
    """A failing whole-group check is recorded with its formatted message:
    here the subword oracle on A2 sees only the identity below each w."""
    monkeypatch.setattr(WeylGroup, "subword_products", lambda self, w: {0})
    report = run_verification("A", 2, suites=["theorem-invariants"])
    suite = report.suites["theorem-invariants"]
    assert suite.hard_failure_count == 13     # pairs e < v <= w
    assert suite.hard_failures[:3] == [
        {"check": "bruhat-subword", "error": f"order disagrees at ({v}, {w})"}
        for v, w in (("s1", "s1"), ("s2", "s2"), ("s1", "s1 s2"))]


def test_injected_fault_gives_internal_failure(monkeypatch):
    """A richardson_coeffs failure at the representative (e, e) on A1 is a
    hard failure there and at its partner (s1, s1), under each pair's own
    words, in row order."""
    real = RichardsonCalculator.richardson_coeffs

    def faulty(self, u, v):
        if u.length == 0 and v.length == 0:
            raise ParityViolation("injected fault")
        return real(self, u, v)

    monkeypatch.setattr(RichardsonCalculator, "richardson_coeffs", faulty)
    report = run_verification("A", 1, suites=["conjB"])
    assert report.exit_code == 2
    suite = report.suites["conjB"]
    assert suite.status == "FAIL"
    assert suite.hard_failure_count == 2
    assert suite.hard_failures == [
        {"check": "richardson", "u": w, "v": w, "error": "injected fault"} for w in ("e", "s1")]


def test_unreadable_pair_fails_at_every_w(monkeypatch):
    """A Richardson class that raises fails its pair's triples one by one:
    conjD and cross-paths record one hard failure per w with the error's
    message, and still count every instance.  The chi row of (s1, s2) is
    computed, and its swap (s2, s1), also its image under the diagram flip,
    records the same failures under its own u and v."""
    engines = build_engines("A", 2)
    materialize_tables(engines)
    g = engines.group
    u0, v0 = g.parse("s1"), g.parse("s2")
    w0u0 = g.w0_times(u0)
    message = f"mirror product mismatch for Richardson cell ({w0u0}, {v0})"
    real = RichardsonCalculator.csm_richardson

    def failing(self, u, v):
        if (u.index, v.index) == (w0u0.index, v0.index):
            raise MirrorMismatch(message)
        return real(self, u, v)

    monkeypatch.setattr(RichardsonCalculator, "csm_richardson", failing)
    pairs = [{"u": str(u0), "v": str(v0)}, {"u": str(v0), "v": str(u0)}]
    for name, check, tail in (
            ("conjD", "chi", [{"check": "pairwise-equivalence", "error": message}]),
            ("cross-paths", "chi-paths", [])):
        result = run_suite(engines, name)
        assert result.instances == result.predicted_instances == g.order ** 3
        expected = [e for pair in pairs for e in
                    [{"check": check, **pair, "w": str(w), "error": message} for w in g]
                    + [{**e, **pair} for e in tail]]
        assert result.hard_failures == expected
        assert result.hard_failure_count == len(expected)
        assert result.status == "FAIL"


def _times_tangent_within(monkeypatch, method, fault):
    """Pass every c(T) product that CsmCalculator.<method> makes through
    fault(vec, product), vec the vector multiplied; the products made
    anywhere else stay exact."""
    real_times, real = CsmCalculator._times_tangent, getattr(CsmCalculator, method)

    def faulty(self, vec):
        return fault(list(vec), real_times(self, vec))

    def within(self, *args):
        self._times_tangent = faulty.__get__(self)
        try:
            return real(self, *args)
        finally:
            del self._times_tangent

    monkeypatch.setattr(CsmCalculator, method, within)


def _perturb_chern_product(monkeypatch, series, rank, gains):
    """Make Chern products of Segre cell classes wrong: c(T) . seg(cell u)
    gains n times the unit, for each word of u and n in gains, and every
    other Segre cell class keeps its exact product.  The fault is linear,
    c(T) . b gains f(b) . 1, with f(b) the sum of n times the integral of
    csm(cell w0*u) . b, which by AMSS duality is n on seg(cell u) and 0 on
    every other Segre cell class; so a batch packed into slots gains it
    slot by slot.  Only the products of ``segre_cells`` are perturbed."""
    plain = build_engines(series, rank)
    g, csm = plain.group, plain.csm
    f: dict[int, int] = {}
    for word, n in gains.items():
        for x, c in csm.csm_schubert_cell(g.w0_times(g.parse(word))).coeffs.items():
            f[g._w0[x]] = f.get(g._w0[x], 0) + n * c
    for u in g:
        seg = csm.segre_schubert_cell(u).coeffs
        assert sum(c * seg.get(y, 0) for y, c in f.items()) == gains.get(str(u), 0)

    def gain(vec, out):
        out[0] += sum(c * vec[y] for y, c in f.items())
        return out

    _times_tangent_within(monkeypatch, "segre_cells", gain)


def _assert_segre_cell_s1_fails(tmp_path):
    out_path = tmp_path / "report.json"
    rc = cli.main(["verify", "--type", "A", "--rank", "2", "--suite", "theorem-invariants",
                   "--cache-dir", str(tmp_path / "cache"), "--output", str(out_path)])
    suite = json.loads(out_path.read_text())["suites"]["theorem-invariants"]
    assert rc == 2
    assert suite["status"] == "FAIL"
    assert {"check": "cell-invariants", "u": "s1",
            "error": "Segre class of cell s1 does not match the sign-twisted CSM class"} \
        in suite["hard_failures"]


def test_perturbed_segre_class_fails_theorem_invariants(tmp_path, monkeypatch):
    """The Segre identity stays a hard check: each Segre cell class is the
    sign twist of its CSM class, checked as c(T) . seg = csm(cell u) where
    it is computed, so a wrong Chern product for s1 alone fails
    theorem-invariants as a cell invariant of s1."""
    _perturb_chern_product(monkeypatch, "A", 2, {"s1": 1})
    _assert_segre_cell_s1_fails(tmp_path)


def test_untwisted_segre_class_fails_theorem_invariants(tmp_path, monkeypatch):
    """A twist with no signs leaves each Segre class equal to its CSM
    class, which the Chern product check refuses."""
    monkeypatch.setattr(csm_module, "parity_sign", lambda k: 1)
    _assert_segre_cell_s1_fails(tmp_path)


def test_wrong_chern_product_fails_conjb_alone(monkeypatch):
    """The pair sweeps build the Segre classes they read, and check each as
    it is built: a wrong Chern product for s1 alone fails conjB by itself."""
    _perturb_chern_product(monkeypatch, "A", 2, {"s1": 1})
    report = run_verification("A", 2, suites=["conjB"])
    assert report.exit_code == 2
    suite = report.suites["conjB"]
    assert suite.status == "FAIL"
    error = "Segre class of cell s1 does not match the sign-twisted CSM class"
    assert suite.hard_failures and all(f["error"] == error for f in suite.hard_failures)


def test_one_bit_narrower_slot_passes_cancelling_faults(monkeypatch):
    """The packed Segre check of a whole A3 batch fails at the width k that
    ``_slot_bits`` gives and passes one bit narrower, k - 1, when c(T) .
    seg(cell a) gains 2^(k-1) and c(T) . seg(cell b) loses 1 (times the
    unit), a and b adjacent in slot order: 2^(k-1) 2^((k-1) a) cancels
    2^((k-1) b).  Faults in the classes themselves stay below 2^(k-1) in
    every slot, where k - 1 bits still tell 0 apart, so these are faults of
    the product."""
    plain = build_engines("A", 3)
    g, csm = plain.group, plain.csm
    l1 = max(sum(map(abs, csm.csm_schubert_cell(u).coeffs.values())) for u in g)
    k = (2 * l1 * csm._root_factors()[1]).bit_length() + 1
    a, b = g.elements[5], g.elements[6]
    _perturb_chern_product(monkeypatch, "A", 3, {str(a): 2 ** (k - 1), str(b): -1})
    shipped = build_engines("A", 3).csm
    with pytest.raises(InternalInvariantError, match=f"^Segre class of cell {a} does not"):
        shipped.segre_cells(range(g.order))
    assert set(shipped._segre_cells) == set(range(g.order)) - {a.index, b.index}
    monkeypatch.setattr(csm_module, "_slot_bits", lambda l1, big: k - 1)
    narrow = build_engines("A", 3).csm
    narrow.segre_cells(range(g.order))
    assert len(narrow._segre_cells) == g.order


def test_wrong_chern_inverse_fails_theorem_invariants(monkeypatch):
    """The inverse Chern class stays a hard check: a wrong class fails the
    global chern-inverse check, and a wrong term of its geometric series
    fails the check inside chern_inverse (chern-machinery)."""
    real_inverse = CsmCalculator.chern_inverse

    def wrong_inverse(self):
        return real_inverse(self) + self.coh.schubert_class(self.group.longest)

    monkeypatch.setattr(CsmCalculator, "chern_inverse", wrong_inverse)
    suite = run_verification("A", 2, suites=["theorem-invariants"]).suites["theorem-invariants"]
    assert suite.status == "FAIL"
    assert suite.hard_failures == [{"check": "chern-inverse", "error": "inverse Chern class fails"}]
    monkeypatch.undo()

    def wrong_first_term(vec, out):     # c(T) . 1, the series' first product
        if vec == [1] + [0] * (len(vec) - 1):
            out[-1] += 1                # the top class, eps^w0
        return out

    _times_tangent_within(monkeypatch, "chern_inverse", wrong_first_term)
    report = run_verification("A", 2, suites=["theorem-invariants"])
    assert report.exit_code == 2
    assert report.suites["theorem-invariants"].hard_failures == [
        {"check": "chern-machinery", "error": "Chern class inverse failed"}]


def test_pair_sweeps_never_compute_the_chern_inverse(monkeypatch):
    """Only theorem-invariants' chern-inverse check computes the inverse:
    with chern_inverse raising, a conjB conjC sweep still passes."""
    def refuse(self):
        raise AssertionError("inverse Chern class computed by a pair sweep")

    monkeypatch.setattr(CsmCalculator, "chern_inverse", refuse)
    report = run_verification("A", 3, suites=["conjB", "conjC"])
    assert report.exit_code == 0
    assert all(s.status == "PASS" for s in report.suites.values())


def test_reach_one_degree_short_fails_poincare_duality(monkeypatch):
    """The degree cut is exact, and a cut one degree too deep is caught:
    with every multiplier made after the table's self-check short by one
    degree, theorem-invariants exits 2 with poincare-duality failures."""
    real_init, real_check = Multiplier.__init__, FlagCohomology._check_table
    checking = []

    def short(self, coh, factor):
        real_init(self, coh, factor)
        if not checking:
            self.reach -= 1

    def check_table(self):
        checking.append(True)
        try:
            real_check(self)
        finally:
            checking.pop()

    monkeypatch.setattr(Multiplier, "__init__", short)
    monkeypatch.setattr(FlagCohomology, "_check_table", check_table)
    report = run_verification("A", 2, suites=["theorem-invariants"])
    assert report.exit_code == 2
    failures = report.suites["theorem-invariants"].hard_failures
    assert "poincare-duality" in {f["check"] for f in failures}


def test_violation_exit_code(monkeypatch):
    """A conjecture violation is a finding (exit 1), not a crash.  The
    class is negated at the representative (e, e) on A1, and the finding
    shows there and at its partner (s1, s1), in row order."""
    real = RichardsonCalculator.csm_richardson

    def negated(self, u, v):
        out = real(self, u, v)
        if u == self.group.identity and v == self.group.identity:
            return -1 * out
        return out

    monkeypatch.setattr(RichardsonCalculator, "csm_richardson", negated)
    report = run_verification("A", 1, suites=["conjB"])
    assert report.exit_code == 1
    suite = report.suites["conjB"]
    assert suite.status == "VIOLATIONS"
    assert suite.violations == [
        {"check": "conjB", "u": w, "v": w, "w": "e", "value": -1} for w in ("e", "s1")]


def test_report_witnesses_use_words(monkeypatch):
    """Witnesses name elements by reduced words.  The classes negated at
    the representatives (s1, e) and (s2, e) on A2 break conjB there and at
    their partners (w0, w0*s1) and (w0, w0*s2), which live in another row
    and another unit, with the same w and values under their own words."""
    real = RichardsonCalculator.csm_richardson

    def negated(self, u, v):
        out = real(self, u, v)
        return -1 * out if (u.length, v.length) == (1, 0) else out

    monkeypatch.setattr(RichardsonCalculator, "csm_richardson", negated)
    report = run_verification("A", 2, suites=["conjB"])
    plain = build_engines("A", 2).rich
    g, found = plain.group, {}
    for u in (g.parse("s1"), g.parse("s2")):
        found[u] = [(str(g.elements[w]), c)
                    for w, c in plain.richardson_coeffs(u, g.identity).violations]
        assert found[u]
    rows = [(u, g.identity, found[u]) for u in found]
    rows += sorted(((g.longest, g.w0_times(u), found[u]) for u in found),
                   key=lambda row: row[1].index)
    assert report.suites["conjB"].violations == [
        {"check": "conjB", "u": str(u), "v": str(v), "w": w, "value": val}
        for u, v, entries in rows for w, val in entries]
    assert {e["u"] for e in report.suites["conjB"].violations} == {"s1", "s2", "s1 s2 s1"}


def test_no_run_reads_the_cache(tmp_path, capsys):
    """verify and show compute both tables and read nothing from the cache
    directory: table writes the CSM file alone; a checksum-valid but wrong CSM
    file (an interior coefficient doubled) and a garbage structure file draw
    no warning, stay byte-unchanged and leave the report equal to a
    cache-less one; verify on an empty cache directory writes nothing there."""
    cache = TableCache(tmp_path / "cache")
    group = ["--type", "A", "--rank", "3", "--cache-dir", str(cache.root)]
    assert cli.main(["table", *group]) == 0
    assert "csm table for A3: computed" in capsys.readouterr().out
    assert sorted(p.name for p in cache.root.rglob("*") if p.is_file()) == ["csm-v1.json"]
    csm_path = cache._path("A", 3, "csm")
    envelope = json.loads(csm_path.read_bytes())
    row = envelope["payload"]["rows"]["1.2"]
    key = max(row, key=row.get)
    assert row[key] > 1            # leading and top coefficients are 1
    row[key] *= 2
    envelope["checksum"] = payload_checksum(envelope["payload"])
    csm_path.write_text(json.dumps(envelope))
    structure_path = cache._path("A", 3, "structure")
    structure_path.write_text("garbage")
    before = {p: p.read_bytes() for p in (csm_path, structure_path)}
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", *group, "--suite", "all", "--output", str(out)]) == 0
        assert cli.main(["show", "richardson", *group, "--u", "s1 s2", "--v", "s1"]) == 0
    assert {p: p.read_bytes() for p in before} == before
    bare = run_verification("A", 3, suites=["all"])
    assert _strip_timings(out.read_text()) == _strip_timings(bare.to_json())
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["verify", "--type", "A", "--rank", "2", "--suite", "conjB",
                     "--cache-dir", str(empty)]) == 0
    assert not list(empty.iterdir())


def _count_table_builds(monkeypatch) -> list:
    """Record each structure-table build (a _computed_rows call)."""
    builds = []
    real = FlagCohomology._computed_rows

    def counted(self):
        builds.append(self)
        return real(self)

    monkeypatch.setattr(FlagCohomology, "_computed_rows", counted)
    return builds


def test_pair_suites_build_no_second_table(monkeypatch):
    """A run of the pair benchmarks' suites on A3 builds the structure table
    exactly once."""
    builds = _count_table_builds(monkeypatch)
    report = run_verification("A", 3, suites=["theorem-invariants", "conjB", "conjC"])
    assert report.exit_code == 0 and len(builds) == 1


def test_table_built_once_before_the_pool(monkeypatch):
    """A3 cross-paths under --jobs 2 builds the structure table once, in the
    parent before the pool starts, and reports as the serial run does."""
    import multiprocessing.pool

    import csmverify.verify as verify_mod

    serial = run_verification("A", 3, suites=["cross-paths"])
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    builds = _count_table_builds(monkeypatch)
    at_pool = []
    real_init = multiprocessing.pool.Pool.__init__

    def recording_init(self, *args, **kwargs):
        at_pool.append((verify_mod._WORKER_ENGINES.coh._table is not None, len(builds)))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", recording_init)
    pooled = run_verification("A", 3, suites=["cross-paths"], jobs=2)
    assert at_pool == [(True, 1)] and len(builds) == 1
    a, b = _strip_timings(serial.to_json()), _strip_timings(pooled.to_json())
    assert a["options"].pop("jobs") == 1 and b["options"].pop("jobs") == 2
    assert a == b and pooled.exit_code == 0


# -- CLI ----------------------------------------------------------------------------------

def test_cli_verify_a1(tmp_path, capsys):
    rc = cli.main(["verify", "--type", "A", "--rank", "1", "--suite", "all",
                   "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "conjB: 4/4 instances, 0 violations" in out
    assert "RESULT: PASS (exit 0)" in out


def test_cli_verify_writes_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = cli.main(["verify", "--type", "A", "--rank", "2", "--suite", "conjB",
                   "--cache-dir", str(tmp_path / "cache"), "--output", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["group"] == {"series": "A", "rank": 2, "order": 6}
    assert report["suites"]["conjB"]["status"] == "PASS"
    assert report["suites"]["conjB"]["instances"] == 36
    assert report["exit_code"] == 0
    assert report["cache"]["dl_convention"] == "letters-left-to-right"


def test_cli_verify_csv(tmp_path):
    out_path = tmp_path / "report.csv"
    rc = cli.main(["verify", "--type", "A", "--rank", "1", "--suite", "conjB",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--output", str(out_path), "--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0][0] == "record"
    summary = [r for r in rows if r[0] == "summary"]
    assert summary[0][3] == "conjB" and summary[0][8] == "PASS"


def test_cli_csv_names_every_hard_failure(tmp_path, monkeypatch):
    """A failing run's CSV has one hard-failure row per listed hard failure,
    with its error in the value column: richardson_coeffs raising at the
    pairs (u, e), l(u) = 1, on A2 fails conjB at those two pairs and at
    their two partners."""
    real = RichardsonCalculator.richardson_coeffs

    def faulty(self, u, v):
        if u.length == 1 and v.length == 0:
            raise ParityViolation(f"injected fault at ({u}, {v})")
        return real(self, u, v)

    monkeypatch.setattr(RichardsonCalculator, "richardson_coeffs", faulty)
    out_path = tmp_path / "report.csv"
    rc = cli.main(["verify", "--type", "A", "--rank", "2", "--suite", "conjB",
                   "--output", str(out_path), "--format", "csv"])
    assert rc == 2
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0][-5:] == ["check", "u", "v", "w", "value"]
    assert [r[7] for r in rows if r[0] == "summary"] == ["4"]
    hard = [r for r in rows if r[0] == "hard-failure"]
    assert [r[3] for r in hard] == ["conjB"] * 4
    assert [r[9] for r in hard] == ["richardson"] * 4
    assert [(r[10], r[11]) for r in hard] == [
        ("s1", "e"), ("s2", "e"), ("s1 s2 s1", "s1 s2"), ("s1 s2 s1", "s2 s1")]
    assert hard[0][13] == "injected fault at (s1, e)"


def test_cli_usage_errors(tmp_path, capsys):
    assert cli.main(["verify", "--type", "Z", "--rank", "9",
                     "--cache-dir", str(tmp_path)]) == 3
    assert cli.main(["verify", "--type", "A", "--rank", "2", "--suite", "bogus",
                     "--cache-dir", str(tmp_path)]) == 3
    assert cli.main(["show", "richardson", "--type", "A", "--rank", "1", "--u", "e",
                     "--cache-dir", str(tmp_path)]) == 3  # missing --v
    assert cli.main(["show", "csm", "--type", "A", "--rank", "2", "--u", "nonsense",
                     "--cache-dir", str(tmp_path)]) == 3
    assert cli.main(["verify", "--type", "E", "--rank", "6",
                     "--cache-dir", str(tmp_path)]) == 3  # capacity
    # a negative length filter would pass vacuously on zero instances
    assert cli.main(["verify", "--type", "A", "--rank", "2", "--max-length", "-1",
                     "--cache-dir", str(tmp_path)]) == 3
    assert cli.main(["verify", "--type", "A", "--rank", "2", "--jobs", "0",
                     "--cache-dir", str(tmp_path)]) == 3
    assert "--jobs must be at least 1" in capsys.readouterr().err
    # a report or cache path that cannot be written: one error line, no traceback
    assert cli.main(["verify", "--type", "A", "--rank", "1", "--suite", "conjB",
                     "--output", str(tmp_path / "no" / "such" / "dir" / "r.json")]) == 3
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert cli.main(["table", "--type", "A", "--rank", "1",
                     "--cache-dir", str(not_a_dir)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("csmverify: error: ") for line in err)


def test_unwritable_destination_refused_before_any_work(tmp_path, monkeypatch, capsys):
    """A report or export that could not be written is refused before the
    engines are built, with one error line; verify still writes nothing
    under --cache-dir."""
    from csmverify import verify

    def refuse(*args, **kwargs):
        raise AssertionError("engines built for an unwritable destination")

    for module in (cli, verify):
        monkeypatch.setattr(module, "build_engines", refuse)
    a_file = tmp_path / "file"
    a_file.write_text("")
    (tmp_path / "blocked").mkdir()
    (tmp_path / "blocked" / "A4").write_text("")
    verify_args = ["verify", "--type", "A", "--rank", "4", "--suite", "conjD",
                   "--suite", "cross-paths", "--cache-dir", str(tmp_path / "vcache")]
    cases = [
        [*verify_args, "--output", str(tmp_path / "missing-dir" / "r.json")],
        [*verify_args, "--output", str(a_file / "r.json")],
        [*verify_args, "--output", str(tmp_path)],
        ["table", "--type", "B", "--rank", "4", "--cache-dir", str(a_file)],
        ["table", "--type", "B", "--rank", "4", "--cache-dir", str(a_file / "deeper")],
        ["table", "--type", "A", "--rank", "4", "--cache-dir", str(tmp_path / "blocked")],
    ]
    for argv in cases:
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("csmverify: error: "), argv
    assert not (tmp_path / "vcache").exists()


def test_oversized_group_refused_before_its_cartan_matrix(tmp_path, monkeypatch, capsys):
    # the order cap is checked on the invariant degrees, so refusing a
    # large rank builds no rank x rank matrix and prints no huge |W|
    from csmverify import rootdata

    real = rootdata.canonical_cartan_matrix

    def small_only(series, rank):
        assert rank <= 8, "Cartan matrix built for an oversized group"
        return real(series, rank)

    monkeypatch.setattr(rootdata, "canonical_cartan_matrix", small_only)
    assert cli.main(["verify", "--type", "A", "--rank", "1500",
                     "--cache-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["csmverify: error: |W(A1500)| exceeds the cap 10000"]


def test_show_csm_refuses_v(tmp_path, capsys):
    assert cli.main(["show", "csm", "--type", "A", "--rank", "2", "--u", "s1",
                     "--v", "s2", "--cache-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "csmverify: error: csm takes no --v\n"


def test_table_refused_above_default_cap(tmp_path, monkeypatch, capsys):
    """One cap for every command: with it lowered to 10, A3 (24 elements)
    is refused by table, verify and both kinds of show, and nothing is
    written under --cache-dir."""
    from csmverify import rootdata, verify

    for module in (rootdata, verify):
        monkeypatch.setattr(module, "MAX_ORDER", 10)
    group = ["--type", "A", "--rank", "3", "--cache-dir", str(tmp_path)]
    for argv in (["table"], ["verify", "--suite", "conjB"], ["show", "csm", "--u", "s1"],
                 ["show", "box", "--u", "s1", "--v", "s2"]):
        assert cli.main(argv + group) == 3, argv
        assert capsys.readouterr().err == "csmverify: error: |W(A3)| exceeds the cap 10\n"
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_e6_refused_by_every_command_before_enumeration(monkeypatch, capsys):
    """|W(E6)| = 51,840 is over the cap: every command refuses it from the
    invariant degrees, before any element is enumerated, and no option
    raises the cap."""
    def refuse(self):
        raise AssertionError("enumerated a group above the cap")

    monkeypatch.setattr(WeylGroup, "_enumerate", refuse)
    e6 = ["--type", "E", "--rank", "6"]
    commands = (["verify"], ["table"], ["show", "csm", "--u", "s1"],
                ["show", "box", "--u", "s1", "--v", "s2"])
    for argv in commands:
        assert cli.main(argv + e6) == 3, argv
        assert capsys.readouterr().err == "csmverify: error: |W(E6)| exceeds the cap 10000\n"
    for argv in commands:
        assert cli.main(argv + e6 + ["--max-order", "60000"]) == 3, argv
        assert "unrecognized arguments: --max-order 60000" in capsys.readouterr().err


def test_cli_show_box_golden(tmp_path, capsys):
    rc = cli.main(["show", "box", "--type", "A", "--rank", "1", "--u", "e", "--v", "e",
                   "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "eps^e - eps^{s1}" in out
    assert "[X_s1] - [X_e]" in out


def test_show_builds_no_checksum_payload(tmp_path, monkeypatch, capsys):
    """show box builds both tables, but streams neither table's checksum
    payload."""
    from csmverify import cache, verify

    def refuse(*args):
        raise AssertionError("checksum payload streamed")

    # in cache.py, and where materialize_tables looks them up
    for module in (cache, verify):
        monkeypatch.setattr(module, "structure_chunks", refuse)
        monkeypatch.setattr(module, "csm_chunks", refuse)
    assert cli.main(["show", "box", "--type", "B", "--rank", "2", "--u", "s1", "--v", "s2",
                     "--cache-dir", str(tmp_path)]) == 0
    assert "box product" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_cli_show_csm_golden(tmp_path, capsys):
    rc = cli.main(["show", "csm", "--type", "A", "--rank", "2", "--u", "s1",
                   "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "eps^{s1 s2} + eps^{s1 s2 s1}" in out


def test_cli_show_richardson(tmp_path, capsys):
    rc = cli.main(["show", "richardson", "--type", "A", "--rank", "1",
                   "--u", "s1", "--v", "e", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "eps^e" in out


def test_cli_table_rewrites_its_export(tmp_path, capsys):
    """table computes both tables on every run and rewrites the CSM export
    with the same bytes."""
    path = TableCache(tmp_path)._path("B", 2, "csm")
    runs = []
    for _ in range(2):
        assert cli.main(["table", "--type", "B", "--rank", "2",
                         "--cache-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and all(": computed, checksum " in l for l in lines)
        runs.append((lines, path.read_bytes()))
    assert runs[0] == runs[1]


def test_cli_internal_failure_exit(tmp_path, monkeypatch, capsys):
    from csmverify.csm import CsmCalculator

    def corrupt(self, u):
        raise ParityViolation("injected")

    monkeypatch.setattr(CsmCalculator, "csm_schubert_cell", corrupt)
    rc = cli.main(["show", "csm", "--type", "A", "--rank", "1", "--u", "e",
                   "--cache-dir", str(tmp_path)])
    assert rc == 2


def test_cli_jobs_flag(tmp_path, capsys):
    rc = cli.main(["verify", "--type", "A", "--rank", "2", "--suite", "conjB",
                   "--jobs", "2", "--cache-dir", str(tmp_path)])
    assert rc == 0


def test_cli_max_length(tmp_path, capsys):
    rc = cli.main(["verify", "--type", "B", "--rank", "2", "--suite", "conjD",
                   "--max-length", "1", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "conjD: 72/72" in out  # (1 + 2 short elements)^2 * 8


def test_cli_verify_internal_failure_exit(tmp_path, monkeypatch, capsys):
    real = RichardsonCalculator.richardson_coeffs

    def faulty(self, u, v):
        raise ParityViolation("injected")

    monkeypatch.setattr(RichardsonCalculator, "richardson_coeffs", faulty)
    rc = cli.main(["verify", "--type", "A", "--rank", "1", "--suite", "conjB",
                   "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "INTERNAL FAILURE" in out


def test_associativity_disagreement_fails_the_meta_check(tmp_path, monkeypatch, capsys):
    """A box row whose chi paths disagree fails the observed-only
    box-associativity meta-check instead of aborting the run: the report
    is written with the suites' entries, the meta-check reads FAIL, the
    run exits 2 and the disagreement is printed on stderr."""
    real = BoxCalculator.chi_row

    def skewed(self, u, v):
        # the triple-sum path one too high at every w of length 3, for the
        # pairs of lengths {1, 2}
        row = real(self, u, v)
        if {u.length, v.length} != {1, 2}:
            return row
        triple_sum = dict(row.triple_sum)
        for wi in self.group.indices_of_length(3):
            triple_sum[wi] = triple_sum.get(wi, 0) + 1
        return ChiRow(triple_sum, row.expansion)

    monkeypatch.setattr(BoxCalculator, "chi_row", skewed)
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--type", "A", "--rank", "3", "--suite", "conjD",
                   "--suite", "cross-paths", "--output", str(out)])
    assert rc == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["meta_checks"]["box-associativity"] == "FAIL"
    assert report["exit_code"] == 2
    assert report["suites"]["conjD"]["status"] == "PASS"
    crosspaths = report["suites"]["cross-paths"]
    assert crosspaths["status"] == "FAIL"
    assert crosspaths["hard_failures"][0]["check"] == "chi-paths"
    assert ("box associativity: chi(s1, s1 s2, s1 s2 s1): triple-sum 2, expansion 1"
            in capsys.readouterr().err)


def test_cli_csv_to_stdout(tmp_path, capsys):
    rc = cli.main(["verify", "--type", "A", "--rank", "1", "--suite", "conjB",
                   "--format", "csv", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "record,series,rank,suite" in out


def test_table_without_cache_dir_writes_nothing(tmp_path, monkeypatch, capsys):
    """Without --cache-dir, table prints both checksums and writes no file:
    not under $HOME, not under $CSMVERIFY_CACHE, not in the working
    directory."""
    dirs = [tmp_path / name for name in ("home", "envcache", "cwd")]
    for d in dirs:
        d.mkdir()
    monkeypatch.setenv("HOME", str(dirs[0]))
    monkeypatch.setenv("CSMVERIFY_CACHE", str(dirs[1]))
    monkeypatch.chdir(dirs[2])
    assert cli.main(["table", "--type", "A", "--rank", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(":")[0] for l in lines] == ["csm table for A1", "structure table for A1"]
    assert all(": computed, checksum " in l for l in lines)
    assert [list(d.iterdir()) for d in dirs] == [[], [], []]
