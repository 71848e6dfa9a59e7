"""Verification sweeps over one group, with machine-readable reports.

Suite semantics
---------------
* ``theorem-invariants``: proved identities only.  Any failure here is an
  implementation bug; it is recorded as a hard failure and maps to exit
  code 2.  Given the Segre twist and the ring map phi, the mirror check on
  each Richardson class is equivalent to the parity check; both stay.  Its
  element block computes each cell's CSM and Segre classes, which check
  their invariants and the sign twist where they are computed, and expands
  the cell class in the CSM basis; the opposite-cell class is by definition
  the cell class of w0*u, so it is not compared with it.
* ``conjB``: nonnegativity of the Richardson coefficients against the
  Schubert-variety basis.  All |W|^2 pairs are recorded; negatives are
  findings.
* ``conjC``: alternating signs of the CSM-basis expansions of Richardson
  classes.  All |W|^2 pairs are recorded; violations are findings.
* ``conjD``: sign of the deformed-product structure constants against the
  intersection dimension, over all filtered triples, plus the graded
  comparison with the cup product (hard) and the per-pair equivalence with
  the conjC verdict (hard).  The equivalence reads the sign pass's own
  expansion, of R(w0*u, v), with a sign base of the same parity term by
  term, so it fails only where an entry below the threshold
  (l(w) < l(u) + l(v)) has the wrong sign; no pair of A3, B3 or G2 has one.
* ``cross-paths``: the three Euler-characteristic formulas agree on every
  filtered triple (hard); only two are independent (see ``boxproduct``).

conjD and cross-paths read every w of a pair off one chi row
(``BoxCalculator.expansion_row``, resp. ``chi_row``), and still count one
instance per w; a row that cannot be built records one hard failure per w.

Each pair-level check is a record step on one pair (u, v).  One sweep per
run calls the steps of every requested suite, in units of the row pair
{u, w0*u} (conjD and cross-paths on row u read the classes of (w0*u, v));
with jobs above 1 the units go to one fork pool.  Both the structure and
the CSM table are computed in process before the sweep, so workers inherit
them; no run reads a table from disk.  A unit holds at most two Richardson
rows and nothing else; box associativity builds its own table of box rows.

The pair block of theorem-invariants, conjB and conjC runs on one pair of
each partner pair (u, v) ~ (w0*v, w0*u).  w0 maps the one Richardson cell
onto the other and acts trivially on cohomology, so the classes are equal;
the two products of each are the other's with the factors swapped, the
degree bases l(u) + l(v) and 2N - l(u) - l(v) have the same parity, and
the lemma-E product and sign are shared, so every check and finding is
the same.  A pair is computed when its partner is filtered out, is the
pair itself, or comes after it by index; its entries are recorded at both
pairs, each under its own u and v, and each pair counts one instance.
conjD and cross-paths run on every pair.  Entries merge in (row, column)
order after the sweep, so the report does not depend on jobs.
``timings.per_suite_s`` is each suite's record-step time summed over units
(worker time in a pool), plus theorem-invariants' element and global blocks.

Findings carry full witnesses (reduced words, never internal indices).
Reports are byte-deterministic apart from the ``timings`` block.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from operator import itemgetter

from . import __version__
from .boxproduct import BoxCalculator
from .cache import FORMAT_VERSION, TableCache, chunks_checksum, csm_chunks, structure_chunks
from .cohomology import FlagCohomology
from .csm import CONVENTION, CsmCalculator
from .errors import InternalInvariantError, UsageError
from .richardson import RichardsonCalculator
from .rootdata import CartanDatum, WeylGroup, DEFAULT_MAX_ORDER, parity_sign, weyl_order

SCHEMA_VERSION = 1
SUITE_NAMES = ("theorem-invariants", "conjB", "conjC", "conjD", "cross-paths")
HARD_FAILURE_LIST_CAP = 100


@dataclass
class Engines:
    """The full calculator stack for one group."""

    group: WeylGroup
    coh: FlagCohomology
    csm: CsmCalculator
    rich: RichardsonCalculator
    box: BoxCalculator

    @property
    def series(self) -> str:
        return self.group.datum.series

    @property
    def rank(self) -> int:
        return self.group.datum.rank


def build_engines(series: str, rank: int, max_order: int = DEFAULT_MAX_ORDER) -> Engines:
    """Construct the stack; no table is read from disk.  A group over
    max_order is refused before its Cartan datum is built."""
    weyl_order(series.upper(), rank, max_order)
    datum = CartanDatum.from_series(series, rank)
    group = WeylGroup(datum, max_order=max_order)
    coh = FlagCohomology(group)
    csm = CsmCalculator(coh)
    rich = RichardsonCalculator(csm)
    return Engines(group, coh, csm, rich, BoxCalculator(rich))


def materialize_tables(engines: Engines, cache: TableCache | None = None) -> dict[str, str]:
    """Build the full structure and CSM tables; given a cache, write the
    CSM table to it as the table's checksummed export.  Returns the payload
    checksums by kind.  Each payload is streamed, never held whole: the
    export encodes the CSM table a second time, under the checksum taken
    of the first."""
    checksums = {"structure": chunks_checksum(structure_chunks(engines.coh)),
                 "csm": chunks_checksum(csm_chunks(engines.csm))}
    if cache is not None:
        cache.store(engines.series, engines.rank, "csm", csm_chunks(engines.csm),
                    checksums["csm"])
    return checksums


@dataclass
class SuiteResult:
    name: str
    instances: int
    predicted_instances: int
    violations: list = field(default_factory=list)
    hard_failures: list = field(default_factory=list)
    hard_failure_count: int = 0
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        if self.hard_failure_count or self.instances != self.predicted_instances:
            return "FAIL"
        return "VIOLATIONS" if self.violations else "PASS"

    def to_dict(self) -> dict:
        keys = ("instances", "predicted_instances", "violations", "hard_failures",
                "hard_failure_count")
        return {**{k: getattr(self, k) for k in keys}, "status": self.status}


def _new_tally() -> dict:
    """An empty tally; its keys are the tallied SuiteResult fields."""
    return {"instances": 0, "violations": [], "hard_failures": [], "hard_failure_count": 0,
            "elapsed": 0.0}


def _record_hard(result_dict: dict, entry: dict) -> None:
    result_dict["hard_failure_count"] += 1
    if len(result_dict["hard_failures"]) < HARD_FAILURE_LIST_CAP:
        result_dict["hard_failures"].append(entry)


def _entry(check: str, *elements, **detail) -> dict:
    """A violation or hard-failure record; the elements it names, (u, v, w)
    or a prefix, are written as reduced words."""
    return {"check": check, **{k: str(x) for k, x in zip("uvw", elements)}, **detail}


def pool_size(jobs: int, units: int) -> int:
    """Worker processes for a sweep: no more than requested, than CPUs this
    process may run on, or than units of work."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, cpus or 1, units))


# -- record steps: one (u, v) pair of one suite into the tally of row u ---------


def _record_theorem_pair(engines: Engines, out: dict, u, v) -> None:
    group, rich = engines.group, engines.rich
    out["instances"] += 1
    try:
        cls = rich.csm_richardson(u, v)           # mirror agreement inside
        rich.richardson_coeffs(u, v)              # parity inside
        rich.verify_lemma_e(u, v)                 # sign condition inside
        if not group.bruhat_leq(v, u) and cls:
            _record_hard(out, _entry("empty-cell", u, v,
                                     error="empty Richardson cell has nonzero class"))
        if u == v and cls != engines.coh.schubert_class(group.longest):
            _record_hard(out, _entry("diagonal-point", u, v,
                                     error="diagonal cell class is not the point class"))
    except InternalInvariantError as exc:
        _record_hard(out, _entry("richardson-pair", u, v, error=str(exc)))


def _record_conjb(engines: Engines, out: dict, u, v) -> None:
    out["instances"] += 1
    try:
        coeffs = engines.rich.richardson_coeffs(u, v)
    except InternalInvariantError as exc:
        _record_hard(out, _entry("richardson", u, v, error=str(exc)))
        return
    for w, val in coeffs.violations:
        out["violations"].append(_entry("conjB", u, v, w, value=val))


def _record_conjc(engines: Engines, out: dict, u, v) -> None:
    out["instances"] += 1
    try:
        coeffs = engines.rich.csm_basis_coeffs(u, v)
    except InternalInvariantError as exc:
        _record_hard(out, _entry("csm-basis-expansion", u, v, error=str(exc)))
        return
    for w, val in coeffs.violations:
        out["violations"].append(_entry("conjC", u, v, w, value=val))


def _record_row_failure(out: dict, check: str, u, v, elements, exc: Exception) -> None:
    """A pair whose row could not be read fails at every w, one instance each."""
    for w in elements:
        out["instances"] += 1
        _record_hard(out, _entry(check, u, v, w, error=str(exc)))


def _record_conjd(engines: Engines, out: dict, u, v) -> None:
    group = engines.group
    floor = u.length + v.length
    pair_sign_ok = True
    try:
        row = engines.box.expansion_row(u, v)
    except InternalInvariantError as exc:
        _record_row_failure(out, "chi", u, v, group.elements, exc)
    else:
        out["instances"] += group.order
        cup = engines.coh.structure_constants_idx(u.index, v.index)
        for wi in sorted(row.keys() | cup.keys()):
            w, chi, cup_c = group.elements[wi], row.get(wi, 0), cup.get(wi, 0)
            if w.length < floor:
                # below the dimension threshold: reported, not fatal
                out["violations"].append(_entry("below-threshold", u, v, w, value=chi))
                continue
            if w.length == floor and chi != cup_c:
                _record_hard(out, _entry("graded-vs-cup", u, v, w, value=chi, expected=cup_c))
            if parity_sign(w.length - floor) * chi < 0:
                pair_sign_ok = False
                out["violations"].append(_entry("conjD", u, v, w, value=chi))
    # the per-pair verdict must match the CSM-basis sign verdict for the
    # mirrored Richardson pair
    try:
        c_ok = not engines.rich.csm_basis_coeffs(group.w0_times(u), v).violations
        if c_ok != pair_sign_ok:
            _record_hard(out, _entry(
                "pairwise-equivalence", u, v,
                error=f"sign verdicts disagree: chi {pair_sign_ok}, expansion {c_ok}"))
    except InternalInvariantError as exc:
        _record_hard(out, _entry("pairwise-equivalence", u, v, error=str(exc)))


def _record_crosspaths(engines: Engines, out: dict, u, v) -> None:
    els = engines.group.elements
    try:
        row = engines.box.chi_row(u, v)
    except InternalInvariantError as exc:
        _record_row_failure(out, "chi-paths", u, v, els, exc)
        return
    out["instances"] += len(els)
    if row.agree:
        return
    for w in els:
        prov = row.provenance(w.index)
        if not prov.agree:
            _record_hard(out, _entry(
                "chi-paths", u, v, w,
                error=f"triple-sum {prov.triple_sum}, pairing {prov.pairing}, "
                      f"expansion {prov.expansion}"))


#: the pair-level record step of each suite; theorem-invariants also has
#: an element block before the sweep and a global block after it
_RECORD_STEPS = {"theorem-invariants": _record_theorem_pair, "conjB": _record_conjb,
                 "conjC": _record_conjc, "conjD": _record_conjd,
                 "cross-paths": _record_crosspaths}
#: suites that check every w for each (u, v) pair; the other suites'
#: findings on a pair are those on its partner (w0*v, w0*u), since w0 maps
#: the one Richardson cell onto the other and acts trivially on cohomology
_TRIPLE_SUITES = frozenset({"conjD", "cross-paths"})


# -- the row sweep ----------------------------------------------------------------

_WORKER_ENGINES: Engines | None = None


def _row_units(group: WeylGroup, filtered: list[int]) -> list[list[int]]:
    """The units of work: each filtered row u together with row w0*u when
    that is filtered too, since conjD and cross-paths on row u read the
    classes of (w0*u, v)."""
    keep, units = set(filtered), []
    for ui in filtered:
        partner = group._w0[ui]
        if partner not in keep:
            units.append([ui])
        elif ui < partner:
            units.append([ui, partner])
    return units


def _sweep_unit(engines: Engines, names, filtered, rows) -> dict:
    """Every named record step on the pairs (u, v) with u in rows and v
    filtered.  A pair suite computes a pair only when it represents
    its partner (w0*v, w0*u): the partner is filtered out, or is the pair
    itself, or comes after it by index.  A distinct filtered partner is
    counted as the pair is and gets its entries, relabelled with its own u
    and v.  Returns {suite: (counts, found)}: counts holds the instances,
    the hard-failure count and the record-step time; found lists
    ((row, column), violations, hard failures) of the pairs with any
    entries, in pair order, with the hard failures after the first
    HARD_FAILURE_LIST_CAP of the unit dropped (no later one is reported)."""
    group, clock = engines.group, time.perf_counter
    els, w0, keep = group.elements, group._w0, set(filtered)
    steps = [(name, _RECORD_STEPS[name], name not in _TRIPLE_SUITES) for name in names]
    out = {name: ({"instances": 0, "hard_failure_count": 0, "elapsed": 0.0}, [])
           for name in names}
    for ui in rows:
        u = els[ui]
        for vi in filtered:
            v, key, partner = els[vi], (ui, vi), (w0[vi], w0[ui])
            twin = partner != key and partner[0] in keep and partner[1] in keep
            for name, step, pair_suite in steps:
                copies = 2 if pair_suite and twin else 1
                if copies == 2 and partner < key:
                    continue        # recorded by its partner
                counts, found = out[name]
                pair = _new_tally()
                start = clock()
                step(engines, pair, u, v)
                counts["elapsed"] += clock() - start
                counts["instances"] += copies * pair["instances"]
                counts["hard_failure_count"] += copies * pair["hard_failure_count"]
                violations, hard = pair["violations"], pair["hard_failures"]
                if not (violations or hard):
                    continue
                found.append((key, violations, hard))
                if copies == 2:
                    labels = {"u": str(els[partner[0]]), "v": str(els[partner[1]])}
                    found.append((partner, [{**e, **labels} for e in violations],
                                  [{**e, **labels} for e in hard]))
    for _, found in out.values():
        found.sort(key=itemgetter(0))
        room = HARD_FAILURE_LIST_CAP
        for _, _, hard in found:
            del hard[room:]
            room -= len(hard)
    return out


def _pooled_unit(task) -> dict:
    return _sweep_unit(_WORKER_ENGINES, *task)


def _run_suites(engines: Engines, names, max_length: int | None,
                jobs: int) -> dict[str, SuiteResult]:
    """The named suites in one sweep over the filtered rows, in-process or
    in one fork pool.  Each suite's entries are merged in (row, column)
    order, the serial pair order, so the result does not depend on jobs.
    theorem-invariants' tally is its element block, then its pair tally,
    then its global block."""
    group, clock = engines.group, time.perf_counter
    filtered = [i for i in range(group.order)
                if max_length is None or group._lengths[i] <= max_length]
    tallies = {name: _new_tally() for name in names}
    predicted = {name: len(filtered) ** 2 * (group.order if name in _TRIPLE_SUITES else 1)
                 for name in names}
    theorem = tallies.get("theorem-invariants")
    if theorem is not None:
        # before any fork, so that workers inherit the per-element classes
        start = clock()
        _theorem_elements(engines, theorem, filtered)
        theorem["elapsed"] += clock() - start
    units = _row_units(group, filtered)
    tasks = [(names, filtered, rows) for rows in units]
    workers = pool_size(jobs, len(units))
    try:
        ctx = multiprocessing.get_context("fork") if workers > 1 else None
    except ValueError:
        ctx = None
    if ctx is None:
        parts = [_sweep_unit(engines, *task) for task in tasks]
    else:
        global _WORKER_ENGINES
        _WORKER_ENGINES = engines
        try:
            with ctx.Pool(workers) as pool:
                parts = pool.map(_pooled_unit, tasks, chunksize=1)
        finally:
            _WORKER_ENGINES = None
    for name in names:
        tally, found = tallies[name], []
        for part in parts:
            counts, items = part[name]
            for k, x in counts.items():
                tally[k] += x
            found.extend(items)
        found.sort(key=itemgetter(0))
        listed = tally["hard_failures"]
        for _, violations, hard in found:
            tally["violations"].extend(violations)
            listed.extend(hard[:HARD_FAILURE_LIST_CAP - len(listed)])

    if theorem is not None:
        start = clock()
        predicted["theorem-invariants"] += len(filtered) + _theorem_globals(engines, theorem)
        theorem["elapsed"] += clock() - start
    return {name: SuiteResult(name=name, predicted_instances=predicted[name], **tallies[name])
            for name in names}


def run_suite(engines: Engines, name: str, max_length: int | None = None,
              jobs: int = 1) -> SuiteResult:
    """One suite, through the same sweep as run_verification."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    return _run_suites(engines, (name,), max_length, jobs)[name]


# -- theorem-invariants: the element and global blocks ------------------------


def _theorem_elements(engines: Engines, out: dict, filtered: list[int]) -> None:
    """Cell-class identities on every filtered element, recorded into out."""
    group, csm, rich = engines.group, engines.csm, engines.rich
    for ui in filtered:
        u = group.elements[ui]
        out["instances"] += 1
        try:
            cell = csm.csm_schubert_cell(u)       # positivity/support/normalization
            csm.segre_schubert_cell(u)            # sign twist
            if rich.expand_in_csm_basis(cell) != {ui: 1}:
                _record_hard(out, _entry("csm-basis-unitriangular", u,
                                         error="cell class does not expand to itself"))
        except InternalInvariantError as exc:
            _record_hard(out, _entry("cell-invariants", u, error=str(exc)))


def _theorem_globals(engines: Engines, out: dict) -> int:
    """Whole-group identities, recorded into out; returns how many ran."""
    group, coh, csm = engines.group, engines.coh, engines.csm
    before = out["instances"]

    def check(ok: bool, name: str, detail=""):
        out["instances"] += 1
        if not ok:      # detail: a message, or a function formatting it
            text = detail() if callable(detail) else detail
            _record_hard(out, _entry(name, error=text or "identity fails"))

    try:
        check(csm.completeness_check(), "completeness",
              "cell classes do not sum to the tangent Chern class")
        check(coh.integrate(csm.tangent_chern()) == group.order, "chern-integral",
              "tangent Chern class does not integrate to |W|")
        check(coh.cup(csm.tangent_chern(), csm.chern_inverse()) == coh.unit(),
              "chern-inverse", "inverse Chern class fails")
    except InternalInvariantError as exc:
        check(False, "chern-machinery", str(exc))

    # Poincare duality on complementary-degree pairs
    top = group.num_positive
    for u in group.elements:
        for v in group.elements_of_length(top - u.length):
            expected = 1 if v == group.w0_times(u) else 0
            got = coh.integrate(coh.cup(coh.schubert_class(u), coh.schubert_class(v)))
            check(got == expected, "poincare-duality",
                  lambda: f"pairing of ({u}, {v}) is {got}, expected {expected}")

    # degree-2 rule vs the structure table
    for i, v, agree in coh.chevalley_agreement():
        check(agree, "chevalley-agreement", lambda: f"degree-2 products disagree at (s{i}, {v})")

    # operator relations on every basis vector
    for i in range(1, group.rank + 1):
        for w in group.elements:
            basis = coh.schubert_class(w)
            check(csm.dl_operator(i, csm.dl_operator(i, basis)) == basis,
                  "dl-quadratic", lambda: f"T_{i}^2 != id at {w}")
            check(not csm.bgg_A(i, csm.bgg_A(i, basis)),
                  "bgg-quadratic", lambda: f"A_{i}^2 != 0 at {w}")
            check(csm.weyl_action(i, csm.weyl_action(i, basis)) == basis,
                  "weyl-involution", lambda: f"s_{i}^2 != id at {w}")

    C = group.datum.matrix
    braid_order = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(1, group.rank + 1):
        for j in range(i + 1, group.rank + 1):
            m = braid_order[C[i - 1][j - 1] * C[j - 1][i - 1]]
            left_word = [(i if k % 2 == 0 else j) for k in range(m)]
            right_word = [(j if k % 2 == 0 else i) for k in range(m)]
            for op_name, op in (("dl", csm.dl_operator), ("bgg", csm.bgg_A),
                                ("weyl", csm.weyl_action)):
                for w in group.elements:
                    a = b = coh.schubert_class(w)
                    for k in left_word:
                        a = op(k, a)
                    for k in right_word:
                        b = op(k, b)
                    check(a == b, f"braid-{op_name}",
                          lambda: f"braid relation fails for ({i},{j}) at {w}")

    # Bruhat recursion vs the subword oracle
    for w in group.elements:
        reachable = group.subword_products(w)
        for v in group.elements:
            check(group.bruhat_leq(v, w) == (v.index in reachable),
                  "bruhat-subword", lambda: f"order disagrees at ({v}, {w})")
    return out["instances"] - before


# -- reports ---------------------------------------------------------------------


@dataclass
class VerificationReport:
    series: str
    rank: int
    order: int
    suites: dict[str, SuiteResult]
    meta_checks: dict[str, str]
    options: dict
    timings: dict

    @property
    def exit_code(self) -> int:
        if (any(s.status == "FAIL" for s in self.suites.values())
                or "FAIL" in self.meta_checks.values()):
            return 2
        if any(s.violations for s in self.suites.values()):
            return 1
        return 0

    def _ordered(self) -> list[tuple[str, SuiteResult]]:
        return [(name, self.suites[name]) for name in SUITE_NAMES if name in self.suites]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": "csmverify", "version": __version__},
            "group": {"series": self.series, "rank": self.rank, "order": self.order},
            "cache": {"format_version": FORMAT_VERSION, "dl_convention": CONVENTION},
            "options": self.options,
            "suites": {name: s.to_dict() for name, s in self._ordered()},
            "meta_checks": self.meta_checks,
            "exit_code": self.exit_code,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False)

    def summary_lines(self) -> list[str]:
        lines = [f"group {self.series}{self.rank} (|W| = {self.order})"]
        for name, s in self._ordered():
            lines.append(
                f"  {name}: {s.instances}/{s.predicted_instances} instances, "
                f"{len(s.violations)} violations, {s.hard_failure_count} hard failures "
                f"- {s.status}"
            )
        for k, v in self.meta_checks.items():
            lines.append(f"  meta {k}: {v}")
        verdict = {0: "PASS", 1: "CONJECTURE VIOLATIONS FOUND", 2: "INTERNAL FAILURE"}
        lines.append(f"RESULT: {verdict[self.exit_code]} (exit {self.exit_code})")
        return lines

    def csv_rows(self) -> list[list]:
        header = ["record", "series", "rank", "suite", "instances",
                  "predicted_instances", "violations", "hard_failures", "status",
                  "check", "u", "v", "w", "value"]
        rows = [header]
        for name, s in self._ordered():
            rows.append(["summary", self.series, self.rank, name, s.instances,
                         s.predicted_instances, len(s.violations),
                         s.hard_failure_count, s.status, "", "", "", "", ""])
        for name, s in self._ordered():
            for v in s.violations:
                rows.append(["witness", self.series, self.rank, name, "", "", "", "",
                             "", v.get("check", ""), v.get("u", ""), v.get("v", ""),
                             v.get("w", ""), v.get("value", "")])
        return rows


def resolve_suites(requested) -> list[str]:
    """The named suites in request order, "all" expanded, each once; an
    empty request, a bare string or an unknown name is a UsageError."""
    if isinstance(requested, str):
        raise UsageError(f"suites must be a list of names, not the string {requested!r}")
    if not requested:
        raise UsageError("no suite requested")
    names = []
    for s in requested:
        if s == "all":
            names.extend(SUITE_NAMES)
        elif s in SUITE_NAMES:
            names.append(s)
        else:
            raise UsageError(f"unknown suite {s!r}; choose from {SUITE_NAMES + ('all',)}")
    seen = set()
    return [n for n in names if not (n in seen or seen.add(n))]


def run_verification(
    series: str,
    rank: int,
    suites=("all",),
    max_length: int | None = None,
    jobs: int = 1,
    max_order: int = DEFAULT_MAX_ORDER,
) -> VerificationReport:
    """Run the requested suites on one group and assemble the report.

    Raises UsageError for ``jobs`` below 1, a negative ``max_length``
    (which would filter out every element and pass on zero instances), and
    an empty or unknown ``suites``.
    """
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    if max_length is not None and max_length < 0:
        raise UsageError(f"--max-length must be nonnegative, got {max_length}")
    suite_names = resolve_suites(suites)
    t0 = time.perf_counter()
    engines = build_engines(series, rank, max_order=max_order)
    checksums = materialize_tables(engines)
    build_elapsed = time.perf_counter() - t0

    results = _run_suites(engines, suite_names, max_length, jobs)
    meta_start = time.perf_counter()
    meta: dict[str, str] = {}
    for implied in ("conjC", "conjD"):
        key = "b-implies-" + implied[-1].lower()
        if "conjB" not in results or implied not in results:
            meta[key] = "SKIPPED"
        elif results["conjB"].status == "PASS" and results[implied].violations:
            meta[key] = "FAIL"
        else:
            meta[key] = "PASS"
    if "conjD" in results:
        # observed, never asserted; does not touch the exit code
        status = engines.box.associativity_status(max_length=max_length)
        if status is None:
            meta["box-associativity"] = "not computed at this scale"
        else:
            failures, total = status
            meta["box-associativity"] = (
                f"holds on {total}/{total} filtered triples" if failures == 0
                else f"fails on {failures}/{total} filtered triples")
    meta_elapsed = time.perf_counter() - meta_start
    return VerificationReport(
        series=series, rank=rank, order=engines.group.order, suites=results,
        meta_checks=meta,
        options={"suites": suite_names, "max_length": max_length, "jobs": jobs,
                 "max_order": max_order, "table_checksums": checksums},
        timings={"table_build_s": round(build_elapsed, 6),
                 "per_suite_s": {n: round(r.elapsed, 6) for n, r in results.items()},
                 "meta_s": round(meta_elapsed, 6),
                 "total_s": round(time.perf_counter() - t0, 6)})
