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

Each pair-level check is a record step keyed by its Richardson pair
(r, v): (u, v) itself for theorem-invariants, conjB and conjC, and
(w0*u, v) for conjD and cross-paths, whose chi rows read R(w0*u, v).  One
sweep per run calls the steps of every requested suite, one unit per
Richardson row r, the chi steps at u = w0*r; with jobs above 1 the units
go to one fork pool.  Both the structure and the CSM table are computed in
process before the sweep, so workers inherit them; no run reads a table
from disk.  A unit holds one Richardson row and nothing else; box
associativity builds its own table of box rows.

Every pair-level suite computes one pair of each symmetry orbit: the
least kept Richardson pair, by (row, column) index, and records its
entries at every kept member, each under its own u and v, each counting
its instances.  A pair suite keeps (r, v) with r and v filtered, a chi
suite with w0*r and v filtered.  Two kinds of map generate the orbits.
  * A diagram automorphism sigma (``WeylGroup.diagram_maps``) lifts to an
    automorphism of G fixing B and T and commuting with w0, so csm
    R(sigma r, sigma v) = sigma . csm R(r, v) with eps^x -> eps^{sigma x},
    and chi(sigma u, sigma v, sigma w) = chi(u, v, w); a copy's w goes
    through sigma, and its entries are re-sorted by w.
  * The partner (r, v) ~ (w0*v, w0*r): w0 maps the one Richardson cell
    onto the other and acts trivially on cohomology, so the classes are
    equal; the two products of each are the other's with the factors
    swapped, the degree bases l(r) + l(v) and 2N - l(r) - l(v) have the
    same parity, and the lemma-E product and sign are shared.  On the chi
    rows it is the swap (u, v) ~ (v, u), and the cup product commutes.
Unfiltered, both kinds keep every pair, so a run of every suite computes
each orbit once: 3,676 of the 14,400 pairs of A4 and, under S3, 3,738 of
the 36,864 of D4; B4, with no automorphism, computes 73,920 of 147,456.
The filter --max-length is sigma-invariant but not w0-invariant, so a pair
suite's pair whose partner is filtered out may compute itself.  Values and
error texts are copied as computed.  The partner copies rest on the mirror
check of the computed pair; the sigma copies rest on
``_equivariance_failures``, which checks both tables under each automorphism
once per run in which a suite made sigma copies, and records a hard
failure in each such suite if they are not equivariant.  Entries merge in
(u, v) order after the sweep, so the report does not depend on jobs.
``timings.per_suite_s`` is each suite's record-step time summed over units
(worker time in a pool), plus theorem-invariants' element and global blocks.

Findings carry full witnesses (reduced words, never internal indices).
Reports are byte-deterministic apart from the ``timings`` block.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from . import __version__
from .boxproduct import BoxCalculator
from .cache import FORMAT_VERSION, TableCache, chunks_checksum, csm_chunks, structure_chunks
from .cohomology import FlagCohomology
from .csm import CONVENTION, CsmCalculator
from .errors import InternalInvariantError, UsageError
from .richardson import RichardsonCalculator
from .rootdata import MAX_ORDER, CartanDatum, WeylGroup, parity_sign, weyl_order

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


def build_engines(series: str, rank: int) -> Engines:
    """Construct the stack; no table is read from disk.  A group over the
    one size cap, MAX_ORDER, is refused from its invariant degrees, before
    its Cartan datum, its elements or any table is built."""
    weyl_order(series.upper(), rank, MAX_ORDER)
    datum = CartanDatum.from_series(series, rank)
    group = WeylGroup(datum)
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
    """One suite's tally, which record steps, unit totals and the merge
    write into."""

    name: str
    instances: int = 0
    predicted_instances: int = 0
    violations: list = field(default_factory=list)
    hard_failures: list = field(default_factory=list)
    hard_failure_count: int = 0
    elapsed: float = 0.0

    def hard(self, entry: dict) -> None:
        """Count a hard failure; list it while fewer than
        HARD_FAILURE_LIST_CAP are listed."""
        self.hard_failure_count += 1
        if len(self.hard_failures) < HARD_FAILURE_LIST_CAP:
            self.hard_failures.append(entry)

    @property
    def status(self) -> str:
        if self.hard_failure_count or self.instances != self.predicted_instances:
            return "FAIL"
        return "VIOLATIONS" if self.violations else "PASS"

    def to_dict(self) -> dict:
        keys = ("instances", "predicted_instances", "violations", "hard_failures",
                "hard_failure_count")
        return {**{k: getattr(self, k) for k in keys}, "status": self.status}


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


def _record_theorem_pair(engines: Engines, out: SuiteResult, u, v) -> None:
    group, rich = engines.group, engines.rich
    out.instances += 1
    try:
        cls = rich.csm_richardson(u, v)           # mirror agreement inside
        rich.richardson_coeffs(u, v)              # parity inside
        rich.verify_lemma_e(u, v)                 # sign condition inside
        if not group.bruhat_leq(v, u) and cls:
            out.hard(_entry("empty-cell", u, v, error="empty Richardson cell has nonzero class"))
        if u == v and cls != engines.coh.schubert_class(group.longest):
            out.hard(_entry("diagonal-point", u, v,
                            error="diagonal cell class is not the point class"))
    except InternalInvariantError as exc:
        out.hard(_entry("richardson-pair", u, v, error=str(exc)))


def _record_conjb(engines: Engines, out: SuiteResult, u, v) -> None:
    out.instances += 1
    try:
        coeffs = engines.rich.richardson_coeffs(u, v)
    except InternalInvariantError as exc:
        out.hard(_entry("richardson", u, v, error=str(exc)))
        return
    for w, val in coeffs.violations:
        out.violations.append(_entry("conjB", u, v, w, value=val))


def _record_conjc(engines: Engines, out: SuiteResult, u, v) -> None:
    out.instances += 1
    try:
        coeffs = engines.rich.csm_basis_coeffs(u, v)
    except InternalInvariantError as exc:
        out.hard(_entry("csm-basis-expansion", u, v, error=str(exc)))
        return
    for w, val in coeffs.violations:
        out.violations.append(_entry("conjC", u, v, w, value=val))


def _record_row_failure(out: SuiteResult, check: str, u, v, elements, exc: Exception) -> None:
    """A pair whose row could not be read fails at every w, one instance each."""
    for w in elements:
        out.instances += 1
        out.hard(_entry(check, u, v, w, error=str(exc)))


def _record_conjd(engines: Engines, out: SuiteResult, u, v) -> None:
    group = engines.group
    floor = u.length + v.length
    pair_sign_ok = True
    try:
        row = engines.box.expansion_row(u, v)
    except InternalInvariantError as exc:
        _record_row_failure(out, "chi", u, v, group.elements, exc)
    else:
        out.instances += group.order
        cup = engines.coh.structure_constants_idx(u.index, v.index)
        for wi in sorted(row.keys() | cup.keys()):
            w, chi, cup_c = group.elements[wi], row.get(wi, 0), cup.get(wi, 0)
            if w.length < floor:
                # below the dimension threshold: reported, not fatal
                out.violations.append(_entry("below-threshold", u, v, w, value=chi))
                continue
            if w.length == floor and chi != cup_c:
                out.hard(_entry("graded-vs-cup", u, v, w, value=chi, expected=cup_c))
            if parity_sign(w.length - floor) * chi < 0:
                pair_sign_ok = False
                out.violations.append(_entry("conjD", u, v, w, value=chi))
    # the per-pair verdict must match the CSM-basis sign verdict for the
    # mirrored Richardson pair
    try:
        c_ok = not engines.rich.csm_basis_coeffs(group.w0_times(u), v).violations
        if c_ok != pair_sign_ok:
            out.hard(_entry(
                "pairwise-equivalence", u, v,
                error=f"sign verdicts disagree: chi {pair_sign_ok}, expansion {c_ok}"))
    except InternalInvariantError as exc:
        out.hard(_entry("pairwise-equivalence", u, v, error=str(exc)))


def _record_crosspaths(engines: Engines, out: SuiteResult, u, v) -> None:
    els = engines.group.elements
    try:
        row = engines.box.chi_row(u, v)
    except InternalInvariantError as exc:
        _record_row_failure(out, "chi-paths", u, v, els, exc)
        return
    out.instances += len(els)
    if row.agree:
        return
    for w in els:
        prov = row.provenance(w.index)
        if not prov.agree:
            out.hard(_entry("chi-paths", u, v, w, error=str(prov)))


#: the pair-level record step of each suite; theorem-invariants also has
#: an element block before the sweep and a global block after it
_RECORD_STEPS = {"theorem-invariants": _record_theorem_pair, "conjB": _record_conjb,
                 "conjC": _record_conjc, "conjD": _record_conjd,
                 "cross-paths": _record_crosspaths}
#: suites that check every w for each (u, v) pair, on the chi row of the
#: pair; the pair suites check the Richardson pair (u, v) itself
_TRIPLE_SUITES = frozenset({"conjD", "cross-paths"})


# -- symmetry orbits ----------------------------------------------------------------


@dataclass
class _Sweep:
    """What every unit of one sweep shares.  A pair is keyed by its
    Richardson pair (r, v), and its steps run at u = us[triple][r]: r for
    the pair suites, w0*r for the chi rows.  A kind keeps the pairs whose
    u and v are filtered.  The k-th automorphism sigma, maps[k], takes
    (r, v) to (sigma r, sigma v) and, with f = flipped[k] = w0*sigma, to the
    partner (f[v], f[r]).  labels are the elements' words, and index reads
    them back."""

    names: list[str]
    filtered: list[int]
    keep: list[bool]
    us: dict[bool, Sequence[int]]
    maps: tuple[tuple[int, ...], ...]
    flipped: list[tuple[int, ...]]
    labels: list[str]
    index: dict[str, int]

    @classmethod
    def of(cls, group: WeylGroup, names, filtered: list[int]) -> "_Sweep":
        keep = [False] * group.order
        for i in filtered:
            keep[i] = True
        maps, w0 = group.diagram_maps, group._w0
        flipped = [tuple(w0[x] for x in m) for m in maps]
        labels = [str(x) for x in group.elements]
        return cls(list(names), filtered, keep, {False: range(group.order), True: w0},
                   maps, flipped, labels, {label: i for i, label in enumerate(labels)})

    @property
    def kinds(self) -> set[bool]:
        """Whether each requested kind reads chi rows."""
        return {name in _TRIPLE_SUITES for name in self.names}

    def units(self) -> list[int]:
        """The units of work: the Richardson rows some requested kind keeps."""
        us = [self.us[triple] for triple in self.kinds]
        return [r for r in range(len(self.keep)) if any(self.keep[u[r]] for u in us)]

    def copies(self, key: tuple[int, int], triple: bool) -> dict | None:
        """The kept pairs of key's orbit other than key itself, each with the
        index of the first automorphism that takes key onto it, or None when
        the kind does not keep key's row or one of them comes before key: a
        pair is computed only when it is the least kept member of its
        orbit."""
        r, v = key
        us, keep, out = self.us[triple], self.keep, {}
        if not keep[us[r]]:
            return None
        for k, (m, f) in enumerate(zip(self.maps, self.flipped)):
            for image in ((m[r], m[v]), (f[v], f[r])):
                if keep[us[image[0]]] and keep[image[1]]:
                    if image < key:
                        return None
                    if image != key and image not in out:
                        out[image] = k
        return out

    def relabel(self, entries: list[dict], key: tuple[int, int], k: int) -> list[dict]:
        """A computed pair's entries as its copy at key records them: under
        key's own u and v, each w through the k-th automorphism, in index
        order of w as a computed pair emits them (entries without a w last)."""
        labels, index = self.labels, self.index
        out = [{**e, "u": labels[key[0]], "v": labels[key[1]]} for e in entries]
        if k:
            sigma = self.maps[k]
            for e in out:
                if "w" in e:
                    e["w"] = labels[sigma[index[e["w"]]]]
            out.sort(key=lambda e: index[e["w"]] if "w" in e else len(labels))
        return out


def _equivariance_failures(engines: Engines) -> list[str]:
    """For each diagram automorphism sigma but the identity, where the
    structure table breaks c_{sigma u, sigma v}^{sigma w} = c_uv^w and where
    the CSM table breaks csm(cell sigma u) = sigma . csm(cell u); the first
    pair, resp. element, of each.  The sigma copies of a sweep rest on
    this: the canonical words are not sigma-images of one another, so the
    recursions that build the tables do not imply it."""
    group, table = engines.group, engines.coh._table
    els, order, failures = group.elements, group.order, []
    for sigma in group.diagram_maps[1:]:
        name = " ".join(str(els[sigma[group._right[0][i]]]) for i in range(group.rank))
        bad = next(((u, v) for u in range(order) for v in range(order)
                    if {sigma[w]: c for w, c in table[u][v].items()}
                    != table[sigma[u]][sigma[v]]), None)
        if bad is not None:
            failures.append(f"structure constants of ({els[bad[0]]}, {els[bad[1]]}) are not "
                            f"equivariant under the diagram automorphism s1..s{group.rank} "
                            f"-> {name}")
        cell = engines.csm._cell_idx
        bad = next((u for u in range(order) if {sigma[w]: c for w, c in cell(u).coeffs.items()}
                    != cell(sigma[u]).coeffs), None)
        if bad is not None:
            failures.append(f"CSM class of cell {els[bad]} is not equivariant under the "
                            f"diagram automorphism s1..s{group.rank} -> {name}")
    return failures


# -- the row sweep ----------------------------------------------------------------

_WORKER_ENGINES: Engines | None = None
_WORKER_SWEEP: _Sweep | None = None


def _sweep_unit(engines: Engines, sweep: _Sweep, r: int) -> tuple[dict, dict]:
    """Every named record step on the Richardson pairs (r, v), v filtered,
    on one pair of each orbit (``_Sweep.copies``): the pair suites' steps
    at (r, v), the chi rows' at (w0*r, v).  The computed pair is counted
    once for each kept member of its orbit, and each other member gets its
    entries, relabelled.  Returns ({suite: (counts, found)}, sigma): counts
    holds the instances, the hard-failure count and the record-step time;
    found lists ((u, v), violations, hard failures) of the pairs with any
    entries, in (u, v) order, with the hard failures after the first
    HARD_FAILURE_LIST_CAP of the unit dropped (no later one is reported);
    sigma counts, for each kind, the copies made through an automorphism
    other than the identity."""
    els, clock = engines.group.elements, time.perf_counter
    steps = [(name, _RECORD_STEPS[name], name in _TRIPLE_SUITES) for name in sweep.names]
    kinds = sweep.kinds
    out = {name: (SuiteResult(name), []) for name in sweep.names}
    sigma = dict.fromkeys(kinds, 0)
    for vi in sweep.filtered:
        plans = {triple: sweep.copies((r, vi), triple) for triple in kinds}
        for triple, copies in plans.items():
            if copies:
                sigma[triple] += sum(k > 0 for k in copies.values())
        for name, step, triple in steps:
            copies = plans[triple]
            if copies is None:
                continue        # recorded by the least member of its orbit
            us = sweep.us[triple]
            counts, found = out[name]
            pair = SuiteResult(name)
            start = clock()
            step(engines, pair, els[us[r]], els[vi])
            counts.elapsed += clock() - start
            n = 1 + len(copies)
            counts.instances += n * pair.instances
            counts.hard_failure_count += n * pair.hard_failure_count
            violations, hard = pair.violations, pair.hard_failures
            if not (violations or hard):
                continue
            found.append(((us[r], vi), violations, hard))
            for (x, y), k in copies.items():
                image = (us[x], y)
                found.append((image, sweep.relabel(violations, image, k),
                              sweep.relabel(hard, image, k)))
    for _, found in out.values():
        found.sort(key=itemgetter(0))
        room = HARD_FAILURE_LIST_CAP
        for _, _, hard in found:
            del hard[room:]
            room -= len(hard)
    return out, sigma


def _pooled_unit(r: int) -> tuple[dict, dict]:
    return _sweep_unit(_WORKER_ENGINES, _WORKER_SWEEP, r)


def _run_suites(engines: Engines, names, max_length: int | None,
                jobs: int) -> dict[str, SuiteResult]:
    """The named suites in one sweep over the Richardson rows, in-process or
    in one fork pool.  Each suite's entries are merged in (u, v) order, by
    index, so the result does not depend on jobs.
    A suite that made copies through a diagram automorphism gets a hard
    failure, ahead of its pair entries, for each table and automorphism
    under which the table is not equivariant; the check adds no instance.
    theorem-invariants' tally is its element block, then its pair tally,
    then its global block."""
    group, clock = engines.group, time.perf_counter
    filtered = [i for i in range(group.order)
                if max_length is None or group._lengths[i] <= max_length]
    results = {name: SuiteResult(name, predicted_instances=len(filtered) ** 2
                                 * (group.order if name in _TRIPLE_SUITES else 1))
               for name in names}
    theorem = results.get("theorem-invariants")
    if theorem is not None:
        # before any fork, so that workers inherit the per-element classes
        start = clock()
        _theorem_elements(engines, theorem, filtered)
        theorem.elapsed += clock() - start
    sweep = _Sweep.of(group, names, filtered)
    units = sweep.units()
    workers = pool_size(jobs, len(units))
    try:
        ctx = multiprocessing.get_context("fork") if workers > 1 else None
    except ValueError:
        ctx = None
    if ctx is None:
        parts = [_sweep_unit(engines, sweep, r) for r in units]
    else:
        global _WORKER_ENGINES, _WORKER_SWEEP
        _WORKER_ENGINES, _WORKER_SWEEP = engines, sweep
        try:
            with ctx.Pool(workers) as pool:
                parts = pool.map(_pooled_unit, units, chunksize=1)
        finally:
            _WORKER_ENGINES = _WORKER_SWEEP = None
    equivariance = None
    for name, result in results.items():
        found, triple = [], name in _TRIPLE_SUITES
        for totals, _ in parts:
            counts, items = totals[name]
            result.instances += counts.instances
            result.hard_failure_count += counts.hard_failure_count
            result.elapsed += counts.elapsed
            found.extend(items)
        if any(sigma[triple] for _, sigma in parts):
            if equivariance is None:
                equivariance = _equivariance_failures(engines)
            for error in equivariance:
                result.hard(_entry("diagram-equivariance", error=error))
        found.sort(key=itemgetter(0))
        listed = result.hard_failures
        for _, violations, hard in found:
            result.violations.extend(violations)
            listed.extend(hard[:HARD_FAILURE_LIST_CAP - len(listed)])

    if theorem is not None:
        start = clock()
        theorem.predicted_instances += len(filtered) + _theorem_globals(engines, theorem)
        theorem.elapsed += clock() - start
    return results


def run_suite(engines: Engines, name: str, max_length: int | None = None,
              jobs: int = 1) -> SuiteResult:
    """One suite, through the same sweep as run_verification."""
    if name not in SUITE_NAMES:
        raise UsageError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _run_suites(engines, (name,), max_length, jobs)[name]


# -- theorem-invariants: the element and global blocks ------------------------


def _theorem_elements(engines: Engines, out: SuiteResult, filtered: list[int]) -> None:
    """Cell-class identities on every filtered element, recorded into out."""
    group, csm, rich = engines.group, engines.csm, engines.rich
    for ui in filtered:
        u = group.elements[ui]
        out.instances += 1
        try:
            cell = csm.csm_schubert_cell(u)       # positivity/support/normalization
            csm.segre_schubert_cell(u)            # sign twist
            if rich.expand_in_csm_basis(cell) != {ui: 1}:
                out.hard(_entry("csm-basis-unitriangular", u,
                                error="cell class does not expand to itself"))
        except InternalInvariantError as exc:
            out.hard(_entry("cell-invariants", u, error=str(exc)))


def _theorem_globals(engines: Engines, out: SuiteResult) -> int:
    """Whole-group identities, recorded into out; returns how many ran."""
    group, coh, csm = engines.group, engines.coh, engines.csm
    before = out.instances

    def check(ok: bool, name: str, detail=""):
        out.instances += 1
        if not ok:      # detail: a message, or a function formatting it
            text = detail() if callable(detail) else detail
            out.hard(_entry(name, error=text or "identity fails"))

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
    return out.instances - before


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
        # a witness row per violation, then a hard-failure row per listed
        # hard failure, with its error (or, lacking one, its value)
        for record, entries in (("witness", "violations"), ("hard-failure", "hard_failures")):
            for name, s in self._ordered():
                for e in getattr(s, entries):
                    rows.append([record, self.series, self.rank, name, "", "", "", "", "",
                                 e.get("check", ""), e.get("u", ""), e.get("v", ""),
                                 e.get("w", ""), e.get("error", e.get("value", ""))])
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
    engines = build_engines(series, rank)
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
        # observed, never asserted; only a box row whose three chi paths
        # disagree makes it FAIL, and so exit 2, with the report still written
        try:
            status = engines.box.associativity_status(max_length=max_length)
        except InternalInvariantError as exc:
            print(f"csmverify: box associativity: {exc}", file=sys.stderr)
            meta["box-associativity"] = "FAIL"
        else:
            if status is None:
                meta["box-associativity"] = "not computed at this scale"
            else:
                failures, total = status
                meta["box-associativity"] = (
                    f"holds on {total}/{total} filtered triples" if failures == 0
                    else f"fails on {failures}/{total} filtered triples")
    meta_elapsed = time.perf_counter() - meta_start
    return VerificationReport(
        series=engines.series, rank=rank, order=engines.group.order, suites=results,
        meta_checks=meta,
        options={"suites": suite_names, "max_length": max_length, "jobs": jobs,
                 "max_order": MAX_ORDER, "table_checksums": checksums},
        timings={"table_build_s": round(build_elapsed, 6),
                 "per_suite_s": {n: round(r.elapsed, 6) for n, r in results.items()},
                 "meta_s": round(meta_elapsed, 6),
                 "total_s": round(time.perf_counter() - t0, 6)})
