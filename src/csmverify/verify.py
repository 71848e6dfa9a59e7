"""Verification sweeps over one group, with machine-readable reports.

Suite semantics
---------------
* ``theorem-invariants``: proved identities only.  Any failure here is an
  implementation bug; it is recorded as a hard failure and maps to exit
  code 2.  Given the Segre twist and the ring map phi, the mirror check on
  each Richardson class is equivalent to the parity check; both stay.
* ``conjB``: nonnegativity of the Richardson coefficients against the
  Schubert-variety basis.  All |W|^2 pairs; negatives are findings.
* ``conjC``: alternating signs of the CSM-basis expansions of Richardson
  classes.  All |W|^2 pairs; violations are findings.
* ``conjD``: sign of the deformed-product structure constants against the
  intersection dimension, over all filtered triples, plus the graded
  comparison with the cup product (hard) and the per-pair equivalence with
  the conjC verdict (hard).
* ``cross-paths``: the three Euler-characteristic formulas agree on every
  filtered triple (hard); only two are independent (see ``boxproduct``).

Findings carry full witnesses (reduced words, never internal indices).
Reports are byte-deterministic apart from the ``timings`` block, which is
also where cache events are recorded.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field

from . import __version__
from .boxproduct import BoxCalculator
from .cache import FORMAT_VERSION, TableCache, payload_checksum
from .cohomology import FlagCohomology
from .csm import CsmCalculator
from .errors import CacheCorrupt, InternalInvariantError, UsageError
from .richardson import RichardsonCalculator
from .rootdata import CartanDatum, WeylGroup, DEFAULT_MAX_ORDER, parity_sign

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
    #: table kinds adopted from the cache instead of computed
    adopted: set = field(default_factory=set)

    @property
    def series(self) -> str:
        return self.group.datum.series

    @property
    def rank(self) -> int:
        return self.group.datum.rank


def build_engines(
    series: str,
    rank: int,
    cache: TableCache | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
    cache_events: list | None = None,
) -> Engines:
    """Construct the stack, adopting cached tables when available."""
    datum = CartanDatum.from_series(series, rank)
    group = WeylGroup(datum, max_order=max_order)
    coh = FlagCohomology(group)
    csm = CsmCalculator(coh)

    adopted = set()
    if cache is not None:
        for kind, loader in (("structure", coh.load_structure_payload),
                             ("csm", csm.load_table_payload)):
            # failed checksum, decode or table check: recompute and replace
            try:
                payload = cache.load(datum.series, rank, kind)
                if payload is None:
                    event = "miss"
                else:
                    event = "stale" if loader(payload) is False else "hit"
            except CacheCorrupt as exc:
                warnings.warn(f"cache corrupt, recomputing: {exc}")
                event = "corrupt"
            if event == "hit":
                adopted.add(kind)
            if cache_events is not None:
                cache_events.append({"kind": kind, "event": event})
    rich = RichardsonCalculator(csm)
    return Engines(group, coh, csm, rich, BoxCalculator(rich), adopted)


def materialize_tables(engines: Engines, cache: TableCache | None = None,
                       cache_events: list | None = None) -> dict[str, str]:
    """Build the full structure and CSM tables; when caching, store each
    one that was not adopted from the cache.

    Returns the payload checksums by kind.
    """
    checksums = {}
    engines.coh.build_structure_table()
    engines.csm.build_table()
    for kind, payload in (("structure", engines.coh.structure_payload()),
                          ("csm", engines.csm.table_payload())):
        checksums[kind] = payload_checksum(payload)
        if cache is not None and kind not in engines.adopted:
            path = cache.store(engines.series, engines.rank, kind, payload)
            if cache_events is not None:
                cache_events.append({"kind": kind, "event": "store", "path": str(path)})
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
        return {
            "instances": self.instances,
            "predicted_instances": self.predicted_instances,
            "violations": self.violations,
            "hard_failures": self.hard_failures,
            "hard_failure_count": self.hard_failure_count,
            "status": self.status,
        }


def _new_chunk() -> dict:
    """An empty chunk result; its keys are the tallied SuiteResult fields."""
    return {"instances": 0, "violations": [], "hard_failures": [], "hard_failure_count": 0}


def _record_hard(result_dict: dict, entry: dict) -> None:
    result_dict["hard_failure_count"] += 1
    if len(result_dict["hard_failures"]) < HARD_FAILURE_LIST_CAP:
        result_dict["hard_failures"].append(entry)


def _merge_chunk(into: dict, part: dict) -> None:
    """Append one chunk result to another, keeping the hard-failure cap."""
    into["instances"] += part["instances"]
    into["violations"].extend(part["violations"])
    into["hard_failure_count"] += part["hard_failure_count"]
    room = HARD_FAILURE_LIST_CAP - len(into["hard_failures"])
    into["hard_failures"].extend(part["hard_failures"][:room])


def _filtered_indices(group: WeylGroup, max_length: int | None) -> list[int]:
    if max_length is None:
        return list(range(group.order))
    return [i for i in range(group.order) if group._lengths[i] <= max_length]


def pool_size(jobs: int, chunks: int) -> int:
    """Worker processes for a sweep: no more than requested, than CPUs this
    process may run on, or than chunks of work."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, chunks))


def _chunks(items: list, n: int) -> list[list]:
    n = max(1, min(n, len(items)))
    size, extra = divmod(len(items), n)
    out, start = [], 0
    for k in range(n):
        end = start + size + (1 if k < extra else 0)
        out.append(items[start:end])
        start = end
    return out


# -- chunk workers (parallelizable units; module-level for fork+pickle) -------

_WORKER_ENGINES: Engines | None = None


def _pairs_of(chunk, group):
    els = group.elements
    return [(els[ui], els[vi]) for ui, vi in chunk]


def _chunk_conjb(engines: Engines, chunk) -> dict:
    out = _new_chunk()
    for u, v in _pairs_of(chunk, engines.group):
        out["instances"] += 1
        try:
            coeffs = engines.rich.richardson_coeffs(u, v)
        except InternalInvariantError as exc:
            _record_hard(out, {"check": "richardson", "u": str(u), "v": str(v),
                               "error": str(exc)})
            continue
        for w, val in coeffs.witnesses():
            out["violations"].append({
                "check": "conjB", "u": str(u), "v": str(v), "w": str(w), "value": val,
            })
    return out


def _chunk_conjc(engines: Engines, chunk) -> dict:
    out = _new_chunk()
    for u, v in _pairs_of(chunk, engines.group):
        out["instances"] += 1
        try:
            coeffs = engines.rich.csm_basis_coeffs(u, v)
        except InternalInvariantError as exc:
            _record_hard(out, {"check": "csm-basis-expansion", "u": str(u), "v": str(v),
                               "error": str(exc)})
            continue
        for w, val in coeffs.violations:
            out["violations"].append({
                "check": "conjC", "u": str(u), "v": str(v), "w": str(w), "value": val,
            })
    return out


def _chunk_conjd(engines: Engines, chunk) -> dict:
    group, box, rich = engines.group, engines.box, engines.rich
    out = _new_chunk()
    for u, v in _pairs_of(chunk, group):
        floor = u.length + v.length
        pair_sign_ok = True
        for w in group.elements:
            out["instances"] += 1
            try:
                chi = box.chi(u, v, w, cross_validate=False)
            except InternalInvariantError as exc:
                _record_hard(out, {"check": "chi", "u": str(u), "v": str(v),
                                   "w": str(w), "error": str(exc)})
                continue
            if w.length < floor:
                if chi:
                    # below the dimension threshold: reported, not fatal
                    out["violations"].append({
                        "check": "below-threshold", "u": str(u), "v": str(v),
                        "w": str(w), "value": chi,
                    })
                continue
            if w.length == floor:
                cup_c = engines.coh.structure_constants_idx(
                    u.index, v.index).get(w.index, 0)
                if chi != cup_c:
                    _record_hard(out, {
                        "check": "graded-vs-cup", "u": str(u), "v": str(v),
                        "w": str(w), "value": chi, "expected": cup_c,
                    })
            if parity_sign(w.length - floor) * chi < 0:
                pair_sign_ok = False
                out["violations"].append({
                    "check": "conjD", "u": str(u), "v": str(v), "w": str(w), "value": chi,
                })
        # the per-pair verdict must match the CSM-basis sign verdict for
        # the mirrored Richardson pair
        try:
            c_ok = rich.csm_basis_coeffs(group.w0_times(u), v).sign_ok
            if bool(c_ok) != pair_sign_ok:
                _record_hard(out, {
                    "check": "pairwise-equivalence", "u": str(u), "v": str(v),
                    "error": f"sign verdicts disagree: chi {pair_sign_ok}, expansion {c_ok}",
                })
        except InternalInvariantError as exc:
            _record_hard(out, {"check": "pairwise-equivalence", "u": str(u), "v": str(v),
                               "error": str(exc)})
    return out


def _chunk_crosspaths(engines: Engines, chunk) -> dict:
    group, box = engines.group, engines.box
    out = _new_chunk()
    for u, v in _pairs_of(chunk, group):
        for w in group.elements:
            out["instances"] += 1
            try:
                prov = box.chi_provenance(u, v, w)
            except InternalInvariantError as exc:
                _record_hard(out, {"check": "chi-paths", "u": str(u), "v": str(v),
                                   "w": str(w), "error": str(exc)})
                continue
            if not prov.agree:
                _record_hard(out, {
                    "check": "chi-paths", "u": str(u), "v": str(v), "w": str(w),
                    "error": f"triple-sum {prov.triple_sum}, pairing {prov.pairing}, "
                             f"expansion {prov.expansion}",
                })
    return out


def _chunk_theorem_pairs(engines: Engines, chunk) -> dict:
    group, rich, coh = engines.group, engines.rich, engines.coh
    top = coh.schubert_class(group.longest)
    out = _new_chunk()
    for u, v in _pairs_of(chunk, group):
        out["instances"] += 1
        try:
            cls = rich.csm_richardson(u, v)           # mirror agreement inside
            rich.richardson_coeffs(u, v)              # parity inside
            rich.verify_lemma_e(u, v)                 # sign condition inside
            if not group.bruhat_leq(v, u) and cls:
                _record_hard(out, {"check": "empty-cell", "u": str(u), "v": str(v),
                                   "error": "empty Richardson cell has nonzero class"})
            if u == v and cls != top:
                _record_hard(out, {"check": "diagonal-point", "u": str(u), "v": str(v),
                                   "error": "diagonal cell class is not the point class"})
        except InternalInvariantError as exc:
            _record_hard(out, {"check": "richardson-pair", "u": str(u), "v": str(v),
                               "error": str(exc)})
    return out


_CHUNK_WORKERS = {
    "conjB": _chunk_conjb,
    "conjC": _chunk_conjc,
    "conjD": _chunk_conjd,
    "cross-paths": _chunk_crosspaths,
    "theorem-pairs": _chunk_theorem_pairs,
}
#: suites that check every w for each (u, v) pair
_TRIPLE_SUITES = frozenset({"conjD", "cross-paths"})


def _mp_entry(args):
    worker_name, chunk = args
    return _CHUNK_WORKERS[worker_name](_WORKER_ENGINES, chunk)


def _run_chunked(engines: Engines, worker_name: str, items: list, jobs: int) -> dict:
    """Run a chunk worker over items, serially or with a fork pool.

    The merge is in chunk order, so parallel output equals serial output.
    """
    worker = _CHUNK_WORKERS[worker_name]
    workers = pool_size(jobs, len(items))
    if workers == 1:
        parts = [worker(engines, items)]
    else:
        global _WORKER_ENGINES
        _WORKER_ENGINES = engines
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            parts = [worker(engines, items)]
        else:
            with ctx.Pool(workers) as pool:
                parts = pool.map(_mp_entry, [(worker_name, c) for c in _chunks(items, workers)])
        _WORKER_ENGINES = None
    merged = _new_chunk()
    for part in parts:
        _merge_chunk(merged, part)
    return merged


# -- suites -------------------------------------------------------------------


def _pair_index_list(group: WeylGroup, max_length: int | None) -> list[tuple[int, int]]:
    idx = _filtered_indices(group, max_length)
    return [(u, v) for u in idx for v in idx]


def run_suite(engines: Engines, name: str, max_length: int | None = None,
              jobs: int = 1) -> SuiteResult:
    pairs = _pair_index_list(engines.group, max_length)
    start = time.perf_counter()
    if name == "theorem-invariants":
        merged, predicted = _theorem_invariants(engines, pairs, max_length, jobs)
    elif name in SUITE_NAMES:
        merged = _run_chunked(engines, name, pairs, jobs)
        predicted = len(pairs) * (engines.group.order if name in _TRIPLE_SUITES else 1)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return SuiteResult(name=name, predicted_instances=predicted,
                       elapsed=time.perf_counter() - start, **merged)


def _theorem_invariants(engines: Engines, pairs, max_length, jobs) -> tuple[dict, int]:
    """Proved-identity sweep; returns the tally and the predicted count."""
    group, coh, csm, rich = engines.group, engines.coh, engines.csm, engines.rich
    out = _new_chunk()
    filtered = _filtered_indices(group, max_length)

    # per-element block
    for ui in filtered:
        u = group.elements[ui]
        out["instances"] += 1
        try:
            cell = csm.csm_schubert_cell(u)       # positivity/support/normalization
            seg = csm.segre_schubert_cell(u)      # sign twist
            if seg != parity_sign(group.w0_times(u).length) * csm.phi_involution(cell):
                _record_hard(out, {"check": "segre-phi-twist", "u": str(u),
                                   "error": "sign involution identity fails"})
            expansion = rich.expand_in_csm_basis(cell)
            if expansion.coeffs != {ui: 1}:
                _record_hard(out, {"check": "csm-basis-unitriangular", "u": str(u),
                                   "error": "cell class does not expand to itself"})
            if csm.csm_opposite_cell(u) != csm.csm_schubert_cell(group.w0_times(u)):
                _record_hard(out, {"check": "opposite-translation", "u": str(u),
                                   "error": "opposite cell identity fails"})
        except InternalInvariantError as exc:
            _record_hard(out, {"check": "cell-invariants", "u": str(u), "error": str(exc)})

    # pair block (parallelizable)
    _merge_chunk(out, _run_chunked(engines, "theorem-pairs", pairs, jobs))

    # global block
    global_count = 0

    def check(ok: bool, name: str, detail: str = ""):
        nonlocal global_count
        global_count += 1
        out["instances"] += 1
        if not ok:
            _record_hard(out, {"check": name, "error": detail or "identity fails"})

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
                  f"pairing of ({u}, {v}) is {got}, expected {expected}")

    # degree-2 rule vs the localization engine
    for i, v, agree in coh.chevalley_agreement():
        check(agree, "chevalley-agreement", f"degree-2 products disagree at (s{i}, {v})")

    # operator relations on every basis vector
    for i in range(1, group.rank + 1):
        for w in group.elements:
            basis = coh.schubert_class(w)
            check(csm.dl_operator(i, csm.dl_operator(i, basis)) == basis,
                  "dl-quadratic", f"T_{i}^2 != id at {w}")
            check(not csm.bgg_A(i, csm.bgg_A(i, basis)),
                  "bgg-quadratic", f"A_{i}^2 != 0 at {w}")
            check(csm.weyl_action(i, csm.weyl_action(i, basis)) == basis,
                  "weyl-involution", f"s_{i}^2 != id at {w}")

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
                          f"braid relation fails for ({i},{j}) at {w}")

    # Bruhat recursion vs the subword oracle
    for w in group.elements:
        reachable = group.subword_products(w)
        for v in group.elements:
            check(group.bruhat_leq(v, w) == (v.index in reachable),
                  "bruhat-subword", f"order disagrees at ({v}, {w})")

    return out, len(filtered) + len(pairs) + global_count


# -- reports ---------------------------------------------------------------------


@dataclass
class VerificationReport:
    series: str
    rank: int
    order: int
    suites: dict[str, SuiteResult]
    meta_checks: dict[str, str]
    dl_convention: str
    options: dict
    timings: dict

    @property
    def exit_code(self) -> int:
        if any(s.status == "FAIL" for s in self.suites.values()):
            return 2
        if any(v == "FAIL" for v in self.meta_checks.values()):
            return 2
        if any(s.violations for s in self.suites.values()):
            return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": "csmverify", "version": __version__},
            "group": {"series": self.series, "rank": self.rank, "order": self.order},
            "cache": {"format_version": FORMAT_VERSION,
                      "dl_convention": self.dl_convention},
            "options": self.options,
            "suites": {name: self.suites[name].to_dict()
                       for name in SUITE_NAMES if name in self.suites},
            "meta_checks": self.meta_checks,
            "exit_code": self.exit_code,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False)

    def summary_lines(self) -> list[str]:
        lines = [f"group {self.series}{self.rank} (|W| = {self.order})"]
        for name in SUITE_NAMES:
            if name not in self.suites:
                continue
            s = self.suites[name]
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
        for name in SUITE_NAMES:
            if name not in self.suites:
                continue
            s = self.suites[name]
            rows.append(["summary", self.series, self.rank, name, s.instances,
                         s.predicted_instances, len(s.violations),
                         s.hard_failure_count, s.status, "", "", "", "", ""])
        for name in SUITE_NAMES:
            if name not in self.suites:
                continue
            for v in self.suites[name].violations:
                rows.append(["witness", self.series, self.rank, name, "", "", "", "",
                             "", v.get("check", ""), v.get("u", ""), v.get("v", ""),
                             v.get("w", ""), v.get("value", "")])
        return rows


def resolve_suites(requested) -> list[str]:
    names = []
    for s in requested:
        if s == "all":
            names.extend(SUITE_NAMES)
        elif s in SUITE_NAMES:
            names.append(s)
        else:
            raise ValueError(f"unknown suite {s!r}; choose from {SUITE_NAMES + ('all',)}")
    seen = set()
    return [n for n in names if not (n in seen or seen.add(n))]


def run_verification(
    series: str,
    rank: int,
    suites=("all",),
    max_length: int | None = None,
    jobs: int = 1,
    cache: TableCache | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> VerificationReport:
    """Run the requested suites on one group and assemble the report.

    Raises UsageError for ``jobs`` below 1 or a negative ``max_length``
    (which would filter out every element and pass on zero instances).
    """
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    if max_length is not None and max_length < 0:
        raise UsageError(f"--max-length must be nonnegative, got {max_length}")
    suite_names = resolve_suites(suites)
    cache_events: list = []
    t0 = time.perf_counter()
    engines = build_engines(series, rank, cache=cache, max_order=max_order,
                            cache_events=cache_events)
    checksums = materialize_tables(engines, cache=cache, cache_events=cache_events)
    build_elapsed = time.perf_counter() - t0

    results: dict[str, SuiteResult] = {}
    for name in suite_names:
        results[name] = run_suite(engines, name, max_length=max_length, jobs=jobs)

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
                else f"fails on {failures}/{total} filtered triples"
            )
    meta_elapsed = time.perf_counter() - meta_start

    return VerificationReport(
        series=series,
        rank=rank,
        order=engines.group.order,
        suites=results,
        meta_checks=meta,
        dl_convention=engines.csm.convention,
        options={
            "suites": suite_names,
            "max_length": max_length,
            "jobs": jobs,
            "max_order": max_order,
            "table_checksums": checksums,
        },
        timings={
            "table_build_s": round(build_elapsed, 6),
            "per_suite_s": {n: round(results[n].elapsed, 6) for n in results},
            "meta_s": round(meta_elapsed, 6),
            "total_s": round(time.perf_counter() - t0, 6),
            "cache_events": cache_events,
        },
    )
