"""Run one ``csmverify`` command in-process with span and count recorders.

Usage (the bench runs this in a fresh process per traced step)::

    python3 bench/tracer.py --metrics OUT.json --spans OUT.spans \
        --spawned-at T -- verify --type A --rank 2 --suite conjB

Before ``csmverify.cli.main`` is called, the public boundary functions of
each layer are wrapped from outside the package (nothing under ``src/`` is
touched):

* spans (name, parent, start, end) for calls that are few enough to time;
* plain counts for the functions called ~10^5 times or more per run
  (``triple_integral``, ``chi``, ``box_product``, ``csm_schubert_cell``
  and friends), which would otherwise dominate what they measure.

Spans are kept in memory in flat arrays with a parent link and written once
at the end. The step's layer metrics (self time per layer, totals of a few
spans, and the counters) go to ``--metrics`` as JSON.

Pool workers started under ``--jobs N`` are forked after the wrappers are
installed, but they exit without flushing, so their spans and counts never
reach this process: only the parent's side of a pooled suite is recorded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from array import array
from pathlib import Path

# Span names whose wrapped function is public API of the named layer.
SPANNED = (
    ("rootdata", "WeylGroup", "__init__", "rootdata.group_build"),
    ("cohomology", "FlagCohomology", "cup", "cohomology.cup"),
    ("cohomology", "FlagCohomology", "build_structure_table", "cohomology.build_structure_table"),
    ("csm", "CsmCalculator", "build_table", "csm.build_table"),
    ("csm", "CsmCalculator", "segre_schubert_cell", "csm.segre_schubert_cell"),
    ("richardson", "RichardsonCalculator", "csm_richardson", "richardson.csm_richardson"),
    ("richardson", "RichardsonCalculator", "expand_in_csm_basis", "richardson.expand_in_csm_basis"),
    ("richardson", "RichardsonCalculator", "verify_lemma_e", "richardson.verify_lemma_e"),
    ("boxproduct", "BoxCalculator", "chi_via_triple_sum", "boxproduct.chi_via_triple_sum"),
    ("boxproduct", "BoxCalculator", "chi_via_pairing", "boxproduct.chi_via_pairing"),
    ("boxproduct", "BoxCalculator", "associativity_status", "boxproduct.associativity_status"),
    ("verify", None, "build_engines", "verify.build_engines"),
    ("verify", None, "materialize_tables", "verify.materialize_tables"),
    ("verify", None, "run_suite", "verify.run_suite"),
    ("verify", None, "run_verification", "verify.run_verification"),
    ("cache", "TableCache", "store", "cache.store"),
    ("cache", "TableCache", "load", "cache.load"),
    ("cli", None, "main", "cli.main"),
)

# Hot functions: counted, never timed.
COUNTED = (
    ("cohomology", "FlagCohomology", "triple_integral", "cohomology.triple_integral_calls"),
    ("csm", "CsmCalculator", "csm_schubert_cell", "csm.schubert_cell_calls"),
    ("boxproduct", "BoxCalculator", "chi", "boxproduct.chi_calls"),
    ("boxproduct", "BoxCalculator", "box_product", "boxproduct.box_product_calls"),
    ("boxproduct", "BoxCalculator", "chi_provenance", "boxproduct.chi_provenance_calls"),
    ("boxproduct", "BoxCalculator", "box_product_class", "boxproduct.box_product_class_calls"),
)

LAYERS = ("rootdata", "cohomology", "csm", "richardson", "boxproduct", "verify", "cache", "cli")
# children of run_verification that are not meta-check time
_NOT_META = frozenset({"verify.build_engines", "verify.materialize_tables", "verify.run_suite"})


class Tracer:
    """In-memory spans (flat arrays with a parent link) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.suite_s: dict[str, float] = {}
        self.pool_s = 0.0
        self.distinct_classes: set = set()
        self._stack = [-1]

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result, seconds) runs once
        the span is closed, so its own cost is not inside the span."""
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, ends[idx] - starts[idx])
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- aggregation ------------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (the span
        minus the time its child spans cover)."""
        n = len(self.start)
        child = [0.0] * n
        not_meta = [0.0] * n
        meta_names = {i for i, s in enumerate(self.names) if s in _NOT_META}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                dur = self.end[i] - self.start[i]
                child[p] += dur
                if self.name[i] in meta_names:
                    not_meta[p] += dur
        stats = {s: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outside_s": 0.0}
                 for s in self.names}
        for i in range(n):
            entry = stats[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
            entry["outside_s"] += dur - not_meta[i]
        return stats

    def layer_metrics(self) -> dict[str, float]:
        """The step's per-layer metrics; times in seconds, counts exact."""
        stats = self.span_stats()

        def total(name):
            return stats.get(name, {}).get("total_s", 0.0)

        def calls(name):
            return stats.get(name, {}).get("calls", 0)

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in stats.items()
                                         if k.split(".", 1)[0] == layer)
        out.update({
            "rootdata.group_build_s": total("rootdata.group_build"),
            "rootdata.groups_built": calls("rootdata.group_build"),
            "cohomology.cup_calls": calls("cohomology.cup"),
            "cohomology.table_build_s": total("cohomology.build_structure_table"),
            "csm.build_table_s": total("csm.build_table"),
            "csm.segre_cell_calls": calls("csm.segre_schubert_cell"),
            "richardson.class_calls": calls("richardson.csm_richardson"),
            "richardson.distinct_classes": len(self.distinct_classes),
            "richardson.expansion_calls": calls("richardson.expand_in_csm_basis"),
            "boxproduct.triple_sum_s": total("boxproduct.chi_via_triple_sum"),
            "boxproduct.pairing_s": total("boxproduct.chi_via_pairing"),
            "boxproduct.associativity_s": total("boxproduct.associativity_status"),
            "verify.meta_s": stats.get("verify.run_verification", {}).get("outside_s", 0.0),
            "verify.pool_s": self.pool_s,
            "cache.store_s": total("cache.store"),
            "cache.load_s": total("cache.load"),
            "cache.stores": calls("cache.store"),
        })
        for suite, secs in self.suite_s.items():
            out[f"verify.suite_s.{suite}"] = secs
        for key, n in self.counts.items():
            out[key] = n
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then the raw name/parent/start/end arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"],
                  "clock": "time.perf_counter"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path) -> dict:
    """Inverse of Tracer.write_spans, for inspecting a trace by hand."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for spec in header["arrays"]:
            key, code = spec.split(":")
            arr = array(code)
            arr.fromfile(fh, header["count"])
            out[key] = arr
    return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary in SPANNED and COUNTED; returns the hooks that
    could not be found (their metrics then read 0)."""
    import importlib

    modules = {m: importlib.import_module(f"csmverify.{m}")
               for m in ("rootdata", "cohomology", "csm", "richardson",
                         "boxproduct", "verify", "cache", "cli")}
    after = _after_hooks(tracer)
    missing = []

    def patch(module, cls, attr, make):
        owner = getattr(modules[module], cls) if cls else modules[module]
        orig = getattr(owner, attr, None)
        if orig is None:
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            return
        wrapped = make(orig)
        if cls:
            setattr(owner, attr, wrapped)
            return
        # module functions are also bound by name in the modules that import them
        for mod in modules.values():
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)

    for module, cls, attr, name in SPANNED:
        patch(module, cls, attr, lambda f, n=name: tracer.span(n, f, after.get(n)))
    for module, cls, attr, key in COUNTED:
        patch(module, cls, attr, lambda f, k=key: tracer.counter(k, f))
    return missing


def _after_hooks(tracer: Tracer) -> dict:
    """Extra counters read off a span's arguments and result."""

    def cup(args, kwargs, result, secs):
        _, a, b = args
        tracer.bump("cohomology.cup_term_pairs", len(a.coeffs) * len(b.coeffs))

    def richardson(args, kwargs, result, secs):
        _, u, v = args
        tracer.distinct_classes.add((u.index, v.index))

    def run_suite(args, kwargs, result, secs):
        name = kwargs.get("name", args[1] if len(args) > 1 else None)
        jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
        tracer.suite_s[name] = tracer.suite_s.get(name, 0.0) + secs
        tracer.bump("verify.instances", result.instances)
        if jobs > 1:
            tracer.pool_s += secs

    def store(args, kwargs, result, secs):
        tracer.bump("cache.bytes_written", Path(result).stat().st_size)

    def load(args, kwargs, result, secs):
        cache, series, rank, kind = args
        if result is None:
            return
        tracer.bump("cache.hits")
        folder = Path(cache.root) / f"{series}{rank}"
        tracer.bump("cache.bytes_read",
                    sum(p.stat().st_size for p in folder.glob(f"{kind}-v*") if p.is_file()))

    return {"cohomology.cup": cup, "richardson.csm_richardson": richardson,
            "verify.run_suite": run_suite, "cache.store": store, "cache.load": load}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float,
                        help="CLOCK_MONOTONIC reading taken just before this process was spawned")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from csmverify import cli

    tracer = Tracer()
    missing = install(tracer)
    startup = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    code = cli.main(command)
    sys.stdout.flush()
    metrics = tracer.layer_metrics()
    metrics["cli.startup_s"] = startup
    args.metrics.write_text(json.dumps({"metrics": metrics, "missing_hooks": missing,
                                        "exit_code": code}, sort_keys=True))
    tracer.write_spans(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
