"""csmverify benchmark: the real ``csmverify`` command, one fresh process per step.

Modes::

    python3 bench/run.py --workload a4-pairs --seed 1 --seconds 25 --trace 0
        one run; the last stdout line is the JSON result
    python3 bench/run.py --all [--repeat N] [--trace 0|1] [--out FILE]
        every workload N times (seeds 1..N), a table of medians and spreads
    python3 bench/run.py --smoke
        the same three workload shapes on A2/B2, untraced once and traced
        twice, with the reference and counter-determinism checks (seconds)
    python3 bench/run.py --compare PARENT.json CHANGE.json
        every end-to-end metric per workload as parent -> change

A single closed-loop client runs one step after another: ``csmverify
table`` on an empty cache directory of its own, then ``csmverify verify``
reading the tables it wrote. Every step is checked against
``bench/reference.json`` (exit code, report digest outside ``timings``,
table checksums). The inputs are fixed groups; ``--seed`` only names the
run's scratch directory. Untraced steps run under ``bench/probe.py``, and
their times are scaled by the host speed it measured during the step. See
``bench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

# each run repeats `table` until it has this many samples and this much time
MIN_SETUP_SAMPLES = 3
MIN_SETUP_SECONDS = 2.0
# Untraced steps run under bench/probe.py. A step time is reported as
# wall s * PROBE_REF_S / (mean probe s of the step): seconds on a host where
# one probe takes PROBE_REF_S. A step with fewer than MIN_PROBES probes is
# scaled by the mean of all probes of its kind in the run.
PROBE_REF_S = 0.001
MIN_PROBES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    series: str
    rank: int
    verify_args: tuple[str, ...]

    @property
    def group_args(self) -> list[str]:
        return ["--type", self.series, "--rank", str(self.rank)]


_PAIRS = ("--suite", "theorem-invariants", "--suite", "conjB", "--suite", "conjC")
_TRIPLES = ("--suite", "all")
_BUDGET = ("--suite", "conjB", "--suite", "conjC", "--jobs", "2")

WORKLOADS = {w.name: w for w in (
    Workload("a4-pairs", "A", 4, _PAIRS),
    Workload("b3-triples", "B", 3, _TRIPLES),
    Workload("b4-budget-jobs2", "B", 4, _BUDGET + ("--max-length", "3")),
)}
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload("a2-pairs", "A", 2, _PAIRS),
    Workload("b2-triples", "B", 2, _TRIPLES),
    Workload("b2-budget-jobs2", "B", 2, _BUDGET + ("--max-length", "2")),
)}

# (name, unit, better, bound); BENCHMARK.json lists the same metrics
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
)
SUITES = ("theorem-invariants", "conjB", "conjC", "conjD", "cross-paths")
PER_LAYER = (
    ("rootdata.group_build_s", "s", "lower"),
    ("rootdata.groups_built", "count", "lower"),
    ("cohomology.self_s", "s", "lower"),
    ("cohomology.cup_calls", "count", "lower"),
    ("cohomology.cup_term_pairs", "count", "lower"),
    ("cohomology.table_build_s", "s", "lower"),
    ("cohomology.triple_integral_calls", "count", "lower"),
    ("csm.self_s", "s", "lower"),
    ("csm.build_table_s", "s", "lower"),
    ("csm.segre_cell_calls", "count", "lower"),
    ("csm.schubert_cell_calls", "count", "lower"),
    ("richardson.self_s", "s", "lower"),
    ("richardson.class_calls", "count", "lower"),
    ("richardson.distinct_classes", "count", "lower"),
    ("richardson.reuse_ratio", "ratio", "higher"),
    ("richardson.expansion_calls", "count", "lower"),
    ("boxproduct.self_s", "s", "lower"),
    ("boxproduct.triple_sum_s", "s", "lower"),
    ("boxproduct.pairing_s", "s", "lower"),
    ("boxproduct.associativity_s", "s", "lower"),
    ("boxproduct.chi_provenance_calls", "count", "lower"),
    ("boxproduct.box_product_class_calls", "count", "lower"),
    ("boxproduct.chi_calls", "count", "lower"),
    ("boxproduct.box_product_calls", "count", "lower"),
    *((f"verify.suite_s.{s}", "s", "lower") for s in SUITES),
    ("verify.instances", "count", "higher"),
    ("verify.self_s", "s", "lower"),
    ("verify.meta_s", "s", "lower"),
    ("verify.cpu_s", "s", "lower"),
    ("verify.pool_s", "s", "lower"),
    ("cache.self_s", "s", "lower"),
    ("cache.store_s", "s", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.bytes_written", "count", "lower"),
    ("cache.bytes_read", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
# per-layer metrics that two traced runs of the same code must repeat exactly
DETERMINISTIC = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, no reference)."""


# -- one step -----------------------------------------------------------------


@dataclass
class Step:
    kind: str                # "table" or "verify"
    wall_s: float
    rss_mb: float
    cpu_s: float
    problem: str | None = None
    layer: dict = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)   # probe times, s

    @property
    def ok(self) -> bool:
        return self.problem is None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("CSMVERIFY_CACHE", None)
    return env


def spawn(argv: list[str], out: Path, err: Path) -> tuple[float, float, float, int]:
    """Run argv to completion; returns (wall s, peak RSS MB, cpu s, exit code).

    RSS and CPU come from wait4, so they include reaped pool workers.
    """
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=_child_env(), cwd=ROOT,
                                start_new_session=True)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime, proc.returncode


def run_step(w: Workload, kind: str, cache: Path, tag: Path, ref: dict,
             trace_spans: Path | None = None) -> Step:
    """One fresh process for `csmverify table` or `csmverify verify`, run
    in-process by bench/tracer.py when trace_spans is given and by
    bench/probe.py otherwise."""
    args = [kind, *w.group_args, "--cache-dir", str(cache)]
    report = tag.with_suffix(".report.json")
    if kind == "verify":
        args += [*w.verify_args, "--output", str(report)]
    out, err = tag.with_suffix(".out"), tag.with_suffix(".err")
    metrics = tag.with_suffix(".layers.json")
    probes = tag.with_suffix(".probes")
    if trace_spans is None:
        argv = [sys.executable, str(BENCH / "probe.py"), "--samples", str(probes), "--", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--metrics", str(metrics),
                "--spans", str(trace_spans), "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--", *args]
    wall, rss, cpu, code = spawn(argv, out, err)
    step = Step(kind, wall, rss, cpu)
    if kind == "table":
        step.problem = check_table(out.read_text(errors="replace"), code, ref)
    else:
        step.problem = check_report(report, code, ref)
    if trace_spans is None and step.ok:
        try:
            step.probes = [float(x) for x in probes.read_text().split()]
        except (OSError, ValueError) as exc:
            step.problem = f"unreadable probe samples: {exc}"
    if trace_spans is not None and step.ok:
        try:
            traced = json.loads(metrics.read_text())
        except (OSError, ValueError) as exc:
            step.problem = f"the tracer wrote no layer metrics: {exc}"
        else:
            step.layer = traced["metrics"]
            for hook in traced["missing_hooks"]:
                print(f"warning: tracer hook {hook} not found; its metrics read 0", file=sys.stderr)
    if not step.ok:
        tail = err.read_text(errors="replace").strip().splitlines()[-3:]
        print(f"FAILED {w.name} {kind}: {step.problem}" + "".join(f"\n  | {t}" for t in tail),
              file=sys.stderr)
    return step


# -- correctness --------------------------------------------------------------

_TABLE_LINE = re.compile(r"^(\w+) table for (\w+): (computed|cache hit), checksum ([0-9a-f]{64})$")


def report_digest(report: dict) -> str:
    """sha256 of the canonical JSON of a report without its `timings` block."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":"),
                                     ensure_ascii=False).encode("utf-8")).hexdigest()


def check_table(stdout: str, code: int, ref: dict) -> str | None:
    if code != ref["table_exit"]:
        return f"exit code {code}, expected {ref['table_exit']}"
    seen = {}
    for line in stdout.splitlines():
        m = _TABLE_LINE.match(line.strip())
        if m:
            kind, _, source, checksum = m.groups()
            if source != "computed":
                return f"{kind} table was a cache hit in an empty cache"
            seen[kind] = checksum
    if seen != ref["table_checksums"]:
        return f"table checksums {seen} differ from the reference"
    return None


def check_report(path: Path, code: int, ref: dict) -> str | None:
    if code != ref["verify_exit"]:
        return f"exit code {code}, expected {ref['verify_exit']}"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"no readable report: {exc}"
    if report.get("options", {}).get("table_checksums") != ref["table_checksums"]:
        return "report table checksums differ from the reference"
    if report_digest(report) != ref["report_sha256"]:
        return "report differs from the reference outside `timings`"
    return None


def load_reference() -> dict:
    if not (SRC / "csmverify" / "cli.py").is_file():
        raise SetupError(f"no csmverify sources under {SRC}")
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {REFERENCE}: {exc}") from exc


# -- one run ------------------------------------------------------------------


class Client:
    """The single closed-loop client of one run.

    Steps run one after another in a scratch directory of the run, each
    cache directory new and empty.
    """

    def __init__(self, w: Workload, ref: dict, seed: int):
        self.w, self.ref = w, ref
        self.path = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self.steps: list[Step] = []

    def new_cache(self) -> Path:
        cache = self.path / f"cache{len(self.steps)}"
        cache.mkdir()
        return cache

    def step(self, kind: str, cache: Path, trace_spans: Path | None = None) -> Step:
        tag = self.path / f"{len(self.steps):03d}-{kind}"
        step = run_step(self.w, kind, cache, tag, self.ref, trace_spans)
        self.steps.append(step)
        return step

    def pair(self, traced: bool = False) -> tuple[Step, Step]:
        """`table` on a new cache, then `verify` reading what it wrote; when
        traced, the spans go to .bench_work/traces/<workload>-<step>.spans."""
        spans = {}
        if traced:
            folder = WORK / "traces"
            folder.mkdir(parents=True, exist_ok=True)
            spans = {k: folder / f"{self.w.name}-{k}.spans" for k in ("table", "verify")}
        cache = self.new_cache()
        table = self.step("table", cache, spans.get("table"))
        verify = self.step("verify", cache, spans.get("verify"))
        shutil.rmtree(cache)
        return table, verify

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def scaled_times(steps: list[Step]) -> list[float]:
    """Wall times of steps of one kind, scaled to the probe's reference speed."""
    pooled = [x for s in steps for x in s.probes]
    times = []
    for s in steps:
        probes = s.probes if len(s.probes) >= MIN_PROBES else pooled
        times.append(s.wall_s * PROBE_REF_S / statistics.fmean(probes) if probes else s.wall_s)
    return times


def measure(c: Client, seconds: float) -> dict:
    """Untraced iterations until another one would pass `seconds` (at least
    one). An iteration repeats `table` for MIN_SETUP_SAMPLES samples and
    MIN_SETUP_SECONDS, then runs `verify` on the last table's cache."""
    setups, verifies, peaks = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        tables: list[Step] = []
        while len(tables) < MIN_SETUP_SAMPLES or sum(t.wall_s for t in tables) < MIN_SETUP_SECONDS:
            if tables:
                shutil.rmtree(cache)
            cache = c.new_cache()
            tables.append(c.step("table", cache))
        verify = c.step("verify", cache)
        shutil.rmtree(cache)
        setups += tables
        verifies.append(verify)
        peaks.append(max(s.rss_mb for s in (*tables, verify)))
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break
    for kind, steps in (("table", setups), ("verify", verifies)):
        probes = [x for s in steps for x in s.probes]
        print(f"{c.w.name} {kind} wall s: " + " ".join(f"{s.wall_s:.4f}" for s in steps)
              + f"; mean probe ms: {statistics.fmean(probes) * 1e3 if probes else float('nan'):.4f}")
    return {"setup_s": statistics.median(scaled_times(setups)),
            "verify_s": statistics.median(scaled_times(verifies)),
            "peak_rss_mb": statistics.median(peaks)}


def traced(c: Client) -> dict:
    """One untraced (table, verify) as the baseline, then one traced."""
    _, plain_verify = c.pair()
    steps = c.pair(traced=True)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for step in steps:
        for key, value in step.layer.items():
            if key in metrics and key != "cli.startup_s":
                metrics[key] += value
    calls = metrics["richardson.class_calls"]
    metrics["richardson.reuse_ratio"] = metrics["richardson.distinct_classes"] / calls if calls else 0.0
    metrics.update({
        "cli.startup_s": steps[0].layer.get("cli.startup_s", 0.0),
        "verify.cpu_s": plain_verify.cpu_s,
        "trace.overhead": steps[1].wall_s / plain_verify.wall_s,
    })
    return metrics


def run_once(w: Workload, ref: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object that the last stdout line carries."""
    c = Client(w, ref, seed)
    try:
        if trace:
            values = traced(c)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values = measure(c, seconds)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    finally:
        c.close()
    failed = sum(not s.ok for s in c.steps)
    return {
        "correct": failed == 0,
        "attempted": len(c.steps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


# -- tables over many runs ----------------------------------------------------


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, ((q3 - q1) / med if med else 0.0)


def summarize(runs: list[dict]) -> dict:
    """Per workload and trace mode: failed share and each metric's spread."""
    rows: dict[tuple[str, int], dict] = {}
    for run in runs:
        row = rows.setdefault((run["workload"], run["trace"]),
                              {"attempted": 0, "failed": 0, "metrics": {}})
        row["attempted"] += run["result"]["attempted"]
        row["failed"] += run["result"]["failed"]
        for name, m in run["result"]["metrics"].items():
            row["metrics"].setdefault(name, (m["unit"], []))[1].append(m["value"])
    return rows


def print_table(runs: list[dict]) -> None:
    for (workload, trace), row in summarize(runs).items():
        share = row["failed"] / row["attempted"] if row["attempted"] else float("nan")
        print(f"{workload} ({'traced' if trace else 'untraced'}):")
        for name, (unit, values) in row["metrics"].items():
            med, q1, q3, rel = spread(values)
            print(f"  {name:36s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {rel:.1%}  n={len(values)}")
        print(f"  {'failed_share':36s} {share:14.6g} {'ratio':6s} "
              f"{row['failed']}/{row['attempted']} steps")


def counter_mismatches(runs: list[dict]) -> list[str]:
    """Deterministic counters that differ between traced runs of a workload."""
    seen: dict[str, dict] = {}
    out = []
    for run in runs:
        if not run["trace"]:
            continue
        counts = {k: run["result"]["metrics"][k]["value"] for k in DETERMINISTIC}
        first = seen.setdefault(run["workload"], counts)
        out += [f"{run['workload']}: {k} {first[k]} vs {counts[k]}"
                for k in DETERMINISTIC if counts[k] != first[k]]
    return out


def git_head() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def run_many(workloads: dict, ref: dict, repeat: int, seconds: float, trace: int,
             out: Path | None) -> int:
    """Every workload `repeat` times (seeds 1..repeat); prints the table and,
    for traced runs, checks that the deterministic counters repeat."""
    runs = []
    shown = ("trace.overhead", "verify.cpu_s") if trace else [e[0] for e in END_TO_END]
    for w in workloads.values():
        for seed in range(1, repeat + 1):
            result = run_once(w, ref[w.name], seed, seconds, bool(trace))
            runs.append({"workload": w.name, "seed": seed, "trace": trace,
                         "seconds": seconds, "result": result})
            print(f"{w.name} seed {seed} trace {trace} correct {result['correct']}: "
                  + " ".join(f"{n} {result['metrics'][n]['value']:.4g}" for n in shown),
                  file=sys.stderr, flush=True)
    if out is not None:
        out.write_text(json.dumps({
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "git_head": git_head(), "runs": runs,
        }, indent=1, sort_keys=True) + "\n")
    print_table(runs)
    mismatches = counter_mismatches(runs)
    for line in mismatches:
        print(f"NONDETERMINISTIC {line}")
    if trace and repeat > 1 and not mismatches:
        print(f"deterministic counters repeat exactly across {repeat} traced runs")
    all_correct = all(r["result"]["correct"] for r in runs)
    return 0 if all_correct and not mismatches else 1


def compare(parent_path: Path, change_path: Path) -> int:
    parent = summarize(json.loads(parent_path.read_text())["runs"])
    change = summarize(json.loads(change_path.read_text())["runs"])
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace:
            continue
        print(f"{workload}:")
        for name, unit, better, bound in END_TO_END:
            if name not in parent[key]["metrics"] or name not in change[key]["metrics"]:
                continue
            pm, _, _, ps = spread(parent[key]["metrics"][name][1])
            cm, _, _, cs = spread(change[key]["metrics"][name][1])
            worse = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
            if max(ps, cs) > bound:
                verdict = "unresolved: a spread is wider than the bound"
            else:
                verdict = "WORSE than the bound" if worse > bound else "within the bound"
            print(f"  {name:12s} {pm:.6g} {unit} (spread {ps:.1%}) -> {cm:.6g} {unit} "
                  f"(spread {cs:.1%}): ratio {cm / pm:.3f} of the parent median {pm:.6g} {unit}; "
                  f"bound {bound:.0%}, {verdict}")
        shares = [f"{r['failed']}/{r['attempted']}" for r in (parent[key], change[key])]
        print(f"  {'failed_share':12s} {shares[0]} -> {shares[1]} steps")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted({**WORKLOADS, **SMOKE_WORKLOADS}))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--repeat", type=int, default=1, help="runs per workload with --all")
    p.add_argument("--out", type=Path, help="result file written by --all")
    p.add_argument("--smoke", action="store_true",
                   help="A2/B2 shapes: untraced once, traced twice, checked")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    args = p.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    try:
        ref = load_reference()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return (run_many(SMOKE_WORKLOADS, ref, 1, 1.0, 0, args.out)
                | run_many(SMOKE_WORKLOADS, ref, 2, 1.0, 1, None))
    if args.all:
        return run_many(WORKLOADS, ref, args.repeat, args.seconds, args.trace, args.out)
    if args.workload is None:
        p.error("one of --workload, --all, --smoke or --compare is required")
    w = {**WORKLOADS, **SMOKE_WORKLOADS}[args.workload]
    result = run_once(w, ref[w.name], args.seed, args.seconds, bool(args.trace))
    share = result["failed"] / result["attempted"]
    for name, m in result["metrics"].items():
        print(f"{w.name} {name} {m['value']:.6g} {m['unit']}")
    print(f"{w.name} failed_share {share:.6g} ratio ({result['failed']}/{result['attempted']} steps)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
