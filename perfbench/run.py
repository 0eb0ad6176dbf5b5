"""Closed-loop benchmark of `intervalmc check`.

    python3 perfbench/run.py --workload descriptor --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its `src/`.
One client calls `intervalmc.cli.main(["check", ..., "--json"])` in this
process and starts the next check only after the previous verdict returns.
Every report is verified against an independent reference outside the
timed region (see `verify.py`). End-to-end times are divided by the host's
speed around them, measured by `hostspeed.py`, so that they read in
seconds of one reference host. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics; `--trace 1` checks each
instance untraced and traced in turn and reports the per-layer metrics of
`tracer.py` plus the tracing overhead, and writes the spans of one traced
pass to `perfbench/out/`. A run ends `--seconds` after the process
started. `--smoke` runs every workload at tiny sizes in
both modes and checks metric names, units and that no check failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

START = time.perf_counter()

from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PKG = "intervalmc"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from verify import Verifier  # noqa: E402

# One set-up before the timed loop, then one more between checks whenever
# this many seconds have passed since the last. setup_s is their median.
SETUP_INTERVAL = 2.0
# Seconds left at the end of a run for verification and output.
VERIFY_RESERVE = 1.0
# Untimed checks before measuring, cycling through the workload's instances.
WARMUP_SECONDS = 1.0
# The timed loop runs at least this many whole passes over the instances,
# then goes on in the same order while the next instance is expected to
# end in time.
MIN_PASSES = 2

END_TO_END = (
    ("wall_s", "s"),
    ("verdict_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("logic.parse_formula_ms", "ms"),
    ("logic.desugar_classify_ms", "ms"),
    ("logic.negate_to_exists_ms", "ms"),
    ("logic.formula_nodes", "count"),
    ("logic.is_propositional.calls", "count"),
    ("logic.val.calls", "count"),
    ("model.parse_kripke_ms", "ms"),
    ("model.witnessed_descriptors.calls", "count"),
    ("model.witnessed_descriptors_ms", "ms"),
    ("model.descriptors", "count"),
    ("model.shortest_witness.calls", "count"),
    ("model.shortest_witness_ms", "ms"),
    ("model.concat_desc.calls", "count"),
    ("model.track_label.calls", "count"),
    ("descriptor_checker.model_check_univ_ms", "ms"),
    ("descriptor_checker.search_self_ms", "ms"),
    ("descriptor_checker.check_calls", "count"),
    ("descriptor_checker.memo_hit_ratio", "ratio"),
    ("class_checker.build_ms", "ms"),
    ("class_checker.find_track_ms", "ms"),
    ("class_checker.classes_realized", "count"),
    ("oracle.model_check_bounded_ms", "ms"),
    ("oracle.initial_tracks", "count"),
    ("tracknfa.calls", "count"),
    ("tracknfa.find_satisfying_track_ms", "ms"),
    ("reductions.parse_ms", "ms"),
    ("reductions.build_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.counterexample_len", "count"),
    ("trace.overhead_s", "s"),
)

# Spans whose total duration per pass is a per-layer time metric.
SPAN_TOTALS = {
    "logic.parse_formula_ms": ("logic.parse_formula",),
    "logic.desugar_classify_ms": ("logic.desugar", "logic.classify"),
    "logic.negate_to_exists_ms": ("logic.negate_to_exists",),
    "model.parse_kripke_ms": ("model.parse_kripke",),
    "model.witnessed_descriptors_ms": ("model.witnessed_descriptors",),
    "model.shortest_witness_ms": ("model.shortest_witness",),
    "descriptor_checker.model_check_univ_ms": ("descriptor_checker.model_check_univ",),
    "class_checker.build_ms": ("class_checker.build",),
    "class_checker.find_track_ms": ("class_checker.find_track",),
    "oracle.model_check_bounded_ms": ("oracle.model_check_bounded",),
    "tracknfa.find_satisfying_track_ms": ("tracknfa.find_satisfying_track",),
    "reductions.parse_ms": ("reductions.parse",),
    "reductions.build_ms": ("reductions.build",),
}
# Spans whose self time (duration minus child spans) is a metric.
SPAN_SELF = {
    "descriptor_checker.search_self_ms": "descriptor_checker.model_check_univ",
    "cli.self_ms": "cli.main",
}
# Spans whose number per pass is a count metric.
SPAN_COUNTS = {
    "model.witnessed_descriptors.calls": "model.witnessed_descriptors",
    "model.shortest_witness.calls": "model.shortest_witness",
}
# Counters of tracer.py reported as they are.
TRACER_COUNTS = (
    "logic.is_propositional.calls",
    "logic.val.calls",
    "model.descriptors",
    "model.concat_desc.calls",
    "model.track_label.calls",
    "oracle.initial_tracks",
    "tracknfa.calls",
)


def _load_package():
    """Import the checkout's package afresh; returns its `cli` module."""
    if not (SRC / PKG / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / PKG} not found; run from the root of an intervalmc checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PKG}.cli")
    if Path(cli.__file__).resolve().parent != (SRC / PKG).resolve():
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's package")
    return cli


def setup(drawn, workdir, tracer=None):
    """Import the package afresh and write the drawn inputs under
    `workdir`; (seconds, cli, instances)."""
    shutil.rmtree(workdir, ignore_errors=True)
    started = time.perf_counter()
    cli = _load_package()
    if tracer is None:
        instances = workloads.write(drawn, workdir, cli)
    else:
        with tracer.installed():
            instances = workloads.write(drawn, workdir, cli)
    return time.perf_counter() - started, cli, instances


def run_check(cli, inst, tracer=None):
    """(exit code, or None on a crash; captured standard output)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = cli.main(inst.argv)
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(inst.argv)
    except Exception:  # a crash is a failed check, not the end of the run
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return rc, out.getvalue()


def _normalize(out):
    """The report without its timing, so that equal verdicts compare equal;
    (report or None, text)."""
    try:
        report = json.loads(out)
    except ValueError:
        return None, out
    report.get("stats", {}).pop("time_ms", None)
    return report, json.dumps(report, sort_keys=True)


class Loop:
    """Check times and reports of one client checking the instances.

    Equal reports are kept once, with their number, so memory does not
    grow with the number of checks. A traced loop also keeps in
    `last_pass` its reports since the caller last emptied it.
    """

    def __init__(self, cli, instances, tracer=None):
        self.cli = cli
        self.instances = instances
        self.tracer = tracer
        self.times = [[] for _ in instances]
        self.started = [[] for _ in instances]
        self.reports = {}
        self.last_pass = []

    def check(self, i):
        """Check instance i once; returns the seconds it took."""
        if self.tracer is not None:
            self.tracer.request = i
        t0 = time.perf_counter()
        rc, out = run_check(self.cli, self.instances[i], self.tracer)
        took = time.perf_counter() - t0
        self.times[i].append(took)
        self.started[i].append(t0)
        report, text = _normalize(out) if rc is not None else (None, out)
        key = (i, rc, text)
        self.reports[key] = self.reports.get(key, 0) + 1
        if self.tracer is not None:
            self.last_pass.append(report)
        return took

    def checks(self):
        return sum(len(t) for t in self.times)


def wall_s(times):
    """Time to decide every instance once: the sum of per-instance medians
    of `times`, one list of check times per instance."""
    return sum(statistics.median(t) for t in times)


def p50(times):
    """Median check time, each instance weighted equally: the time below
    which half of the instances' checks, each weighted 1/(its instance's
    number of checks), ended. It uses every sample, where a median of
    per-instance medians rests on the few samples of the middle instance."""
    weighted = sorted((t, 1 / len(ts)) for ts in times for t in ts)
    total = 0.0
    for took, weight in weighted:
        total += weight
        if total >= len(times) / 2:
            return took
    return weighted[-1][0]


def warm_up(cli, instances):
    started = time.perf_counter()
    for inst in instances:
        run_check(cli, inst)
        if time.perf_counter() - started >= WARMUP_SECONDS:
            break


def prepare(workload, seed, tiny, tracer=None):
    """Seeded draw, first set-up, reference verdicts and warm-up;
    (drawn instances, set-up seconds, cli, instances, verifier)."""
    drawn = workloads.draw(workload, seed, tiny)
    took, cli, instances = setup(drawn, _workdir(workload, seed), tracer)
    verifier = Verifier(_package_modules())
    for inst in instances:
        verifier.expected(inst)
    warm_up(cli, instances)
    return drawn, took, cli, instances, verifier


def measure(workload, seed, deadline, tiny):
    """End-to-end metrics; (loops, verifier, metrics, notes, problems)."""
    started = time.perf_counter()
    drawn, took, cli, instances, verifier = prepare(workload, seed, tiny)
    setups = [(started, took)]  # (start, seconds)
    loop = Loop(cli, instances)
    repeat_s = workloads.REPEAT_SECONDS[workload]
    visits = 0
    last_setup = time.perf_counter()
    speed = HostSpeed(last_setup)
    while True:
        i = visits % len(instances)
        if visits >= MIN_PASSES * len(instances):
            if time.perf_counter() + max(loop.times[i]) + repeat_s > deadline:
                break
        # Check again until the instance has run repeat_s, so cheap checks
        # get enough samples for a steady median.
        spent = 0.0
        while spent < repeat_s:
            spent += loop.check(i)
        visits += 1
        if time.perf_counter() - last_setup >= SETUP_INTERVAL:
            # The extra set-ups write elsewhere, so the timed checks' files
            # stay. Free their copy of the package, so that repeated
            # imports do not add to peak_rss_mb.
            started = time.perf_counter()
            setups.append((started, setup(drawn, _workdir(workload, seed, spare=True))[0]))
            gc.collect()
            last_setup = time.perf_counter()
        speed.keep_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Times in seconds of the reference host of hostspeed.py: each time
    # over the host-speed factor around it.
    scaled = [
        [took / speed.factor(t0, t0 + took) for t0, took in zip(starts, times)]
        for starts, times in zip(loop.started, loop.times)
    ]
    setup_times = [took for _, took in setups]
    metrics = {
        "wall_s": wall_s(scaled),
        "verdict_ms.p50": p50(scaled) * 1000,
        "setup_s": statistics.median(took / speed.factor(t0, t0 + took) for t0, took in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    loops_ms = ", ".join(f"{k} {v * 1000:.4f} ms" for k, v in speed.medians().items())
    notes = {
        "wall_s": f"sum of per-instance medians of check times over the host-speed factor around each; "
        f"{len(instances)} instances, {visits / len(instances):.2f} passes; as timed {wall_s(loop.times):.4f} s",
        "verdict_ms.p50": f"median of {loop.checks()} checks, each of {len(instances)} instances weighted equally, "
        f"over the host-speed factor around each; as timed {p50(loop.times) * 1000:.4f} ms",
        "setup_s": f"median of {len(setups)} set-ups spread over the run, over the host-speed factor around each; "
        f"run's factor {speed.factor():.4f} ({len(speed.samples)} samples, medians {loops_ms}); "
        f"as timed {statistics.median(setup_times):.4f} s",
        "peak_rss_mb": "ru_maxrss of this process after the timed loop",
    }
    return [loop], verifier, metrics, notes, []


def measure_traced(workload, seed, deadline, tiny):
    """Per-layer metrics; (loops, verifier, metrics, notes, problems).

    Each pass checks every instance once untraced and once traced, one
    right after the other and in alternating order, so that the tracing
    overhead is a sum of per-instance differences, each taken under the
    same host conditions.
    """
    tracer = tracing.Tracer()
    _, _, cli, instances, verifier = prepare(workload, seed, tiny, tracer)
    setup_spans, missing = tracer.spans, set(tracer.missing)
    plain, traced = Loop(cli, instances), Loop(cli, instances, tracer)
    overheads = [[] for _ in instances]
    passes, pass_seconds, first_spans = [], [], None

    def traced_check(i):
        with tracer.installed():
            took = traced.check(i)
        missing.update(tracer.missing)
        return took

    while True:
        started = time.perf_counter()
        tracer.reset()
        traced.last_pass = []
        for i in range(len(instances)):
            if (i + len(passes)) % 2:
                untraced_s = plain.check(i)
                traced_s = traced_check(i)
            else:
                traced_s = traced_check(i)
                untraced_s = plain.check(i)
            overheads[i].append(traced_s - untraced_s)
        passes.append(_layer_metrics(cli.logic, tracer, traced.last_pass))
        if first_spans is None:
            first_spans = tracer.spans
        pass_seconds.append(time.perf_counter() - started)
        if time.perf_counter() + max(pass_seconds) > deadline:
            break
    times, counts = zip(*passes)
    metrics = {name: statistics.median(p[name] for p in times) for name in times[0]}
    metrics.update(counts[0])
    setup_times = _span_metrics(setup_spans)[0]
    for name in ("reductions.parse_ms", "reductions.build_ms"):
        metrics[name] = setup_times[name]
    metrics["trace.overhead_s"] = sum(statistics.median(o) for o in overheads)
    notes = {
        "trace.overhead_s": f"sum over {len(instances)} instances of the median traced - untraced time, "
        f"{len(passes)} passes; untraced wall_s as timed {wall_s(plain.times):.4f} s",
    }
    problems = [f"call site not found: {site}" for site in sorted(missing)]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    _write_trace(workload, seed, first_spans, setup_spans, instances)
    return [plain, traced], verifier, metrics, notes, problems


def _span_metrics(spans):
    """(time metrics in ms, span-count metrics) of a list of spans."""
    total, children, number = {}, {}, {}
    for _, name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        number[name] = number.get(name, 0) + 1
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    times = {metric: sum(total.get(n, 0.0) for n in names) * 1000 for metric, names in SPAN_TOTALS.items()}
    for metric, name in SPAN_SELF.items():
        times[metric] = 1000 * sum(
            rec[3] - rec[2] - children.get(i, 0.0) for i, rec in enumerate(spans) if rec[1] == name
        )
    counts = {metric: number.get(name, 0) for metric, name in SPAN_COUNTS.items()}
    return times, counts


def _layer_metrics(logic, tracer, reports):
    """(time metrics in ms, count metrics) of one traced pass."""
    times, counts = _span_metrics(tracer.spans)
    stats = {"check_calls": 0, "memo_hits": 0, "classes_realized": 0}
    ce_lengths = []
    for report in reports:
        if report is None:
            continue
        for key in stats:
            stats[key] += report.get("stats", {}).get(key, 0)
        if report.get("result") == "fails" and report.get("counterexample"):
            ce_lengths.append(len(report["counterexample"]))
    attempts = stats["check_calls"] + stats["memo_hits"]
    counts.update({name: tracer.count(name) for name in TRACER_COUNTS})
    counts.update(
        {
            "logic.formula_nodes": sum(logic.formula_size(phi) for phi in tracer.desugared),
            "descriptor_checker.check_calls": stats["check_calls"],
            "descriptor_checker.memo_hit_ratio": stats["memo_hits"] / attempts if attempts else 0.0,
            "class_checker.classes_realized": stats["classes_realized"],
            "cli.counterexample_len": statistics.mean(ce_lengths) if ce_lengths else 0.0,
        }
    )
    return times, counts


def _workdir(workload, seed, spare=False):
    return OUT / f"work-{workload}-{seed}-{os.getpid()}{'-spare' if spare else ''}"


def _write_trace(workload, seed, spans, setup_spans, instances):
    OUT.mkdir(parents=True, exist_ok=True)

    def rows(records):
        origin = min((r[2] for r in records), default=0.0)
        return [
            {"request": r, "name": n, "start_ms": (a - origin) * 1000, "end_ms": (b - origin) * 1000, "parent": p}
            for r, n, a, b, p in records
        ]

    payload = {
        "workload": workload,
        "seed": seed,
        "requests": [inst.name for inst in instances],
        "spans": rows(spans),
        "setup_spans": rows(setup_spans),
    }
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(payload), encoding="utf-8")


def _package_modules():
    names = ("model", "logic", "oracle", "reductions", "tracknfa")
    return SimpleNamespace(**{n: importlib.import_module(f"{PKG}.{n}") for n in names})


def run(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; (result object, readable lines)."""
    deadline = START + seconds - VERIFY_RESERVE
    try:
        loops, verifier, metrics, notes, problems = (measure_traced if trace else measure)(
            workload, seed, deadline, tiny
        )
        attempted, failed, errors = 0, 0, []
        for loop in loops:
            attempted += loop.checks()
            for (i, rc, text), number in loop.reports.items():
                reason = verifier.check(loop.instances[i], rc, text)
                if reason is not None:
                    failed += number
                    errors.append(f"{loop.instances[i].name}: {reason}")
    finally:
        for spare in (False, True):
            shutil.rmtree(_workdir(workload, seed, spare), ignore_errors=True)
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    lines = [f"workload {workload}, seed {seed}, trace {trace}: {attempted} checks, closed loop, 1 client"]
    for name, unit in units.items():
        note = notes.get(name)
        lines.append(f"  {name:40s} {metrics[name]:14.4f} {unit}" + (f"   ({note})" if note else ""))
    lines.append(f"  {'error_rate':40s} {failed / attempted:14.4f} ratio   ({failed}/{attempted})")
    lines += [f"  ERROR {e}" for e in errors[:10] + problems]
    return result, lines


def smoke():
    """Tiny runs of every workload in both modes; checks names, units and failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        # The traced mode runs twice: its counts must repeat exactly.
        traced = []
        for trace in (0, 1, 1):
            result, lines = run(workload, 1, 0, trace, tiny=True)
            print("\n".join(lines))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                print(f"  MISMATCH metric names/units: {sorted(set(got.items()) ^ set(want[trace].items()))}")
                ok = False
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                ok = False
            if trace:
                traced.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio")})
        if traced[0] != traced[1]:
            print(f"  MISMATCH counts between two traced runs of {workload}")
            ok = False
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload and metric")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
