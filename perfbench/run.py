"""Benchmark of the piv package: four seeded closed-loop workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen):

    cli-session     one fresh `python -m piv.cli` process per operation
    region-bounds   bound_piv + robustness_verdict, and batches of point piv()
    contour-export  in-process `piv contour` on 250k-cell grids, 250x1000 to 1000x250
    oracle-verify   verify_report alternating with a Monte Carlo estimate

The program is imported from ``src/`` of the checkout; nothing is built or
installed.  Every output is checked (checks.py).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (``--trace 0``), the same names on every workload:

    setup_s       median wall time of a fresh interpreter importing the piv
                  modules the workload uses (several per run)
    op_p50_ms     median wall time of one operation of the workload's main
    op_p90_ms     kind, and its 90th percentile (nearest rank):
                  cli-session: one CLI process, spawn to exit;
                  region-bounds: one bound_piv plus verdict;
                  contour-export: one contour command, file write included;
                  oracle-verify: one verify_report(100, 2000, seed)
    work_per_s    units of work per second of operation time:
                  cli-session: CLI processes; region-bounds: point
                  evaluations in the batches; contour-export: grid cells,
                  CSV and JSON together; oracle-verify: Monte Carlo
                  replications at n_ob = 2000
    peak_rss_mb   peak RSS of the workload process; for cli-session the
                  largest of its child processes

Times are normalized for the drift in machine speed (reference.py); the raw
times are kept in the run record.  A run of the default length holds about
100 operations on cli-session, 500 on region-bounds, 40 on oracle-verify and
20 on contour-export, so only the first two have ten samples beyond p90.

The per-workload names these map to (cli_p50_s, bound_p50_ms,
point_evals_per_s, contour_csv_cells_per_s, verify_s, mc_reps_per_s, ...)
are printed on the lines before the JSON object and kept in the run record.

``--trace 1`` runs every operation twice, untraced and then traced, and
prints the per-layer metrics (see layer_metrics below) with self times and
the tracing overhead.  Each run writes a record, and for traced runs its
spans, under perfbench/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import reference
import tracing as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RUNS = BENCH / "runs"

# One BLAS/OpenMP thread per process: the machine has few cores and numpy's
# pool starts at import, in the harness and in every CLI child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
IMPORT_PROBES = 3
MAX_PROBLEMS = 20


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc


def import_breakdown(env: dict) -> dict:
    """-X importtime of `import piv` and of `import piv.cli`, medians of a few runs."""

    def cumulative_s(module: str) -> tuple[float, float]:
        proc = run_child(["-X", "importtime", "-c", f"import {module}"], env)
        total = numpy = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            us = int(cumulative)
            top_level = len(name) - len(name.lstrip()) == 1
            if top_level and name.strip() in ("piv", "piv.cli"):
                total += us
            if name.strip() == "numpy" and numpy == 0.0:
                numpy = us
        return total / 1e6, numpy / 1e6

    pkg = [cumulative_s("piv")[0] for _ in range(IMPORT_PROBES)]
    full = [cumulative_s("piv.cli") for _ in range(IMPORT_PROBES)]
    proc = run_child(["-c", "import sys, piv.cli; print(len(sys.modules))"], env)
    return {
        "pkg.import_s": statistics.median(pkg),
        "cli.import_s": statistics.median(t for t, _ in full),
        "cli.import_numpy_s": statistics.median(n for _, n in full),
        "cli.modules_loaded": int(proc.stdout.strip()),
    }


def traced_run(op, tracer, index: int) -> float:
    tracer.op, tracer.enabled = index, True
    try:
        t0 = time.perf_counter()
        with tracer.span("op." + op.kind):
            op.run()
        return time.perf_counter() - t0
    finally:
        tracer.enabled = False


def measure(workload, rng, ctx, seconds: float, tracer, speed) -> tuple[list[dict], int, int, list[str]]:
    """Run operations, each checked before the next starts, until the deadline."""
    samples: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    for op in workload.ops(rng, ctx):
        if time.perf_counter() >= deadline:
            break
        sample = {"kind": op.kind, "label": op.label, "work": op.work}
        try:
            # A traced run times each operation both ways, alternating which
            # goes first, and checks the untraced output.
            if tracer is not None and len(samples) % 2:
                sample["traced_s"] = traced_run(op, tracer, len(samples))
            t0 = time.perf_counter()
            output = op.run()
            t1 = time.perf_counter()
            sample["s"] = t1 - t0
            sample["ns"], sample["kernel_s"] = speed.normalize(t0, t1)
            if tracer is not None and "traced_s" not in sample:
                sample["traced_s"] = traced_run(op, tracer, len(samples))
            found = op.check(output)
            samples.append(sample)
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            found = [f"{op.kind} raised {type(exc).__name__}: {exc}"]
        attempted += 1
        if found:
            failed += 1
            problems.extend(found[: MAX_PROBLEMS - len(problems)])
    return samples, attempted, failed, problems


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def rate(samples: list[dict]) -> float:
    """Work per second of normalized operation time."""
    busy = sum(s["ns"] for s in samples)
    return sum(s["work"] for s in samples) / busy if busy > 0 else 0.0


def end_to_end(workload, samples, setup_s: float) -> dict:
    primary = [s["ns"] for s in samples if s["kind"] == workload.primary]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-session" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(primary), "ms"),
        "op_p90_ms": (1e3 * p90(primary), "ms"),
        "work_per_s": (rate([s for s in samples if s["kind"] == workload.work_kind]), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def named_metrics(workload, samples, e2e, failed, attempted) -> dict:
    """The per-workload names the end-to-end metrics stand for."""
    of = lambda kind, label=None: [s for s in samples if s["kind"] == kind
                                   and (label is None or s["label"] == label)]
    n_primary = len(of(workload.primary))
    out = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
           "failed_ratio": (failed / attempted, "ratio")}
    if workload.name == "cli-session":
        out["cli_p50_s"] = (e2e["op_p50_ms"][0] / 1e3, "s")
        out["cli_p90_s"] = (e2e["op_p90_ms"][0] / 1e3, "s")
    elif workload.name == "region-bounds":
        out["bound_p50_ms"] = e2e["op_p50_ms"]
        out["bound_p90_ms"] = e2e["op_p90_ms"]
        out["point_evals_per_s"] = (e2e["work_per_s"][0], "1/s")
    elif workload.name == "contour-export":
        out["contour_csv_cells_per_s"] = (rate(of("contour", "csv")), "1/s")
        out["contour_json_cells_per_s"] = (rate(of("contour", "json")), "1/s")
    else:
        out["verify_s"] = (e2e["op_p50_ms"][0] / 1e3, "s")
        out["mc_reps_per_s"] = (e2e["work_per_s"][0], "1/s")
    return out, n_primary


def layer_metrics(workload, samples, spans, counters, imports: dict, gap: float,
                  failed: int, attempted: int) -> dict:
    """Per-layer metrics of a traced run.

    Span metrics average over the spans of that name unless noted; "per op"
    divides by the number of traced operations.  A layer the workload does
    not call reads 0.
    """
    own = tr.self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[tr.NAME]].append(i)
    duration = lambda i: spans[i][tr.END] - spans[i][tr.START]
    mean = lambda values: statistics.fmean(values) if values else 0.0
    mean_duration = lambda name: mean([duration(i) for i in by_name[name]])
    n_ops = max(1, len(samples))
    kinds = [s["kind"] for s in samples]
    n_verify = max(1, kinds.count("verify"))

    layer_self = defaultdict(float)
    for i, s in enumerate(spans):
        layer = s[tr.NAME].split(".")[0]
        layer_self["bench" if layer == "op" else layer] += own[i]
        layer_self["core"] += s[tr.LEAF_S]
    primary_ops = {i for i, k in enumerate(kinds) if k == workload.primary}
    primary_calls = sum(s[tr.LEAF_CALLS] for s in spans if s[tr.OP] in primary_ops)
    leaf_calls = sum(s[tr.LEAF_CALLS] for s in spans)
    leaf_s = sum(s[tr.LEAF_S] for s in spans)
    grids = by_name["bounds.evaluate_grid"]
    grid_s = sum(duration(i) for i in grids)
    traced = [s for s in samples if "traced_s" in s and s["kind"] != "pins"]
    plain_s = sum(s["s"] for s in traced)
    traced_s = sum(s["traced_s"] for s in traced)
    cli_p50 = lambda label: statistics.median(
        [s["s"] for s in samples if s["kind"] == "cli" and s["label"] == label] or [0.0])

    metrics = {
        "cli.import_s": (imports["cli.import_s"], "s"),
        "cli.import_numpy_s": (imports["cli.import_numpy_s"], "s"),
        "cli.modules_loaded": (imports["cli.modules_loaded"], "count"),
        "pkg.import_s": (imports["pkg.import_s"], "s"),
        "cli.compute_p50_s": (cli_p50("compute"), "s"),
        "cli.power_p50_s": (cli_p50("power"), "s"),
        "cli.bound_p50_s": (cli_p50("bound"), "s"),
        "cli.contour_p50_s": (cli_p50("contour"), "s"),
        "cli.dump_config_p50_s": (cli_p50("dump_config"), "s"),
        "cli.load_config_s": (mean([duration(i) for i in by_name["cli.load_config"]]
                                   + counters.load_config_s), "s"),
        "cli.render_json_s": (mean_duration("cli.render_json"), "s"),
        "cli.contour_self_s": (mean([own[i] for i in by_name["cli.main"]]), "s"),
        "cli.bytes_written": (mean(counters.bytes_written), "B"),
        "core.piv_calls": (primary_calls / max(1, len(primary_ops)), "count"),
        "core.piv_us": (1e6 * leaf_s / leaf_calls if leaf_calls else 0.0, "us"),
        "bounds.bound_piv_self_ms": (1e3 * mean([own[i] for i in by_name["bounds.bound_piv"]]), "ms"),
        "bounds.evaluate_grid_s": (mean_duration("bounds.evaluate_grid"), "s"),
        "bounds.grid_cells_per_s": (sum(spans[i][tr.CELLS] for i in grids) / grid_s if grid_s else 0.0, "1/s"),
        "bounds.to_csv_text_s": (mean_duration("bounds.to_csv_text"), "s"),
        "bounds.probe_checks": (counters.probe_checks, "count"),
        "bounds.probe_violations": (counters.probe_violations, "count"),
        "bounds.repro_gap": (gap, "prob"),
        "oracle.monte_carlo_s": (mean_duration("oracle.monte_carlo_piv"), "s"),
        "oracle.normals_drawn": (counters.normals_drawn, "count"),
    }
    for check in ("build_exact_dataset", "ols_fit", "block_inverse_check", "bayes_combination_check"):
        # per verify operation: all spans of the check, nested calls included once
        metrics[f"oracle.{check}_s"] = (sum(duration(i) for i in by_name[f"oracle.{check}"]) / n_verify, "s")
    for layer in ("cli", "core", "bounds", "oracle", "bench"):
        metrics[f"{layer}.self_ms"] = (1e3 * layer_self[layer] / n_ops, "ms")
    metrics["trace.overhead_ms"] = (1e3 * (traced_s - plain_s) / max(1, len(traced)), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0, "%")
    metrics["trace.spans"] = (len(spans), "count")
    metrics["bench.speed_factor"] = (
        statistics.median(s["kernel_s"] for s in samples) / reference.NOMINAL_S, "ratio")
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    return metrics


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "piv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def thread_count() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "piv" / "__init__.py").is_file():
        sys.stderr.write(f"no piv sources under {SRC}; run from a source checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import piv
    if Path(piv.__file__).resolve().parent != (SRC / "piv").resolve():
        sys.stderr.write(f"imported piv from {piv.__file__}, not from {SRC}\n")
        return 2
    import numpy
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}\n")
        return 2

    env = child_env()
    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=RUNS)
    tracer = tr.Tracer() if args.trace else None
    counters = workloads.Counters()
    speed = reference.SpeedSampler().start()
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            run_child(["-c", workload.imports], env)
            setup.append(speed.normalize(t0, time.perf_counter())[0])
        if tracer is not None:
            tr.install(tracer)
        ctx = workloads.Context(root=str(ROOT), workdir=workdir, child_env=env,
                                counters=counters, tracer=tracer)
        samples, attempted, failed, problems = measure(
            workload, random.Random(args.seed), ctx, args.seconds, tracer, speed)
        threads = thread_count()
    finally:
        speed.stop()
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    gap = workloads.repro_gap()

    e2e = end_to_end(workload, samples, statistics.median(setup))
    named, n_primary = named_metrics(workload, samples, e2e, failed, attempted)
    if args.trace:
        imports = import_breakdown(env)
        metrics = layer_metrics(workload, samples, tracer.spans, counters, imports, gap,
                                failed, attempted)
    else:
        metrics = e2e

    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    record_base = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "source_sha256": source_digest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "harness_threads": threads,
        "operations": {kind: sum(1 for s in samples if s["kind"] == kind)
                       for kind in sorted({s["kind"] for s in samples})},
        "primary_samples": n_primary,
        "grid_sizes": counters.sizes, "setup_samples_s": setup,
        "attempted": attempted, "failed": failed, "problems": problems,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "repro_gap": gap, "samples": samples,
    }
    if workload.name == "oracle-verify":
        record["replications"] = {"verify": (workload.seeds, workload.verify_reps),
                                  "monte_carlo": (workload.mc_n_ob, workload.mc_reps)}
    record_base.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        Path(str(record_base) + "-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "leaf_calls", "leaf_s", "cells"],
             "spans": tracer.spans}))

    print(f"{workload.name}: seed {args.seed}, {attempted} operations, {failed} failed, "
          f"{n_primary} timed as '{workload.primary}', record {record_base.name}.json")
    for problem in problems:
        print(f"  problem: {problem}")
    for name, (value, unit) in named.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    print(f"  {'bounds.repro_gap':<26} {gap:.6g}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<26} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
