"""The four workloads.  Each is a closed loop with one client: the next
operation starts only after the previous one has finished and been checked.

A workload yields ``Op`` objects.  ``run()`` is the timed call into the
program; ``check(output)`` returns the problems found in its output and is
never timed.  ``kind`` groups the timings: the workload's ``primary`` kind
gives its operation latency, its ``work_kind`` gives its throughput.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import checks
import gen
import piv.bounds as bounds
import piv.cli as cli
import piv.core as core
from piv.core import CounterfactualBelief, EstimateSign, FixedThreshold, ObservedStats, StatisticalThreshold


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    label: str = ""
    work: float = 0.0


@dataclass
class Counters:
    probe_checks: int = 0
    probe_violations: int = 0
    normals_drawn: int = 0
    bytes_written: list[int] = field(default_factory=list)
    load_config_s: list[float] = field(default_factory=list)
    sizes: list[str] = field(default_factory=list)


@dataclass
class Context:
    root: str
    workdir: str
    child_env: dict
    counters: Counters
    tracer: object = None

    def span(self, name: str):
        if self.tracer is not None and self.tracer.enabled:
            return self.tracer.span(name)
        return contextlib.nullcontext()


def _analysis_of(config) -> gen.Analysis:
    return gen.Analysis(config.observed, config.sign, config.threshold)


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def _spots(rng: random.Random, n: int = 8) -> list[tuple[float, float]]:
    return [(0.0, 0.0), (0.999999, 0.999999)] + [(rng.random(), rng.random()) for _ in range(n - 2)]


# =============================================================================
# cli-session
# =============================================================================


class CliSession:
    """One fresh `python -m piv.cli` process per operation.

    Chosen because analysts run the CLI one command at a time, so every call
    pays interpreter start plus `import piv.cli` (which pulls numpy in through
    piv.oracle).  Lazy imports show here; a faster bound search shows only on
    the bound share of the command mix.
    """

    name = "cli-session"
    primary = "cli"
    work_kind = "cli"
    imports = "import piv.cli"
    n_configs = 6
    commands = ("compute", "power", "bound", "bound", "bound", "contour", "dump-config")
    case_study_regions = ("belief-1", "belief-1-relaxed", "belief-2", "retained-effect-minus-7")

    def ops(self, rng: random.Random, ctx: Context) -> Iterator[Op]:
        objects = [cli.config_to_json_object(cli.case_study_config())]
        objects += [gen.config_object(rng) for _ in range(self.n_configs - 1)]
        paths = [_write_json(os.path.join(ctx.workdir, f"config-{k}.json"), obj)
                 for k, obj in enumerate(objects)]
        loaded = []
        for path in paths:
            start = time.perf_counter()
            loaded.append(cli.load_config(path))
            ctx.counters.load_config_s.append(time.perf_counter() - start)
        index = 0
        while True:
            k = index % self.n_configs
            slot = index % len(self.commands)
            fmt_second = (index // len(self.commands)) % 2 == 1
            yield self._op(rng, ctx, paths[k], loaded[k], k == 0, slot, fmt_second, index)
            index += 1

    def _op(self, rng, ctx, path, config, case_study, slot, fmt_second, index) -> Op:
        command = self.commands[slot]
        analysis = _analysis_of(config)
        if case_study:
            point, grid_region = "belief-1-corner", "plausible-region"
            region_name = self.case_study_regions[(index // len(self.commands)) % 4]
        else:
            point = "point-0" if command == "compute" else "point-1"
            grid_region = "grid"
            region_name = ("finite", "half-open", "open")[slot - 2] if command == "bound" else None
        fmt = "json" if fmt_second else "text"
        argv = ["--config", path]
        if command in ("compute", "power"):
            argv = [command, *argv, "--belief", point, "--format", fmt]
            check = self._point_check(command, fmt, config.belief(point).point, analysis)
        elif command == "bound":
            argv = [command, *argv, "--belief", region_name, "--format", fmt]
            region = config.belief(region_name).region
            probes = gen.probes(rng, analysis.stats, region)
            pin = checks.CASE_STUDY_PINS.get(region_name) if case_study else None
            check = self._bound_check(fmt, config.piv_threshold, analysis, probes, pin, ctx)
        elif command == "contour":
            fmt = "json" if fmt_second else "csv"
            nt, nc = rng.randint(10, 50), rng.randint(10, 50)
            ctx.counters.sizes.append(f"{nt}x{nc}:{fmt}")
            out = os.path.join(ctx.workdir, f"contour.{fmt}")
            argv = [command, *argv, "--belief", grid_region, "--format", fmt, "--out", out,
                    "--grid", f"{nt}x{nc}"]
            check = self._contour_check(out, fmt, (nt, nc), analysis, _spots(rng), ctx)
        else:
            argv = ["compute", *argv, "--dump-config"]
            check = lambda stdout: checks.dump_config_problems(stdout, config)
        return Op(kind="cli", label=command.replace("-", "_"), work=1.0,
                  run=lambda: self._spawn(ctx, argv), check=self._exit_ok(check))

    @staticmethod
    def _spawn(ctx: Context, argv: list[str]) -> subprocess.CompletedProcess:
        with ctx.span("cli.process"):
            return subprocess.run([sys.executable, "-m", "piv.cli", *argv], cwd=ctx.root,
                                  env=ctx.child_env, capture_output=True, text=True, timeout=60)

    @staticmethod
    def _exit_ok(check):
        def wrapped(proc: subprocess.CompletedProcess) -> list[str]:
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            return check(proc.stdout)
        return wrapped

    @staticmethod
    def _point_check(command, fmt, point, analysis):
        want = core.piv(point, analysis.stats, analysis.sign, analysis.threshold).piv
        key = "piv" if command == "compute" else "power"

        def check(stdout: str) -> list[str]:
            if fmt == "json":
                got = json.loads(stdout)[key]
                return [] if got == want else [f"{command} {key} {got} != {want}"]
            fields = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
            got = fields.get(key, "").strip()
            return [] if got == f"{want:.6f}" else [f"{command} {key} {got!r} != {want:.6f}"]
        return check

    @staticmethod
    def _bound_check(fmt, piv_threshold, analysis, probes, pin, ctx):
        def check(stdout: str) -> list[str]:
            slack = 0.0
            if fmt == "json":
                obj = json.loads(stdout)
                piv_min, piv_max = obj["piv_min"], obj["piv_max"]
                asymptotic = list(obj["asymptotic_piv"].values())
                verdict = bounds.Verdict(obj["verdict"])
            else:
                slack = 5e-7
                lines = [line.split() for line in stdout.splitlines()]
                piv_min = float(next(l[1] for l in lines if l[0] == "piv_min"))
                piv_max = float(next(l[1] for l in lines if l[0] == "piv_max"))
                asymptotic = [float(l[1]) for l in lines if l[0].startswith("asymptotic[")]
                verdict = bounds.Verdict(next(l[1] for l in lines if l[0] == "verdict"))
            problems, violations = checks.bound_problems(
                piv_min, piv_max, asymptotic, verdict, piv_threshold, analysis, probes, slack)
            ctx.counters.probe_checks += len(probes)
            ctx.counters.probe_violations += violations
            if pin is not None and abs(piv_min - pin) > checks.PIN_TOL:
                problems.append(f"case study lower bound {piv_min} vs published {pin}")
            return problems
        return check

    @staticmethod
    def _contour_check(out, fmt, shape, analysis, spots, ctx):
        def check(stdout: str) -> list[str]:
            if not stdout.startswith(f"wrote {out}"):
                return [f"unexpected contour output {stdout[:100]!r}"]
            ctx.counters.bytes_written.append(os.path.getsize(out))
            return checks.contour_file_problems(out, fmt, shape, analysis, spots)
        return check


# =============================================================================
# region-bounds
# =============================================================================


class RegionBounds:
    """bound_piv plus robustness_verdict over seeded regions, interleaved with
    batches of point piv() calls, in one warm process.

    Chosen because the bounds layer does almost all the work here: each bound
    is a 101x101 coarse scan (~10^4 core evaluations) plus golden-section
    refinement, while the point batches call core one scalar at a time.  A
    closed-form bound or an array-native core shows here, in opposite
    directions on the two kinds of operation.
    """

    name = "region-bounds"
    primary = "bound"
    work_kind = "batch"
    imports = "import piv.cli"
    batch_size = 1000
    pass_ops = 64

    def ops(self, rng: random.Random, ctx: Context) -> Iterator[Op]:
        index = 0
        while True:
            a = gen.analysis(rng)
            region = gen.region(rng, a.stats, gen.REGION_SHAPES[index % len(gen.REGION_SHAPES)])
            yield self._bound_op(a, region, rng.uniform(0.5, 0.95), gen.probes(rng, a.stats, region), ctx)
            yield self._batch_op(a, gen.beliefs_in(rng, a.stats, region, self.batch_size),
                                 [rng.randrange(self.batch_size) for _ in range(5)])
            index += 1
            if index % self.pass_ops == 0:
                yield Op(kind="pins", run=lambda: None, check=lambda _: checks.pin_problems())

    @staticmethod
    def _bound_op(a, region, piv_threshold, probes, ctx) -> Op:
        def run():
            bound = bounds.bound_piv(region, a.stats, a.sign, a.threshold)
            return bound, bounds.robustness_verdict(bound, piv_threshold)

        def check(output) -> list[str]:
            bound, verdict = output
            problems, violations = checks.bound_problems(
                bound.piv_min, bound.piv_max, bound.asymptotic_piv.values(), verdict, piv_threshold,
                a, probes)
            ctx.counters.probe_checks += len(probes)
            ctx.counters.probe_violations += violations
            return problems
        return Op(kind="bound", run=run, check=check)

    @staticmethod
    def _batch_op(a, beliefs, mirrored) -> Op:
        def run():
            return [core.piv(b, a.stats, a.sign, a.threshold).piv for b in beliefs]

        def check(values) -> list[str]:
            problems = [f"piv {v} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0]
            for i in mirrored:
                got = mirror_piv(beliefs[i], a)
                if got != values[i]:
                    problems.append(f"mirror image gives {got}, piv() gave {values[i]}")
            return problems
        return Op(kind="batch", run=run, check=check, work=float(len(beliefs)))


def mirror_piv(belief: CounterfactualBelief, a: gen.Analysis) -> float:
    """PIV of the mirrored analysis: all means negated, sign and threshold flipped."""
    s = a.stats
    stats = ObservedStats(r_squared=s.r_squared, n_ob=s.n_ob, y_t_ob=-s.y_t_ob, y_c_ob=-s.y_c_ob,
                          var_t=s.var_t, var_c=s.var_c, pi=s.pi)
    sign = EstimateSign.NEGATIVE if a.sign is EstimateSign.POSITIVE else EstimateSign.POSITIVE
    threshold = (FixedThreshold(-a.threshold.beta_sharp) if isinstance(a.threshold, FixedThreshold)
                 else a.threshold)
    return core.piv(CounterfactualBelief(-belief.y_t_un, -belief.y_c_un), stats, sign, threshold).piv


# =============================================================================
# contour-export
# =============================================================================


class ContourExport:
    """One in-process `piv contour` command per operation, writing a large
    finite grid; CSV and JSON alternate.

    Chosen because the grid is evaluated cell by cell and then serialized,
    and no bound search runs: an array-native grid or a faster writer shows
    here, a closed-form bound does not.  Every grid has about 250k cells,
    in five shapes from 250x1000 to 1000x250, so that a run holds enough
    operations of one size for its median and peak memory to repeat from
    run to run.
    """

    name = "contour-export"
    primary = "contour"
    work_kind = "contour"
    imports = "import piv.cli"
    # About 250k cells each; every run cycles through all of them in both formats.
    shapes = ((250, 1000), (500, 500), (1000, 250), (400, 625), (625, 400))

    def ops(self, rng: random.Random, ctx: Context) -> Iterator[Op]:
        index = 0
        while True:
            if index % 8 == 0:
                obj = cli.config_to_json_object(cli.case_study_config())
                name = "plausible-region"
            else:
                obj = gen.config_object(rng)
                name = "grid"
            path = _write_json(os.path.join(ctx.workdir, "contour.json"), obj)
            shape = self.shapes[index % len(self.shapes)]
            fmt = ("csv", "json")[index % 2]
            yield self._op(ctx, path, name, shape, fmt, _analysis_of(cli.parse_config(obj)), _spots(rng))
            index += 1

    @staticmethod
    def _op(ctx, path, name, shape, fmt, analysis, spots) -> Op:
        out = os.path.join(ctx.workdir, f"grid.{fmt}")
        argv = ["contour", "--config", path, "--belief", name, "--grid", f"{shape[0]}x{shape[1]}",
                "--format", fmt, "--out", out]
        ctx.counters.sizes.append(f"{shape[0]}x{shape[1]}:{fmt}")

        def run():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            return code, buffer.getvalue()

        def check(output) -> list[str]:
            code, stdout = output
            if code != 0 or not stdout.startswith(f"wrote {out}"):
                return [f"contour exit {code}: {stdout[:100]!r}"]
            ctx.counters.bytes_written.append(os.path.getsize(out))
            problems = checks.contour_file_problems(out, fmt, shape, analysis, spots)
            os.remove(out)
            return problems
        return Op(kind="contour", label=fmt, run=run, check=check, work=float(shape[0] * shape[1]))


# =============================================================================
# oracle-verify
# =============================================================================


class OracleVerify:
    """`verify_report` (what `piv verify` runs) alternating with one Monte
    Carlo estimate shaped like acceptance criterion 7, in one warm process.

    Chosen because the oracle runs in no other workload: Monte Carlo draws
    2*n_ob normals per replication, and the exact-moment dataset checks make
    many tiny solves.  Monte Carlo on sufficient statistics shows here and
    nowhere else.
    """

    name = "oracle-verify"
    primary = "verify"
    work_kind = "mc"
    imports = "import piv.cli, piv.oracle"
    seeds, verify_reps = 100, 2000
    mc_n_ob, mc_reps = 2000, 2000

    def ops(self, rng: random.Random, ctx: Context) -> Iterator[Op]:
        from piv import oracle

        threshold = StatisticalThreshold(1.96)
        while True:
            mc_seed = rng.randrange(2**31)
            yield Op(kind="verify", run=lambda s=mc_seed: cli.verify_report(self.seeds, self.verify_reps, s),
                     check=lambda out: self._verify_problems(out, ctx))
            spec = oracle.SyntheticSpec(
                n_ob=self.mc_n_ob, pi=0.06, y_t_ob=36.77, y_c_ob=45.78,
                y_t_un=rng.uniform(44.6, 46.2), y_c_un=rng.uniform(45.2, 45.4),
                var_t=143.26, var_c=138.83, seed=rng.randrange(2**31))
            belief = CounterfactualBelief(spec.y_t_un, spec.y_c_un)
            r = core.ideal_correlation(belief, spec.observed_stats(0.0))
            closed = core.piv_from_correlation(r, spec.observed_stats(r * r), EstimateSign.NEGATIVE,
                                               threshold).piv
            seed = rng.randrange(2**31)
            yield Op(kind="mc", work=float(self.mc_reps),
                     run=lambda spec=spec, seed=seed: oracle.monte_carlo_piv(
                         spec, spec.observed_stats(0.0), EstimateSign.NEGATIVE, threshold,
                         reps=self.mc_reps, seed=seed),
                     check=lambda rate, closed=closed: self._mc_problems(rate, closed, ctx))

    def _verify_problems(self, output, ctx: Context) -> list[str]:
        lines, ok = output
        # verify_report's own size check: n_ob = 1000, reps as given
        ctx.counters.normals_drawn += 2 * 1000 * self.verify_reps
        return [] if ok else [line for line in lines if "FAIL" in line]

    def _mc_problems(self, rate: float, closed: float, ctx: Context) -> list[str]:
        ctx.counters.normals_drawn += 2 * self.mc_n_ob * self.mc_reps
        return checks.monte_carlo_problems(rate, closed, self.mc_reps)


WORKLOADS = {w.name: w for w in (CliSession(), RegionBounds(), ContourExport(), OracleVerify())}

# The known defect of the bound search: both axes unbounded, the true optimum
# 0.5273686 lies at (202, -200), outside the clamped search box.
REPRO_OPTIMUM = 0.5273686


def repro_gap() -> float:
    stats = ObservedStats(r_squared=0.0, n_ob=30, y_t_ob=2.0, y_c_ob=0.0, var_t=100.0, var_c=100.0, pi=0.5)
    region = bounds.BeliefRegion((-math.inf, math.inf), (-math.inf, math.inf))
    bound = bounds.bound_piv(region, stats, EstimateSign.POSITIVE, FixedThreshold(0.70))
    return REPRO_OPTIMUM - bound.piv_max
