"""Command-line front end: argv parsing, dispatch and rendering.

Commands operate on a JSON analysis config (piv.config) holding the observed
summary statistics, whose gap y_t_ob - y_c_ob signs the estimate, the rejection
threshold and a list of named beliefs (points or rectangles).  `piv replicate`
runs the built-in kindergarten-retention case study end to end and `piv verify`
drives the brute-force oracle checks; their reports are built in piv.report,
which only those two commands load.  This module parses argv, runs the command
and renders its result as text (6 decimals) or JSON (17 significant digits).

Each command declares its flags once, in _COMMANDS.  _plain_args reads a
plain argv from that table without argparse; argparse, built from the same
table, reads any other and writes all help and usage errors.  Only the
commands that bound or grid import piv.bounds, and piv._grid_text's
grid_export evaluates and formats each grid that contour and replicate write.

Exit codes: 0 success, 2 config error (any other invalid input), 3 degenerate
math, 4 I/O error (--out, or standard output even when closed), 5 verification
failure.  Only main writes stderr or picks 2-4: a code holds if stderr fails.
"""

from __future__ import annotations

import errno
import importlib
import json
import math
import os
import reprlib
import sys
from types import SimpleNamespace

from .config import AnalysisConfig, case_study_config, config_to_json_object, load_config
from .config import parse_config  # unused here, re-exported for callers of piv.cli
from .core import (
    BeliefRegion,
    CounterfactualBelief,
    DegenerateSpreadError,
    InputValidationError,
    PivError,
    _piv_result,
    _Record,
    _threshold,
    ideal_correlation,
    piv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_VERIFY = 5


# name lent to callers of piv.cli -> its module, imported on first access
_LENT = {"verify_report": "piv.report", "bound_piv": "piv.bounds",
         "evaluate_grid": "piv.bounds", "robustness_verdict": "piv.bounds"}


def __getattr__(name: str):
    if name not in _LENT:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_LENT[name]), name)
    return value


# =============================================================================
# Rendering (text: 6 decimals; JSON: 17 significant digits)
# =============================================================================


def render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputValidationError(f"cannot serialize non-finite number {value}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(pad + "  " + render_json(v, indent + 1) for v in value)
        return f"[\n{inner}\n{pad}]"
    if isinstance(value, _Record):  # a record is its fields, in order
        value = value._asdict()
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + render_json(v, indent + 1)
            for k, v in value.items()
        )
        return f"{{\n{inner}\n{pad}}}"
    raise InputValidationError(f"cannot serialize {type(value).__name__}")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _where(belief: CounterfactualBelief | None) -> str:
    if belief is None:
        return "approached at infinity"
    return f"at y_t_un={_fmt(belief.y_t_un)} y_c_un={_fmt(belief.y_c_un)}"


def _bound_text(bound, verdict, piv_threshold: float) -> list[str]:
    lines = [
        f"piv_min   {_fmt(bound.piv_min)}  {_where(bound.argmin)}",
        f"piv_max   {_fmt(bound.piv_max)}  {_where(bound.argmax)}",
    ]
    for side, value in bound.asymptotic_piv.items():
        lines.append(f"asymptotic[{side}] {_fmt(value)}")
    lines.append(f"verdict   {verdict.value} (piv_threshold {_fmt(piv_threshold)})")
    return lines


# =============================================================================
# Commands
# =============================================================================


class _WriteError(Exception):
    """A failed write; main writes "cannot write " and this text, and returns EXIT_IO."""


def _write(stream, text: str) -> None:
    """Write text to a standard stream and flush it, so that a failed write
    raises here, as OSError, and not at interpreter exit."""
    if stream is None:  # its fd was closed when the interpreter started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        # the interpreter flushes the stream again at exit; pointed at devnull, that flush is silent
        fd = stream.fileno()
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        raise


def _print(lines) -> int:
    """Write lines to standard output; a failed write raises _WriteError.  Return EXIT_OK."""
    try:
        _write(sys.stdout, "\n".join(lines) + "\n")
    except OSError as exc:
        raise _WriteError(f"standard output: {exc}") from exc
    return EXIT_OK


def _emit(args, payload: dict, lines: list[str]) -> int:
    """Print payload as JSON under --format json, else the text lines."""
    return _print([render_json(payload)] if args.format == "json" else lines)


def cmd_compute(args, config: AnalysisConfig, point: CounterfactualBelief) -> int:
    result = piv(point, config.observed, config.sign, config.threshold)
    payload = {"piv": result.piv, "probit_piv": result.probit_piv, "t_ratio": result.t_ratio,
               "threshold_value": result.threshold_value}
    # the text labels are the keys, threshold_value shortened to threshold
    return _emit(args, payload, [f"{key.removesuffix('_value'):<11}{_fmt(value)}"
                                 for key, value in payload.items()])


def cmd_bound(args, config: AnalysisConfig, region: BeliefRegion) -> int:
    from . import bounds  # on first use: compute, power and --dump-config bound nothing

    bound = bounds.bound_piv(region, config.observed, config.sign, config.threshold)
    verdict = bounds.robustness_verdict(bound, config.piv_threshold)
    payload = {**bound._asdict(), "piv_threshold": config.piv_threshold, "verdict": verdict.value}
    return _emit(args, payload, _bound_text(bound, verdict, config.piv_threshold))


def _parse_grid_flag(text: str) -> tuple[int, int]:
    try:
        nt, nc = map(int, text.lower().split("x"))
    except ValueError as exc:
        raise InputValidationError(f"--grid expects NTxNC, got {reprlib.repr(text)}") from exc
    return nt, nc


def _export_grid(args, config: AnalysisConfig, region: BeliefRegion, fmt: str):
    """Evaluate the grid over region, stream it to --out as bytes in batches of rows,
    and return (nt, nc, piv_min, piv_max).  A failed write raises _WriteError."""
    resolution = _parse_grid_flag(args.grid) if args.grid is not None else config.grid or (101, 101)
    if args.out is None:
        raise InputValidationError("--out is required")
    from ._grid_text import grid_export, write_chunks  # on first use: only grid exports need it

    nt, nc, piv_min, piv_max, chunks = grid_export(region, resolution, config.observed,
                                                   config.sign, config.threshold, fmt)
    try:
        with open(args.out, "wb", buffering=0) as handle:
            write_chunks(handle.fileno(), chunks)
    except OSError as exc:
        raise _WriteError(f"{args.out}: {exc}") from exc
    return nt, nc, piv_min, piv_max


def cmd_contour(args, config: AnalysisConfig, region: BeliefRegion) -> int:
    nt, nc, piv_min, piv_max = _export_grid(args, config, region, args.format)
    return _print([
        f"wrote {args.out} ({nt}x{nc} cells, format {args.format})",
        f"piv_min   {_fmt(piv_min)}",
        f"piv_max   {_fmt(piv_max)}",
    ])


def cmd_power(args, config: AnalysisConfig, point: CounterfactualBelief) -> int:
    effect = ideal_correlation(point, config.observed)
    resolved = se, cut, _, statistical, _ = _threshold(config.observed, config.sign,
                                                        config.threshold)
    # the same value piv() gives: both are _probit of this one correlation
    result = _piv_result(effect, resolved)
    payload = {
        "effect": effect,
        "se": se,
        "null_mean": 0.0,
        "alt_mean": result.t_ratio,
        # a statistical cut is C itself; dividing C*se by se again may move its last bit
        "critical_z": cut if statistical else cut / se,
        "threshold_value": result.threshold_value,
        "power": result.piv,
    }
    return _emit(args, payload, [f"{key:<16}{_fmt(value)}" for key, value in payload.items()])


def cmd_replicate(args, config: AnalysisConfig, _) -> int:
    from .report import replicate_report  # on first use: only replicate and verify need it

    lines, _ = replicate_report(config)
    _print(lines)
    nt, nc, _, _ = _export_grid(args, config, config.belief_as("plausible-region", "region"), "csv")
    return _print([f"wrote contour grid to {args.out} ({nt}x{nc} cells)"])


def cmd_verify(args, _config, _) -> int:
    from .report import verify_report

    lines, ok = verify_report(seeds=args.seeds, reps=args.reps, seed=args.seed)
    _print(lines)
    return EXIT_OK if ok else EXIT_VERIFY


# A flag: (name, default, kind, help), where kind is None for any string, int
# for an integer, bool for a store-true switch, or the tuple of its choices
_CONFIG = ("--config", None, None, "path to the analysis config (JSON)")
_BELIEF = ("--belief", None, None, "name of the belief to evaluate")
_DUMP_CONFIG = ("--dump-config", False, bool,
                "print the parsed config as canonical JSON and exit")
_COMMON = (_CONFIG, _BELIEF, ("--format", "text", ("text", "json"), None), _DUMP_CONFIG)
_CONTOUR = (_CONFIG, _BELIEF, ("--format", "csv", ("csv", "json"), None), _DUMP_CONFIG,
            ("--out", None, None, "output file path"),
            ("--grid", None, None, "grid resolution NTxNC (default from config, else 101x101)"))
_REPLICATE = (("--out", "piv_contour.csv", None, "contour output path (default piv_contour.csv)"),
              ("--grid", None, None, "contour resolution NTxNC (default 200x200)"),
              ("--dump-config", False, bool,
               "print the case-study config as canonical JSON and exit"))
_VERIFY = (("--seeds", 100, int, "number of seeded datasets"),
           ("--reps", 2000, int, "monte carlo replications"),
           ("--seed", 0, int, "monte carlo seed"))

# command -> (help, its flags, runs it, the kind of --belief it reads or None);
# main resolves that belief and passes it to the command, None where it reads none
_COMMANDS = {
    "compute": ("PIV at a point belief", _COMMON, cmd_compute, "point"),
    "bound": ("extremal PIV over a belief region, with verdict", _COMMON, cmd_bound, "region"),
    "contour": ("export a PIV grid over a finite region", _CONTOUR, cmd_contour, "region"),
    "power": ("retest power quantities at a point belief", _COMMON, cmd_power, "point"),
    "replicate": ("run the built-in kindergarten-retention case study", _REPLICATE,
                  cmd_replicate, None),
    "verify": ("run the brute-force oracle checks", _VERIFY, cmd_verify, None),
}


def build_parser():
    """The argparse parser of every command, built from _COMMANDS."""
    import argparse  # only help, usage errors and argv _plain_args declines load it

    parser = argparse.ArgumentParser(
        prog="piv",
        description="Bound the probability that a significant two-group regression "
                    "inference survives retesting on the counterfactual-completed sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, default, kind, flag_help in flags:
            p.add_argument(flag, help=flag_help, **(
                {"action": "store_true"} if kind is bool
                else {"choices": kind, "default": default} if isinstance(kind, tuple)
                else {"type": kind, "default": default}))
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, where argv is a command
    and then its exact flags, each once, each valued one followed by a value
    argparse takes that does not start with "-"; None for any other argv,
    such as an abbreviation, --flag=value, -h or an error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = {flag: (default, kind) for flag, default, kind, _ in _COMMANDS[argv[0]][1]}
    given = {}
    words = iter(argv[1:])
    for flag in words:
        if flag not in flags or flag in given:
            return None
        kind = flags[flag][1]
        if kind is bool:
            given[flag] = True
            continue
        value = next(words, "-")
        if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        given[flag] = value
    return SimpleNamespace(command=argv[0], **{flag[2:].replace("-", "_"): given.get(flag, default)
                                               for flag, (default, _) in flags.items()})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            config = None
        elif args.command == "replicate":
            config = case_study_config()
        elif args.config is None:
            raise InputValidationError("--config is required")
        else:
            config = load_config(args.config)
        if getattr(args, "dump_config", False):
            return _print([render_json(config_to_json_object(config))])
        *_, run, kind = _COMMANDS[args.command]
        if kind is not None and args.belief is None:
            raise InputValidationError("--belief is required")
        belief = None if kind is None else config.belief_as(args.belief, kind)
        return run(args, config, belief)
    except DegenerateSpreadError as exc:
        code, line = EXIT_DEGENERATE, f"degenerate inputs: {exc}"
    except PivError as exc:
        code, line = EXIT_CONFIG, f"config error: {exc}"
    except _WriteError as exc:
        code, line = EXIT_IO, f"cannot write {exc}"
    try:  # the one write to standard error; where it fails, the line is lost and the code stands
        _write(sys.stderr, line + "\n")
    except OSError:
        pass
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
