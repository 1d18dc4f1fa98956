"""Command line front end.

Subcommands map onto the canonical comparison runs (fig1, fig2, fig3), a
free-form run (custom), parameter sweeps (sweep), and the closed-form vs
integrator check suite (validate).  Every run writes a CSV table first and
draws the SVG from the columns written, which the file reads back as bit
for bit, so output.render_svg replots a shipped CSV to the same SVG.

Exit codes: 0 success, 1 usage or configuration problem, 2 a physics
ordering or validation check failed.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from ._version import __version__
from .errors import ConfigError, ParameterError, StateError, ValidationFailure
from .output import render_svg, write_csv
from .scenarios import (build_scenario, check_fig2_ordering,
                        check_fig3_ordering, compute_trace, load_config,
                        option_flag, option_keys, run_sweep)
from .validation import run_validation

OUT_DIR_ENV = "PARITYSHIELD_OUT"

_ORDERING_CHECKS = {"fig2": check_fig2_ordering, "fig3": check_fig3_ordering}

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_run(subs, kind: str, blurb: str, handler):
    sub = subs.add_parser(kind, help=blurb)
    sub.add_argument("--config", help="INI file with one section per scenario")
    for key in option_keys(kind):
        flag, text = option_flag(key)
        sub.add_argument(flag, dest=key, help=text)
    sub.add_argument("--out", help="output CSV path (default under "
                     f"${OUT_DIR_ENV} or the working directory)")
    sub.set_defaults(handler=handler, kind=kind, parser=sub)


def _collect_options(args) -> dict[str, str]:
    """Merge config-file section and explicit CLI flags (flags win)."""
    options: dict[str, str] = {}
    if args.config:
        sections = load_config(args.config)
        if args.kind not in sections:
            raise ConfigError(
                f"config {args.config} has no [{args.kind}] section")
        options.update(sections[args.kind])
    for key in option_keys(args.kind):
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    return options


def _out_paths(args, default_name: str) -> tuple[Path, Path]:
    if args.out:
        path = Path(args.out)
        if path.is_dir() or str(args.out).endswith(os.sep):
            path = path / f"{default_name}.csv"
    else:
        path = Path(os.environ.get(OUT_DIR_ENV, ".")) / f"{default_name}.csv"
    return path, path.with_suffix(".svg")


@contextmanager
def _writing(path: Path):
    """Make path's directory for the block that writes path; an OSError
    from either is a ConfigError naming path (no writer leaves a part)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def _run_scenario(args) -> int:
    scenario = args.kind
    cfg = build_scenario(scenario, _collect_options(args))
    trace = compute_trace(cfg)
    csv_path, svg_path = _out_paths(args, scenario)
    with _writing(csv_path):
        write_csv(csv_path, trace.metadata, trace.header, trace.columns)
    with _writing(svg_path):
        render_svg(trace, svg_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    # outputs land on disk before the ordering gate so a failed check
    # still leaves the data inspectable
    check = _ORDERING_CHECKS.get(scenario)
    if check is not None:
        check(trace)
        print(f"{scenario} ordering check passed")
    return 0


def _run_sweep(args) -> int:
    trace = run_sweep(_collect_options(args))
    csv_path, _ = _out_paths(args, "sweep")
    with _writing(csv_path):
        write_csv(csv_path, trace.metadata, trace.header, trace.columns)
    print(f"wrote {csv_path} ({len(trace.columns[0])} cells)")
    return 0


def _run_validate(args) -> int:
    overrides: dict[str, float] = {}
    for item in args.tolerance or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(
                f"tolerance override must look like name=value, got {item!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    report = run_validation(tolerance_overrides=overrides or None)
    text = "\n".join(report.lines())
    print(text)
    if args.out:
        out = Path(args.out)
        # Path drops a trailing separator, so "NEWDIR/" would name a file
        if args.out.endswith(os.sep):
            raise ConfigError(
                f"cannot write {out}: {os.strerror(errno.EISDIR)}")
        with _writing(out):
            out.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out}")
    if not report.ok:
        print("validation failed", file=sys.stderr)
        return 2
    return 0


def _add_validate(subs, kind: str, blurb: str, handler):
    sub = subs.add_parser(kind, help=blurb)
    sub.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                     help="override one check tolerance (repeatable)")
    sub.add_argument("--out", help="also write the report to this file")
    sub.set_defaults(handler=handler, parser=sub)


# subcommand -> (help line, what adds its parser, its handler), in the
# order the top-level help lists them
_COMMANDS = {
    "fig1": ("instantaneous pulses vs repeated measurement", _add_run,
             _run_scenario),
    "fig2": ("free decay vs measurement vs pulses, ordering checked",
             _add_run, _run_scenario),
    "fig3": ("finite-duration pulses vs the instantaneous limit", _add_run,
             _run_scenario),
    "custom": ("free-form schedule comparison", _add_run, _run_scenario),
    "sweep": ("terminal-fidelity parameter sweep", _add_run, _run_sweep),
    "validate": ("run the closed-form vs integrator checks", _add_validate,
                 _run_validate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with command's subparser alone.
    A subparser's usage and help do not depend on its siblings, so both
    parse and print the same for an argv that starts with command."""
    parser = _Parser(
        prog="parityshield",
        description="Decay protection protocols for odd-parity two-qubit "
                    "states in a common structured reservoir.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, add, handler) in _COMMANDS.items():
        if command in (None, name):
            add(subs, name, blurb, handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # once argv[0] names a subcommand the top-level parser prints nothing
    # and no other subparser is reached, so only that one is built (about
    # half the parser's cost); any other argv gets every subcommand
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # a flag after the subcommand is reported with that
            # subcommand's usage; the root takes no flag with a value, so
            # anything before the subcommand name is the root's
            owner = parser if argv.index(args.command) else args.parser
            owner.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ConfigError, ParameterError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
