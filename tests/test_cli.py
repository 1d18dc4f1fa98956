from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from parityshield import cli, scenarios
from parityshield.cli import main
from parityshield.output import read_csv
from parityshield.scenarios import option_keys
from parityshield.validation import _CHECKS


def test_fig2_writes_outputs(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".svg").exists()
    captured = capsys.readouterr()
    assert "ordering check passed" in captured.out
    metadata, header, rows = read_csv(out)
    assert header == ["t", "F_free", "F_zeno", "F_dd"]
    assert metadata["run_id"] == "fig2"


def test_repeat_runs_are_byte_identical(tmp_path):
    a = tmp_path / "a" / "fig2.csv"
    b = tmp_path / "b" / "fig2.csv"
    assert main(["fig2", "--out", str(a)]) == 0
    assert main(["fig2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("tau", ["0.3", "0.5"])
def test_fig2_ordering_waits_for_longest_period(tmp_path, capsys, tau):
    # before the first operation at t = tau all three curves coincide
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--tau", tau, "--out", str(out)]) == 0
    assert "ordering check passed" in capsys.readouterr().out


def test_fig3_fails_ordering_but_writes_outputs(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--out", str(out)]) == 2
    assert out.exists() and out.with_suffix(".svg").exists()
    captured = capsys.readouterr()
    assert "ordering violated" in captured.err


def test_fig1_with_overrides(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--tau", "0.05", "--out", str(out)]) == 0
    metadata, header, _ = read_csv(out)
    assert header == ["t", "F_zeno", "F_dd"]
    assert "dd(0.05)" in metadata["schedules"]


def test_custom_schedules(tmp_path):
    out = tmp_path / "runs.csv"
    code = main(["custom", "--schedules", "none|dd-finite(0.2,10)",
                 "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["t", "F_free", "F_ddN10", "segment"]


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--tau", "0.05,0.1,0.2", "--out", str(out)]) == 0
    metadata, header, rows = read_csv(out)
    assert header == ["tau", "F_free", "F_zeno", "F_dd"]
    assert len(rows) == 3
    assert metadata["axes"] == "tau=0.05,0.1,0.2"


@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_sweep_fidelity_outside_unit_interval_exits_one(tmp_path, capsys,
                                                       monkeypatch, bad):
    monkeypatch.setattr(scenarios, "dd_fidelity", lambda *args: bad)
    out = tmp_path / "x.csv"
    assert main(["sweep", "--tau", "0.1", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "F_dd left the unit interval" in err and "Traceback" not in err


def test_sweep_duty_parameter_without_interval_exits_one(tmp_path, capsys):
    # without tau no column depends on n_duty: every row would be the same
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n-duty", "10,20", "--out", str(out)]) == 1
    assert "n_duty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--tau", "0.1,1e-300", "--t-max", "1"],
     "error: time spans more than 2**53 cycles of 1e-300, got 1.0"),
    (["--tau", "0.1", "--t-max", "1,-1"],
     "error: time must be finite and nonnegative, got -1.0"),
    (["--tau", "1e-300,2e-300", "--t-max", "1,2"],
     "error: time spans more than 2**53 cycles of 1e-300, got 1.0"),
], ids=["2**53-cycles", "negative-time", "first-of-many-cells"])
def test_sweep_time_error_names_one_cell(tmp_path, capsys, argv, message):
    # a column is one evaluation over all cells; its error still names the
    # period and the time of one cell
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_config_file_with_cli_override(tmp_path):
    ini = tmp_path / "runs.ini"
    ini.write_text("[fig2]\ntau = 0.05\nt_max = 2.0\n")
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--config", str(ini), "--t-max", "1.0",
                 "--out", str(out)]) == 0
    metadata, _, rows = read_csv(out)
    assert "dd(0.05)" in metadata["schedules"]       # from the file
    assert metadata["t_max"] == "1.0"                # flag wins
    assert float(rows[-1][0]) == pytest.approx(1.0)


def test_config_not_in_utf8_exits_one(tmp_path, capsys):
    # a config is read as UTF-8 whatever the locale; a Latin-1 byte raised
    # a raw UnicodeDecodeError
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(b"[fig1]\nrun_id = caf\xe9\n")
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {ini}: ")
    assert not out.exists()


def test_output_bytes_do_not_depend_on_the_locale(tmp_path):
    # every file is UTF-8: a non-ASCII run id gives the same bytes under
    # the ASCII locale as under UTF-8 (it raised UnicodeEncodeError there)
    src = Path(scenarios.__file__).parent.parent
    files = {}
    for name, locale in (("utf8", {"PYTHONUTF8": "1"}),
                         ("ascii", {"PYTHONUTF8": "0", "LC_ALL": "C"})):
        out = tmp_path / name / "fig1.csv"
        env = {**os.environ, "PYTHONPATH": str(src), **locale}
        done = subprocess.run(
            [sys.executable, "-m", "parityshield.cli", "fig1", "--run-id",
             "\u03bb-run", "--out", str(out)], env=env, capture_output=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        files[name] = out.read_bytes(), out.with_suffix(".svg").read_bytes()
    assert files["ascii"] == files["utf8"]
    assert "# run_id=\u03bb-run\n".encode() in files["utf8"][0]


def test_output_directory_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PARITYSHIELD_OUT", str(tmp_path / "results"))
    assert main(["fig1"]) == 0
    assert (tmp_path / "results" / "fig1.csv").exists()
    assert (tmp_path / "results" / "fig1.svg").exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["breakdown"]) == 1
    assert main(["fig2", "--no-such-flag"]) == 1
    assert main([]) == 1
    # a subcommand takes no flag for a key its run does not read
    out = tmp_path / "x.csv"
    for argv in (["fig2", "--n-duty", "10"], ["fig3", "--delta-t", "0.1"],
                 ["custom", "--tau", "0.3", "--schedules", "dd(0.1)"],
                 ["sweep", "--tau", "0.1", "--samples-per-unit-time", "500"],
                 # the cell cap, the oracle step and the backends are
                 # constants, not flags
                 ["sweep", "--tau", "0.1", "--max-cells", "5"],
                 ["validate", "--dt-num", "1e-4"],
                 ["validate", "--oracle-mode", "both"]):
        assert main([*argv, "--out", str(out)]) == 1, argv
        assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv, usage, leftover", [
    (["validate", "--dt-num", "1e-4"], "usage: parityshield validate",
     "--dt-num 1e-4"),
    (["sweep", "--bogus", "1"], "usage: parityshield sweep", "--bogus 1"),
    # a flag before the subcommand is the top-level parser's
    (["--bogus", "validate"], "usage: parityshield [-h]", "--bogus"),
], ids=["validate", "sweep", "before-subcommand"])
def test_unknown_flag_gets_its_parsers_usage(tmp_path, capsys, argv, usage,
                                             leftover):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(usage), err
    assert f"error: unrecognized arguments: {leftover}" in err


# option text that is no number, an infinite horizon or one that the grid
# merges into t = 0, or a time grid too large to build
# (refused before any of it is built)
_NOT_NUMBERS = [
    ["fig2", "--tau", "abc"],
    ["custom", "--lambda", "two"],
    ["fig2", "--samples-per-unit-time", "1e9"],
    ["fig3", "--n-duty", "10,x"],
    ["sweep", "--tau", "0.1,abc"],
    ["sweep", "--tau", "0.1", "--n-duty", "1.5"],
    ["fig2", "--t-max", "inf"],
    ["custom", "--t-max", "1e306"],
    ["custom", "--schedules", "dd(1e-12)"],
    ["custom", "--t-max", "1e-13"],
]


def _argv_id(argv):
    return "-".join(part.lstrip("-") for part in argv)


@pytest.mark.parametrize("argv", _NOT_NUMBERS, ids=_argv_id)
def test_non_numeric_options_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("descriptor, message", [
    ("dd-finite(0.2,10.0)", "n_duty must be a whole number, got '10.0'"),
    ("dd-finite(0.2,2.5)", "n_duty must be a whole number, got '2.5'"),
    ("dd(abc)", "tau must be a number, got 'abc'"),
    ("zeno(x)", "delta_t must be a number, got 'x'"),
    ("dd-finite(y,10)", "tau must be a number, got 'y'"),
], ids=["n-duty-float", "n-duty-fraction", "tau", "delta-t", "finite-tau"])
def test_descriptor_arguments_named_by_key(tmp_path, capsys, descriptor,
                                          message):
    # a descriptor argument is read as its key's type in the option table,
    # and a bad one is reported as the flag path reports it
    out = tmp_path / "x.csv"
    assert main(["custom", "--schedules", descriptor, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"bad schedule descriptor {descriptor!r}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", _NOT_NUMBERS, ids=_argv_id)
def test_non_numeric_config_values_exit_one(tmp_path, capsys, subcommands,
                                            argv):
    # the same values set in a config section
    kind, *flags = argv
    dests = {s: a.dest for a in subcommands[kind]._actions
             for s in a.option_strings}
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{kind}]\n" + "".join(
        f"{dests[flag]} = {value}\n"
        for flag, value in zip(flags[0::2], flags[1::2])))
    out = tmp_path / "x.csv"
    assert main([kind, "--config", str(ini), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert dests[flags[-2]] in err and "Traceback" not in err


def test_config_errors_exit_one(tmp_path, capsys):
    assert main(["fig2", "--omega", "3.0", "--out",
                 str(tmp_path / "x.csv")]) == 1
    assert main(["fig2", "--config", str(tmp_path / "absent.ini")]) == 1
    assert main(["custom", "--schedules", "wibble(1)"]) == 1
    captured = capsys.readouterr()
    assert "error" in captured.err
    # a config key the run does not read is refused, not dropped
    ini = tmp_path / "typo.ini"
    ini.write_text("[fig2]\ntua = 0.05\n")
    out = tmp_path / "typo.csv"
    assert main(["fig2", "--config", str(ini), "--out", str(out)]) == 1
    assert "tua" in capsys.readouterr().err
    assert not out.exists()


# rates that are infinite, or whose squares overflow the damping split (a
# window's drive rate 10 pi / 1e-300 too) or both underflow it, and an
# amplitude whose square overflows the norm
@pytest.mark.parametrize("argv", [
    ["sweep", "--lambda", "1e200", "--r-rate", "1", "--tau", "0.1"],
    ["sweep", "--lambda", "2", "--r-rate", "1e160", "--tau", "0.1"],
    ["sweep", "--lambda", "inf,2", "--tau", "0.1"],
    ["fig1", "--lambda", "1e200"],
    ["fig2", "--lambda", "inf"],
    ["fig2", "--lambda", "2", "--r-rate", "inf"],
    ["sweep", "--tau", "1e-300", "--n-duty", "10", "--t-max", "1e-299"],
    ["fig1", "--initial-state", "mixed(1e200,1)"],
    ["sweep", "--lambda", "1e-200", "--r-rate", "3e-200", "--tau", "1e199",
     "--t-max", "1e200"],
    ["sweep", "--lambda", "1e-300", "--r-rate", "1e-300", "--tau", "1e300",
     "--n-duty", "10", "--t-max", "1e300"],
], ids=_argv_id)
def test_unusable_rates_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_infinite_mode_splitting_exits_one_naming_it(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["fig2", "--lambda", "inf", "--omega", "inf",
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "error: decay rate must be finite, got inf\n", err


@pytest.mark.parametrize("argv", [
    ["fig2", "--lambda", "2", "--r-rate", "inf"],
    ["sweep", "--lambda", "2", "--r-rate", "1,inf"],
], ids=_argv_id)
def test_infinite_collective_rate_exits_one_naming_it(tmp_path, capsys, argv):
    # the refusal names the rate the caller gave, not the coupling strength
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: collective rate must be finite and positive, got inf\n")


@pytest.mark.parametrize("kind", ["fig1", "fig2", "fig3", "custom", "sweep"])
def test_flags_are_the_keys_the_run_reads(subcommands, kind):
    dests = {a.dest for a in subcommands[kind]._actions
             if a.option_strings} - {"help"}
    assert dests == {*option_keys(kind), "config", "out"}


def test_sweep_over_the_cell_cap_exits_one(tmp_path, capsys):
    # 1001 x 1000 cells: refused from the axes' lengths alone
    out = tmp_path / "sweep.csv"
    lams = ",".join(f"{1.0 + i / 1000}" for i in range(1001))
    taus = ",".join(f"{0.1 + i / 10000}" for i in range(1000))
    assert main(["sweep", "--lambda", lams, "--tau", taus,
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: sweep has 1001000 cells, exceeding the cap of 1000000\n")


@pytest.mark.parametrize("args", [
    # nearly coincident characteristic roots
    ["--lambda", "1e-9", "--omega", "1.5e-14", "--schedules",
     "dd-finite(0.2,10)"],
    # lam * tau far past the overflow point of cosh
    ["--lambda", "5000", "--omega", "4000", "--schedules", "dd-finite(1,10)"],
], ids=["degenerate", "large-rates"])
def test_extreme_parameters_exit_zero(tmp_path, capsys, args):
    # exit 0 includes the trace's own unit-interval gate on every value
    out = tmp_path / "x.csv"
    assert main(["custom", *args, "--out", str(out)]) == 0
    _, header, _ = read_csv(out)
    assert header == ["t", "F_ddN10", "segment"]
    assert capsys.readouterr().err == ""


# exponents and cycle bounds that overflow to inf on purpose
@pytest.mark.parametrize("argv, header, row", [
    (["--t-max", "1.7e308"], ["t_max", "F_free"], ["1.7e+308", "0.0"]),
    (["--lambda", "1e150", "--r-rate", "1e-150", "--t-max", "1e300"],
     ["lam", "r_rate", "t_max", "F_free"], ["1e+150", "1e-150", "1e+300",
                                            "1.0"]),
    (["--tau", "1e300", "--t-max", "1e300"],
     ["t_max", "tau", "F_free", "F_zeno", "F_dd"],
     ["1e+300", "1e+300", "0.0", "0.0", "0.0"]),
    (["--lambda", "1", "--r-rate", "3", "--t-max", "1.7e308"],
     ["lam", "r_rate", "t_max", "F_free"], ["1.0", "3.0", "1.7e+308",
                                            "0.0"]),
], ids=["horizon", "rates", "period", "underdamped-horizon"])
def test_sweep_past_the_float_range_warns_nothing(tmp_path, capsys, argv,
                                                  header, row):
    out = tmp_path / "x.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_csv(out)[1:] == (header, [row])


@pytest.mark.parametrize("argv", [
    ["fig1", "--tau", "1e308"],
    ["custom", "--schedules", "zeno(1e308)", "--t-max", "1"],
    ["custom", "--schedules", "dd-finite(1e308,10)", "--t-max", "1"],
], ids=["fig1-period", "zeno-period", "finite-period"])
def test_trace_past_the_float_range_warns_nothing(tmp_path, capsys, argv):
    # the second and third cycle start past the float range; their times
    # overflowed with a RuntimeWarning before being dropped from the grid
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    t = [float(row[0]) for row in read_csv(out)[2]]
    assert t == [j / 2000 for j in range(2001)]


@pytest.mark.parametrize("argv, message", [
    (["fig1", "--out", "F/x.csv"], "F/x.csv: File exists"),
    (["sweep", "--tau", "0.1", "--out", "F/x.csv"], "F/x.csv: File exists"),
    (["validate", "--out", "D/"], "D: Is a directory"),
    (["validate", "--out", "F/r.txt"], "F/r.txt: File exists"),
    # a trailing separator names a directory, existing or not
    (["validate", "--out", "N/"], "N: Is a directory"),
], ids=["fig1-under-file", "sweep-under-file", "validate-directory",
        "validate-under-file", "validate-new-directory"])
def test_unusable_output_path_exits_one(tmp_path, capsys, monkeypatch, argv,
                                        message):
    # each raised a raw FileExistsError or IsADirectoryError; F is a file,
    # D a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("")
    (tmp_path / "D").mkdir()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {message}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["D", "F"]
    assert (tmp_path / "F").read_text() == ""


def test_validate_passes(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main(["validate", "--out", str(report)])
    assert code == 0
    assert report.exists()
    text = report.read_text()
    assert "0 failed" in text and "FAIL" not in text
    capsys.readouterr()


def test_validate_negative_control(capsys):
    # corrupting one tolerance must surface as a reported failure and a
    # nonzero exit, proving the checks can actually fail
    code = main(["validate", "--tolerance",
                 "dd_recursion_vs_augmented=1e-18"])
    assert code == 2
    out = capsys.readouterr().out
    assert "dd_recursion_vs_augmented" in out and "FAIL" in out


def test_each_check_reports_its_own_tolerance(capsys):
    # one distinct sentinel per check: a check that read another check's
    # tolerance would print that one's sentinel
    sentinels = {row.name: 1000.0 * (i + 1)
                 for i, row in enumerate(_CHECKS)}
    main(["validate", *(f"--tolerance={name}={value}"
                        for name, value in sentinels.items())])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("20 checks")
    reported = [(ln.split()[0], float(ln.split()[3])) for ln in lines[:-1]]
    assert sorted(name for name, _ in reported) == sorted(sentinels)
    assert dict(reported) == sentinels


def test_validate_rejects_unknown_check():
    assert main(["validate", "--tolerance", "no_such_check=1"]) == 1
    assert main(["validate", "--tolerance", "broken"]) == 1
    assert main(["validate", "--tolerance", "dd_slope_reversal=abc"]) == 1


def test_config_without_the_runs_section_exits_one(tmp_path, capsys):
    ini = tmp_path / "runs.ini"
    ini.write_text("[fig2]\ntau = 0.05\n")
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: config {ini} has no [fig1] "
                                       "section\n")
    assert not out.exists()


def test_validate_rejects_nan_tolerance(capsys):
    # a NaN bound is a usage error, not a failed check
    assert main(["validate", "--tolerance", "dd_slope_reversal=nan"]) == 1
    captured = capsys.readouterr()
    assert "dd_slope_reversal" in captured.err and captured.out == ""


def test_svg_title_is_escaped(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["fig1", "--run-id", "A&B <x>", "--out", str(out)]) == 0
    root = ElementTree.parse(out.with_suffix(".svg")).getroot()
    assert "A&B <x>" in [node.text for node in root]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_line_break_in_metadata_exits_one(tmp_path, capsys, source):
    # the break would end the metadata comment and start a data row
    ini = tmp_path / "multi.ini"
    ini.write_text("[fig1]\nrun_id = a\n  b\n")
    args = (["--run-id", "a\nb"] if source == "flag"
            else ["--config", str(ini)])
    out = tmp_path / "x.csv"
    assert main(["fig1", *args, "--out", str(out)]) == 1
    assert "run_id" in capsys.readouterr().err
    assert not out.exists()


def test_nan_amplitude_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["fig1", "--initial-state", "mixed(nan,0)",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "normalized" in err and "nan" in err
    assert not out.exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "parityshield" in capsys.readouterr().out


_COMMANDS = ["fig1", "fig2", "fig3", "custom", "sweep", "validate"]
# argv whose usage, help or error text main prints: with no subcommand
# first, and after each subcommand its --help, an unknown flag, a flag
# without its value and the root's --version
_PRINTING_ARGV = [[], ["-h"], ["--help"], ["--version"], ["nosuch"],
                  ["--bogus", "validate"],
                  *([command, tail] for command in _COMMANDS
                    for tail in ("--help", "--bogus", "--out", "--version"))]


def _printed(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _PRINTING_ARGV, ids=" ".join)
def test_subcommand_parser_prints_as_the_full_parser(argv, capsys,
                                                     monkeypatch):
    # main builds only the named subcommand's parser; every exit code,
    # usage, help and error text is the full parser's
    lean, build_parser = _printed(argv, capsys), cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: build_parser())
    assert lean == _printed(argv, capsys)


def test_main_builds_the_named_subparser_only(tmp_path, monkeypatch):
    built, build_parser = [], cli.build_parser

    def spy(command=None):
        parser = build_parser(command)
        built.append(sorted(next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)).choices))
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["sweep", "--out", str(tmp_path / "s.csv")]) == 0
    assert main([]) == 1
    assert built == [["sweep"], sorted(_COMMANDS)]
