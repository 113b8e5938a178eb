"""End-to-end tests for the command-line interface."""

import contextlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quorumtune import cli
from quorumtune.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_examples():
    """One case per ``$ quorumtune`` example in README.md that shows its
    output, with the argv and the shown lines.  A ``\\`` ends a line that
    the command continues on the next; a ``...`` line stands for output
    lines left out."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    cases, seen = [], {}
    k = 0
    while k < len(lines):
        command = lines[k]
        k += 1
        if not command.startswith("$ quorumtune "):
            continue
        while command.endswith("\\"):
            command = command[:-1] + lines[k]
            k += 1
        shown = []
        while k < len(lines) and not lines[k].startswith(("$ ", "```")):
            shown.append(lines[k])
            k += 1
        if shown:
            argv = shlex.split(command)[2:]
            seen[argv[0]] = seen.get(argv[0], 0) + 1
            name = argv[0] if seen[argv[0]] == 1 else f"{argv[0]}-{seen[argv[0]]}"
            cases.append(pytest.param(argv, shown, id=name))
    return cases


@pytest.mark.parametrize("argv,shown", _readme_examples())
def test_readme_example(capsys, argv, shown):
    # The README's pinned outputs, re-run so the documentation cannot drift.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if "..." not in shown:
        assert out == "\n".join(shown) + "\n"
    else:
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1 :]
        got = out.splitlines()
        assert got[:cut] == head and got[len(got) - len(tail) :] == tail


class TestPhi:
    def test_example(self, capsys):
        code, out, err = run(capsys, "phi", "--r", "2", "--w", "3", "--n", "5")
        assert code == 0
        assert out == "0.9\n"

    def test_domain_error_exits_2(self, capsys):
        code, out, err = run(capsys, "phi", "--r", "9", "--w", "3", "--n", "5")
        assert code == 2
        assert err.startswith("error:")

    def test_usage_error_exits_1(self, capsys):
        code, out, err = run(capsys, "phi", "--r", "2", "--w", "3")  # missing --n
        assert code == 1
        code, out, err = run(capsys, "phi", "--r", "two", "--w", "3", "--n", "5")
        assert code == 1


class TestSolve:
    def test_extended_reaches_strong(self, capsys):
        code, out, _ = run(capsys, "solve", "--phi", "1.0", "--n", "5", "--bias", "reads")
        assert code == 0
        assert out == "1 5 1.0\n"

    def test_faithful_example(self, capsys):
        code, out, _ = run(capsys, "solve", "--phi", "0.9", "--n", "5", "--mode", "faithful")
        assert code == 0
        assert out == "2 3 0.9\n"

    def test_faithful_cannot_reach_strong(self, capsys):
        # Faithful mode answers with the nearest weak pair, as solve_quorum does.
        code, out, _ = run(capsys, "solve", "--phi", "1.0", "--n", "5", "--mode", "faithful")
        assert code == 0
        assert out == "2 3 0.9\n"

    def test_writes_bias(self, capsys):
        code, out, _ = run(capsys, "solve", "--phi", "1.0", "--n", "5", "--bias", "writes")
        assert code == 0
        assert out == "5 1 1.0\n"

    def test_out_of_range_phi(self, capsys):
        code, _, err = run(capsys, "solve", "--phi", "1.5", "--n", "5")
        assert code == 2


class TestLevels:
    def test_csv_spectrum(self, capsys):
        code, out, _ = run(capsys, "levels", "--n", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,w,phi"
        assert len(lines) == 16  # header + the 15 canonical configs
        assert lines[1] == "1,1,0.2"
        assert lines[-1] == "5,5,1.0"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_bad_n_prints_no_header(self, capsys, n):
        code, out, err = run(capsys, "levels", "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestSimulate:
    def test_line_format_and_determinism(self, capsys):
        args = ("simulate", "--r", "2", "--w", "3", "--n", "5", "--trials", "20000", "--seed", "4")
        code, out, _ = run(capsys, *args)
        assert code == 0
        empirical_part, analytic_part = out.strip().split(" ")
        assert empirical_part.startswith("empirical=")
        assert analytic_part == "analytic=0.1"
        assert abs(float(empirical_part.split("=")[1]) - 0.1) < 0.02

        code2, out2, _ = run(capsys, *args)
        assert out2 == out

    def test_mirrored_pair_prints_the_readme_line(self, capsys):
        # The estimate is symmetric in r and w at the same seed.
        for r, w in (("2", "3"), ("3", "2")):
            argv = ("simulate", "--r", r, "--w", w, "--n", "5", "--trials", "100000", "--seed", "7")
            assert run(capsys, *argv) == (0, "empirical=0.09946 analytic=0.1\n", "")

    def test_n_beyond_the_sampler_exits_2(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--r", "1", "--w", "1", "--n", "1000000000",
            "--trials", "10", "--seed", "1",
        )  # fmt: skip
        assert code == 2
        assert out == ""
        assert err.startswith("error: n must be < 10**9")


class TestEvaluate:
    def test_sequential_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rmse.csv"
        code, *_ = run(
            capsys,
            "evaluate", "--relation", "linear", "--algo", "seq",
            "--sweep", "5,10,50,100", "--seed", "42", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("# family=linear algo=seq seed=42")
        assert lines[1] == "clusters,rmse"
        assert len(lines) == 6

    def test_incremental_csv_and_constants(self, capsys, tmp_path):
        out_path = tmp_path / "incr.csv"
        code, *_ = run(
            capsys,
            "evaluate", "--relation", "log", "--algo", "incr",
            "--sweep", "0.01,0.1", "--seed", "7", "--out", str(out_path),
            "--A", "2.5", "--C", "-1.0",
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert "A=2.5" in lines[0] and "C=-1.0" in lines[0]
        assert lines[1] == "threshold,clusters,rmse"
        assert len(lines) == 4

    def test_byte_identical_files(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(
                capsys,
                "evaluate", "--relation", "cubic", "--algo", "seq",
                "--sweep", "5,50", "--seed", "42", "--out", str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_malformed_sweep_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "evaluate", "--relation", "linear", "--algo", "seq",
            "--sweep", "5,abc", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize("algo,kind", [("seq", "cluster counts"), ("incr", "thresholds")])
    def test_empty_sweep_is_usage_error(self, capsys, tmp_path, algo, kind):
        code, out, err = run(
            capsys,
            "evaluate", "--relation", "linear", "--algo", algo,
            "--sweep", ",", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )  # fmt: skip
        assert code == 1
        assert out == ""
        assert f"error: expected a comma-separated list of {kind}, got ','" in err

    def test_domain_error_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "evaluate", "--relation", "linear", "--algo", "seq",
            "--sweep", "2000", "--bootstrap", "1000", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "bootstrap" in err

    def test_negative_threshold_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "evaluate", "--relation", "linear", "--algo", "incr",
            "--sweep", "-0.1,0.2", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "threshold must be > 0, got -0.1" in err

    def test_unknown_relation_is_usage_error(self, capsys, tmp_path):
        code, *_ = run(
            capsys,
            "evaluate", "--relation", "exp", "--algo", "seq",
            "--sweep", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1


class TestLoop:
    def test_stdout_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "loop", "--expr", "phi", "--targets", "0.9", "--n", "5",
            "--seed", "7", "--algo", "seq", "--capacity", "1000",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "chi_target,phi_chosen,r,w,chi_achieved"
        fields = lines[1].split(",")
        assert (fields[2], fields[3]) == ("2", "3")

    def test_out_file_and_constants(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "loop", "--expr", "A*phi + C", "--targets", "0.5,0.9",
            "--n", "5", "--seed", "3", "--const", "A=1", "--const", "C=0",
            "--algo", "incr", "--threshold", "0.05", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert len(out_path.read_text().strip().split("\n")) == 3

    def test_unbound_constant_is_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            "loop", "--expr", "A*phi + C", "--targets", "0.5",
            "--n", "5", "--seed", "3", "--const", "A=1",
        )
        assert code == 2
        assert "C" in err

    def test_a_long_unbound_name_is_cut_short(self, capsys):
        code, _, err = run(
            capsys, "loop", "--expr", "b" * 10**5 + "*phi", "--targets", "0.5", "--n", "5",
            "--seed", "3",
        )
        assert code == 2
        assert err == (
            f"error: expression reads unbound variable(s) {'b' * 76}...; "
            "bind them with --const NAME=VALUE\n"
        )

    @pytest.mark.parametrize("item", ["A", "A=x", "A=1=2"])
    def test_malformed_const_is_usage_error(self, capsys, item):
        code, _, err = run(
            capsys,
            "loop", "--expr", "phi", "--targets", "0.5",
            "--n", "5", "--seed", "3", "--const", item,
        )
        assert code == 1
        assert f"error: expected --const NAME=VALUE, got {item!r}" in err

    def test_non_finite_target_fails_before_training_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, err = run(
            capsys,
            "loop", "--expr", "phi", "--targets", "0.5,inf", "--n", "5", "--seed", "1",
            "--bootstrap", "200000", "--capacity", "10", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "error: target must be finite, got inf" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("targets", [" , ", "0.5,x"])
    def test_malformed_targets_are_usage_error(self, capsys, targets):
        code, out, err = run(
            capsys, "loop", "--expr", "phi", "--targets", targets, "--n", "5", "--seed", "3"
        )
        assert code == 1
        assert out == ""
        assert f"error: expected a comma-separated list of target chi values, got {targets!r}" in err

    def test_negative_target_list(self, capsys):
        # Every log-family target is negative; a word led by "-<digit>" is a value.
        code, out, _ = run(
            capsys,
            "loop", "--expr", "log10(phi)", "--targets", "-1,-0.5", "--n", "5", "--seed", "1",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "-1.0,0.09805646188919626,1,1,-0.6989700043360187",
            "-0.5,0.3166283042154997,1,2,-0.3979400086720376",
        ]

    def test_word_led_by_minus_letter_is_still_a_flag(self, capsys):
        code, out, err = run(
            capsys, "loop", "--expr", "phi", "--targets", "-x", "--n", "5", "--seed", "1"
        )
        assert code == 1
        assert out == ""
        assert "argument --targets: expected one argument" in err

    def test_expression_syntax_error_is_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            "loop", "--expr", "1 + * 2", "--targets", "0.5", "--n", "5", "--seed", "3",
        )
        assert code == 2
        assert "position 4" in err


class TestParseCommand:
    def test_prints_ast(self, capsys):
        code, out, _ = run(capsys, "parse", "--expr", "A*phi + C")
        assert code == 0
        assert "BinOp" in out and "Var(name='phi')" in out

    def test_syntax_error_position(self, capsys):
        code, _, err = run(capsys, "parse", "--expr", "1 + * 2")
        assert code == 2
        assert "position 4" in err

    @pytest.mark.parametrize(
        "expr,position",
        [("(" * 3000 + "1" + ")" * 3000, 100), ("^".join(["2"] * 3000), 5799)],
        ids=["parentheses", "powers"],
    )
    def test_deep_nesting_is_domain_error(self, capsys, expr, position):
        code, _, err = run(capsys, "parse", "--expr", expr)
        assert code == 2
        assert f"position {position}" in err and "nests deeper" in err


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        code, *_ = run(capsys)
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, *_ = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "COMMAND" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--relation", "linear", "--algo", "seq", "--sweep", "5", "--seed", "1"],
            ["loop", "--expr", "phi", "--targets", "0.5", "--n", "5", "--seed", "1"],
        ],
        ids=["evaluate", "loop"],
    )
    def test_out_into_missing_directory_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--relation", "linear", "--algo", "seq", "--sweep", "5", "--seed", "1"],
            ["evaluate", "--relation", "linear", "--algo", "incr", "--sweep", "0.1", "--seed", "1"],
            ["loop", "--expr", "phi", "--targets", "0.5", "--n", "5", "--seed", "1"],
        ],
        ids=["evaluate-seq", "evaluate-incr", "loop"],
    )
    def test_out_is_opened_before_the_run(self, capsys, monkeypatch, tmp_path, argv):
        def never(*args, **kwargs):
            raise AssertionError("ran before --out was opened")

        for name in ("evaluate_sequential", "evaluate_incremental", "run_adaptation_loop"):
            monkeypatch.setattr(cli, name, never)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_run_failing_after_open_leaves_an_empty_file(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        out_path.write_text("old contents\n")
        code, *_ = run(
            capsys,
            "evaluate", "--relation", "linear", "--algo", "seq", "--sweep", "2000",
            "--bootstrap", "1000", "--seed", "1", "--out", str(out_path),
        )  # fmt: skip
        assert code == 2
        assert out_path.read_text() == ""

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "quorumtune.cli", "phi", "--r", "3", "--w", "3", "--n", "5"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == "1.0\n"


class TestOneParser:
    """main parses with one parser per process; no call may change what a
    later call sees."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--r", "2", "--w", "3", "--n", "5", "--trials", "1000", "--seed", "3"],
            ["--help"],
        ],
        ids=["simulate", "help"],
    )
    def test_repeated_calls_print_the_same(self, capsys, argv):
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, *argv) == first

    def test_const_values_do_not_leak_into_the_next_call(self, capsys):
        loop = ["loop", "--expr", "A*phi + C", "--targets", "0.5", "--n", "5", "--seed", "3"]
        code, *_ = run(capsys, *loop, "--const", "A=1", "--const", "C=0")
        assert code == 0
        code, _, err = run(capsys, *loop, "--const", "A=1")
        assert code == 2
        assert "C" in err

    def test_usage_error_after_a_successful_call(self, capsys):
        assert run(capsys, "phi", "--r", "2", "--w", "3", "--n", "5")[0] == 0
        code, out, err = run(capsys, "phi", "--r", "2", "--w", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("usage: quorumtune phi")

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_commands_that_draw_nothing_import_no_numpy(self):
        script = """
import contextlib, io, sys
import quorumtune
from quorumtune.cli import main
for argv in (
    ["phi", "--r", "2", "--w", "3", "--n", "5"],
    ["solve", "--phi", "0.9", "--n", "5"],
    ["levels", "--n", "5"],
    ["parse", "--expr", "A*phi + C"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy" in sys.modules)
main(["simulate", "--r", "2", "--w", "3", "--n", "5", "--trials", "100000", "--seed", "7"])
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\nempirical=0.09946 analytic=0.1\n"


# Argument values for the exit-contract property: mostly well-formed, with
# malformed and out-of-range ones mixed in.  Sizes stay small (n <= 200,
# trials and bootstrap <= 1000) so that every drawn command runs quickly.
_JUNK = st.sampled_from(["", "abc", "1.5", "1_0", "nan", "-inf", "1e400", "--r"])


def _mostly(values, other=_JUNK):
    """A draw from ``values`` 19 times in 20, from ``other`` otherwise."""
    return st.integers(0, 19).flatmap(lambda k: other if k == 19 else values)


def _choice(*values):
    return _mostly(st.sampled_from(values))


_SIZE = _mostly(st.integers(1, 200).map(str), st.sampled_from(["0", "-2"]) | _JUNK)
_COUNT = _mostly(st.integers(1, 1000).map(str), st.sampled_from(["0", "-2"]) | _JUNK)
_SEED = _mostly(st.sampled_from(["0", "7", str(2**64 - 1)]), st.sampled_from(["-1", str(2**64)]))
_REAL = _mostly(st.floats(-1.0, 2.0).map(repr), st.sampled_from(["1e308", "-1e-300"]) | _JUNK)
_LIST = _mostly(
    st.lists(_REAL, min_size=1, max_size=4).map(",".join), st.sampled_from([",", " , ", "0.5,,1"])
)
_EXPR = _mostly(
    st.sampled_from(["phi", "-phi", "2*phi^3 - phi", "log10(phi)", "abs(phi - 0.5)", "A*phi + C"]),
    st.sampled_from(["1/(phi - phi)", "phi^", "foo(phi)", "((phi", "1e400*phi", "phi*1e308*10"])
    | st.text(alphabet="phiAC01.+-*/^()", max_size=10),
)
_OUT = _mostly(st.just("x.csv"), st.just("missing/x.csv"))

# Each command's flags, with the strategy for the value of each.
_FLAGS = {
    "phi": {"--r": _SIZE, "--w": _SIZE, "--n": _SIZE},
    "solve": {
        "--phi": _REAL, "--n": _SIZE,
        "--mode": _choice("faithful", "extended"), "--bias": _choice("reads", "writes", "balanced"),
    },
    "levels": {"--n": _SIZE},
    "simulate": {"--r": _SIZE, "--w": _SIZE, "--n": _SIZE, "--trials": _COUNT, "--seed": _SEED},
    "evaluate": {
        "--relation": _choice("linear", "quadratic", "cubic", "log"), "--algo": _choice("seq", "incr"),
        "--sweep": _mostly(st.lists(_SIZE, min_size=1, max_size=4).map(",".join), _LIST),
        "--bootstrap": _COUNT, "--tests": _COUNT, "--seed": _SEED, "--out": _OUT,
        "--A": _REAL, "--B": _REAL, "--C": _REAL, "--D": _REAL,
    },
    "loop": {
        "--expr": _EXPR, "--targets": _LIST, "--algo": _choice("seq", "incr"), "--capacity": _COUNT,
        "--threshold": _REAL, "--n": _SIZE, "--bootstrap": _COUNT, "--seed": _SEED,
        "--const": st.sampled_from(["A=1", "C=0", "A=x", "A", "=1", "C=1e400"]), "--out": _OUT,
    },
    "parse": {"--expr": _EXPR},
}


@st.composite
def _argv(draw, directory):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        # Each flag is given once in most draws, and sometimes left out or
        # repeated.  A value is glued on with "=" or given as the next word,
        # where a leading "-" makes it read as a flag.
        for _ in range(draw(_mostly(st.just(1), st.sampled_from([0, 2])))):
            value = draw(values)
            if flag == "--out":
                value = str(directory / value)
            argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    return argv + draw(_mostly(st.just([]), st.sampled_from([["--help"], ["--bogus"], ["extra"]])))


class TestExitContract:
    """Every input ends in exit 0, 1 or 2, and a failure says why on stderr."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_argv_exits_0_1_or_2_with_a_message(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("out")
        argv = data.draw(_argv(directory), label="argv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2)
        if code:
            assert "error" in stderr.getvalue()
