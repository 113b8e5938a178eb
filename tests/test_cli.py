"""End-to-end tests for the command-line interface."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quorumtune.cli import main


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

    def test_domain_error_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "evaluate", "--relation", "linear", "--algo", "seq",
            "--sweep", "2000", "--bootstrap", "1000", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "bootstrap" in err

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

    def test_malformed_const_is_usage_error(self, capsys):
        code, *_ = run(
            capsys,
            "loop", "--expr", "phi", "--targets", "0.5",
            "--n", "5", "--seed", "3", "--const", "A",
        )
        assert code == 1

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

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "quorumtune.cli", "phi", "--r", "3", "--w", "3", "--n", "5"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == "1.0\n"
