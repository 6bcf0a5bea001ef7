"""How a command process ends (ncstirling.__main__.run): once main returns a status it leaves
by os._exit, without the interpreter's teardown, and loses no output on the way; argparse's
SystemExit and an uncaught exception keep the interpreter's exit."""
import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ncstirling import __main__ as entry, cli
from test_cli import _src_env

ROOT = Path(__file__).resolve().parent.parent
MARKER = "atexit handler ran"
# the package run as `python -m ncstirling` runs it, after an atexit handler is registered
RUN_MODULE = ("import atexit, os, runpy, sys\n"
              "atexit.register(os.write, 2, b'%s\\n')\n"
              "sys.argv[0] = 'ncstirling'\n"
              "runpy.run_module('ncstirling', run_name='__main__')\n" % MARKER)


def _env():
    """The environment with the package's source directory in front of PYTHONPATH, and no
    PYTHONUNBUFFERED: set, it would hide output left in a buffer."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _run_module(argv):
    return subprocess.run([sys.executable, "-c", RUN_MODULE, *argv], capture_output=True,
                          env=_env(), timeout=120)


@pytest.mark.parametrize("argv", [["eval", "--n", "6", "--k", "2", "--alpha", "7/3"],
                                  ["verify", "--n-max", "4"],
                                  ["verify", "--n-max", "4", "--corrupt", "3,1"],
                                  ["eval", "--n", "2", "--k", "3", "--alpha", "1"]],
                         ids=["eval", "verify", "verify-failing", "refusal"])
def test_a_returned_status_skips_the_teardown(argv):
    proc = _run_module(argv)
    assert proc.returncode == cli.main(argv)
    assert MARKER.encode() not in proc.stderr


def test_help_keeps_the_teardown():
    proc = _run_module(["--help"])
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: ncstirling")
    assert proc.stderr.decode() == MARKER + "\n"


def test_an_uncaught_exception_keeps_its_traceback_and_the_teardown():
    # a term past the largest float: the known OverflowError, status 1 and a traceback
    proc = _run_module(["eval", "--n", "200", "--k", "3", "--alpha", "7/3", "--beta", "0.5",
                        "--x0", "1.5"])
    assert proc.returncode == 1
    err = proc.stderr.decode()
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("OverflowError: integer division result too large for a float\n%s\n"
                        % MARKER)


@pytest.mark.skipif(shutil.which("sh") is None, reason="closes descriptor 1 through sh")
@pytest.mark.parametrize("argv", [["triangle", "--n-max", "120"],
                                  ["verify", "--n-max", "4", "--out", "{out}"],
                                  ["eval", "--n", "6", "--k", "2", "--alpha", "7/3"]],
                         ids=["triangle", "verify", "eval"])
def test_a_command_started_with_stdout_closed_ends_with_one_line(tmp_path, argv):
    # the interpreter sets sys.stdout to None when descriptor 1 is closed at start
    out = tmp_path / "report.json"
    proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "ncstirling",
                           *[arg.replace("{out}", str(out)) for arg in argv]],
                          capture_output=True, env=_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "ncstirling: %s: stdout is closed\n" % argv[0]
    assert proc.stdout == b"" and not out.exists()


OUTPUT_RUNS = [
    ["triangle", "--n-max", "20"],
    ["triangle", "--n-max", "20", "--format", "csv"],
    # from cli.TRIANGLE_TWO_PROCESS_N_MIN the process writes in turns with a forked helper
    ["triangle", "--n-max", "113"],
    ["triangle", "--n-max", "113", "--format", "csv"],
    ["verify", "--n-max", "8", "--with-oracle", "--out", "{out}"],
    ["verify", "--n-max", "8", "--with-oracle", "--format", "csv", "--out", "{out}"],
    ["verify", "--n-max", "8", "--with-oracle", "--corrupt", "5,1", "--out", "{out}"],
    ["verify", "--n-max", "8", "--corrupt", "5,1", "--format", "csv", "--out", "{out}"],
    ["eval", "--n", "40", "--k", "7", "--alpha", "-5/2"],
    ["eval", "--n", "40", "--k", "7", "--alpha", "-5/2", "--beta", "1.5", "--x0", "3"],
    # a separate --beta in exponent form, and refusals: status 2, one stderr line
    ["eval", "--n", "3", "--k", "1", "--alpha", "1", "--beta", "-1e3", "--x0", "2"],
    ["eval", "--n", "2", "--k", "3", "--alpha", "1"],
    ["eval", "--n", str(cli.EVAL_N_MAX + 1), "--k", "0", "--alpha", "0"],
    ["eval", "--n", "2", "--k", "1", "--alpha", "1234567890/7"],
]


@pytest.mark.parametrize("argv", OUTPUT_RUNS, ids=[" ".join(argv).replace(" --out {out}", "")
                                                   for argv in OUTPUT_RUNS])
def test_the_process_writes_what_main_writes_in_process(capsys, tmp_path, argv):
    in_process, in_child = tmp_path / "in_process", tmp_path / "in_child"
    status = cli.main([arg.replace("{out}", str(in_process)) for arg in argv])
    out, err = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "ncstirling",
                           *[arg.replace("{out}", str(in_child)) for arg in argv]],
                          capture_output=True, env=_env(), timeout=120)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (status, out, err)
    if "{out}" in argv:
        assert in_child.read_bytes() == in_process.read_bytes()


REFUSALS = OUTPUT_RUNS[-3:]
# `sh -c '"$@" 2>&-'` starts the command with descriptor 2 closed, and the interpreter sets
# sys.stderr to None; a read-only descriptor 2 is a stderr that every write fails on
STDERR_RUNS = ([pytest.param("closed", argv, marks=pytest.mark.skipif(
                    shutil.which("sh") is None, reason="closes descriptor 2 through sh"))
                for argv in OUTPUT_RUNS]
               + [pytest.param("read-only", argv) for argv in REFUSALS])


@pytest.mark.parametrize("stderr, argv", STDERR_RUNS,
                         ids=[" ".join([param.values[0], *param.values[1]])
                              .replace(" --out {out}", "") for param in STDERR_RUNS])
def test_a_closed_or_unwritable_stderr_changes_neither_stdout_nor_the_status(capsys, tmp_path,
                                                                           stderr, argv):
    in_process, in_child = tmp_path / "in_process", tmp_path / "in_child"
    status = cli.main([arg.replace("{out}", str(in_process)) for arg in argv])
    out, err = capsys.readouterr()
    if argv in REFUSALS:
        assert (status, out) == (2, "") and err
    else:
        assert not err
    command = [sys.executable, "-m", "ncstirling",
               *[arg.replace("{out}", str(in_child)) for arg in argv]]
    if stderr == "closed":
        proc = subprocess.run(["sh", "-c", '"$@" 2>&-', "sh", *command], stdout=subprocess.PIPE,
                              env=_env(), timeout=120)
    else:
        with open(os.devnull, "rb") as read_only:
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=read_only, env=_env(),
                                  timeout=120)
    assert (proc.returncode, proc.stdout.decode()) == (status, out)
    if "{out}" in argv:
        assert in_child.read_bytes() == in_process.read_bytes()


def test_the_console_script_runs_the_entry_function():
    # pyproject.toml read as text: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    target = re.search(r'^ncstirling = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
    assert target is not None and target.group(1) == entry.__name__ == "ncstirling.__main__"
    # the call under `if __name__ == "__main__":` in __main__.py
    tree = ast.parse(Path(entry.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == ["%s()" % target.group(2)]
    assert callable(getattr(entry, target.group(2)))
