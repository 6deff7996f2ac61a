"""Every statement in src/uprsim runs in some command, or is named.

A fresh interpreter (module-level and class-body lines run at import) sets
sys.settrace before it imports uprsim.cli, then runs in process the command
set of tests/output_commands.py (as tests/test_golden.py does), the bad
inputs of tests/bad_inputs.py and the demos (through runpy). A statement
line is a line that a code object compiled from src/uprsim/*.py maps an
instruction to (co_lines). The lines that none of these runs must be
exactly those pinned in tests/reach.json, each keyed by module, qualname
and stripped statement text, so that edits elsewhere in a file leave the
list alone. A new src statement that no command runs gets a command that
runs it, or an entry in the list, and CHANGES.md says which.

Line tables differ between Python versions, so the list holds for the
version recorded with it. To record it again:

    PYTHONPATH=src python tests/test_reach.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import runpy
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src/uprsim").glob("*.py"))
REACH = Path(__file__).with_name("reach.json")


def python_version() -> str:
    return ".".join(platform.python_version_tuple()[:2])


def statement_lines(path: Path) -> dict[int, str]:
    """The statement lines of the module at path, each with the qualname of
    the code object that runs it (a def line is its parent's)."""
    lines = {}
    codes = [compile(path.read_text(), str(path), "exec")]
    for code in codes:  # parents before the code objects they hold
        codes += [c for c in code.co_consts if isinstance(c, CodeType)]
        for _, _, line in code.co_lines():
            if line:
                lines.setdefault(line, code.co_qualname)
    return lines


def trace_lines(files: set[str], run) -> set[tuple[str, int]]:
    """The (file, line) pairs of files that run() executes."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in files else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def unreached(paths: list[Path], ran: set[tuple[str, int]]) -> list[tuple[str, tuple]]:
    """`file:line` and the (module, qualname, text) key of each statement
    line of paths that ran does not hold, in file order."""
    out = []
    for path in paths:
        text = path.read_text().splitlines()
        for line, qualname in sorted(statement_lines(path).items()):
            if (str(path), line) not in ran:
                key = (path.stem, qualname, text[line - 1].strip())
                out.append((f"{path.name}:{line}", key))
    return out


def run_commands() -> None:
    """Import uprsim.cli, then run the command set, the bad inputs and the
    demos in this process, writing into a temporary directory."""
    from bad_inputs import BAD_INPUTS, bad_input_argv
    from test_golden import output_digests

    from uprsim.cli import main

    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        output_digests(Path(tmp))
        for i, (config, argv, _) in enumerate(BAD_INPUTS):
            case = Path(tmp, f"bad_input_{i}")
            case.mkdir()
            main(bad_input_argv(case, config, argv))
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")


def traced_commands() -> set[tuple[str, int]]:
    """trace_lines of run_commands over src/uprsim, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    code = ("import json, test_reach; "
            "ran = test_reach.trace_lines({str(p) for p in test_reach.SRC}, "
            "test_reach.run_commands); print(json.dumps(sorted(ran)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {tuple(pair) for pair in json.loads(proc.stdout)}


def test_scanner_reports_a_line_that_never_runs(tmp_path):
    tiny = tmp_path / "tiny.py"
    tiny.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n\n\nf(1)\n")
    ran = trace_lines({str(tiny)}, lambda: runpy.run_path(str(tiny)))
    assert unreached([tiny], ran) == [("tiny.py:4", ("tiny", "f", "return 2"))]


def test_every_src_statement_runs_or_is_named():
    recorded = json.loads(REACH.read_text())
    assert recorded["python"] == python_version(), (
        f"tests/reach.json was recorded under Python {recorded['python']}, this run is "
        f"{python_version()}; record it again under that version")
    missed = unreached(SRC, traced_commands())
    pinned = Counter(tuple(key) for key in recorded["unreached"])
    got = Counter(key for _, key in missed)
    new = [where for where, key in missed if key in got - pinned]
    assert not new, f"src statements that no command runs: {new}"
    assert not pinned - got, f"tests/reach.json names statements that now run: {pinned - got}"


if __name__ == "__main__":
    missed = unreached(SRC, traced_commands())
    entries = ",\n  ".join(json.dumps(key) for _, key in missed)  # one line each
    REACH.write_text(f'{{"python": "{python_version()}",\n "unreached": [\n  {entries}\n ]}}\n')
    print(f"wrote {len(missed)} unreached lines to {REACH}", file=sys.stderr)
