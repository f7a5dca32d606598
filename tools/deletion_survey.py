"""Statement-deletion survey: which statements of a ptcsim module no test misses.

    python3 tools/deletion_survey.py MODULE [pytest args]

Copies the repository to a temporary directory; the working tree is never
written.  Then, one statement of src/ptcsim/MODULE.py at a time, it replaces
the statement with `pass` in the copy and runs `pytest -x -q [pytest args]`
there.  Docstrings, `pass`, def, class and import statements are left as they
are; a compound statement (an if, a for, a with, ...) is replaced whole, and
an `elif` with the rest of its chain.  Each statement whose replacement still
passes is printed as `src/ptcsim/MODULE.py:LINE: <its first line>`, and so is
each whose run outlives three times the unchanged run (at least 60 s),
marked as timed out; a run that fails counts as caught.  The unchanged copy
must pass first.

Each run is limited to MAX_MEMORY bytes of address space, so that a
deletion which makes a loop grow without end fails with MemoryError instead
of filling the host's memory.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What the copy leaves out, besides the bench's outputs (bench/out).
UNCOPIED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}
MAX_MEMORY = 4 << 30
KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Pass)


def deletable(tree: ast.Module) -> list[ast.stmt]:
    """The statements the survey replaces, in source order."""
    found = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, KEPT)
        and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))
    ]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def replaced(source: bytes, node: ast.stmt) -> bytes:
    """source with node's text replaced by `pass` (ast offsets count UTF-8 bytes)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return source[:begin] + b"pass" + source[end:]


def run_pytest(copy: Path, args: list[str], timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for one `pytest -x -q args` run in copy."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MAX_MEMORY, MAX_MEMORY))

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # a stale .pyc could hide a deletion
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its own src first
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", *args], cwd=copy, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=limit, start_new_session=True,
    )
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:  # the run's own subprocesses too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/ptcsim, such as cli")
    opts, pytest_args = parser.parse_known_args(argv)
    rel = Path("src", "ptcsim", f"{opts.module}.py")
    if not (ROOT / rel).is_file():
        parser.error(f"no module {rel}")
    source = (ROOT / rel).read_bytes()
    nodes = deletable(ast.parse(source))
    with tempfile.TemporaryDirectory(prefix="deletion-survey-") as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=lambda d, names: [
            n for n in names if n in UNCOPIED or Path(d, n) == ROOT / "bench" / "out"
        ])
        t0 = time.perf_counter()
        if run_pytest(copy, pytest_args, None) != "passed":
            print(f"the unchanged copy does not pass pytest -x -q {' '.join(pytest_args)}", file=sys.stderr)
            return 1
        timeout = max(60.0, 3 * (time.perf_counter() - t0))
        lines = source.decode().splitlines()
        counts = {"passed": 0, "failed": 0, "timeout": 0}
        for node in nodes:
            mutant = replaced(source, node)
            (copy / rel).write_bytes(mutant)
            try:
                compile(mutant, str(rel), "exec")
            except SyntaxError:
                outcome = "failed"
            else:
                outcome = run_pytest(copy, pytest_args, timeout)
            counts[outcome] += 1
            if outcome != "failed":
                mark = "" if outcome == "passed" else " (timed out)"
                print(f"{rel}:{node.lineno}:{mark} {lines[node.lineno - 1].strip()}", flush=True)
    print(f"{len(nodes)} statements: {counts['failed']} caught, {counts['passed']} still pass, "
          f"{counts['timeout']} timed out")
    return 0


if __name__ == "__main__":
    sys.exit(main())
