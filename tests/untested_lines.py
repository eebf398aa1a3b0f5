"""List the lines of ``src/binauralkit`` that the tier-1 suite never runs.

Runs the suite in this process under a ``sys.settrace`` line tracer limited
to the package's files, then prints each statement line inside a function
body that never ran (signatures, decorators and docstrings do not count).
Exits 1 if any listed line is outside ``ALLOWED``, the invariant guards no
input reaches. Needs no coverage package; pytest does not collect this
file. Code run in a subprocess or a forked worker (``dataset --jobs 2``) is
not traced.

    PYTHONPATH=src python tests/untested_lines.py [pytest args...]
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "binauralkit"

# (file, function, stripped line): guards that only a broken invariant reaches
ALLOWED = {
    # Bowyer-Watson never makes a zero-area triangle; kept for the exact-only
    # reference triangulation in test_geometry.py, which calls it
    ("geometry.py", "_incircle_strict", "return False"),
    # every inserted point lies inside the super triangle's circumcircle
    ("geometry.py", "_triangulate_plane", "raise RuntimeError("),
}


def body_lines(path: Path) -> dict[int, str]:
    """First line of each statement inside a function body that compiles to
    code, mapped to the innermost function's name."""
    tree = ast.parse(path.read_text(), str(path))
    compiled: set[int] = set()
    stack = [compile(tree, str(path), "exec")]
    while stack:
        code = stack.pop()
        compiled.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    lines: dict[int, str] = {}

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]  # the docstring
                for stmt in body:
                    take(stmt, child.name)
            elif isinstance(child, ast.stmt) and func is not None:
                take(child, func)
            else:
                visit(child, func)

    def take(stmt: ast.stmt, func: str) -> None:
        if isinstance(stmt, ast.ClassDef):
            visit(stmt, None)
            return
        if stmt.lineno in compiled and not isinstance(stmt, (ast.Global, ast.Nonlocal)):
            lines[stmt.lineno] = func
        visit(stmt, func)

    visit(tree, None)
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer; its exit code and the
    lines run in each package file, keyed by file name."""
    ran: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its lines in ran

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = ran.setdefault(path.name, set()) if path.parent == PACKAGE else None
        return None if files[name] is None else local

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    if code != 0:
        print(f"untested_lines: the suite failed (exit {code})", file=sys.stderr)
        return 1
    listed = unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        run = ran.get(path.name, set())
        for line, func in sorted(body_lines(path).items()):
            if line in run:
                continue
            text = source[line - 1].strip()
            allowed = (path.name, func, text) in ALLOWED
            listed += 1
            unexpected += not allowed
            mark = "allowed" if allowed else "UNTESTED"
            print(f"{mark} src/binauralkit/{path.name}:{line} ({func}): {text}")
    print(f"untested_lines: {listed} unreached, {unexpected} outside the allowlist")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
