"""Line-coverage gate for `src/wbforge`, standard library only.

Runs the Tier-1 tests in this process under a `sys.settrace` line tracer
and exits non-zero if any test fails, if an executable line of
`src/wbforge/` never ran and is not in `ALLOWED`, or if an `ALLOWED`
entry names no executable line of its module, so that no allowance
outlives its line. Run it from the repository root:

    PYTHONPATH=src python tests/line_coverage.py

The executable lines of a module are the line numbers of its compiled
code objects, so a docstring or comment is never reported. Tests that
run wbforge in a subprocess add nothing here; every line must be
reached by some in-process test.
"""

from __future__ import annotations

import os
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wbforge"

# (module file, stripped source line) -> why the line may stay unrun
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when cli.py is executed as a script; the tests call main() "
        "in-process and run the console script in a subprocess",
}


def code_lines(code: types.CodeType) -> set[int]:
    """The line numbers `code` itself attributes instructions to."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: Path) -> set[int]:
    """Every line number a code object compiled from `path` attributes code to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= code_lines(code)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _LocalTracer:
    """One frame's local trace function: each line the frame runs leaves `unseen`.

    It returns itself and holds only the set, so a traced frame makes no
    reference cycle.
    """

    __slots__ = ("unseen",)

    def __init__(self, unseen: set[int]) -> None:
        self.unseen = unseen

    def __call__(self, frame: types.FrameType, event: str, arg: object) -> _LocalTracer:
        if event == "line":
            self.unseen.discard(frame.f_lineno)
        return self


class LineTracer:
    """Records the lines run in files under `root`.

    A code object's lines are traced until each of them has run once; after
    that its frames run untraced, so the tracer costs little on hot code.
    """

    def __init__(self, root: Path) -> None:
        self.prefix = str(root.resolve()) + os.sep
        # id(code) -> (code, its lines not yet seen), the set empty for code
        # outside root; keyed by id, as a code object's own hash reads all of
        # it, and holding the code, so that no id is reused
        self._unseen: dict[int, tuple[types.CodeType, set[int]]] = {}

    def __call__(self, frame: types.FrameType, event: str, arg: object):
        """The global trace function, called for each new frame."""
        code = frame.f_code
        try:
            unseen = self._unseen[id(code)][1]
        except KeyError:
            inside = os.path.realpath(code.co_filename).startswith(self.prefix)
            unseen = code_lines(code) if inside else set()
            self._unseen[id(code)] = code, unseen
        if not unseen:
            return None
        unseen.discard(frame.f_lineno)
        return _LocalTracer(unseen)

    def hits(self) -> dict[str, set[int]]:
        """The lines run, by resolved file path."""
        out: dict[str, set[int]] = {}
        for code, unseen in self._unseen.values():
            path = os.path.realpath(code.co_filename)
            if path.startswith(self.prefix):
                out.setdefault(path, set()).update(code_lines(code) - unseen)
        return out


def unrun_lines(hits: dict[str, set[int]]) -> list[tuple[str, int, str]]:
    """(module file, line number, source line) of each unrun, unallowed line."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = hits.get(str(path.resolve()), set())
        for line in sorted(executable_lines(path) - ran):
            text = source[line - 1].strip()
            if (path.name, text) not in ALLOWED:
                out.append((path.name, line, text))
    return out


def stale_allowances(allowed: dict[tuple[str, str], str]) -> list[tuple[str, str]]:
    """Each (module file, source line) of `allowed` that names no executable line."""
    out = []
    for name, text in allowed:
        path = PACKAGE / name
        if path.is_file():
            source = path.read_text(encoding="utf-8").splitlines()
            if any(source[line - 1].strip() == text for line in executable_lines(path)):
                continue
        out.append((name, text))
    return out


def main() -> int:
    if "wbforge" in sys.modules:
        sys.exit("wbforge is already imported, so its module-level lines cannot be traced")
    import pytest

    tracer = LineTracer(PACKAGE)
    started = time.perf_counter()
    sys.settrace(tracer)
    try:
        # the Tier-1 command's tests, wherever the script is run from
        status = pytest.main(["-q", "--continue-on-collection-errors", "--rootdir", str(ROOT),
                              str(ROOT / "tests"), str(ROOT / "bench")])
    finally:
        sys.settrace(None)
    elapsed = time.perf_counter() - started
    unrun = unrun_lines(tracer.hits())
    for name, line, text in unrun:
        print(f"src/wbforge/{name}:{line}: never ran: {text}")
    stale = stale_allowances(ALLOWED)
    for name, text in stale:
        print(f"src/wbforge/{name}: allowed, but no executable line reads: {text}")
    total = sum(len(executable_lines(p)) for p in PACKAGE.glob("*.py"))
    print(f"line coverage: {len(unrun)} of {total} executable lines unrun and not allowed "
          f"({len(ALLOWED)} allowed); traced tests took {elapsed:.1f} s")
    if status != 0:
        print(f"the tests failed (pytest exit status {int(status)})")
        return 1
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main())
