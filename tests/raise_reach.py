"""Fail a test session in which some ``raise`` of the driftal package never runs.

A pytest plugin, loaded only on request (``tests`` must be importable):

    PYTHONPATH=src:tests python -m pytest -q -p raise_reach

It finds every ``raise`` statement in the package that the tests import,
traces the frames of those files while the tests run, and then fails the
session, listing the ``file:line`` of each raise that no test executed. A
raise shows as an "exception" trace event at its first line, so only frames
of functions holding a raise not yet reached get a local tracer, and it sees
no line events. Threads and subprocesses are not traced.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest


def raise_sites(package):
    """{path of each source file under ``package``: the first lines of its raise
    statements}. A bare ``raise`` sends no trace event, so it is refused."""
    sites = {}
    for path in sorted(Path(package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                if node.exc is None:
                    raise ValueError(f"{path}:{node.lineno}: a bare raise cannot be traced")
                sites.setdefault(str(path), set()).add(node.lineno)
    return sites


def unreached(sites, executed):
    """``file:line`` of each site in ``sites`` ({file: lines}) that ``executed``
    (a set of ``(file, line)``) lacks, in file and line order."""
    return [f"{path}:{line}" for path in sorted(sites)
            for line in sorted(sites[path]) if (path, line) not in executed]


class RaiseTracer:
    """Records which of ``sites`` run, as ``(file, line)`` pairs in ``executed``."""

    def __init__(self, sites):
        self.sites = sites
        self.executed = set()
        self._pending = {}  # code object -> its raise lines not yet reached

    def call(self, frame, event, arg):
        code = frame.f_code
        pending = self._pending.get(code)
        if pending is None:
            pending = self._pending[code] = ({line for _, _, line in code.co_lines()}
                                             & self.sites.get(code.co_filename, set()))
        if not pending:
            return None
        frame.f_trace_lines = False
        return self.exception

    def exception(self, frame, event, arg):
        if event == "exception":
            pending = self._pending[frame.f_code]
            if frame.f_lineno in pending:
                pending.discard(frame.f_lineno)
                self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        return self.exception


_state = {}


def pytest_sessionstart(session):
    package = Path(importlib.util.find_spec("driftal").origin).parent
    tracer = _state["tracer"] = RaiseTracer(raise_sites(package))
    sys.settrace(tracer.call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    tracer = _state["tracer"]
    _state["missing"] = unreached(tracer.sites, tracer.executed)
    if _state["missing"]:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missing = _state["missing"]
    reached = sum(map(len, _state["tracer"].sites.values())) - len(missing)
    terminalreporter.write_sep("-", "raise reach")
    terminalreporter.write_line(f"{reached} raise sites reached, {len(missing)} unreached")
    for site in missing:
        terminalreporter.write_line(f"unreached raise: {site}")
