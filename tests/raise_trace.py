"""Pytest plugin: fail the run if a ``raise`` line in ``src/tapkit`` is never
executed, so every refusal keeps a test that reaches it.

Load it for a whole tier-1 run (a subset of the suite leaves refusals
unreached by design)::

    PYTHONPATH=src:tests python -m pytest -q -p raise_trace

Lines are recorded with ``sys.settrace``. Frame file names are compared after
``os.path.realpath``, because ``tests/conftest.py`` puts ``tests/../src`` on
``sys.path``. The hook is installed again before each test phase, because
``hypothesis`` clears the trace function.
"""

from __future__ import annotations

import os
import re
import sys
import threading

import pytest

SOURCE = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "tapkit"))
_RAISE = re.compile(r"\s*raise\b")


class RaiseTrace:
    """Records which ``raise`` lines of the ``.py`` files in ``source`` run."""

    def __init__(self, source: str):
        self.source = source
        self.raise_lines: dict[str, set[int]] = {}  # real path -> lines that start with raise
        for entry in sorted(os.listdir(source)):
            if entry.endswith(".py"):
                path = os.path.join(source, entry)
                with open(path, encoding="utf-8") as fh:
                    self.raise_lines[path] = {i for i, line in enumerate(fh, 1)
                                              if _RAISE.match(line)}
        self.hit: dict[str, set[int]] = {path: set() for path in self.raise_lines}
        self.paths: dict[str, str | None] = {}  # co_filename -> real path, None outside
        self.unreached: list[str] = []
        self.install()

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        path = self.paths.get(name, "")
        if path == "":
            real = os.path.realpath(name)
            path = self.paths[name] = real if real in self.raise_lines else None
        if path is None:
            return None
        lines, hit = self.raise_lines[path], self.hit[path]

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                hit.add(frame.f_lineno)
            return local

        return local

    def install(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        self.install()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        self.install()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        self.install()
        yield

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)
        root = os.path.dirname(os.path.dirname(self.source))
        for path, lines in sorted(self.raise_lines.items()):
            self.unreached += [f"{os.path.relpath(path, root)}:{n}"
                               for n in sorted(lines - self.hit[path])]
        if self.unreached and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        reached = sum(map(len, self.hit.values()))
        if self.unreached:
            terminalreporter.section("unreached raise lines", red=True)
            for where in self.unreached:
                terminalreporter.write_line(where)
        terminalreporter.write_line(
            f"raise lines reached: {reached} of {reached + len(self.unreached)}")


def pytest_configure(config):
    config.pluginmanager.register(RaiseTrace(SOURCE), "raise-trace")
