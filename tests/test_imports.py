"""Cold-start guards: every module imports on its own, and importing the
package or asking the CLI for ``--help`` loads nothing else.

Each check runs in a fresh interpreter, because within one test process
the modules that earlier tests imported would hide an import cycle and
inflate the module count.
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

TOP_LEVEL = sorted(module.name for module in pkgutil.iter_modules(repro.__path__))


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("name", TOP_LEVEL)
def test_module_imports_on_its_own(name):
    proc = _run(f"import repro.{name}")
    assert proc.returncode == 0, proc.stderr


def test_help_loads_only_the_cli():
    proc = _run(
        "import json, sys\n"
        "from repro import cli\n"
        "try:\n"
        "    cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m == 'repro' or m.startswith('repro.'))), file=sys.stderr)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: repro" in proc.stdout
    assert json.loads(proc.stderr.splitlines()[-1]) == ["repro", "repro.cli"]
