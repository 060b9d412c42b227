"""Planning-only processes stay numpy-free; shard workers stay HTTP-free.

numpy accelerates the columnar executor and nothing else, so the CLI and
both server tiers must be able to start and plan without importing it.
A shard worker needs the request core, not the threaded HTTP server.
The checks run in a fresh interpreter: this test process has long since
imported numpy through other suites.
"""

import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

SQL = (
    "SELECT ns.n_name, count(*) AS cnt FROM nation ns "
    "JOIN supplier s ON ns.n_nationkey = s.s_nationkey GROUP BY ns.n_name"
)

PROBE = """
import sys
import {module}
from repro.optimizer import OptimizerConfig, optimize
from repro.tpch.queries import build_q3

result = optimize(build_q3(), config=OptimizerConfig())
assert result.cost > 0
print("numpy" in sys.modules)
"""

#: Makes ``import numpy`` raise, as in an environment without it.
BLOCK_NUMPY = """
import sys

class _Block:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked")
        return None

sys.meta_path.insert(0, _Block())
"""


def _run(script, *args):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="numpy not installed: nothing could import it",
)
@pytest.mark.parametrize(
    "module", ["repro.__main__", "repro.server.app", "repro.asyncserver.app"]
)
def test_planning_does_not_import_numpy(module):
    out = _run(PROBE.format(module=module))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _untimed(text):
    return re.sub(r"time=\S+", "", text)


def test_cli_plans_with_numpy_blocked(capsys):
    script = BLOCK_NUMPY + textwrap.dedent(
        """
        from repro.__main__ import main
        sys.exit(main(sys.argv[1:]))
        """
    )
    out = _run(script, SQL)
    assert out.returncode == 0, out.stderr
    assert main([SQL]) == 0
    # Same plan and cost as in this process; only the timing differs.
    assert _untimed(out.stdout) == _untimed(capsys.readouterr().out)


def test_shard_worker_does_not_import_the_threaded_server():
    """Shard workers host the request core, never the sync HTTP stack."""
    out = _run(
        "import sys, repro.asyncserver.worker\n"
        "print(sorted(m for m in ('http.server', 'repro.server') if m in sys.modules))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
