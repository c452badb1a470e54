"""What importing the runtime pulls in.

Every shard, router and server process imports these packages before it
does any work, so a heavy dependency here is paid once per process:
``scipy.stats`` alone was ≈ 65 MB of RSS and most of a second of start-up,
for the SAX breakpoints that :func:`repro.tsdb.sax._ndtri` now computes.
The check runs in a fresh interpreter, because this test process has
long since imported whatever other tests needed.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

RUNTIME = ("repro", "repro.core", "repro.serving", "repro.sharding",
           "repro.cli")


def test_runtime_does_not_import_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        "import importlib, sys\n"
        f"for name in {RUNTIME!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
