"""The package namespace: `import scoresleuth` loads the modules behind the
bundle, multiclass, oracle and regression names only when one is used,
and every exported name still resolves."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import scoresleuth
lazy = ("bundles", "multiclass", "oracle", "regression")
assert not [m for m in lazy if "scoresleuth." + m in sys.modules], sys.modules
for name in scoresleuth.__all__:
    getattr(scoresleuth, name)
assert scoresleuth.check_regression.__module__ == "scoresleuth.regression"
from scoresleuth import multiclass
assert multiclass.check_multiclass_dataset is scoresleuth.check_multiclass_dataset
try:
    scoresleuth.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("no_such_name resolved")
print("ok")
"""


def test_lazy_exports_resolve_on_first_access(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"
