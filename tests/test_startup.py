"""What a command-line process imports before it does any work.

Every run of the program pays for its imports, so the package keeps to
modules a bare interpreter loads quickly.  `dataclasses` brings
`inspect` and with it `ast`, `dis` and `tokenize`; `importlib.resources`
brings `typing`, `tempfile`, `pathlib` and `zipfile`.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
         "importlib.resources", "tempfile", "pathlib", "zipfile",
         "__future__"}

# -S leaves out site, whose .pth files may import anything
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cyclichodge.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_imports_no_heavy_module():
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    added = set(proc.stdout.split())
    assert "cyclichodge.cli" in added
    assert not added & HEAVY, sorted(added & HEAVY)
