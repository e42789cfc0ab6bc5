"""Set-up cost of a fresh process, as a CLI user pays it on every call:
import scoresleuth, load the default score registry, answer one check.
Prints the elapsed seconds. Usage: python3 setup_probe.py <src dir>"""

import json
import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import scoresleuth  # noqa: E402,F401
from scoresleuth.scores import default_registry  # noqa: E402

default_registry()
import loop  # noqa: E402

loop.handle(json.dumps(loop.WARM_UP[0]))
print(time.perf_counter() - start)
