"""Put the package sources and the benchmark modules on the import path."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
