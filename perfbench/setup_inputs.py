"""Import opaqcheck and write one workload's inputs: the work ``setup_s`` times.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED [SURFACE]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import opaqcheck  # noqa: E402,F401  (importing the package is part of set-up)
from workloads import write_inputs  # noqa: E402

write_inputs(sys.argv[1], int(sys.argv[2]), str(ROOT), int(sys.argv[3]) if len(sys.argv) > 3 else 0)
