"""Set-up probe for setup_s: import the package from ./src, build one
workload's codes with the public constructors, print "ready".

    python3 bench/setup_probe.py table1
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qpcodes.cli  # noqa: E402,F401  (the entry point imports every module)
from workloads import build_codes  # noqa: E402

build_codes(sys.argv[1])
print("ready", flush=True)
