"""Set-up time of a fresh process: import oamsim.cli, then build and validate
every config of one pass of a workload.  Prints the seconds on stdout.

Usage: python3 bench/setup_probe.py <workload> <seed> <max_ops>
(max_ops 0 means the full op list).  The caller pins the BLAS threads.
"""

import sys
import time
from pathlib import Path

from workloads import pass_ops

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, seed: str, max_ops: str) -> int:
    ops = pass_ops(workload, int(seed), 0, int(max_ops) or None)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import oamsim.cli

    for op in ops:
        if oamsim.cli.main(op.validate_argv()) != 0:
            print(f"config rejected: {op}", file=sys.stderr)
            return 1
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
