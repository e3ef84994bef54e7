"""Peak resident memory of one classify+verify pass in a fresh interpreter.

    python3 bench/peak_rss.py SRC_DIR FILE...

Runs ``classify`` then ``verify`` on every FILE through
``flowcomplex.cli.main`` and prints the peak resident set size in KiB: the
``VmHWM`` of this process's own address space.  (``ru_maxrss`` would not
do: Linux carries the parent's high-water mark across ``exec``.)  A
non-zero exit from any call makes this script exit 1.
"""

from __future__ import annotations

import os
import sys
from contextlib import redirect_stderr, redirect_stdout


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    from flowcomplex import cli

    failed = 0
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        for command in ("classify", "verify"):
            for path in argv[1:]:
                failed += cli.main([command, path]) != 0
    with open("/proc/self/status", encoding="ascii") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print(peak)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
