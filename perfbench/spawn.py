"""Runs one command and prints its wall time, peak RSS and exit code as JSON.

    python3 perfbench/spawn.py OUT ERR -- PROGRAM ARGS...

The benchmark starts its CLI children through this small process.
Linux keeps a process's peak RSS across fork and exec, so a child
started straight from the benchmark, which holds large inputs, would
report the benchmark's own peak. Started from here, the child's peak
is its own; ``os.wait4`` reads it for that child alone.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    out_path, err_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        raise SystemExit(__doc__)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - t0
    print(json.dumps({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                      "code": proc.returncode}))


if __name__ == "__main__":
    main()
