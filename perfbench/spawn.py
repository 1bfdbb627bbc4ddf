"""Run one command and report its wall time, exit status and peak RSS.

    python3 -S perfbench/spawn.py <timeout_s> <stderr_path> <command...>

Prints one JSON object: ``wall_s``, ``returncode`` and ``maxrss_kb``.

Linux charges a process that execs with the resident-set high-water mark of
the memory it had before the exec, and a child made by fork or vfork starts
out with its parent's memory. So the ``wait4`` peak RSS of a child started
by the benchmark process, which holds generated inputs and corpora, would
partly be the benchmark's own. Started from this small interpreter instead,
the child's ``wait4`` peak RSS is its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout_s, stderr_path, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    print(json.dumps({"wall_s": wall, "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
