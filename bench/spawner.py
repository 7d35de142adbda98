"""Job launcher: runs each requested process and reports its wall time and usage.

    python bench/spawner.py      (started by run.py; one JSON request per line)

Each request line is {"argv", "stdout", "stderr", "cwd", "timeout"}; each
reply line is {"returncode", "spawned", "reaped", "cpu", "maxrss_kb"}, with
times from time.monotonic().  The jobs inherit this process's environment.

The jobs are children of this small process rather than of run.py because
on Linux a child's ru_maxrss starts from the peak RSS of the process that
forked it: launched from run.py, which holds parsed tables and reference
arrays, every job would report the driver's memory instead of its own.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=request["cwd"])
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "returncode": proc.returncode,
            "spawned": spawned,
            "reaped": reaped,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
