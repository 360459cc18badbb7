"""Start the benchmark's commands one at a time and report on each.

Reads one JSON request per line on stdin,

    {"argv": [...], "cwd": dir, "stdout": path, "stderr": path}

starts the command with that directory and output files and the
environment this process was given, writes {"pid": n} at once and
{"wall_s": t, "exit": code, "maxrss_kib": k} when the command has exited.
Exits at end of input.

The benchmark process does not start commands itself because a child's
ru_maxrss never reads below the resident size of the process it was
forked from, and the benchmark's own size is above an lt2d command's peak.
This process stays small, so the maxima are the commands' own.
"""

import json
import os
import sys
import time


def _start(request):
    out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null = os.open(os.devnull, os.O_RDONLY)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(request["cwd"])
            os.dup2(null, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execv(request["argv"][0], request["argv"])
        finally:
            os._exit(127)
    for fd in (out, err, null):
        os.close(fd)
    return pid, start


def _reply(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main():
    for line in sys.stdin:
        pid, start = _start(json.loads(line))
        _reply({"pid": pid})
        _, status, usage = os.wait4(pid, 0)
        _reply({"wall_s": time.perf_counter() - start,
                "exit": os.waitstatus_to_exitcode(status),
                "maxrss_kib": usage.ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
