#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz|paper|serve-cold|serve-hot \
        --seed N --seconds S --trace 0|1

The harness (perfbench/main.ml) is built with dune into .bench_build/
and run in the repository root. Its last line of output is the result
JSON; this script passes its output and exit code through. It exits 2
without a result when the tree it runs in does not hold the library and
corpus the benchmark needs.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
NEEDED = ["dune-project", os.path.join("lib", "core", "simd.ml"), "corpus"]
# the harness's scratch directory (sockets, artifact caches); the harness
# removes it itself unless it is killed
SCRATCH = "_perfbench_tmp"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kwargs):
    """Run cmd in ROOT in its own process group. On timeout, SIGTERM or
    SIGINT, kill the group (the harness's server children too) and wait
    for cmd."""
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                          **kwargs) as proc:
        def kill(why):
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            shutil.rmtree(os.path.join(ROOT, SCRATCH), ignore_errors=True)
            fail("%s %s" % (cmd[0], why))
        signal.signal(signal.SIGTERM, lambda *_: kill("stopped"))
        signal.signal(signal.SIGINT, lambda *_: kill("stopped"))
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill("timed out after %d s" % timeout)


def main():
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a simd_align source tree (missing %s)" % ", ".join(missing))
    # no shared dune cache: the build writes only inside the tree
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--cache", "disabled", "--display", "quiet",
             "./perfbench/main.exe"]
    if run(build, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        fail("build failed")
    code = run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
