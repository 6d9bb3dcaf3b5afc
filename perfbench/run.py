#!/usr/bin/env python3
"""Build perfbench from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig06_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --spec > BENCHMARK.json

The driver is configured and built with CMake (Release) into
.bench_build/perfbench; build output goes to stderr, so the last line of
stdout stays the driver's JSON result. A traced run (--trace 1) writes
its spans as a Chrome/Perfetto trace to
.bench_build/perfbench/trace-<workload>.json. The exit code is the
driver's: nonzero when the build fails or any point misses its check.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        # Concurrent runs in one checkout build once, one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    args = sys.argv[1:]
    build()
    cmd = [os.path.join(BUILD, "perfbench")] + args
    if args != ["--spec"]:
        cmd += ["--golden", os.path.join(ROOT, "tests", "golden")]
        if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
            workload = "run"
            if "--workload" in args:
                workload = (args[args.index("--workload") + 1:] or [workload])[0]
            cmd += ["--trace-out",
                    os.path.join(BUILD, "trace-%s.json" % workload)]
    code = subprocess.run(cmd).returncode
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
