#!/usr/bin/env python3
"""Build and run hybsync's same-host benchmark.

Run from the root of a hybsync checkout:

    python3 perfbench/run.py --workload contended --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from the checkout's sources
into the build directory ($CARGO_TARGET_DIR, default .bench_build), with
Go's build cache, temporary files and home directory kept there as well,
so a run writes nothing outside the checkout. Build messages go to
standard error; the program's report and its closing JSON line go to
standard output. The exit code is the program's, or 1 when the build
fails or the run overstays its time limit.
"""

import os
import subprocess
import sys

# A run measures for --seconds (at most 60) plus set-up; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    try:
        ran = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
