#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and every file a run writes stay under
.bench_build/ in the checkout. The exit code is the benchmark's, or 1 when
the build fails (for example when the checkout holds only the benchmark).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=SRC, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
