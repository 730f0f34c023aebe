#!/usr/bin/env python3
"""Build the perfbench harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload census-batch --seed 1 --seconds 30 --trace 0

Every argument is passed to the harness (see perfbench/main.go). The Go
build cache, temporary files and the binary all live under .bench_build/
in the current directory, so the run reads and writes nothing outside
the tree. The exit code is the build's when it fails, else the harness's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.join(os.getcwd(), ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
