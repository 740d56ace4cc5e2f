#!/usr/bin/env python3
"""Build the study benchmark from source and run it.

Usage, from the repository root:

    python3 studybench/run.py --workload fig2_replay --seed 1 --seconds 10 --trace 0

Every argument is passed to the studybench binary (see main.go). The
build and every scratch file stay under .bench_build/ in the repository
root; the Go build cache lives there too, so the first run compiles the
standard library and later runs only relink. The build runs offline.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    # The benchmark imports the simulator's packages from the repository
    # it sits in; without them there is nothing to measure.
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal", "sim"))):
        print("studybench: simulator sources not found in %s" % ROOT, file=sys.stderr)
        return 2

    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": tmp,
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "studybench")
    try:
        # Build output goes to stderr: the last stdout line is the result.
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr)
    except OSError as err:
        print("studybench: cannot run go: %s" % err, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("studybench: build failed", file=sys.stderr)
        return built.returncode

    cmd = [binary, "--dir", build] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
