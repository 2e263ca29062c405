#!/usr/bin/env python3
"""Build and run the LATCH benchmark.

Run from the repository root:

    python3 latchbench/run.py --workload replay-long --seed 1 --seconds 20 --trace 0
    python3 latchbench/run.py compare base.json head.json

The Go program is built from source into the build directory
($CARGO_TARGET_DIR when set, else .bench_build under the repository root),
with the Go build cache kept there too, so the run reads and writes only
inside the checkout. All arguments are passed to the program; its standard
output ends with one JSON result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(out):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
    })
    return env


def main(argv):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "latchbench")
    # The build writes nothing to stdout: the result line stays the last.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                           env=go_env(out), stdout=sys.stderr)
    if built.returncode != 0:
        print("latchbench: build failed", file=sys.stderr)
        return built.returncode
    args = list(argv)
    if not args or args[0] != "compare":
        args += ["--root", ROOT]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
