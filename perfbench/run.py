#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

The Go package in perfbench/ is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), with the Go build
cache and the go command's config directory inside it as well, so the
benchmark writes nothing outside the checkout. The last line of
standard output is the result JSON printed by the benchmark itself; the
exit code is its exit code. With --workload all, every workload of
BENCHMARK.json runs in turn and the exit code is nonzero if any failed.
"""

import json
import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: run from the repository root: go.mod and internal/ are missing",
              file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        CARGO_TARGET_DIR=build,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        # The go command keeps its env file and telemetry counters under
        # the user config directory; keep those in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    # --workload all runs every workload of BENCHMARK.json in turn, each
    # in its own process so that each reports its own peak memory.
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [args[:at] + [name] + args[at + 1:] for name in names]

    child = None
    stopped = []

    def forward(signum, _frame):
        stopped.append(signum)
        if child is not None:
            child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = 0
    for run_args in runs:
        if stopped:
            return 1
        child = subprocess.Popen([exe] + run_args, env=env)
        code = child.wait() or code
    return code


if __name__ == "__main__":
    sys.exit(main())
