#!/usr/bin/env python3
"""Build and run the JIM benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `jim-serve` (from the repository's workspace) and the benchmark
client (its own workspace under perfbench/) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs the client. The client's last line of standard
output is the result; build output goes to standard error.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/server")):
        sys.stderr.write("perfbench: run from the root of a JIM checkout "
                         "(no Cargo.toml or crates/server here)\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "jim-server", "--bin", "jim-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in builds:
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(command))
            return 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "jim-perfbench"),
               "--jim-serve", os.path.join(release, "jim-serve")] + sys.argv[1:]
    # Client and server share one CPU: the client inherits this mask, and
    # the server inherits the client's. In a closed loop one of them is
    # always runnable, so the CPU never idles between a request and its
    # response, and round trips do not pay for waking an idle virtual CPU,
    # whose latency swings with the host's load.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
