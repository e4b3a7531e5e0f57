#!/usr/bin/env python3
"""Builds quipper-served and the layered benchmark from source, then runs it.

Run from the repository root:

    python3 layerbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

`--workload all` runs serve-small, serve-compile, serve-sv20 and generate
in turn. Both builds go to $CARGO_TARGET_DIR (default `.bench_build`).
Build output goes to stderr; each workload prints its report and, as its
last line of stdout, one JSON result object. Exits non-zero without a
result when the sources are missing or a build fails.
"""

import os
import subprocess
import sys

WORKLOADS = ["serve-small", "serve-compile", "serve-sv20", "generate"]


def cargo_build(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("layerbench: build failed: " + " ".join(cmd))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("layerbench: run from a source checkout of the repository")
    os.chdir(root)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build("--bin", "quipper-served")
    cargo_build("--manifest-path", os.path.join(here, "Cargo.toml"))
    release = os.path.join(target, "release")
    bench = os.path.join(release, "layerbench")
    served = os.path.join(release, "quipper-served")
    args = sys.argv[1:]
    sys.stdout.flush()
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at : at + 1] == ["all"]:
        failed = 0
        for workload in WORKLOADS:
            args[at] = workload
            failed |= subprocess.run([bench, "--served", served, *args]).returncode != 0
        sys.exit(1 if failed else 0)
    os.execv(bench, [bench, "--served", served, *args])


if __name__ == "__main__":
    main()
