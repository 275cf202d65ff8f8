#!/usr/bin/env python3
"""Build and run the tsens benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a dune project of its own, perfbench/bench. This script
copies it and the checkout's lib/ into one build tree under .bench_out/
(rewriting only files whose content changed, so dune rebuilds only what
changed), builds bench.exe there in the release profile with dune's
shared cache off, and runs it with the same arguments from the checkout
root. The last line of stdout is the result object; the exit code is the
benchmark's. Without the library's sources next to perfbench/, it exits
with code 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE = os.path.join(ROOT, ".bench_out", "build")
EXE = os.path.join(TREE, "_build", "default", "bench.exe")


def sync(src, dst, skip=()):
    """Make dst a copy of src, leaving files with equal content alone."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for name in sorted(os.listdir(src)):
        if name in skip or name.startswith((".", "_")):
            continue
        wanted.add(name)
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            sync(s, d)
            continue
        with open(s, "rb") as f:
            data = f.read()
        if os.path.isfile(d):
            with open(d, "rb") as f:
                if f.read() == data:
                    continue
        with open(d, "wb") as f:
            f.write(data)
    for name in os.listdir(dst):
        if name not in wanted and name not in skip and not name.startswith("_"):
            path = os.path.join(dst, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def main():
    for needed in ("lib", os.path.join("perfbench", "bench")):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed}/ not found: run from a tsens source checkout",
                  file=sys.stderr)
            return 2
    sync(os.path.join(ROOT, "perfbench", "bench"), TREE, skip=("lib",))
    sync(os.path.join(ROOT, "lib"), os.path.join(TREE, "lib"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", TREE, "--profile", "release",
         "--display", "quiet", "./bench.exe"],
        cwd=TREE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
