#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload front-door --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source on first use into
.bench_build/ (build cache included), then run with the given arguments;
its output and exit status pass through. A checkout without the program's
sources fails the build and exits non-zero without printing a result.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_tool():
    go = shutil.which("go")
    if go:
        return go
    for cand in ("/usr/local/go/bin/go", "/usr/lib/go/bin/go"):
        if os.path.exists(cand):
            return cand
    sys.exit("perfbench: no Go toolchain on PATH")


def source_digest():
    """Hash of the Go sources and module files the binary is built from."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    digest = source_digest()
    stamp = BINARY + ".sha256"
    built = os.path.exists(BINARY) and os.path.exists(stamp) and open(stamp).read() == digest
    if not built:
        build = subprocess.run([go_tool(), "build", "-o", BINARY, "."], cwd=BENCH, env=env, stdout=sys.stderr)
        if build.returncode != 0:
            sys.exit("perfbench: build failed")
        with open(stamp, "w") as f:
            f.write(digest)
    env["PERFBENCH_SOURCE_SHA256"] = digest
    env.setdefault("PERFBENCH_COMMIT", commit())
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
