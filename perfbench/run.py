#!/usr/bin/env python3
"""Build and run the request-level benchmark of the Xylem serving stack.

    python3 perfbench/run.py \\
        --workload cold_sim|cold_serial|hot_solve|fleet_mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the library, xylem_serve, xylem_frontend and the perfbench
binary, Release) into .bench_build/perfbench; later runs only check
that the build is current. Build output goes to stderr, so the last
line on stdout is perfbench's JSON result. See perfbench/README.md.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TARGETS = ["perfbench", "xylem_serve", "xylem_frontend"]


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Hash of the sources the benchmark builds (a checkout that is
    not a git repository still gets a name for what it measured)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".cmake", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
            return head
        except (OSError, subprocess.CalledProcessError):
            pass
    return "none (sources sha256:" + source_digest() + ")"


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs, "--target", *TARGETS]]
    if not (BUILD / "CMakeCache.txt").is_file():
        # Later builds re-run this themselves when a CMake file changes.
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    for needed in (BENCH / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt",
                   ROOT / "tools" / "xylem_serve.cpp"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} is missing; run from the root "
                 "of a Xylem checkout")
    build()
    binary = BUILD / "perfbench"
    args = [str(binary), *sys.argv[1:], "--bin-dir", str(BUILD),
            "--out-dir", str(ROOT / ".bench_build"), "--commit", commit()]
    sys.stdout.flush()
    os.execv(str(binary), args)  # signals reach perfbench directly


if __name__ == "__main__":
    main()
