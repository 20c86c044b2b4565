#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

    python3 perfbench/run.py --workload elect-10k --seed 1 --seconds 10 --trace 0

Run from the repository root.  The driver and the libraries it links are
compiled from ../src into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds, later runs only check that
the build is current.  Every line the driver prints is passed through;
the last stdout line is the result object {correct, attempted, failed,
metrics}.  A host line with the hardware thread count, compiler, build
type and source revision comes just before it.

Exits 0 when the run's outputs passed every check, non-zero otherwise
(including when the sources are missing and nothing can be built).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("elect-10k", "elect-batch32-2shard-10k", "place-consolidate-48")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "Release"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; nothing to benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another (moved or copied) checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def source_revision():
    """The git commit when run inside a clone, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) + list(HERE.rglob("*"))):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", default="",
                        help="layer-sensitivity probe (see perfbench/README.md)")
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.perturb:
        command += ["--perturb", args.perturb]
    try:
        run = subprocess.run(command, cwd=work_dir, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver's last line is not a result (exit {run.returncode}): {lines[-1]}")

    host = {}
    for line in lines[:-1]:
        if line.startswith("host: "):
            host = json.loads(line[len("host: "):])
        else:
            print(line)
    host["git_sha"] = source_revision()
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    if run.returncode != 0 or result.get("correct") is not True:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
