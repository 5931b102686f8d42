#!/usr/bin/env python3
"""Build and run the qdv end-to-end benchmark.

    python3 perfbench/run.py --workload explore|linked-views|batch \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark program
(perfbench/src) and the qdv library it links are built with CMake in Release
mode into $CARGO_TARGET_DIR, or .bench_build at the checkout root when that
is unset; the build log goes to stderr. Generated datasets live under the
build directory for the length of one run. The program's stdout is passed
through: `# ` lines carry the host/input stamp and the traced-run report,
and the last line is the result object. Exits non-zero when the build
fails, an answer is wrong, a step fails, or the run exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("explore", "linked-views", "batch")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else Path(".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> Path:
    """Configure (once) and build qdv_perfbench; returns the executable."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no qdv sources at {ROOT}")
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "qdv_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=log, stderr=log, check=True)
    return out / "qdv_perfbench"


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's self-tests)")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="perturb one expected answer (self-tests)")
    args = parser.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    data = out / "data"
    data.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", os.path.relpath(data, ROOT), "--git-sha", git_sha()]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
