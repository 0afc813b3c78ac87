#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/atm_bench.cpp).

    python3 perfbench/run.py --workload bs-reuse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

atm_bench is built (Release) into .bench_build/perfbench under the checkout
root on first use; later runs only re-check the build. Every other argument
goes to atm_bench, whose last stdout line is the result JSON. A failed build
exits non-zero without printing a result.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "atm_bench"


def build() -> None:
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(3, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(BUILD), "--target", "atm_bench", "-j", jobs])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                # A failed configure leaves a cache that would skip it next time.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(1)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list) -> int:
    build()
    if argv == ["--write-manifest"]:
        out = subprocess.run([str(BINARY), "--manifest"], capture_output=True, text=True,
                             check=True)
        manifest = json.loads(out.stdout)
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
        return 0
    return subprocess.run([str(BINARY), *argv, "--git-sha", git_sha()], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
