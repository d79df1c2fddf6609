#!/usr/bin/env python3
"""Build spcd_bench from this checkout and run one benchmark workload.

Run from anywhere; paths resolve against the repository root:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Builds bench/e2e (a standalone CMake project that adds the repository as a
subdirectory) into $CARGO_TARGET_DIR/e2e (default .bench_build/e2e), then
runs spcd_bench with the given arguments. Build output goes to stderr, so
the last line of stdout is spcd_bench's result. The result's metric names
are checked against BENCHMARK.json. Exits nonzero without a result when
the build fails, e.g. outside a checkout of the repository.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(HERE), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "spcd_bench", "spcdd"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv):
    os.chdir(ROOT)
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_root, "e2e")
    if not build(build_dir):
        return 1
    # Relative paths keep the daemon's Unix socket path short.
    cmd = [os.path.join(build_dir, "spcd_bench"),
           "--trace-dir", os.path.join(out_root, "e2e-trace"),
           "--scratch", os.path.join(out_root, "e2e-scratch")] + argv
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or "--workload" not in argv:
        return proc.returncode
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    missing = expected_metrics(traced) - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(traced)
    if missing or extra:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(missing), sorted(extra)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
