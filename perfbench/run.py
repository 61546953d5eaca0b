#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the toolkit, the online
daemon and the benchmark program from source (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; a no-op when
up to date), runs the benchmark's self-tests, then one workload. The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}, holding exactly the metrics
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer
with --trace 1); a run that lacks one of them fails. The line before it is
the header (host, ISA paths, build, source identity, seed, sizes, spread
of every repeated figure, and under "details" the workload's own figures
that are not in the list).

Workloads: batch_link, online_query, online_churn (see perfbench/README.md).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch_link", "online_query", "online_churn")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def stop_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the group on timeout, on
    SIGTERM/SIGINT and on any error, and always waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{Path(cmd[0]).name} did not finish within {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            rc, _ = run_checked(
                ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S, stdout=sys.stderr)
            if rc != 0:
                fail("cmake configure failed")
        rc, _ = run_checked(["cmake", "--build", str(build_dir), "-j", jobs],
                            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            fail("build failed")


def source_digest(root):
    """sha256 over the sources the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (root / d).rglob("*")
                   if p.is_file())
    files.append(root / "examples" / "pprl_linkd.cpp")
    for p in files:
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def manifest_units(root, trace):
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    try:
        manifest = json.loads((root / "BENCHMARK.json").read_text())
        metrics = manifest["per_layer" if trace else "end_to_end"]
        return {m["name"]: m["unit"] for m in metrics}
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail(f"cannot read the metric list from BENCHMARK.json: {error}")


def git_sha(root):
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop_on_signal)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    for needed in ("src/CMakeLists.txt", "examples/pprl_linkd.cpp"):
        if not (root / needed).is_file():
            fail(f"{needed} is missing; run from a full source checkout")
    units = manifest_units(root, args.trace)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    build(root, build_dir)

    rc, _ = run_checked([str(build_dir / "perfbench_selftest")], 60, stdout=sys.stderr)
    if rc != 0:
        fail("self-tests failed")

    workdir = root / ".bench_run" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(build_dir / "pprl_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--linkd", str(build_dir / "pprl_linkd"), "--workdir", str(workdir),
           "--git-sha", git_sha(root), "--source-digest", source_digest(root)]
    rc, out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if rc != 0 or len(lines) < 2:
        fail(f"workload {args.workload} failed (exit {rc})")
    try:
        header = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except ValueError:
        fail("the workload printed no header and result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or "header" not in header:
        fail("malformed result line")
    measured = result["metrics"]
    missing = [name for name, unit in units.items()
               if measured.get(name, {}).get("unit") != unit]
    if missing:
        fail(f"workload {args.workload} did not measure {', '.join(missing)}")
    header["header"]["details"] = {name: m for name, m in measured.items()
                                   if name not in units}
    result["metrics"] = {name: measured[name] for name in units}
    for line in lines[:-2]:
        print(line)
    print(json.dumps(header))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
