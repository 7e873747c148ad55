#!/usr/bin/env python3
"""Build and run the live-daemon metadata benchmark (see README.md).

    python3 livebench/run.py --workload wide_dir --seed 1 --seconds 36 --trace 0

Run from the repository root.  Builds the daemons and the livebench binary
from the source tree into $CARGO_TARGET_DIR/livebench (default
.bench_build), then runs the binary in its own process group under
.bench_work/.  Every process
of that group is killed on exit, on a failed check and on SIGINT/SIGTERM,
and the run's store directory is deleted afterwards.  The last line of
stdout is the binary's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide_dir", "batch_ingest", "namespace")
TARGETS = ("livebench", "locofs_dmsd", "locofs_fmsd", "locofs_osd")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("livebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build the binary and the three daemons."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            + generator,
            check=True, stdout=subprocess.DEVNULL)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"] + list(TARGETS),
                   check=True, stdout=subprocess.DEVNULL)


def holders(path):
    """Pids of locofs_* processes whose command line names `path`."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if argv and os.path.basename(argv[0]).startswith(b"locofs_") and any(
                path.encode() in a for a in argv):
            found.append(int(pid))
    return found


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dms.h")):
        fail("no LocoFS source tree next to %s; run from a full checkout" % HERE)
    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(build_root, "livebench"))
    work = os.path.abspath(".bench_work")
    store = os.path.join(work, "store")

    busy = holders(store)
    if busy:
        fail("locofs daemons from an earlier run still hold %s (pids %s); "
             "stop them first" % (store, " ".join(map(str, busy))))
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(work, exist_ok=True)

    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(build_dir, "livebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "daemons"), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)

    def reap():
        # The binary kills and reaps its daemons on SIGTERM; the group kill
        # catches anything left behind.
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(store, ignore_errors=True)

    def on_signal(signum, _frame):
        reap()
        sys.exit(128 + signum)

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        reap()
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("livebench exited with %d" % proc.returncode)
    lines = out.decode(errors="replace").strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("livebench printed no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
