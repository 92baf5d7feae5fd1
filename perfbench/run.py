#!/usr/bin/env python3
"""Builds and runs the end-to-end, layer-by-layer benchmark.

Run one workload (from the root of the source tree):

    python3 perfbench/run.py --workload taxi --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (a Release build of the
library sources plus the driver) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. The last line of standard output is the JSON result;
the full record of the run (machine and build labels, every metric,
notes) is written to <build>/records/.

Compare two sets of records, e.g. a parent commit against a change, both
taken on the same machine:

    python3 perfbench/run.py --compare BASE_RECORDS_DIR NEW_RECORDS_DIR

The comparison refuses records whose machine or build labels differ
(exit 3). It exits 1 when an end-to-end median got worse by more than its
bound in BENCHMARK.json, or when an augmentation seed's report hash
differs between the sides.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("taxi", "school_s_serial", "lake_service")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def tree_digest():
    """sha256 over the library sources and the benchmark, path and bytes."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def source_label():
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return "git=%s tree=%s" % (commit, tree_digest())


def build(out):
    """Configures and builds the driver; returns its path or None."""
    nproc = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", os.path.join(out, "build"),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", os.path.join(out, "build"), "-j", nproc],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-8000:])
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(out, "build", "perfbench")


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at %s/src; run from a full "
            "checkout of the repository" % ROOT)
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(out, "work", tag)
    records = os.path.join(out, "records")
    os.makedirs(work, exist_ok=True)
    os.makedirs(records, exist_ok=True)
    command = [
        binary,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=%d" % args.trace,
        "--work-dir=" + work,
        "--source=" + source_label(),
        "--record=" + os.path.join(records, tag + ".json"),
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


# ----------------------------------------------------------------------
# --compare

def load_records(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                records.append(json.load(handle))
    return records


def machine_labels(record):
    return {k: v for k, v in record["labels"].items() if k != "source"}


def compare(base_dir, new_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base, new = load_records(base_dir), load_records(new_dir)
    if not base or not new:
        log("perfbench: no records to compare")
        return 2
    reference = machine_labels(base[0])
    for record in base + new:
        if machine_labels(record) != reference:
            log("perfbench: refusing to compare records with different "
                "labels:\n  %s\n  %s" % (reference, machine_labels(record)))
            return 3
    for side in (base, new):
        sources = {record["labels"]["source"] for record in side}
        if len(sources) != 1:
            log("perfbench: one side mixes sources: %s" % sorted(sources))
            return 3

    # Outputs must not change: the same augmentation seed gives the same
    # report bytes on both sides.
    changed = False
    base_hashes = {}
    for record in base:
        for seed, digest in record.get("report_hashes", {}).items():
            base_hashes[(record["workload"], seed)] = digest
    for record in new:
        for seed, digest in record.get("report_hashes", {}).items():
            expected = base_hashes.get((record["workload"], seed))
            if expected is not None and expected != digest:
                print("OUTPUT CHANGED: %s augmentation seed %s: %s -> %s" %
                      (record["workload"], seed, expected, digest))
                changed = True

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = changed
    print("%-16s %-32s %14s %14s %9s" %
          ("workload", "metric", "base median", "new median", "change"))
    for workload in sorted({r["workload"] for r in base + new}):
        for trace in (0, 1):
            def medians(side):
                values = {}
                for record in side:
                    if record["workload"] == workload and \
                            record["trace"] == trace:
                        for name, metric in record["metrics"].items():
                            values.setdefault(name, []).append(
                                metric["value"])
                return {k: statistics.median(v) for k, v in values.items()}
            b, n = medians(base), medians(new)
            for name in sorted(set(b) & set(n)):
                change = (n[name] - b[name]) / abs(b[name]) if b[name] else 0.0
                verdict = ""
                if trace == 0 and name in bounds:
                    worse = change if bounds[name]["better"] == "lower" \
                        else -change
                    if worse > bounds[name]["bound"]:
                        verdict = "REGRESSED (bound %.2f)" % \
                            bounds[name]["bound"]
                        regressed = True
                print("%-16s %-32s %14.6g %14.6g %+8.1f%% %s" %
                      (workload, name, b[name], n[name], 100 * change,
                       verdict))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2,
                        metavar=("BASE_DIR", "NEW_DIR"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seed < 0 or \
            args.seconds is None or args.seconds <= 0:
        parser.error("--workload, a non-negative --seed and a positive "
                     "--seconds are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
