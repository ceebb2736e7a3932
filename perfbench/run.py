#!/usr/bin/env python3
"""FaultLab campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the library from src/ plus bench.cc) into .bench_build
at the repository root, then runs repetitions of the workload, each a
fresh faultlab_bench process, for about --seconds, and reports the median
of each metric over all repetitions. --trace 0 reports the end-to-end
metrics named in BENCHMARK.json; --trace 1 reports the per-layer ones, from
traced repetitions alternating with untraced ones so the tracing overhead
shows.

The repetitions run in a pool with one slot per copy: as many copies as the
workload's scheduler workers fit on the CPUs this process may use, since on
a shared machine each CPU's speed drifts on its own and a one-worker process
measures only the CPU it lands on. A slot starts its next repetition as soon
as the last one ends, while one more fits in the budget. In an untraced run
the i-th repetition draws its trials from its own campaign seed (see
campaign_seed), so a run's medians average over many trial draws; the
inputs depend on --seed alone.

Every repetition checks its own results (see bench.cc). A traced run
alternates untraced and traced repetitions, all at --seed, so its counts
repeat exactly and every results CSV must equal the first one.
The last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics. perfbench/README.md documents the workloads and
metrics.

    --smoke              two trials per cell, two repetitions per slot
                         (self-test)
    --reference <csv>    compare against this file instead of the recorded
                         reference (the reference is used at the default
                         seed only)
    --record-reference   write the reference for the workload (and --smoke
                         size) from the current code, at the default seed
"""
import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "faultlab_bench"
DEFAULT_SEED = 0xDA7A5EED
SMOKE_TRIALS = 2
# A repetition has to finish well inside the 180 s a whole run may take.
REPETITION_TIMEOUT_S = 150
_rep_ids = itertools.count()


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"FaultLab sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "faultlab_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def source_digest():
    """Hash of the benchmarked sources, since a checkout may carry no git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def reference_path(workload, smoke):
    return HERE / "reference" / f"{workload}{'.smoke' if smoke else ''}.csv"


def campaign_seed(seed, i):
    """Seed of the i-th repetition: --seed itself first, then steps of the
    64-bit golden ratio, so runs at nearby --seed values share no draws."""
    return (seed + i * 0x9E3779B97F4A7C15) % 2**64


def pool_slots(workload):
    """Pool slots: the CPUs this process may use, divided by the scheduler
    workers bench.cc gives the workload."""
    done = subprocess.run([str(BINARY), "--workload", workload, "--describe"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"faultlab_bench --describe failed: {done.stderr.strip()}")
    workers = json.loads(done.stdout)["workers"]
    return max(1, len(os.sched_getaffinity(0)) // workers)


class Repetition:
    """One faultlab_bench process and its scratch directory."""

    def __init__(self, args, seed, trace, replay, reference):
        self.seed, self.trace = seed, trace
        self.out = BUILD / "runs" / f"{args.workload}-{os.getpid()}-{next(_rep_ids)}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
               "--out", str(self.out)]
        if trace:
            cmd.append("--trace")
        if not replay:
            cmd.append("--no-replay")
        if args.smoke:
            cmd += ["--trials-per-cell", str(SMOKE_TRIALS)]
        if reference and seed == DEFAULT_SEED:
            cmd += ["--reference", str(reference)]
        self.deadline = time.monotonic() + REPETITION_TIMEOUT_S
        with open(self.out / "stdout", "w") as so, open(self.out / "stderr", "w") as se:
            self.proc = subprocess.Popen(cmd, stdout=so, stderr=se)

    def finish(self):
        """Waits for the process; returns (parsed result line, results CSV
        or None) and removes the scratch directory."""
        try:
            code = self.proc.wait(timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"a repetition exceeded {REPETITION_TIMEOUT_S} s")
        if code != 0:
            sys.stderr.write((self.out / "stderr").read_text())
            fail(f"faultlab_bench exited with {code}")
        rep = json.loads((self.out / "stdout").read_text().strip().splitlines()[-1])
        csv_path = self.out / "results.csv"
        csv = csv_path.read_text() if csv_path.is_file() else None
        shutil.rmtree(self.out, ignore_errors=True)
        return rep, csv

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        shutil.rmtree(self.out, ignore_errors=True)


def run_pool(args, copies, reference):
    """Runs repetitions in `copies` slots until the budget is spent; returns
    a list of (Repetition, parsed result line, results CSV) in finishing
    order. Only the first `copies` repetitions replay trials without
    checkpoints. A slot starts another repetition only while one more,
    estimated at 1.15 x the slowest wall_s so far, fits in --seconds."""
    running, done = [], []
    longest = 0.0
    started = time.monotonic()
    try:
        for i in itertools.count():
            while len(running) == copies:
                if any(time.monotonic() > r.deadline for r in running):
                    fail(f"a repetition exceeded {REPETITION_TIMEOUT_S} s")
                for rep in [r for r in running if r.proc.poll() is not None]:
                    done.append((rep, *rep.finish()))
                    running.remove(rep)
                    longest = max(longest, done[-1][1]["metrics"]["wall_s"])
                time.sleep(0.02)
            if args.smoke:
                if i == 2 * copies:
                    break
            elif i >= copies and (
                    time.monotonic() - started + 1.15 * longest > args.seconds):
                break
            trace = bool(args.trace) and i % 2 == 1
            seed = args.seed if args.trace else campaign_seed(args.seed, i)
            running.append(Repetition(args, seed, trace, i < copies, reference))
        while running:
            done.append((running[0], *running[0].finish()))
            running.pop(0)
        return done
    finally:
        for rep in running:
            rep.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()

    if args.record_reference:
        args.seed = DEFAULT_SEED
        _, csv = Repetition(args, DEFAULT_SEED, False, False, None).finish()
        path = reference_path(args.workload, args.smoke)
        path.parent.mkdir(exist_ok=True)
        path.write_text(csv)
        print(f"reference written to {path.relative_to(ROOT)}")
        return

    reference = args.reference
    if reference is None:
        reference = reference_path(args.workload, args.smoke)
        if not reference.is_file():
            fail(f"missing reference {reference}")

    copies = pool_slots(args.workload)
    reps = {False: [], True: []}
    first_csv = None
    attempted = failed = 0
    for rep, line, csv in run_pool(args, copies, reference):
        reps[rep.trace].append(line)
        attempted += line["attempted"]
        failed += line["failed"]
        for failure in line["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
        if not args.trace:
            continue
        if first_csv is None:
            first_csv = csv
            continue
        attempted += 1
        if csv != first_csv:
            failed += 1
            print("check failed: results differ between repetitions",
                  file=sys.stderr)

    config = dict(reps[False][0]["config"])
    config.update(seed=args.seed, commit=git_commit(),
                  source_digest=source_digest(),
                  repetitions=len(reps[False]), copies=copies,
                  traced=bool(args.trace))
    print("config: " + json.dumps(config))

    def median(trace, name):
        return statistics.median(r["metrics"][name] for r in reps[trace])

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "trace.wall_s":
            value = median(True, "wall_s")
        elif name == "trace.untraced_wall_s":
            value = median(False, "wall_s")
        elif name == "trace.overhead_ratio":
            value = median(True, "wall_s") / median(False, "wall_s")
        else:
            value = median(bool(args.trace), name)
        metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"{name:34s} {value:>14.6g} {m['unit']}")
    error_rate = failed / attempted
    print(f"{'error_rate':34s} {error_rate:>14.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
