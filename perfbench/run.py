#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/pb.exe with dune and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see WORKLOADS.md): sim-sweep, grid-cold, grid-warm, serve-mix.
With --trace 0 the last stdout line reports every end-to-end metric of
BENCHMARK.json; with --trace 1, every per-layer metric (a layer the
workload does not touch reports 0). Human-readable lines, the seed and
the failure share come first. Every output is checked against an
independent reference; a failed check makes "correct" false.

All files are written inside the checkout: dune's _build/, a per-run
scratch directory under perfbench/_work/ (removed on exit), traced runs'
Chrome trace under perfbench/_out/, and the populated store grid-warm
reads under perfbench/_cache/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = os.path.basename(HERE)
EXE = os.path.join(ROOT, "_build", "default", NAME, "pb.exe")
REFS = os.path.join(HERE, "reference_digests.tsv")
GOLDEN = os.path.join(ROOT, "test", "golden_experiments.txt")
WORKLOADS = ("sim-sweep", "grid-cold", "grid-warm", "serve-mix")
BUILD_TIMEOUT_S = 870
RUN_BUDGET_S = 170  # measured part of one run, after the build
# End-to-end figures every untraced run prints but BENCHMARK.json does not
# gate: on this 2-vCPU class of host they vary more between runs than a
# 25% bound allows (see WORKLOADS.md).
REPORTED = ("p50_ms", "p99_ms", "peak_rss_mb")
ROTATE_S = 1.0  # sim-sweep CPU rotation period (see Runner.run)
SETUP_REPS = 5  # grid set-ups timed per run (median reported)


class Failure(Exception):
    """A run that cannot produce a result (build error, crash, timeout)."""


def build():
    if not (os.path.isdir(os.path.join(ROOT, "lib")) and os.path.isfile(os.path.join(ROOT, "dune-project"))):
        raise Failure("no OCaml sources next to %s: run from a full checkout" % NAME)
    dune = shutil.which("dune")
    if dune is None:
        raise Failure("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            [dune, "build", "--root", ROOT, "./%s/pb.exe" % NAME],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise Failure("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        raise Failure("build failed")


class Runner:
    """Runs pb.exe children against one deadline, each waited for."""

    def __init__(self, deadline):
        self.deadline = deadline

    def run(self, args, rotate_cpus=False):
        """Run pb.exe with args; return (last stdout line as JSON, wall seconds).

        With rotate_cpus, the child (a single-threaded measurement) is moved
        to the next CPU every ROTATE_S seconds, so that one run samples the
        contention on every CPU instead of whichever one the scheduler
        happened to leave it on."""
        if self.deadline - time.monotonic() <= 0:
            raise Failure("out of time before %s" % args[0])
        cpus = sorted(os.sched_getaffinity(0)) if rotate_cpus else []
        t0 = time.perf_counter()
        p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE)
        turn = 0
        while True:
            if len(cpus) > 1:
                try:
                    os.sched_setaffinity(p.pid, {cpus[turn % len(cpus)]})
                except OSError:
                    pass  # the child has just exited
                turn += 1
            remaining = self.deadline - time.monotonic()
            try:
                out, _ = p.communicate(timeout=min(remaining, ROTATE_S) if cpus else remaining)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() < self.deadline:
                    continue
                p.kill()
                p.wait()
                raise Failure("pb.exe %s timed out" % args[0])
        wall = time.perf_counter() - t0
        lines = out.decode(errors="replace").strip().splitlines()
        if p.returncode != 0 or not lines:
            raise Failure("pb.exe %s exited with %d" % (args[0], p.returncode))
        return json.loads(lines[-1]), wall

    def store_probe(self, store):
        """Open the store in a fresh process: (wall seconds, entry count)."""
        remaining = self.deadline - time.monotonic()
        t0 = time.perf_counter()
        p = subprocess.run([EXE, "store-probe", "--store", store], cwd=ROOT,
                           stdout=subprocess.PIPE, timeout=max(remaining, 1))
        wall = time.perf_counter() - t0
        if p.returncode != 0:
            raise Failure("store probe failed")
        return wall, int(p.stdout.decode().split()[-1])


def values(res):
    return {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}


def in_process(kind, runner, args, work, trace_out):
    """sim-sweep and serve-mix: one pb.exe process does set-up and measurement."""
    cmd = [kind, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--refs", REFS, "--work", work, "--trace-out", trace_out]
    res, _ = runner.run(cmd, rotate_cpus=(kind == "sweep"))
    return res["correct"], res["attempted"], res["failed"], values(res), res["problems"], res["details"]


def warm_cache(runner, grid_run):
    """A store populated by a verified cold grid run of this build, kept
    under perfbench/_cache/ and keyed by the pb.exe digest: the first
    grid-warm run of a checkout populates it (about one grid-cold run),
    later ones reuse it. Warm runs only read it (no simulation, so no
    entry or cost is written), and a stale or wrong store cannot pass
    unnoticed: the warm run checks that it executes zero jobs."""
    with open(EXE, "rb") as f:
        build_id = hashlib.md5(f.read()).hexdigest()[:16]
    cache = os.path.join(HERE, "_cache", "warm-" + build_id)
    if not os.path.isdir(cache):
        tmp = "%s.tmp-%d" % (cache, os.getpid())
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        res, wall = grid_run(tmp, "cold", False)
        if not res["correct"]:
            shutil.rmtree(tmp, ignore_errors=True)
            raise Failure("populating the warm store failed its checks")
        os.rename(tmp, cache)
        for old in os.listdir(os.path.dirname(cache)):  # other builds' stores
            if os.path.join(os.path.dirname(cache), old) != cache:
                shutil.rmtree(os.path.join(os.path.dirname(cache), old), ignore_errors=True)
        sys.stderr.write("grid-warm: populated %s in %.1f s\n" % (os.path.relpath(cache, ROOT), wall))
    return cache


def grid(expect, runner, args, work, trace_out):
    """grid-cold / grid-warm: each grid run is a fresh pb.exe process."""
    problems = []
    count = [0]

    def grid_run(store, state, traced):
        count[0] += 1
        sub = os.path.join(work, "run%d" % count[0])
        os.makedirs(sub)
        res, wall = runner.run(["grid", "--store", store, "--expect", state, "--golden", GOLDEN,
                                "--work", sub, "--trace", "1" if traced else "0",
                                "--trace-out", trace_out])
        problems.extend(res["problems"])
        if not res["correct"]:
            problems.append("%s grid run (trace %d) failed its checks" % (state, traced))
        return res, wall

    # Set-up, repeated and timed: a store directory in the state the
    # workload needs (a fresh empty one, or the populated store, which warm
    # runs only read), opened by a fresh process that counts its entries.
    cache = warm_cache(runner, grid_run) if expect == "warm" else None
    stores, setups = [], []
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        store = cache or os.path.join(work, "store%d" % k)
        if not cache:
            os.makedirs(store)
        _, entries = runner.store_probe(store)
        setups.append(time.perf_counter() - t0)
        if (entries == 0) != (cache is None):
            problems.append("set-up store %d has %d entries" % (k, entries))
        stores.append(store)
    setup_s = statistics.median(setups)

    if args.trace:
        _, wall = grid_run(stores[0], expect, False)
        tres, twall = grid_run(stores[1], expect, True)
        metrics = values(tres)
        metrics["trace.overhead_s"] = (twall - wall, "s")
        return not problems, tres["attempted"], tres["failed"], metrics, problems, tres["details"]

    # Grid runs, each in a fresh process against its own set-up store,
    # until the measuring time is used, stopping at the run boundary
    # nearest to it (one cold grid takes longer than that on its own).
    runs, t_start = [], time.monotonic()
    while not runs or (expect == "warm" and time.monotonic() - t_start + runs[-1][1] / 2 < args.seconds):
        runs.append(grid_run(stores[len(runs) % SETUP_REPS], expect, False))
    wall = statistics.mean(w for _, w in runs)
    m = values(runs[0][0])
    jobs = m["jobs"][0]
    lat_runs = [values(r) for r, _ in runs]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "rps": (jobs / wall, "1/s"),
        "scalar_mops_per_s": (m["scalar_instructions"][0] / wall / 1e6, "Mop/s"),
        "vector_mops_per_s": (m["vector_instructions"][0] / wall / 1e6, "Mop/s"),
        "p50_ms": (statistics.median(v["p50_ms"][0] for v in lat_runs), "ms"),
        "p99_ms": (statistics.median(v["p99_ms"][0] for v in lat_runs), "ms"),
        "peak_rss_mb": (max(v["peak_rss_mb"][0] for v in lat_runs), "MB"),
    }
    d = runs[0][0]["details"]
    sys.stderr.write("grid-%s: %d grid runs of %d jobs, %d executed, %d store hits\n" % (
        expect, len(runs), jobs, d["executed"], d["store_hits"]))
    return (not problems, sum(r["attempted"] for r, _ in runs), sum(r["failed"] for r, _ in runs),
            metrics, problems, d)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
    except (Failure, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2

    work = os.path.join(HERE, "_work", "%s-%d" % (args.workload, os.getpid()))
    out_dir = os.path.join(HERE, "_out")
    trace_out = os.path.join(out_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    try:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        os.makedirs(out_dir, exist_ok=True)
        if args.workload in ("sim-sweep", "serve-mix"):
            kind = "sweep" if args.workload == "sim-sweep" else "serve"
            correct, attempted, failed, metrics, problems, details = in_process(
                kind, runner, args, work, trace_out)
        else:
            correct, attempted, failed, metrics, problems, details = grid(
                args.workload[len("grid-"):], runner, args, work, trace_out)
    except (Failure, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: %s: %s\n" % (args.workload, e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {w["name"] for w in wanted}
    reported = {k: metrics.pop(k) for k in REPORTED if k in metrics}
    extra = sorted(set(metrics) - names - {"jobs", "scalar_instructions", "vector_instructions"})
    if extra:
        sys.stderr.write("perfbench: metrics missing from BENCHMARK.json: %s\n" % ", ".join(extra))
        return 1
    out = {}
    for w in wanted:
        if w["name"] in metrics:
            value, unit = metrics[w["name"]]
            if unit != w["unit"]:
                sys.stderr.write("perfbench: %s reported in %s, declared %s\n" % (w["name"], unit, w["unit"]))
                return 1
        elif args.trace:
            value = 0  # a layer this workload does not exercise
        else:
            sys.stderr.write("perfbench: %s did not report %s\n" % (args.workload, w["name"]))
            return 1
        out[w["name"]] = {"value": value, "unit": w["unit"]}

    print("workload %s  seed %d  seconds %d  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    for name, m in out.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, (value, unit) in reported.items() if not args.trace else ():
        samples = ""
        if name in ("p50_ms", "p99_ms"):
            samples = ", %d samples, %d beyond p99" % (details["latency_samples"], details["beyond_p99"])
        print("  %-32s %14.6g %s (reported, not gated%s)" % (name, value, unit, samples))
    print("  %-32s %14.6g (%d failed of %d attempted; reported, not gated)" % (
        "fail_share", failed / max(attempted, 1), failed, attempted))
    for p in problems:
        print("  check failed: %s" % p)
    if args.trace:
        print("  trace: %s" % os.path.relpath(trace_out, ROOT))
    print(json.dumps({"correct": bool(correct and not problems), "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
