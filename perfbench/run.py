#!/usr/bin/env python3
"""Benchmark of the `actable` program: two commit-service traffic mixes and
one model-checker sweep, driven through the command line.

    python3 perfbench/run.py --workload svc_skewed --seed 1 --seconds 10 --trace 0

Builds `bin/actable.exe` with dune, derives every program input from --seed,
measures for --seconds, checks each output, and prints one JSON object as the
last line of stdout.  --trace 0 reports the end-to-end metrics; --trace 1
reruns the same rounds under an outside sampler (perfbench/sampler.py) and
reports per-layer metrics instead.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import sampler  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "bin" / "actable.exe"
CALIB = ROOT / "_build" / "default" / "perfbench" / "calib" / "calib.exe"
CALIB_ARGS, CALIB_CHECKSUM = ["30"], "120688"
# Wall-clock readings are scaled to a host on which the reference work of
# perfbench/calib takes exactly REF_S seconds (see Run.speed).
REF_S = 0.05
SETUP_REPEATS = 11
MIN_ROUNDS = 3

# One service deployment for both mixes: INBAC over 5 shards tolerating 2
# crashes, CLIENTS closed-loop clients, default batching and pipelining,
# jittered network.  A round is one process serving TXNS transactions.
SERVICE = ["txserve", "--protocol", "inbac", "-n", "5", "-f", "2", "--require-drained"]
CLIENTS = 256
TXNS = 5000

# The mixes differ only in key popularity: uniform keys over a wide keyspace
# never find a key write-locked, so the admission wait queues are bypassed;
# Zipf 0.8 over the default keyspace makes most transactions wait on a holder.
MIXES = {
    "svc_uniform": ["--keys", "65536", "--zipf-s", "0"],
    "svc_skewed": ["--keys", "2048", "--zipf-s", "0.8"],
}

# The checker sweep: bounded spaces, each with the verdict its protocol's
# claimed cell implies, and the vote assignments the seed picks from (ranks
# voting 0).  Alternatives within one space are permutation-equivalent or
# nearly so, so every seed asks for about the same work.
SPACES = [
    (["inbac", "4", "crash"], "none", [[]]),
    (["inbac", "4", "crash"], "none", [[1], [2]]),
    (["paxos-commit", "4", "crash"], "none", [[1], [2]]),
    (["faster-paxos-commit", "4", "crash"], "none", [[1], [2]]),
    (["3pc", "3", "network"], "agreement", [[]]),
]
# set-up launches the checker on its smallest space
SETUP_SPACE = (["2pc", "3", "nice"], "none", [[]])
WORKLOADS = list(MIXES) + ["mc_sweep"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "bin").is_dir():
        die(f"no program source under {ROOT} (dune-project and bin/ expected)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "bin/actable.exe",
                            "perfbench/calib/calib.exe"],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"dune build failed: {e}")
    if r.returncode != 0 or not EXE.is_file() or not CALIB.is_file():
        sys.stderr.write(r.stdout + r.stderr)
        die("dune build failed")


def program_env():
    # v=0x400: the OCaml runtime prints its GC counters to stderr at exit
    return dict(os.environ, OCAMLRUNPARAM="v=0x400")


def gc_counters(stderr):
    counters = {k: float(v) for k, v in re.findall(r"^(\w+): ([\d.]+)$", stderr, re.M)}
    if "minor_words" not in counters:
        raise RuntimeError("the OCaml runtime printed no GC counters (OCAMLRUNPARAM=v=0x400)")
    return counters


# ---------------------------------------------------------------- service

SVC_TOTALS = re.compile(
    r"(\d+) txns -> (\d+) committed, (\d+) aborted \((\d+) local\), (\d+) unresolved")


def svc_command(mix, seed, txns, clients=CLIENTS):
    return ([str(EXE)] + SERVICE + MIXES[mix]
            + ["--clients", str(clients), "--txns", str(txns), "--seed", str(seed)])


def check_svc(job, txns):
    """Parsed counters of a txserve run, or None when its output is wrong."""
    m = SVC_TOTALS.search(job.stdout)
    if job.returncode != 0 or not m:
        return None
    issued, committed, aborted, _, unresolved = map(int, m.groups())
    staged = re.search(r"(\d+) staged left", job.stdout)
    goodput = re.search(r"goodput ([\d.]+)", job.stdout)
    if (issued != txns or committed + aborted != issued or unresolved != 0
            or committed == 0 or not staged or int(staged.group(1)) != 0
            or not goodput or abs(float(goodput.group(1)) - committed / issued) > 6e-4):
        return None

    def num(pattern, default=0.0):
        found = re.search(pattern, job.stdout)
        return float(found.group(1)) if found else default

    lat = re.search(r"latency p50/p95/p99 ([\d.]+)/([\d.]+)/([\d.]+)", job.stdout)
    return {
        "issued": issued, "committed": committed,
        "waited": num(r"(\d+) waited"), "msgs": num(r"(\d+) msgs"),
        "mean_batch": num(r"mean batch ([\d.]+)"),
        "queue_p95": num(r"queue depth p50/p95/p99 [\d.]+/([\d.]+)/"),
        "lat_p50": float(lat.group(1)) if lat else 0.0,
        "lat_p99": float(lat.group(3)) if lat else 0.0,
    }


# ---------------------------------------------------------------- checker

def mc_command(space, votes):
    (protocol, n, klass, *bounds), expect, _ = space
    cmd = [str(EXE), "mc", "--protocol", protocol, "-n", n, "-f", "1",
           "--class", klass, "--jobs", "1", "--no-naive", "--expect", expect] + bounds
    for rank in votes:
        cmd += ["--vote0", str(rank)]
    return cmd


def check_mc(job, expect):
    head = job.stdout.split("\n", 1)[0]
    verdict = "ok (exhausted)" if expect == "none" else f"VIOLATION: {expect} (replay-verified)"
    m = re.search(r"states (\d+), transitions (\d+)", job.stdout)
    if job.returncode != 0 or not head.endswith(verdict) or not m:
        return None
    return {"states": int(m.group(1)), "transitions": int(m.group(2))}


# ---------------------------------------------------------------- rounds

@dataclass
class Record:
    """One measured job."""
    kind: int  # index of the checker space; 0 for a service job
    job: sampler.Job
    counters: dict  # parsed program output; None when it was wrong
    gc: dict  # the runtime's GC counters
    items: int  # committed transactions, or 1 checked space
    scale: float  # calibration factor for the job's wall time


class Run:
    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.kind = "mc" if workload == "mc_sweep" else "svc"
        self.rng = random.Random(seed)
        self.trace = trace
        self.env = program_env()
        self.layers = sampler.Layers(str(EXE), ROOT) if trace else None
        self.attempted = 0
        self.failed = 0
        self.records = []
        self.samples = {}
        self.last_speed = None  # reference seconds measured after the last job

    def job(self, cmd, measured):
        """Run one program job; return it with its calibration factor.  A
        measured, untraced job is followed by a calibration, and its factor
        is REF_S over the mean of the calibrations on either side, so a host
        slowing down under it moves the reference and the program alike."""
        job = sampler.run(cmd, self.env, sample=self.trace and measured)
        scale = 1.0
        if measured and not self.trace:
            after = self.speed()
            scale = 2 * REF_S / (self.last_speed + after)
            self.last_speed = after
        if self.layers:
            self.layers.count(job, self.samples)
        return job, scale

    def round(self, measured):
        """One round: a txserve run, or one pass over the checker sweep.  An
        item is a committed transaction, or one space checked."""
        done = []
        if self.kind == "svc":
            seed = self.rng.randrange(1, 1 << 30)
            job, scale = self.job(svc_command(self.workload, seed, TXNS), measured)
            counters = check_svc(job, TXNS)
            self.attempted += TXNS
            self.failed += TXNS if counters is None else 0
            done.append((0, job, counters, counters["committed"] if counters else 1, scale))
        else:
            for i in self.rng.sample(range(len(SPACES)), len(SPACES)):
                votes = self.rng.choice(SPACES[i][2])
                job, scale = self.job(mc_command(SPACES[i], votes), measured)
                counters = check_mc(job, SPACES[i][1])
                self.attempted += 1
                self.failed += counters is None
                done.append((i, job, counters, 1, scale))
        if measured:
            self.records += [Record(kind, job, counters, gc_counters(job.stderr), items, scale)
                             for kind, job, counters, items, scale in done]

    def speed(self):
        """Wall seconds the fixed reference work takes on the host right now."""
        job = sampler.run([str(CALIB)] + CALIB_ARGS, self.env)
        if job.returncode != 0 or job.stdout.strip() != CALIB_CHECKSUM:
            raise RuntimeError(f"calibration program failed: {job.stdout!r} {job.stderr!r}")
        return job.wall_s

    def setup_s(self):
        """Median wall time to start the program and get a first result,
        scaled by the host speed measured around the launches."""
        if self.kind == "svc":
            cmd, check = svc_command(self.workload, 1, 1, clients=1), lambda j: check_svc(j, 1)
        else:
            cmd, check = mc_command(SETUP_SPACE, []), lambda j: check_mc(j, "none")
        before = self.speed()
        times = []
        for _ in range(SETUP_REPEATS):
            job = sampler.run(cmd, self.env)
            self.attempted += 1
            self.failed += check(job) is None
            times.append(job.wall_s)
        return statistics.median(times) * 2 * REF_S / (before + self.speed())

    def measure(self, seconds):
        """Set up, warm up, then run rounds for `seconds`."""
        setup = self.setup_s()
        self.round(measured=False)  # warm-up: page cache, CPU frequency
        self.last_speed = self.speed()
        start, rounds = time.perf_counter(), 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            self.round(measured=True)
            rounds += 1
        return setup

    # ------------------------------------------------------------ metrics

    def typical(self, value):
        """Geometric mean over kinds of job (one per checker space; the
        service mixes have one) of the median of `value` over that kind's
        jobs, so no one space outweighs the others."""
        by_kind = {}
        for r in self.records:
            by_kind.setdefault(r.kind, []).append(value(r))
        logs = [math.log(statistics.median(v)) for v in by_kind.values()]
        return math.exp(statistics.mean(logs))

    def end_to_end(self, setup):
        return {
            "work_us": self.typical(lambda r: r.job.wall_s * r.scale * 1e6 / r.items),
            "minor_words_per_item": self.typical(lambda r: r.gc["minor_words"] / r.items),
            "peak_rss_mb": self.typical(lambda r: r.job.rusage.ru_maxrss / 1024.0),
            "setup_s": setup,
        }

    def per_layer(self):
        items = sum(r.items for r in self.records)
        jobs = [r.job for r in self.records]
        checks = [r.counters for r in self.records if r.counters]
        gc = lambda k: sum(r.gc.get(k, 0.0) for r in self.records) / items  # noqa: E731
        total = sum(self.samples.values()) or 1
        cpu = sum(j.rusage.ru_utime + j.rusage.ru_stime for j in jobs) or 1e-9
        m = {f"{name}_self_pct": 100.0 * self.samples.get(name, 0) / total
             for name in sampler.Layers.NAMES}
        m.update({
            "samples": float(sum(self.samples.values())),
            "sys_cpu_pct": 100.0 * sum(j.rusage.ru_stime for j in jobs) / cpu,
            "minor_collections_per_item": gc("minor_collections"),
            "major_collections_per_item": gc("major_collections"),
            "promoted_words_per_item": gc("promoted_words"),
        })
        svc = [c for c in checks if "issued" in c]
        mc = [c for c in checks if "states" in c]
        total_of = lambda cs, k: sum(c[k] for c in cs)  # noqa: E731
        med_of = lambda cs, k: statistics.median(c[k] for c in cs) if cs else 0.0  # noqa: E731
        committed = total_of(svc, "committed") or 1
        issued = total_of(svc, "issued") or 1
        states = total_of(mc, "states")
        m.update({
            "msgs_per_commit": total_of(svc, "msgs") / committed,
            "txns_per_instance": med_of(svc, "mean_batch"),
            "waits_per_txn": total_of(svc, "waited") / issued,
            "goodput": total_of(svc, "committed") / issued,
            "queue_depth_p95": med_of(svc, "queue_p95"),
            "latency_p50_delays": med_of(svc, "lat_p50"),
            "latency_p99_delays": med_of(svc, "lat_p99"),
            "states_per_space": states / len(mc) if mc else 0.0,
            "transitions_per_state": total_of(mc, "transitions") / states if states else 0.0,
        })
        return m


def declared_units(trace):
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    build()
    run = Run(args.workload, args.seed, args.trace)
    try:
        setup = run.measure(args.seconds)
    except (OSError, RuntimeError) as e:  # includes timeouts and refused sampling
        die(f"{args.workload}: {e}")
    values = run.per_layer() if args.trace else run.end_to_end(setup)
    units = declared_units(args.trace)
    if set(units) != set(values):
        die(f"BENCHMARK.json and run.py disagree on metrics: {sorted(set(units) ^ set(values))}")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(run.records)} jobs, "
          f"{run.attempted} attempted, {run.failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
