#!/usr/bin/env python3
"""Validate the shape of a bench --json report (CI bench-smoke step).

Fails (exit 1) when a required key is missing or a measured quantity is
non-positive, so a refactor that silently drops a metric from the JSON
breaks the build instead of the dashboard.

--max-minor-words-per-state N additionally gates on the pooled
minor-allocation rate of both pinned model-checking configurations: a
change that regresses the DFS hot path back to allocation-heavy code
trips the ceiling even when the wall-clock numbers are too noisy to.
"""
import json
import sys

path = "BENCH_results.json"
max_minor_words = None
args = iter(sys.argv[1:])
for a in args:
    if a == "--max-minor-words-per-state":
        max_minor_words = float(next(args))
    else:
        path = a
with open(path) as fh:
    doc = json.load(fh)

errors = []


def need(cond, what):
    if not cond:
        errors.append(what)


need(doc.get("schema") == "actable-bench/10", "schema actable-bench/10")
need(isinstance(doc.get("pairs"), list) and doc["pairs"], "non-empty pairs")

for section in ("nice_run_seconds", "table_seconds"):
    block = doc.get(section)
    need(isinstance(block, dict) and block, f"non-empty {section}")
    if isinstance(block, dict):
        for k, v in block.items():
            need(isinstance(v, (int, float)) and v > 0, f"{section}.{k} > 0")

mc = doc.get("mc", {})
for k in ("protocol", "class", "n", "f", "jobs"):
    need(k in mc, f"mc.{k}")
backends = mc.get("backends", {})
for b in ("hashed", "marshal"):
    be = backends.get(b, {})
    for k in ("seconds", "states", "schedules", "states_per_sec",
              "schedules_per_sec"):
        need(isinstance(be.get(k), (int, float)) and be[k] > 0,
             f"mc.backends.{b}.{k} > 0")
need(isinstance(mc.get("hashed_vs_marshal_speedup"), (int, float)),
     "mc.hashed_vs_marshal_speedup")
fp = mc.get("fingerprint_ns_per_call", {})
for k in ("hashed", "marshal", "marshal_vs_hashed"):
    need(isinstance(fp.get(k), (int, float)) and fp[k] > 0,
         f"mc.fingerprint_ns_per_call.{k} > 0")

# the two backends must have explored the same space
h, m = backends.get("hashed", {}), backends.get("marshal", {})
need(h.get("states") == m.get("states"), "backends agree on states")
need(h.get("schedules") == m.get("schedules"), "backends agree on schedules")

# frontier-scheduling matrix: six configs plus derived speedups
frontier = mc.get("frontier", {})
FRONTIER_CONFIGS = (
    "per_item_cursor_j1",
    "per_item_cursor_j4",
    "shared_cursor_j1",
    "shared_cursor_j4",
    "swarm_shared_j1",
    "swarm_shared_j4",
)
for cfg in FRONTIER_CONFIGS:
    row = frontier.get(cfg, {})
    for k in ("seconds", "states", "schedules", "states_per_sec"):
        need(isinstance(row.get(k), (int, float)) and row[k] > 0,
             f"mc.frontier.{cfg}.{k} > 0")
for k in ("per_item_speedup_j4", "shared_speedup_j4", "swarm_speedup_j4",
          "swarm_states_per_sec_ratio_j4"):
    need(isinstance(frontier.get(k), (int, float)) and frontier[k] > 0,
         f"mc.frontier.{k} > 0")

# per-item counters are deterministic: the cursor at jobs=4 must report
# exactly what it reports at jobs=1
cursor = frontier.get("per_item_cursor_j1", {})
cursor_j4 = frontier.get("per_item_cursor_j4", {})
need(cursor.get("states") == cursor_j4.get("states"),
     "per-item states identical across jobs 1/4")
need(cursor.get("schedules") == cursor_j4.get("schedules"),
     "per-item schedules identical across jobs 1/4")

# global dedup can only shrink the explored state count (swarm walkers
# re-expand a bounded shallow prefix, but the shared table still keeps
# them inside the per-item envelope)
for cfg in ("shared_cursor_j1", "shared_cursor_j4", "swarm_shared_j1",
            "swarm_shared_j4"):
    shared_states = frontier.get(cfg, {}).get("states")
    if isinstance(shared_states, (int, float)) and \
       isinstance(cursor.get("states"), (int, float)):
        need(shared_states <= cursor["states"],
             f"mc.frontier.{cfg}.states <= per-item states")

# the per-item frontier rows must match the backend rows (same pinned
# config, same deterministic mode)
if isinstance(h.get("states"), (int, float)) and \
   isinstance(cursor.get("states"), (int, float)):
    need(cursor["states"] == h["states"],
         "frontier per-item states match mc.backends.hashed.states")

# gc blocks: one under mc (crash-pinned) and one under mc_network. The
# pooled and unpooled arms must have explored the same space — the
# snapshot pool is exploration-neutral by contract — and the pooled
# minor-allocation rate may be gated by --max-minor-words-per-state.
def check_gc(block, where):
    gc = block.get("gc", {})
    for arm in ("pooled", "unpooled"):
        row = gc.get(arm, {})
        for k in ("seconds", "states"):
            need(isinstance(row.get(k), (int, float)) and row[k] > 0,
                 f"{where}.gc.{arm}.{k} > 0")
        for k in ("minor_words_per_state", "promoted_words_per_state",
                  "major_collections"):
            need(isinstance(row.get(k), (int, float)) and row[k] >= 0,
                 f"{where}.gc.{arm}.{k} >= 0")
    p, u = gc.get("pooled", {}), gc.get("unpooled", {})
    need(p.get("states") == u.get("states"),
         f"{where}.gc arms agree on states (pool is exploration-neutral)")
    for k in ("pool_speedup", "minor_words_ratio"):
        need(isinstance(gc.get(k), (int, float)) and gc[k] > 0,
             f"{where}.gc.{k} > 0")
    if max_minor_words is not None and \
       isinstance(p.get("minor_words_per_state"), (int, float)):
        need(p["minor_words_per_state"] <= max_minor_words,
             f"{where}.gc.pooled.minor_words_per_state <= "
             f"{max_minor_words:g}")


check_gc(mc, "mc")

mcn = doc.get("mc_network", {})
for k in ("protocol", "class", "n", "f", "jobs", "max_states_budget"):
    need(k in mcn, f"mc_network.{k}")
row = mcn.get("hashed", {})
for k in ("seconds", "states", "states_per_sec"):
    need(isinstance(row.get(k), (int, float)) and row[k] > 0,
         f"mc_network.hashed.{k} > 0")
check_gc(mcn, "mc_network")

# symmetry-reduction section (since actable-bench/6): three execution-class
# arms, each a symmetry-off vs symmetry-on pair on the same deterministic
# per-item configuration, plus the isolated canonicalization cost
sym = doc.get("symmetry", {})
for k in ("protocol", "f", "jobs"):
    need(k in sym, f"symmetry.{k}")
sym_arms = sym.get("arms", {})
for arm_name in ("crash", "network", "all", "crash_n5", "network_n5"):
    arm = sym_arms.get(arm_name, {})
    where = f"symmetry.arms.{arm_name}"
    need(isinstance(arm.get("n"), int) and arm.get("n") >= 3, f"{where}.n >= 3")
    for mode in ("off", "on"):
        row = arm.get(mode, {})
        for k in ("seconds", "states", "schedules"):
            need(isinstance(row.get(k), (int, float)) and row[k] > 0,
                 f"{where}.{mode}.{k} > 0")
        need(isinstance(row.get("exhausted"), bool), f"{where}.{mode}.exhausted")
    on = arm.get("on", {})
    for k in ("orbit_hits", "twin_skips", "canon_calls"):
        need(isinstance(on.get(k), (int, float)) and on[k] >= 0,
             f"{where}.on.{k} >= 0")
    need(isinstance(arm.get("reduction"), (int, float))
         and arm["reduction"] >= 1,
         f"{where}.reduction >= 1 (canonicalization never grows the space)")
    off = arm.get("off", {})
    if isinstance(off.get("states"), (int, float)) and \
       isinstance(on.get("states"), (int, float)):
        need(on["states"] <= off["states"],
             f"{where} on.states <= off.states")
    # an arm must not trade exhaustion for the reduction: if the off arm
    # finished the bounded space, the (smaller) on arm must have too
    if off.get("exhausted") is True:
        need(on.get("exhausted") is True,
             f"{where} symmetry-on exhausts whenever symmetry-off does")
need(isinstance(sym.get("best_reduction"), (int, float))
     and sym["best_reduction"] >= 1, "symmetry.best_reduction >= 1")
canon = sym.get("canonicalization_ns_per_call", {})
for k in ("symmetry", "plain", "overhead"):
    need(isinstance(canon.get(k), (int, float)) and canon[k] > 0,
         f"symmetry.canonicalization_ns_per_call.{k} > 0")

# multi-shot commit service: at least three protocol arms, at least one
# crash-injection arm, (since actable-bench/7) at least one re-election
# arm whose never-recovering outage drains through elected stand-in
# coordinators, and (since actable-bench/8) the queued-admission
# differential pair plus a streaming soak arm. Each arm internally
# consistent (transactions fully accounted for, percentiles ordered,
# correctness flags true).
ms = doc.get("multishot", {})
for k in ("n", "f", "clients", "txns", "soak_clients", "soak_txns"):
    need(isinstance(ms.get(k), (int, float)) and ms[k] > 0,
         f"multishot.{k} > 0")
arms = ms.get("arms", {})
need(isinstance(arms, dict) and arms, "non-empty multishot.arms")
protocols = {name for name in arms
             if not name.endswith(("_crash", "_elect", "_queue", "_abort",
                                   "_soak"))}
need(len(protocols) >= 3, ">= 3 multishot protocol arms")
need(any(name.endswith("_crash") for name in arms),
     ">= 1 multishot crash-injection arm")
need(any(name.endswith("_elect") for name in arms),
     ">= 1 multishot re-election arm")
need(any(name.endswith("_soak") for name in arms),
     ">= 1 multishot streaming soak arm")
for name, arm in arms.items():
    where = f"multishot.arms.{name}"
    if not isinstance(arm, dict):
        need(False, f"{where} is an object")
        continue
    for k in ("seconds", "commits_per_sec"):
        need(isinstance(arm.get(k), (int, float)) and arm[k] > 0,
             f"{where}.{k} > 0")
    for k in ("transactions", "committed", "instances", "messages"):
        need(isinstance(arm.get(k), (int, float)) and arm[k] > 0,
             f"{where}.{k} > 0")
    for k in ("aborted", "local_aborts", "parked", "retries", "staged_left",
              "abort_rate", "elections", "stolen", "zipf_s", "queued",
              "minor_words_per_txn"):
        need(isinstance(arm.get(k), (int, float)) and arm[k] >= 0,
             f"{where}.{k} >= 0")
    # the _abort arm runs wait budget 0: every conflict aborts locally
    if name.endswith("_abort"):
        need(arm.get("queued") == 0, f"{where} never queues (wait budget 0)")
    # a transaction counts as queued at most once per issue
    if isinstance(arm.get("queued"), (int, float)) and \
       isinstance(arm.get("transactions"), (int, float)):
        need(arm["queued"] <= arm["transactions"],
             f"{where}.queued <= transactions")
    # goodput is the committed fraction of issued transactions
    if all(isinstance(arm.get(k), (int, float))
           for k in ("goodput", "committed", "transactions")) and \
       arm["transactions"] > 0:
        need(0.0 <= arm["goodput"] <= 1.0, f"{where}.goodput in [0, 1]")
        need(abs(arm["goodput"] - arm["committed"] / arm["transactions"])
             < 1e-3, f"{where}.goodput == committed / transactions")
    need(arm.get("atomicity_ok") is True, f"{where}.atomicity_ok")
    need(arm.get("agreement_ok") is True, f"{where}.agreement_ok")
    need(arm.get("parked") == 0,
         f"{where}.parked == 0 (recovery or election drains)")
    need(arm.get("staged_left") == 0, f"{where}.staged_left == 0")
    if isinstance(arm.get("elections"), (int, float)) and \
       isinstance(arm.get("stolen"), (int, float)):
        need(arm["stolen"] <= arm["elections"],
             f"{where}.stolen <= elections")
    if name.endswith("_elect"):
        need(isinstance(arm.get("elections"), (int, float))
             and arm["elections"] >= 1, f"{where}.elections >= 1")
        need(isinstance(arm.get("stolen"), (int, float))
             and arm["stolen"] >= 1, f"{where}.stolen >= 1")
        need(arm.get("retries") == 0,
             f"{where}.retries == 0 (no recovery under a permanent outage)")
    else:
        need(arm.get("elections") == 0,
             f"{where}.elections == 0 (re-election off outside _elect arms)")
    counted = sum(arm.get(k, -1) for k in
                  ("committed", "aborted", "local_aborts", "parked"))
    need(counted == arm.get("transactions"),
         f"{where} committed+aborted+local_aborts+parked == transactions")
    for block, gate in (("latency_delays", "committed"),
                        ("time_parked_delays", "stolen"),
                        ("queue_depth", "queued")):
        dist = arm.get(block, {})
        for k in ("mean", "p50", "p95", "p99", "max"):
            need(isinstance(dist.get(k), (int, float)) and dist[k] >= 0,
                 f"{where}.{block}.{k} >= 0")
        if isinstance(arm.get(gate), (int, float)) and arm[gate] > 0 \
           and all(isinstance(dist.get(k), (int, float))
                   for k in ("p50", "p95", "p99", "max")):
            need(dist["p50"] <= dist["p95"] <= dist["p99"] <= dist["max"],
                 f"{where} {block} p50 <= p95 <= p99 <= max")

# the admission differential: under the same skewed workload, waiting on
# the lock holder (the default budget) must commit a strictly larger
# fraction than aborting on every conflict (budget 0) — the headline
# claim of the queued-admission work
zq, za = arms.get("2pc_zipf_queue", {}), arms.get("2pc_zipf_abort", {})
need(isinstance(zq, dict) and zq, "multishot.arms.2pc_zipf_queue present")
need(isinstance(za, dict) and za, "multishot.arms.2pc_zipf_abort present")
if isinstance(zq, dict) and isinstance(za, dict):
    if all(isinstance(a.get("goodput"), (int, float)) for a in (zq, za)):
        need(zq["goodput"] > za["goodput"],
             "2pc_zipf_queue goodput > 2pc_zipf_abort goodput")

if errors:
    print(f"{path}: {len(errors)} problem(s)", file=sys.stderr)
    for e in errors:
        print(f"  missing/invalid: {e}", file=sys.stderr)
    sys.exit(1)
print(f"{path}: ok")
