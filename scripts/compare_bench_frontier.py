#!/usr/bin/env python3
"""Print a one-line frontier comparison between two bench --json reports.

Usage: compare_bench_frontier.py OLD.json NEW.json

Used by CI's bench-trend step to compare the fresh bench run against the
previous commit's archived artifact. The comparison is informational —
absolute timings on shared runners are noisy — so every failure mode
(missing file, unparsable JSON, unknown schema) degrades to a note and
exit 0; only being invoked with the wrong number of arguments is an
error. Old reports with any actable-bench/* schema are accepted: rows
added or renamed by later schemas (the swarm arms of actable-bench/4,
the cursor arms of actable-bench/10) print as n/a when the old report
predates them. The pinned checker row moved from mc.backends.hashed to
mc.pinned in actable-bench/11; both places are read.
"""
import json
import sys

if len(sys.argv) != 3:
    print("usage: compare_bench_frontier.py OLD.json NEW.json",
          file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench-trend: cannot read {path} ({exc}); skipping comparison")
        return None
    schema = doc.get("schema", "")
    if not str(schema).startswith("actable-bench/"):
        print(f"bench-trend: {path} has unknown schema {schema!r}; "
              "skipping comparison")
        return None
    return doc


old, new = load(sys.argv[1]), load(sys.argv[2])
if old is None or new is None:
    sys.exit(0)


def frontier_sps(doc, cfg):
    v = doc.get("mc", {}).get("frontier", {}).get(cfg, {}).get(
        "states_per_sec")
    return v if isinstance(v, (int, float)) and v > 0 else None


parts = []
for cfg, label in (
    ("per_item_cursor_j1", "cursor-j1"),
    ("per_item_cursor_j4", "cursor-j4"),
    ("shared_cursor_j4", "shared-j4"),
    ("swarm_shared_j4", "swarm-j4"),
):
    o, n = frontier_sps(old, cfg), frontier_sps(new, cfg)
    if o is None or n is None:
        parts.append(f"{label} n/a")
    else:
        parts.append(f"{label} {n:.0f}/s ({n / o - 1:+.1%})")

# swarm-vs-sequential wall-clock speedup of the new report (old reports
# predating actable-bench/4 simply print n/a)
swarm_speedup = new.get("mc", {}).get("frontier", {}).get("swarm_speedup_j4")
if isinstance(swarm_speedup, (int, float)) and swarm_speedup > 0:
    parts.append(f"swarm-vs-sequential {swarm_speedup:.2f}x")
else:
    parts.append("swarm-vs-sequential n/a")

def pinned_sps(doc):
    mc = doc.get("mc", {})
    row = mc.get("pinned") or mc.get("backends", {}).get("hashed", {})
    v = row.get("states_per_sec") if isinstance(row, dict) else None
    return v if isinstance(v, (int, float)) and v > 0 else None


pinned_old, pinned_new = pinned_sps(old), pinned_sps(new)
if pinned_old is not None and pinned_new is not None:
    head = f"pinned {pinned_new:.0f}/s ({pinned_new / pinned_old - 1:+.1%})"
else:
    head = "pinned n/a"

print(f"bench-trend vs {sys.argv[1]}: {head}; frontier: " + "; ".join(parts))


# multi-shot commit service throughput (actable-bench/5): per-arm
# commits/sec delta; old reports without the section print n/a
def multishot_cps(doc):
    arms = doc.get("multishot", {}).get("arms", {})
    out = {}
    for name, arm in arms.items() if isinstance(arms, dict) else ():
        v = arm.get("commits_per_sec") if isinstance(arm, dict) else None
        if isinstance(v, (int, float)) and v > 0:
            out[name] = v
    return out


# symmetry reduction (actable-bench/6): per-arm state-count ratios; old
# reports without the section print n/a (the ratio is deterministic, so
# any delta signals an exploration change, not runner noise)
def symmetry_reductions(doc):
    arms = doc.get("symmetry", {}).get("arms", {})
    out = {}
    for name, arm in arms.items() if isinstance(arms, dict) else ():
        v = arm.get("reduction") if isinstance(arm, dict) else None
        if isinstance(v, (int, float)) and v > 0:
            out[name] = v
    return out


sy_old, sy_new = symmetry_reductions(old), symmetry_reductions(new)
if not sy_new:
    print("bench-trend symmetry: n/a (no symmetry section in new report)")
else:
    sy_parts = []
    for name in sorted(sy_new):
        n = sy_new[name]
        o = sy_old.get(name)
        if o is None:
            sy_parts.append(f"{name} {n:.2f}x (n/a)")
        else:
            sy_parts.append(f"{name} {n:.2f}x ({n / o - 1:+.1%})")
    canon = new.get("symmetry", {}).get("canonicalization_ns_per_call", {})
    ns = canon.get("symmetry")
    if isinstance(ns, (int, float)) and ns > 0:
        sy_parts.append(f"canon {ns:.0f}ns/call")
    print("bench-trend symmetry reduction: " + "; ".join(sy_parts))

ms_old, ms_new = multishot_cps(old), multishot_cps(new)
if not ms_new:
    print("bench-trend multishot: n/a (no multishot section in new report)")
else:
    ms_parts = []
    for name in sorted(ms_new):
        n = ms_new[name]
        o = ms_old.get(name)
        if o is None:
            ms_parts.append(f"{name} {n:.0f}/s (n/a)")
        else:
            ms_parts.append(f"{name} {n:.0f}/s ({n / o - 1:+.1%})")
    print("bench-trend multishot commits/sec: " + "; ".join(ms_parts))


# re-election arms (actable-bench/7): election count (deterministic — a
# delta means the stand-in path changed) and commits/sec of every _elect
# arm; old reports from earlier schemas print n/a
def elect_arms(doc):
    arms = doc.get("multishot", {}).get("arms", {})
    out = {}
    for name, arm in arms.items() if isinstance(arms, dict) else ():
        if not name.endswith("_elect") or not isinstance(arm, dict):
            continue
        el = arm.get("elections")
        cps = arm.get("commits_per_sec")
        if isinstance(el, (int, float)) and el >= 0:
            out[name] = (el, cps if isinstance(cps, (int, float)) else None)
    return out


# admission & soak arms (actable-bench/8): goodput is deterministic (a
# delta means the admission policy or workload changed, not the runner),
# minor words/txn is deterministic allocation pressure; old reports from
# earlier schemas print n/a
def admission_arms(doc):
    arms = doc.get("multishot", {}).get("arms", {})
    out = {}
    for name, arm in arms.items() if isinstance(arms, dict) else ():
        if not isinstance(arm, dict):
            continue
        if not name.endswith(("_queue", "_abort", "_soak")):
            continue
        gp = arm.get("goodput")
        words = arm.get("minor_words_per_txn")
        if isinstance(gp, (int, float)):
            out[name] = (gp, words if isinstance(words, (int, float)) else None)
    return out


ad_old, ad_new = admission_arms(old), admission_arms(new)
if not ad_new:
    print("bench-trend admission: n/a (no admission/soak arm in new report)")
else:
    ad_parts = []
    for name in sorted(ad_new):
        gp, words = ad_new[name]
        old_entry = ad_old.get(name)
        words_str = f"{words:.0f} w/txn" if words is not None else "n/a w/txn"
        if old_entry is None:
            ad_parts.append(f"{name} goodput {gp:.3f}, {words_str} (n/a)")
        else:
            o_gp, o_words = old_entry
            delta_gp = f"{gp - o_gp:+.3f}" if o_gp is not None else "n/a"
            delta_w = (f"{words / o_words - 1:+.1%}"
                       if words and o_words else "n/a")
            ad_parts.append(f"{name} goodput {gp:.3f} ({delta_gp}), "
                            f"{words_str} ({delta_w})")
    print("bench-trend admission/soak: " + "; ".join(ad_parts))

el_old, el_new = elect_arms(old), elect_arms(new)
if not el_new:
    print("bench-trend re-election: n/a (no _elect arm in new report)")
else:
    el_parts = []
    for name in sorted(el_new):
        elections, cps = el_new[name]
        old_entry = el_old.get(name)
        cps_str = f"{cps:.0f}/s" if cps else "n/a"
        if old_entry is None:
            el_parts.append(
                f"{name} {elections:.0f} elections, {cps_str} (n/a)")
        else:
            o_el, o_cps = old_entry
            delta_el = f"{elections - o_el:+.0f}" if o_el is not None else "n/a"
            delta_cps = (f"{cps / o_cps - 1:+.1%}"
                         if cps and o_cps else "n/a")
            el_parts.append(f"{name} {elections:.0f} elections ({delta_el}), "
                            f"{cps_str} ({delta_cps})")
    print("bench-trend re-election: " + "; ".join(el_parts))
