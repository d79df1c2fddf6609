#!/usr/bin/env python3
"""Baselines and parent/change comparisons for the spcd_bench benchmark.

Python 3 standard library only. Every run goes through bench/e2e/run.py in
the checkout being measured; the result is its last stdout line.

  compare.py baseline [--runs 5] [--sets 2] [--out FILE]
      Two (or more) sets of runs of this checkout, one seed per run. Prints
      and writes each end-to-end metric's per-set median and quartiles, the
      spread (IQR / median), the drift between the set medians, and a bound
      derived from them.

  compare.py pairs PARENT_DIR CHANGE_DIR [--pairs 10] [--log FILE]
      Alternating parent/change pairs (the side that runs first alternates;
      both sides of a pair use the same seed), then the analysis below.

  compare.py analyze LOG
      Re-analyze a pairs log (JSON lines, one per run).

The analysis applies the gain rule: at least 10 pairs, the change wins at
least 9 in 10 of them (ties count for neither), and the medians differ by
more than the parent's own spread (the distance between its quartiles). It
applies each metric's regression bound from BENCHMARK.json and reports a
metric as unresolved when its spread exceeds that bound, unless every run
of the change reads better than every run of the parent. A gain does not
count when more operations failed than at the parent. One block per
workload. Exit 1 on a regression or an incorrect run.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed):
    cmd = [sys.executable, os.path.join("bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "exit": proc.returncode}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    if len(lines) > 1:
        result["record"] = json.loads(lines[-2])
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def better(kind, a, b):
    """True when value a is strictly better than value b."""
    return a < b if kind == "lower" else a > b


def worse_share(kind, change, parent):
    """How much worse the change's median is, as a share of the parent's."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if kind == "lower" else -delta


# --- baseline ----------------------------------------------------------------

def baseline(args):
    spec = load_spec(ROOT)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seed = args.seed_base
    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for _ in range(args.runs):
            for w in workloads:
                seed += 1
                result = run_once(ROOT, spec, w, seed)
                runs[w].append(result)
                print("set %d %-12s seed %-4d %s" % (
                    s + 1, w, seed, "ok" if result["correct"] else
                    "INCORRECT"), file=sys.stderr)
        sets.append(runs)

    host = next((r["record"]["host"] for s in sets for rs in s.values()
                 for r in rs if "record" in r), {})
    report = {"run_seconds": spec["run_seconds"], "runs_per_set": args.runs,
              "host": host, "sets": [], "bounds": {}}
    ok = True
    for runs in sets:
        entry = {}
        for w, results in runs.items():
            ok &= all(r["correct"] and r["exit"] == 0 for r in results)
            entry[w] = {}
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results
                          if m["name"] in r["metrics"]]
                q1, med, q3 = quartiles(values)
                entry[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread(values),
                                       "values": values}
            entry[w]["host_slowdown"] = [
                r.get("record", {}).get("host_slowdown") for r in results]
        report["sets"].append(entry)

    print("\n%-12s %-18s %12s %8s %8s %8s  %s" % (
        "workload", "metric", "median", "spread1", "spread2", "drift",
        "bound"))
    for m in spec["end_to_end"]:
        name, kind = m["name"], m["better"]
        needed = 0.0
        for w in workloads:
            per_set = [entry[w][name] for entry in report["sets"]]
            spreads = [p["spread"] for p in per_set]
            drift = max(worse_share(kind, p["median"], per_set[0]["median"])
                        for p in per_set[1:]) if len(per_set) > 1 else 0.0
            needed = max(needed, drift, *(
                [] if name == "setup_s" else [3 * s for s in spreads]))
            print("%-12s %-18s %12.6g %8.4f %8.4f %8.4f  %.2f" % (
                w, name, per_set[0]["median"], spreads[0],
                spreads[-1], drift, m["bound"]))
        # A bound should clear three spreads (a spread under a third of the
        # bound) and the drift between the sets' medians.
        report["bounds"][name] = math.ceil(needed * 100) / 100
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


# --- pairs -------------------------------------------------------------------

def pairs(args):
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    spec = load_spec(parent)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    log = open(args.log, "a") if args.log else None
    records = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, root in order:
                result = run_once(root, spec, w, seed)
                record = {"pair": i, "side": side, "workload": w,
                          "seed": seed, "result": result}
                records.append(record)
                if log:
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                print("pair %d %-12s %-6s %s" % (
                    i, w, side, "ok" if result["correct"] else "INCORRECT"),
                    file=sys.stderr)
    return analyze_records(spec, records)


def analyze(args):
    with open(args.log) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return analyze_records(load_spec(ROOT), records)


def verdict(kind, bound, parent, change):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    n = min(len(parent), len(change))
    wins = sum(better(kind, c, p) for p, c in zip(parent, change))
    all_better = all(better(kind, c, p) for p in parent for c in change)
    worse = worse_share(kind, c_med, p_med)
    if worse > bound:
        return "REGRESSION", wins
    if n >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * n) and \
            better(kind, c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", wins
    if (spread(parent) > bound or spread(change) > bound) and not all_better:
        return "unresolved", wins
    return "no regression", wins


def analyze_records(spec, records):
    failed = False
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for w, rs in by_workload.items():
        side = {s: sorted((r for r in rs if r["side"] == s),
                          key=lambda r: r["pair"]) for s in ("parent",
                                                              "change")}
        incorrect = [r for r in rs if not r["result"]["correct"]]
        failed |= bool(incorrect)
        fails = {s: sum(r["result"]["failed"] for r in side[s])
                 for s in side}
        print("\n%s: %d pairs, failed ops parent %d change %d%s" % (
            w, min(len(side["parent"]), len(side["change"])),
            fails["parent"], fails["change"],
            ", %d INCORRECT run(s)" % len(incorrect) if incorrect else ""))
        print("  %-18s %24s %24s %8s %5s  %s" % (
            "metric", "parent median [q1,q3]", "change median [q1,q3]",
            "delta", "wins", "verdict"))
        row = []
        for m in spec["end_to_end"]:
            name, kind = m["name"], m["better"]
            p = [r["result"]["metrics"][name]["value"] for r in side["parent"]]
            c = [r["result"]["metrics"][name]["value"] for r in side["change"]]
            if not p or not c:
                continue
            v, wins = verdict(kind, m["bound"], p, c)
            if v == "gain" and fails["change"] > fails["parent"]:
                v = "no gain (more ops failed)"
            failed |= v == "REGRESSION"
            pq, cq = quartiles(p), quartiles(c)
            print("  %-18s %10.4g [%5.3g,%5.3g] %10.4g [%5.3g,%5.3g] %+7.2f%%"
                  " %2d/%-2d  %s" % (
                      name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                      100 * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
                      wins, min(len(p), len(c)), v))
            row.append("%s %s" % (name, v))
        print("  row: " + "; ".join(row))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser("baseline")
    b.add_argument("--runs", type=int, default=5)
    b.add_argument("--sets", type=int, default=2)
    b.add_argument("--seed-base", type=int, default=0)
    b.add_argument("--workloads", nargs="*")
    b.add_argument("--out")
    b.set_defaults(func=baseline)
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--log")
    p.set_defaults(func=pairs)
    a = sub.add_parser("analyze")
    a.add_argument("log")
    a.set_defaults(func=analyze)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
