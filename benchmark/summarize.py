#!/usr/bin/env python3
"""Summarize benchmark/run.sh logs into the repeatability record.

    python3 benchmark/summarize.py --set A a.log --set B b.log \
        [--sweep S1 sweep1.log --sweep S2 sweep2.log] [--traced traced.log] \
        > benchmark/baseline.json

Each log is the stdout of one or more run.sh invocations. A --set is a
same-seed repeat (run.sh --repeat 5); a --sweep holds runs over several
seeds, which is how the bounds were checked; --traced holds traced passes.
For every workload and metric the record keeps the median, the quartiles
and the spread (quartile distance over median). The second set and the
second sweep also report their medians' change against the first.
"""
import argparse
import json
import re
import statistics
import sys

HEADER = re.compile(r"^\[benchmark\] (.*)$")
PAIR = re.compile(r"(\S+)=(\S+) ([^,]+)")


def parse(path):
    """Yield one dict per run: header fields, reported extras, JSON result."""
    run = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            m = HEADER.match(line)
            if m:
                run = dict(kv.split("=", 1) for kv in m.group(1).split())
                run["reported"] = {}
            elif run is not None and line.startswith("  reported:"):
                for name, value, unit in PAIR.findall(line[len("  reported:"):]):
                    run["reported"][name] = {"value": float(value), "unit": unit.strip()}
            elif run is not None and line.startswith("{"):
                run["result"] = json.loads(line)
                yield run
                run = None


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def summarize(paths):
    by_workload = {}
    for path in paths:
        for run in parse(path):
            w = by_workload.setdefault(run["workload"], {
                "seeds": [], "digests": [], "correct": True, "metrics": {},
                "reported": {}})
            w["seeds"].append(int(run["seed"]))
            w["digests"].append(run["digest"])
            w["correct"] = w["correct"] and run["result"]["correct"]
            for name, m in run["result"]["metrics"].items():
                w["metrics"].setdefault(name, (m["unit"], []))[1].append(m["value"])
            for name, m in run["reported"].items():
                w["reported"].setdefault(name, (m["unit"], []))[1].append(m["value"])
    out = {}
    for name, w in sorted(by_workload.items()):
        out[name] = {
            "runs": len(w["seeds"]),
            "seeds": sorted(set(w["seeds"])),
            "correct": w["correct"],
            "distinct_digests": sorted(set(w["digests"])),
            "metrics": {k: dict(unit=u, **stats(v)) for k, (u, v) in w["metrics"].items()},
            "reported": {k: dict(unit=u, **stats(v)) for k, (u, v) in w["reported"].items()},
        }
    return out


def provenance(paths):
    """Distinct header values (nproc, compiler, build, commit) over all runs."""
    seen = {}
    for path in paths:
        for run in parse(path):
            for key in ("nproc", "compiler", "build", "commit"):
                seen.setdefault(key, set()).add(run[key])
    return {key: sorted(values) for key, values in seen.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--set", nargs=2, action="append", default=[],
                    metavar=("NAME", "LOG"), help="a same-seed repeat set")
    ap.add_argument("--sweep", nargs=2, action="append", default=[],
                    metavar=("NAME", "LOG"), help="runs over several seeds")
    ap.add_argument("--traced", action="append", default=[], metavar="LOG",
                    help="a traced (--trace 1) pass")
    args = ap.parse_args()

    logs = [log for _, log in args.set + args.sweep] + args.traced
    record = {"provenance": provenance(logs)}
    for kind, groups in (("sets", args.set), ("sweeps", args.sweep)):
        record[kind] = {name: summarize([log]) for name, log in groups}
        if len(groups) >= 2:
            first, second = (record[kind][name] for name, _ in groups[:2])
            record[kind + "_median_change"] = {
                w: {k: second[w]["metrics"][k]["median"] / m["median"] - 1.0
                    for k, m in first[w]["metrics"].items() if m["median"]}
                for w in first if w in second}
    if args.traced:
        record["per_layer"] = {
            w: {k: {"value": m["median"], "unit": m["unit"]}
                for k, m in s["metrics"].items()} | {"reported": {
                    k: {"value": m["median"], "unit": m["unit"]}
                    for k, m in s["reported"].items()}}
            for w, s in summarize(args.traced).items()}
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
