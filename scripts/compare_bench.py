#!/usr/bin/env python3
"""Compare two `bench regress` JSON files and gate on slowdowns.

Usage:
    dune exec bench/main.exe -- regress --switches 16 --out cur1.json
    dune exec bench/main.exe -- regress --switches 16 --out cur2.json
    python3 scripts/compare_bench.py BENCH_3.json cur1.json cur2.json \
        --max-slowdown 1.25 --only-switches 16

The baseline may be either a plain `bench-regress` capture (entries with
"ns") or a `bench-regress-report` (entries with "after_ns"/"ns"); in a
report the after-numbers are the baseline, matching what regress.ml's
own --baseline loader does. When several current files are given, the
per-entry minimum across them is compared — the same noise-robust
protocol the committed baseline was captured with (docs/PERF.md), so
always pass as many current runs as the baseline used. --only-switches
gates only entries whose trailing /<n> matches (micro-kernels carry a
bit-width suffix, e.g. cube.inter/64, and are left ungated — Bechamel
estimates are too machine-sensitive for a hard CI bound). Entries
present in only one file are reported but never fail the gate (workload
sets may differ across machines/scales). When every current capture
reports host_cores: 1, the */par4 entries are not gated either: a
4-domain pool on a single core measures scheduler contention, not the
code, so any par4 ratio against a baseline is a false regression
signal (--gate-entry still force-gates them). Exits non-zero when any
gated entry is slower than baseline by more than --max-slowdown.

Every run also checks the RATIOS table against the baseline capture:
each row is a speedup bound between two entries of the same file. A
row whose entries are both missing from the baseline is reported as not
gated; a row with only one of them present fails. Stdlib only.
"""

import argparse
import fnmatch
import json
import sys

SCHEMA_VERSION = 1

# Speedup bounds held on the baseline itself: (slow entry, fast entry,
# minimum slow/fast). Incremental re-verification (docs/VERIFY.md) and
# incremental re-planning (docs/INCREMENTAL.md) per edit vs a full
# recompute at 50 switches; sharded vs flat end-to-end planning at 200
# switches (docs/SHARD.md).
RATIOS = [
    ("verify.closure/50", "verify.edit/50", 10.0),
    ("plan.full/50", "plan.edit/50", 10.0),
    ("plan.full/200", "shard.plan/200", 2.0),
]


def load_entries(path):
    """Entries of a capture, plus the host_cores it reports (None if absent)."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        sys.exit(f"{path}: unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    entries = {}
    for e in doc.get("entries", []):
        ns = e.get("ns", e.get("after_ns"))
        if e.get("name") is None or ns is None:
            sys.exit(f"{path}: malformed entry {e!r}")
        entries[e["name"]] = float(ns)
    if not entries:
        sys.exit(f"{path}: no entries")
    return entries, doc.get("host_cores")


def scale_of(name):
    """Trailing /<switches> suffix of an end-to-end entry, None for micros.

    A variant suffix like /par4 (the 4-domain pool entries) is stripped
    first, so rulegraph.spaces/16/par4 gates with the /16 scale."""
    if name.endswith("/par4"):
        name = name[: -len("/par4")]
    _, _, suffix = name.rpartition("/")
    return int(suffix) if suffix.isdigit() else None


def check_ratios(entries):
    """Print every RATIOS row against `entries`; return the failed rows."""
    failures = []
    for slow, fast, minimum in RATIOS:
        row = f"{slow} / {fast}"
        missing = [n for n in (slow, fast) if n not in entries]
        if len(missing) == 2:
            print(f"{row:<40} (not in baseline, not gated)")
        elif missing:
            print(f"{row:<40} FAIL: {missing[0]} missing from baseline")
            failures.append(row)
        else:
            ratio = entries[slow] / entries[fast]
            ok = ratio >= minimum
            print(f"{row:<40} {ratio:>6.2f}x (need >= {minimum:g}x) {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(row)
    return failures


def pretty_ns(ns):
    if ns > 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns > 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns > 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline (BENCH_3.json)")
    ap.add_argument(
        "current",
        nargs="+",
        help="freshly measured regress JSON (several files are min-merged per entry)",
    )
    ap.add_argument(
        "--max-slowdown",
        type=float,
        default=1.25,
        metavar="RATIO",
        help="fail when current/baseline exceeds RATIO (default 1.25)",
    )
    ap.add_argument(
        "--only-switches",
        type=int,
        default=None,
        metavar="N",
        help="gate only entries with a trailing /N scale suffix",
    )
    ap.add_argument(
        "--gate-entry",
        action="append",
        default=[],
        metavar="GLOB",
        help="force-gate entries matching GLOB even when --only-switches "
        "excludes them (e.g. cube.inter/64 to hold the interning fix)",
    )
    ap.add_argument(
        "--write-merged",
        default=None,
        metavar="PATH",
        help="write the min-merged current entries as a bench-regress JSON "
        "(with before_ns/speedup against the baseline) — the min-of-N "
        "capture protocol for committed BENCH_<n>.json files",
    )
    args = ap.parse_args()

    base, _ = load_entries(args.baseline)
    cur = {}
    cur_cores = []
    for path in args.current:
        entries, cores = load_entries(path)
        cur_cores.append(cores)
        for name, ns in entries.items():
            cur[name] = min(ns, cur.get(name, float("inf")))
    # par4 numbers only mean anything when the candidate host actually
    # has the cores; a capture missing host_cores is assumed multi-core
    # (old-format captures predate the field).
    single_core = all(c == 1 for c in cur_cores) and cur_cores != []
    if single_core:
        print("candidate reports host_cores: 1 — */par4 entries not gated")

    if args.write_merged:
        entries = []
        for name in sorted(cur):
            e = {"name": name, "ns": cur[name]}
            if name in base:
                e["before_ns"] = base[name]
                e["speedup"] = base[name] / cur[name]
            entries.append(e)
        with open(args.current[0]) as fh:
            first = json.load(fh)
        merged = {
            "schema_version": SCHEMA_VERSION,
            "kind": "bench-regress-report",
            "workload": first.get("workload", ""),
            "switches": first.get("switches", []),
            "host_cores": first.get("host_cores"),
            "merged_of": len(args.current),
            "entries": entries,
        }
        with open(args.write_merged, "w") as fh:
            json.dump(merged, fh, indent=1)
            fh.write("\n")
        print(f"wrote min-of-{len(args.current)} merge to {args.write_merged}")

    failures = []
    print(f"{'entry':<28} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name in sorted(set(base) | set(cur)):
        if name not in base or name not in cur:
            where = "baseline" if name in base else "current"
            print(f"{name:<28} {'(only in ' + where + ')':>33}")
            continue
        ratio = cur[name] / base[name]
        scale = scale_of(name)
        forced = any(fnmatch.fnmatch(name, g) for g in args.gate_entry)
        gated = (
            args.only_switches is None
            or scale is None
            or scale == args.only_switches
            or forced
        )
        if single_core and name.endswith("/par4") and not forced:
            gated = False
        verdict = ""
        if gated and ratio > args.max_slowdown:
            failures.append(name)
            verdict = "  FAIL"
        elif not gated:
            verdict = "  (not gated)"
        print(
            f"{name:<28} {pretty_ns(base[name]):>12} {pretty_ns(cur[name]):>12}"
            f" {ratio:>6.2f}x{verdict}"
        )

    ratio_failures = check_ratios(base)

    if failures:
        sys.exit(
            f"{len(failures)} entr{'y' if len(failures) == 1 else 'ies'} regressed "
            f"beyond {args.max_slowdown:.2f}x: {', '.join(failures)}"
        )
    if ratio_failures:
        sys.exit(f"baseline speedup bounds not met: {', '.join(ratio_failures)}")
    print(f"ok: no entry slower than {args.max_slowdown:.2f}x baseline")


if __name__ == "__main__":
    main()
