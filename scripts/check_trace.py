#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by `experiments --trace`.

Checks, in order:

1. the file parses as JSON (an independent parser from the Rust emitter);
2. the trace has the expected envelope (``displayTimeUnit``,
   ``traceEvents``) and every event carries the required keys for its
   phase;
3. every ``drop_attribution/appN`` counter balances exactly:
   generated == delivered + the seven loss buckets;
4. optionally (``--golden FILE``) the event-count summary line matches a
   checked-in snapshot, pinning the traced simulation's event population;
5. optionally (``--csv FILE``) the events CSV the same run wrote has one
   row per JSON instant other than the per-SUT ``metrics`` summaries,
   in order, each with the same ts, stage, category, seq, bytes, app and
   count. The two files come from separate renderers, so this
   cross-checks them.

Prints the summary line on success so CI logs show what was validated.
Regenerate the snapshot by re-running with ``--regen`` after an
intentional simulation change (``--update-golden`` is the older alias).
"""

import argparse
import csv
import json
import sys
from decimal import Decimal
from itertools import zip_longest

ATTR_COLUMNS = [
    "generated",
    "nic_drops",
    "nic_residue",
    "filter_rejects",
    "kernel_buffer_drops",
    "kernel_pool_drops",
    "kernel_residue",
    "app_residue",
    "delivered",
]


CSV_HEADER = ["cell_key", "cell", "sut", "t_ns", "stage", "category", "seq", "bytes", "app", "count"]


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def json_instants(events):
    """(t_ns, stage, category, seq, bytes, app, count) of every JSON
    instant but the per-SUT ``metrics`` summaries; an absent seq or app
    is None."""
    for ev in events:
        if ev.get("ph") != "i" or ev.get("name") == "metrics":
            continue
        a = ev["args"]
        t_ns = int(ev["ts"] * 1000)  # ts is a Decimal: exact
        yield (t_ns, ev["name"], ev["cat"], a.get("seq"), a["bytes"], a.get("app"), a["count"])


def optional_int(field: str):
    """An empty CSV field is an absent seq or app."""
    return int(field) if field else None


def csv_events(path):
    """The same tuple for every row of the events CSV at ``path``."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        header = next(rows, None)
        if header != CSV_HEADER:
            fail(f"{path}: header {header!r}, expected {CSV_HEADER!r}")
        for n, row in enumerate(rows, start=2):
            if len(row) != len(CSV_HEADER):
                fail(f"{path}: line {n} has {len(row)} fields, expected {len(CSV_HEADER)}")
            r = dict(zip(CSV_HEADER, row))
            yield (
                int(r["t_ns"]),
                r["stage"],
                r["category"],
                optional_int(r["seq"]),
                int(r["bytes"]),
                optional_int(r["app"]),
                int(r["count"]),
            )


def check_csv(path, events) -> int:
    """Fail unless the CSV's rows are the JSON's event instants; returns
    the row count."""
    rows = 0
    for want, got in zip_longest(json_instants(events), csv_events(path)):
        rows += 1
        if want is None:
            fail(f"{path}: row {rows} has no JSON event instant to match")
        if got is None:
            fail(f"{path}: ends after {rows - 1} rows, but the JSON has more event instants")
        if want != got:
            fail(f"{path}: row {rows} is {got}, but the JSON's event instant {rows} is {want}")
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument("--golden", help="compare the summary line to this snapshot file")
    ap.add_argument("--csv", help="check this events CSV of the same run against the JSON")
    ap.add_argument(
        "--regen",
        "--update-golden",
        action="store_true",
        help="rewrite the --golden file with the observed summary",
    )
    args = ap.parse_args()

    with open(args.trace, "r", encoding="utf-8") as f:
        try:
            # Decimal keeps each `ts` exact for the --csv comparison.
            doc = json.load(f, parse_float=Decimal)
        except json.JSONDecodeError as e:
            fail(f"not valid JSON: {e}")

    if doc.get("displayTimeUnit") != "ns":
        fail(f"displayTimeUnit must be 'ns', got {doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents must be a non-empty array")

    pids = set()
    counts = {"M": 0, "i": 0, "C": 0}
    attributions = 0
    for ev in events:
        ph = ev.get("ph")
        if ph not in counts:
            fail(f"unexpected phase {ph!r} in {ev}")
        counts[ph] += 1
        if "pid" not in ev:
            fail(f"event without pid: {ev}")
        process_scoped = ph == "M" and ev.get("name") in ("process_name", "process_sort_index")
        if not process_scoped and "tid" not in ev:
            fail(f"thread-scoped event without tid: {ev}")
        pids.add(ev["pid"])
        if ph != "M" and "ts" not in ev:
            fail(f"non-metadata event without ts: {ev}")
        if ph == "C" and str(ev.get("name", "")).startswith("drop_attribution/"):
            a = ev["args"]
            missing = [c for c in ATTR_COLUMNS if c not in a]
            if missing:
                fail(f"{ev['name']} missing buckets {missing}")
            drops = sum(a[c] for c in ATTR_COLUMNS if c not in ("generated", "delivered"))
            if a["generated"] != a["delivered"] + drops:
                fail(
                    f"{ev['name']} (pid {ev['pid']}, tid {ev.get('tid')}): "
                    f"generated {a['generated']} != delivered {a['delivered']} + drops {drops}"
                )
            attributions += 1

    if attributions == 0:
        fail("no drop_attribution counters found")

    summary = (
        f"cells={len(pids)} metadata={counts['M']} instants={counts['i']} "
        f"counters={counts['C']} attributions={attributions}"
    )
    print(f"check_trace: OK: {summary}")

    if args.golden:
        if args.regen:
            with open(args.golden, "w", encoding="utf-8") as f:
                f.write(summary + "\n")
            print(f"check_trace: wrote golden snapshot {args.golden}")
        else:
            with open(args.golden, "r", encoding="utf-8") as f:
                expected = f.read().strip()
            if summary != expected:
                fail(
                    f"event counts drifted from golden snapshot {args.golden}:\n"
                    f"  expected: {expected}\n"
                    f"  observed: {summary}\n"
                    "if the simulation changed intentionally, regenerate with:\n"
                    f"  python3 scripts/check_trace.py {args.trace} "
                    f"--golden {args.golden} --regen"
                )

    if args.csv:
        rows = check_csv(args.csv, events)
        print(f"check_trace: OK: {args.csv}: {rows} rows match the JSON's event instants")


if __name__ == "__main__":
    main()
