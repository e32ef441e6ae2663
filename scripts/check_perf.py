#!/usr/bin/env python3
"""Gate hot-path performance against the committed BENCH_HOTPATH.json.

Reads the stdout of ``cargo bench -p pcs-bench --bench hotpath`` (a file
argument or stdin), which the vendored criterion stub prints as::

    sched_overhead/full-pipeline        15.083 ms/iter   2651908 elem/s

and compares **every bench recorded in the baseline** to its measured
time, **calibrated by host speed**: the bare
``sched_overhead/event-queue-floor`` bench runs the same 40k-event chain
with no stage work, so

    expected = baseline * (measured_floor / baseline_floor)

tracks how fast this runner is rather than assuming the baseline host.
A bench fails only when its measured time exceeds
``expected * --threshold`` (default 1.6 — generous, because shared
CI runners are noisy; the point is to catch an accidental return of
per-packet allocation or an O(n) slip, not a 5% drift). Every bench
outside its floor is reported — the check does not stop at the first
failure — and the host-calibration ratio is always printed.

If the floor itself deviates wildly from baseline (ratio outside
[1/--max-floor-ratio, --max-floor-ratio]), the runner is too unlike the
baseline host for a meaningful verdict and the check SKIPS (exit 0) with
a clear message rather than failing the build.

Regenerate the baseline with ``cargo bench -p pcs-bench --bench hotpath``
and record the new numbers in BENCH_HOTPATH.json after an intentional
hot-path change, all benches from one session: ``hotpath/stage-times-on``
documents what a ``--ledger`` run pays over ``full-pipeline``.

To localize a failure, run the repository benchmark span-traced on the
last-good and the failing build (``cargo run --release --offline -q
--manifest-path benchmark/Cargo.toml -- --workload rate-sweep --seed 7
--seconds 0 --trace 1``; see benchmark/README.md): its per-layer
host-time table names the layer that got slower. Ledger ``StageTimes``
cannot do this — they are simulated time, which an engine change
leaves byte-identical by construction.
"""

import argparse
import json
import re
import sys

FULL = "sched_overhead/full-pipeline"
FLOOR = "sched_overhead/event-queue-floor"

LINE = re.compile(r"^(\S+)\s+([0-9.]+)\s+ms/iter\b")


def fail(msg: str) -> None:
    print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def skip(msg: str) -> None:
    print(f"check_perf: SKIP: {msg} (not a verdict on this change)")
    sys.exit(0)


def parse_bench_output(text: str) -> dict:
    """Map bench id -> ms/iter from the criterion-stub stdout."""
    out = {}
    for line in text.splitlines():
        m = LINE.match(line.strip())
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "bench_output",
        nargs="?",
        help="file with `cargo bench --bench hotpath` stdout (default: stdin)",
    )
    ap.add_argument(
        "--baseline",
        default="BENCH_HOTPATH.json",
        help="committed baseline JSON (default: BENCH_HOTPATH.json)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=1.6,
        help="fail above expected * THRESHOLD (default: 1.6)",
    )
    ap.add_argument(
        "--max-floor-ratio",
        type=float,
        default=4.0,
        help="skip when the floor ratio leaves [1/R, R] (default: 4.0)",
    )
    args = ap.parse_args()

    if args.bench_output:
        with open(args.bench_output, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()

    measured = parse_bench_output(text)
    for key in (FULL, FLOOR):
        if key not in measured:
            fail(f"bench output has no `{key}` line — wrong bench or truncated log?")

    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    try:
        base_full = baseline["results"][FULL]["ms_per_iter"]
        base_floor = baseline["results"][FLOOR]["ms_per_iter"]
    except KeyError as e:
        fail(f"baseline {args.baseline} is missing {e}")

    floor_ratio = measured[FLOOR] / base_floor
    print(
        f"check_perf: host calibration: event-queue floor {measured[FLOOR]:.3f} ms "
        f"vs baseline {base_floor:.3f} ms -> ratio {floor_ratio:.2f}x"
    )
    if not (1.0 / args.max_floor_ratio <= floor_ratio <= args.max_floor_ratio):
        skip(
            f"event-queue floor is {measured[FLOOR]:.3f} ms vs baseline "
            f"{base_floor:.3f} ms ({floor_ratio:.2f}x) — this runner is too "
            f"unlike the baseline host for a calibrated comparison"
        )

    # Gate every baseline bench (the floor is the calibration reference,
    # not a gated subject). Report all verdicts; fail at the end so one
    # regression never hides another.
    failures = []
    for bench in sorted(baseline["results"]):
        if bench == FLOOR:
            continue
        base_ms = baseline["results"][bench]["ms_per_iter"]
        if bench not in measured:
            failures.append(bench)
            print(f"check_perf: {bench} MISSING from bench output (truncated log?)")
            continue
        expected = base_ms * floor_ratio
        limit = expected * args.threshold
        verdict = "OK" if measured[bench] <= limit else "FAIL"
        print(
            f"check_perf: {bench} measured {measured[bench]:.3f} ms/iter; "
            f"baseline {base_ms:.3f} scaled by floor ratio {floor_ratio:.2f}x "
            f"-> expected {expected:.3f}, limit {limit:.3f} (x{args.threshold}): {verdict}"
        )
        if verdict == "FAIL":
            failures.append(bench)
    if failures:
        fail(
            f"{len(failures)} bench(es) regressed past the calibrated limit: "
            f"{', '.join(failures)}. "
            f"If the slowdown is intentional, regenerate {args.baseline} "
            f"(see its `command` field) and commit the new numbers. "
            f"To find the slower layer, run `cargo run --release --offline -q "
            f"--manifest-path benchmark/Cargo.toml -- --workload rate-sweep "
            f"--seed 7 --seconds 0 --trace 1` on the last-good and failing "
            f"builds and compare their per-layer host-time tables."
        )


if __name__ == "__main__":
    main()
