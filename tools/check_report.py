#!/usr/bin/env python3
"""check_report — validates a tglink RunReport JSON (and optionally the
matching Chrome trace) against the tglink.run_report/2 schema. Reports at
the older /1 schema (pre-memory/provenance baselines) are still accepted
and validated against the /1 key set.

Usage:
    python3 tools/check_report.py REPORT.json [--trace TRACE.json]
            [--expect-span NAME ...] [--expect-counter NAME ...]
            [--expect-arena-per-link ARENA ...]
    python3 tools/check_report.py --selftest

Used by tools/check.sh's perf-smoke/perf-gate stages and usable standalone
on any BENCH_*.json artifact. Exits non-zero with a message per violation.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA_V1 = "tglink.run_report/1"
SCHEMA_V2 = "tglink.run_report/2"
SCHEMA = SCHEMA_V2

TOP_LEVEL_KEYS_V1 = {
    "schema", "tool", "options", "scalars", "quality", "iterations",
    "metrics", "spans",
}
# /2 adds build provenance and the memory block; aborted/abort_reason are
# optional (only partial flushes of abnormally-exiting runs carry them).
TOP_LEVEL_KEYS_V2 = TOP_LEVEL_KEYS_V1 | {"build", "memory"}
OPTIONAL_KEYS_V2 = {"aborted", "abort_reason"}
QUALITY_KEYS = {
    "true_positives", "false_positives", "false_negatives",
    "precision", "recall", "f_measure",
}
ITERATION_KEYS = {
    "delta", "scored_pairs", "candidate_subgraphs", "accepted_subgraphs",
    "new_group_links", "new_record_links",
}
BUILD_KEYS = {
    "git_sha", "compiler", "flags", "build_type", "preset", "hostname",
    "threads",
}
MEMORY_KEYS = {"allocator", "arenas", "stages", "rss_kb", "vm_hwm_kb"}
ALLOCATOR_KEYS = {
    "hooks_compiled", "enabled", "bytes_allocated", "bytes_freed",
    "live_bytes", "alloc_calls", "free_calls",
}
ARENA_KEYS = {"bytes_total", "max_bytes", "reports"}
STAGE_KEYS = {
    "name", "count", "bytes_allocated", "bytes_freed", "alloc_calls",
    "free_calls", "peak_rss_kb", "peak_vm_hwm_kb",
}
SPAN_KEYS_V2 = {"alloc_bytes", "free_bytes", "live_delta_bytes"}


def fail(errors: list[str], message: str) -> None:
    errors.append(message)


def check_memory(memory: dict, errors: list[str]) -> None:
    missing = MEMORY_KEYS - memory.keys()
    if missing:
        fail(errors, f"memory missing {sorted(missing)}")
        return
    allocator = memory["allocator"]
    missing = ALLOCATOR_KEYS - allocator.keys()
    if missing:
        fail(errors, f"memory.allocator missing {sorted(missing)}")
    if not isinstance(memory["arenas"], dict):
        fail(errors, "memory.arenas must be an object")
    else:
        for name, arena in memory["arenas"].items():
            missing = ARENA_KEYS - arena.keys()
            if missing:
                fail(errors, f"memory.arenas[{name!r}] missing "
                             f"{sorted(missing)}")
    if not isinstance(memory["stages"], list):
        fail(errors, "memory.stages must be an array")
    else:
        for k, stage in enumerate(memory["stages"]):
            missing = STAGE_KEYS - stage.keys()
            if missing:
                fail(errors, f"memory.stages[{k}] missing {sorted(missing)}")


def span_count(spans: list, leaf: str) -> int:
    """Executions of the spans whose leaf name is `leaf`, over all paths."""
    return sum(span.get("count", 0) for span in spans
               if span.get("path", "").rsplit("/", 1)[-1] == leaf)


def check_report(report: dict, expect_spans: list[str],
                 expect_counters: list[str],
                 arenas_per_link: list[str] = ()) -> list[str]:
    errors: list[str] = []
    schema = report.get("schema")
    if schema not in (SCHEMA_V1, SCHEMA_V2):
        fail(errors,
             f"schema is {schema!r}, want {SCHEMA_V2!r} (or legacy "
             f"{SCHEMA_V1!r})")
    v2 = schema != SCHEMA_V1
    required = TOP_LEVEL_KEYS_V2 if v2 else TOP_LEVEL_KEYS_V1
    allowed = required | (OPTIONAL_KEYS_V2 if v2 else set())
    missing = required - report.keys()
    if missing:
        fail(errors, f"missing top-level keys: {sorted(missing)}")
        return errors
    extra = report.keys() - allowed
    if extra:
        fail(errors, f"unknown top-level keys: {sorted(extra)}")
    if not isinstance(report["tool"], str) or not report["tool"]:
        fail(errors, "tool must be a non-empty string")
    if not isinstance(report["options"], dict):
        fail(errors, "options must be an object")
    if not isinstance(report["scalars"], dict):
        fail(errors, "scalars must be an object")
    else:
        for name, value in report["scalars"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(errors, f"scalar {name!r} is not a number: {value!r}")

    if v2:
        if "aborted" in report and report["aborted"] is not True:
            fail(errors, "aborted, when present, must be true")
        build = report["build"]
        if not isinstance(build, dict):
            fail(errors, "build must be an object")
        else:
            missing = BUILD_KEYS - build.keys()
            if missing:
                fail(errors, f"build missing {sorted(missing)}")
            if not build.get("git_sha"):
                fail(errors, "build.git_sha must be non-empty")
        if not isinstance(report["memory"], dict):
            fail(errors, "memory must be an object")
        else:
            check_memory(report["memory"], errors)

    for label, pr in report.get("quality", {}).items():
        missing = QUALITY_KEYS - pr.keys()
        if missing:
            fail(errors, f"quality[{label!r}] missing {sorted(missing)}")
        for bound in ("precision", "recall", "f_measure"):
            v = pr.get(bound)
            if isinstance(v, (int, float)) and not 0.0 <= v <= 1.0:
                fail(errors, f"quality[{label!r}].{bound} out of [0,1]: {v}")

    for k, it in enumerate(report.get("iterations", [])):
        missing = ITERATION_KEYS - it.keys()
        if missing:
            fail(errors, f"iterations[{k}] missing {sorted(missing)}")

    metrics = report["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics:
            fail(errors, f"metrics missing {section!r}")
    for name, hist in metrics.get("histograms", {}).items():
        for key in ("count", "sum", "buckets"):
            if key not in hist:
                fail(errors, f"histogram {name!r} missing {key!r}")
        bucket_total = sum(b.get("count", 0) for b in hist.get("buckets", []))
        if bucket_total > hist.get("count", 0):
            fail(errors,
                 f"histogram {name!r}: bucket counts ({bucket_total}) exceed "
                 f"total count ({hist.get('count')})")

    spans = report["spans"]
    if not isinstance(spans, list):
        fail(errors, "spans must be an array")
        spans = []
    paths = set()
    for k, span in enumerate(spans):
        for key in ("path", "count", "total_ms"):
            if key not in span:
                fail(errors, f"spans[{k}] missing {key!r}")
        if v2:
            missing = SPAN_KEYS_V2 - span.keys()
            if missing:
                fail(errors, f"spans[{k}] missing {sorted(missing)}")
        paths.add(span.get("path", ""))
    leaf_names = {p.rsplit("/", 1)[-1] for p in paths}
    for want in expect_spans:
        if want not in leaf_names and want not in paths:
            fail(errors, f"expected span {want!r} not present")

    counters = metrics.get("counters", {})
    for want in expect_counters:
        if want not in counters:
            fail(errors, f"expected counter {want!r} not present")

    links = span_count(spans, "linkage.link_census_pair")
    arenas = report.get("memory", {}).get("arenas", {})
    for name in arenas_per_link:
        reports = arenas.get(name, {}).get("reports", 0)
        if reports != links:
            fail(errors, f"arena {name!r} reported {reports} times over "
                         f"{links} linkage.link_census_pair spans, want one "
                         f"report per link")

    return errors


def check_trace(trace: dict) -> list[str]:
    errors: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace: traceEvents missing or not an array"]
    if not events:
        fail(errors, "trace: traceEvents is empty")
    for k, ev in enumerate(events):
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in ev:
                fail(errors, f"trace: event {k} missing {key!r}")
                break
        if ev.get("ph") != "X":
            fail(errors, f"trace: event {k} has ph={ev.get('ph')!r}, "
                         f"want complete event 'X'")
            break
    return errors


# --- selftest fixtures ------------------------------------------------------

def _good_v2_report() -> dict:
    return {
        "schema": SCHEMA_V2,
        "tool": "selftest",
        "build": {
            "git_sha": "deadbeef", "compiler": "GNU 12.2.0", "flags": "-O3",
            "build_type": "Release", "preset": "release",
            "hostname": "host", "threads": 1,
        },
        "options": {"scale": 0.25},
        "scalars": {"link_seconds": 1.25},
        "quality": {
            "default.record": {
                "precision": 0.9, "recall": 0.8, "f_measure": 0.847,
                "true_positives": 90, "false_positives": 10,
                "false_negatives": 22,
            },
        },
        "iterations": [{
            "delta": 0.9, "scored_pairs": 10, "candidate_subgraphs": 5,
            "accepted_subgraphs": 4, "new_group_links": 4,
            "new_record_links": 9,
        }],
        "memory": {
            "allocator": {
                "hooks_compiled": True, "enabled": True,
                "bytes_allocated": 1000, "bytes_freed": 900,
                "live_bytes": 100, "alloc_calls": 10, "free_calls": 9,
            },
            "arenas": {
                "simbatch": {"bytes_total": 512, "max_bytes": 512,
                             "reports": 1},
            },
            "stages": [{
                "name": "linkage.link_census_pair", "count": 1,
                "bytes_allocated": 800, "bytes_freed": 700,
                "alloc_calls": 8, "free_calls": 7,
                "peak_rss_kb": 5000, "peak_vm_hwm_kb": 6000,
            }],
            "rss_kb": 5000,
            "vm_hwm_kb": 6000,
        },
        "metrics": {"counters": {"similarity.agg_calls": 10}, "gauges": {},
                    "histograms": {}},
        "spans": [{
            "path": "linkage.link_census_pair", "count": 1,
            "total_ms": 1250.0, "alloc_bytes": 800, "free_bytes": 700,
            "live_delta_bytes": 100,
        }],
    }


def _good_v1_report() -> dict:
    report = _good_v2_report()
    report["schema"] = SCHEMA_V1
    del report["build"]
    del report["memory"]
    for span in report["spans"]:
        for key in SPAN_KEYS_V2:
            del span[key]
    return report


def selftest() -> int:
    failures = 0

    def expect(name: str, report: dict, ok: bool,
               arenas_per_link: tuple[str, ...] = ()) -> None:
        nonlocal failures
        errors = check_report(report, [], [], arenas_per_link)
        if bool(not errors) != ok:
            failures += 1
            state = "clean" if not errors else f"errors {errors}"
            print(f"check_report selftest: {name}: got {state}, "
                  f"want {'clean' if ok else 'errors'}", file=sys.stderr)

    expect("good /2", _good_v2_report(), True)
    expect("good /1 (legacy)", _good_v1_report(), True)

    aborted = _good_v2_report()
    aborted["aborted"] = True
    aborted["abort_reason"] = "injected fault"
    expect("aborted /2", aborted, True)

    bad = _good_v2_report()
    del bad["build"]
    expect("missing build", bad, False)

    bad = _good_v2_report()
    del bad["memory"]["stages"]
    expect("missing memory.stages", bad, False)

    bad = _good_v2_report()
    del bad["memory"]["allocator"]["live_bytes"]
    expect("missing allocator.live_bytes", bad, False)

    bad = _good_v2_report()
    del bad["spans"][0]["alloc_bytes"]
    expect("span missing alloc_bytes", bad, False)

    bad = _good_v2_report()
    bad["build"]["git_sha"] = ""
    expect("empty git_sha", bad, False)

    bad = _good_v2_report()
    bad["schema"] = "tglink.run_report/3"
    expect("unknown schema", bad, False)

    bad = _good_v1_report()
    bad["memory"] = {}
    expect("/1 with v2-only key", bad, False)

    expect("one simbatch report per link", _good_v2_report(), True,
           ("simbatch",))
    bad = _good_v2_report()
    bad["memory"]["arenas"]["simbatch"]["reports"] = 2
    expect("two simbatch reports per link", bad, False, ("simbatch",))
    bad = _good_v2_report()
    bad["spans"][0]["count"] = 2
    expect("one simbatch report over two links", bad, False, ("simbatch",))
    bad = _good_v2_report()
    del bad["memory"]["arenas"]["simbatch"]
    expect("no simbatch report", bad, False, ("simbatch",))

    if failures:
        print(f"check_report selftest: {failures} case(s) failed",
              file=sys.stderr)
        return 1
    print("check_report selftest: all cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?", help="RunReport JSON file")
    parser.add_argument("--trace", help="Chrome trace JSON to validate too")
    parser.add_argument("--expect-span", action="append", default=[],
                        help="span leaf name (or full path) that must appear")
    parser.add_argument("--expect-counter", action="append", default=[],
                        help="counter name that must appear")
    parser.add_argument("--expect-arena-per-link", action="append",
                        default=[], metavar="ARENA",
                        help="arena whose reports must equal the number of "
                             "linkage.link_census_pair spans")
    parser.add_argument("--selftest", action="store_true",
                        help="validate known-good and known-bad fixtures")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.report:
        parser.error("a REPORT.json argument (or --selftest) is required")

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_report: cannot load {args.report}: {e}",
              file=sys.stderr)
        return 1
    errors = check_report(report, args.expect_span, args.expect_counter,
                          args.expect_arena_per_link)

    if args.trace:
        try:
            with open(args.trace, encoding="utf-8") as f:
                errors.extend(check_trace(json.load(f)))
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"trace: cannot load {args.trace}: {e}")

    for e in errors:
        print(f"check_report: {e}", file=sys.stderr)
    if not errors:
        print(f"check_report: {args.report} OK"
              + (f" (+ trace {args.trace})" if args.trace else ""))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
