#!/usr/bin/env python3
"""bench_diff — compares two tglink RunReports (a checked-in baseline and a
fresh run) and fails on regressions.

Usage:
    python3 tools/bench_diff.py BASELINE.json CURRENT.json
            [--time-tolerance R] [--span-tolerance R] [--min-ms MS]
            [--rss-tolerance R] [--allow-schema-mismatch]
    python3 tools/bench_diff.py --selftest

Comparison policy, per metric class:

  options     scale/seed/pair/scenario must match exactly — otherwise the
              two runs measured different experiments (exit 2, not 1). A
              missing scenario reads as "default", so pre-scenario
              baselines stay comparable. The retired "blocking" option
              (hash or index, which emit the same candidates) is not part
              of a run's identity. Options ending in
              "hash" (scenario content hashes) must match exactly when
              both sides carry them; one-sided is a note.
  quality     byte-deterministic at fixed options, so every counted field
              (tp/fp/fn) must match exactly; the derived ratios follow.
  iterations  deterministic: per-δ counts must match exactly.
  arenas      logical sizes, deterministic by design: bytes_total and
              max_bytes must match exactly (missing-on-one-side = drift).
  scalars     *seconds scalars are wall time: ratio-gated by
              --time-tolerance with a --min-ms absolute floor; other
              scalars (counts) must match exactly.
  spans       total_ms ratio-gated by --span-tolerance over --min-ms;
              count compared exactly; alloc/free bytes informational
              (allocator totals shift with libstdc++ internals).
  memory      rss_kb / vm_hwm_kb ratio-gated by --rss-tolerance (the OS
              decides page residency; wide by default); allocator totals
              informational.

Exit codes: 0 = no regression, 1 = regression(s), 2 = not comparable
(option mismatch, unreadable input). Wired into tools/check.sh as the
perf-gate stage, comparing a fresh smoke run against BENCH_table5_smoke.json.
"""

from __future__ import annotations

import argparse
import json
import sys

# Options that define the experiment; a mismatch means the comparison is
# meaningless rather than a regression.
IDENTITY_OPTIONS = ("scale", "seed", "pair", "scenario")
# Absent identity options read as these values, so baselines written before
# an option existed remain comparable without regeneration.
IDENTITY_DEFAULTS = {"scenario": "default"}
EXACT_QUALITY_KEYS = ("true_positives", "false_positives", "false_negatives")
ITERATION_KEYS = (
    "delta", "scored_pairs", "candidate_subgraphs", "accepted_subgraphs",
    "new_group_links", "new_record_links",
)


class Diff:
    """Accumulates findings, split into hard failures and notes."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)


def ratio_gate(diff: Diff, label: str, base: float, cur: float,
               tolerance: float, min_abs: float) -> None:
    """Fails when cur exceeds base by more than `tolerance` (a ratio, 0.5 =
    +50%) AND the absolute growth exceeds min_abs — tiny timings are all
    noise. Improvements never fail."""
    if cur <= base:
        return
    grown = cur - base
    if grown <= min_abs:
        return
    if base <= 0:
        diff.fail(f"{label}: baseline {base:g}, current {cur:g} "
                  f"(no baseline to scale against)")
        return
    if grown / base > tolerance:
        diff.fail(f"{label}: {base:g} -> {cur:g} "
                  f"(+{100.0 * grown / base:.1f}%, tolerance "
                  f"{100.0 * tolerance:.0f}%)")


def compare(baseline: dict, current: dict, args: argparse.Namespace,
            diff: Diff) -> bool:
    """Returns False when the reports are not comparable at all."""
    if baseline.get("schema") != current.get("schema") and \
            not args.allow_schema_mismatch:
        diff.fail(f"schema mismatch: {baseline.get('schema')!r} vs "
                  f"{current.get('schema')!r} "
                  f"(--allow-schema-mismatch to override)")
        return False
    if baseline.get("tool") != current.get("tool"):
        diff.fail(f"tool mismatch: {baseline.get('tool')!r} vs "
                  f"{current.get('tool')!r}")
        return False
    if current.get("aborted") or baseline.get("aborted"):
        diff.fail("comparing an aborted (partial) report")
        return False
    base_opt = baseline.get("options", {})
    cur_opt = current.get("options", {})
    comparable = True
    for key in IDENTITY_OPTIONS:
        default = IDENTITY_DEFAULTS.get(key)
        b = base_opt.get(key, default)
        c = cur_opt.get(key, default)
        if b != c:
            diff.fail(f"option {key!r} differs: {b!r} vs {c!r} — runs are "
                      f"not comparable")
            comparable = False
    # Content hashes pin the exact profile a run used: a mismatch means the
    # scenario file changed, so quality diffs would be meaningless. Only one
    # side having a hash (an older baseline) is informational.
    for key in sorted(base_opt.keys() | cur_opt.keys()):
        if not key.endswith("hash"):
            continue
        b, c = base_opt.get(key), cur_opt.get(key)
        if b is None or c is None:
            diff.note(f"option {key!r} present on only one side")
            continue
        if b != c:
            diff.fail(f"option {key!r} differs: {b!r} vs {c!r} — the "
                      f"profile content changed; regenerate the baseline")
            comparable = False
    return comparable


def diff_quality(baseline: dict, current: dict, diff: Diff) -> None:
    base_q = baseline.get("quality", {})
    cur_q = current.get("quality", {})
    for label in sorted(base_q.keys() | cur_q.keys()):
        if label not in cur_q:
            diff.fail(f"quality[{label!r}] missing from current run")
            continue
        if label not in base_q:
            diff.note(f"quality[{label!r}] new in current run")
            continue
        for key in EXACT_QUALITY_KEYS:
            b, c = base_q[label].get(key), cur_q[label].get(key)
            if b != c:
                diff.fail(f"quality[{label!r}].{key}: {b} -> {c} "
                          f"(deterministic; must match exactly)")


def diff_iterations(baseline: dict, current: dict, diff: Diff) -> None:
    base_it = baseline.get("iterations", [])
    cur_it = current.get("iterations", [])
    if len(base_it) != len(cur_it):
        diff.fail(f"iteration count: {len(base_it)} -> {len(cur_it)}")
        return
    for k, (b, c) in enumerate(zip(base_it, cur_it)):
        for key in ITERATION_KEYS:
            if b.get(key) != c.get(key):
                diff.fail(f"iterations[{k}].{key}: {b.get(key)} -> "
                          f"{c.get(key)} (deterministic)")


def diff_scalars(baseline: dict, current: dict, args: argparse.Namespace,
                 diff: Diff) -> None:
    base_s = baseline.get("scalars", {})
    cur_s = current.get("scalars", {})
    for name in sorted(base_s.keys() | cur_s.keys()):
        if name not in cur_s:
            diff.fail(f"scalar {name!r} missing from current run")
            continue
        if name not in base_s:
            diff.note(f"scalar {name!r} new in current run")
            continue
        b, c = base_s[name], cur_s[name]
        # Wall-time scalars end in "seconds" under either separator
        # convention ("link_seconds", "default.iterative.seconds").
        if name.endswith("seconds"):
            ratio_gate(diff, f"scalar {name}", b * 1e3, c * 1e3,
                       args.time_tolerance, args.min_ms)
        elif b != c:
            diff.fail(f"scalar {name}: {b:g} -> {c:g} "
                      f"(deterministic; must match exactly)")


def diff_spans(baseline: dict, current: dict, args: argparse.Namespace,
               diff: Diff) -> None:
    base_spans = {s["path"]: s for s in baseline.get("spans", [])}
    cur_spans = {s["path"]: s for s in current.get("spans", [])}
    for path in sorted(base_spans.keys() | cur_spans.keys()):
        if path not in cur_spans:
            diff.fail(f"span {path!r} missing from current run")
            continue
        if path not in base_spans:
            diff.note(f"span {path!r} new in current run")
            continue
        b, c = base_spans[path], cur_spans[path]
        if b.get("count") != c.get("count"):
            diff.fail(f"span {path!r} count: {b.get('count')} -> "
                      f"{c.get('count')} (deterministic)")
        ratio_gate(diff, f"span {path!r} total_ms", b.get("total_ms", 0.0),
                   c.get("total_ms", 0.0), args.span_tolerance, args.min_ms)
        for key in ("alloc_bytes", "free_bytes"):
            bv, cv = b.get(key), c.get(key)
            if bv is None or cv is None or bv == cv:
                continue
            # Informational only, and runs differ by a few hundred bytes of
            # environment/timestamp strings every time — note >=1% shifts.
            if abs(cv - bv) >= 0.01 * max(bv, 1):
                diff.note(f"span {path!r} {key}: {bv} -> {cv}")


def diff_memory(baseline: dict, current: dict, args: argparse.Namespace,
                diff: Diff) -> None:
    base_m = baseline.get("memory")
    cur_m = current.get("memory")
    if base_m is None or cur_m is None:
        if base_m is not cur_m:
            diff.note("memory block present on only one side (/1 vs /2)")
        return
    base_a = base_m.get("arenas", {})
    cur_a = cur_m.get("arenas", {})
    for name in sorted(base_a.keys() | cur_a.keys()):
        if name not in cur_a:
            diff.fail(f"arena {name!r} missing from current run")
            continue
        if name not in base_a:
            diff.fail(f"arena {name!r} new in current run "
                      f"(baseline needs regenerating)")
            continue
        for key in ("bytes_total", "max_bytes"):
            b, c = base_a[name].get(key), cur_a[name].get(key)
            if b != c:
                diff.fail(f"arena {name!r} {key}: {b} -> {c} "
                          f"(logical sizes are deterministic)")
    for key in ("rss_kb", "vm_hwm_kb"):
        ratio_gate(diff, f"memory.{key}", float(base_m.get(key, 0)),
                   float(cur_m.get(key, 0)), args.rss_tolerance,
                   min_abs=1024.0)  # ignore < 1 MB of RSS noise
    base_alloc = base_m.get("allocator", {})
    cur_alloc = cur_m.get("allocator", {})
    b = base_alloc.get("bytes_allocated")
    c = cur_alloc.get("bytes_allocated")
    if b is not None and c is not None and b != c \
            and abs(c - b) >= 0.01 * max(b, 1):
        diff.note(f"allocator bytes_allocated: {b} -> {c}")


def run_diff(baseline: dict, current: dict,
             args: argparse.Namespace) -> tuple[Diff, bool]:
    diff = Diff()
    if not compare(baseline, current, args, diff):
        return diff, False
    diff_quality(baseline, current, diff)
    diff_iterations(baseline, current, diff)
    diff_scalars(baseline, current, args, diff)
    diff_spans(baseline, current, args, diff)
    diff_memory(baseline, current, args, diff)
    return diff, True


def make_args(**overrides) -> argparse.Namespace:
    args = argparse.Namespace(time_tolerance=0.5, span_tolerance=1.0,
                              min_ms=50.0, rss_tolerance=0.5,
                              allow_schema_mismatch=False)
    for key, value in overrides.items():
        setattr(args, key, value)
    return args


# --- selftest ---------------------------------------------------------------

def _fixture_report() -> dict:
    return {
        "schema": "tglink.run_report/2",
        "tool": "table5_iterative",
        "build": {"git_sha": "abc", "compiler": "GNU 12.2.0", "flags": "",
                  "build_type": "Release", "preset": "release",
                  "hostname": "h", "threads": 1},
        "options": {"scale": 0.125, "seed": 42, "pair": 2, "threads": 1},
        "scalars": {"link_seconds": 2.0, "record_links": 900.0},
        "quality": {"default.record": {
            "precision": 0.9, "recall": 0.8, "f_measure": 0.847,
            "true_positives": 90, "false_positives": 10,
            "false_negatives": 22}},
        "iterations": [{"delta": 0.9, "scored_pairs": 100,
                        "candidate_subgraphs": 50, "accepted_subgraphs": 40,
                        "new_group_links": 40, "new_record_links": 90}],
        "memory": {
            "allocator": {"hooks_compiled": True, "enabled": True,
                          "bytes_allocated": 10000, "bytes_freed": 9000,
                          "live_bytes": 1000, "alloc_calls": 100,
                          "free_calls": 90},
            "arenas": {"simbatch": {"bytes_total": 4096, "max_bytes": 4096,
                                    "reports": 1}},
            "stages": [],
            "rss_kb": 50000, "vm_hwm_kb": 60000},
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": [{"path": "linkage.link_census_pair", "count": 1,
                   "total_ms": 2000.0, "alloc_bytes": 5000,
                   "free_bytes": 4000, "live_delta_bytes": 1000}],
    }


def selftest() -> int:
    failures = 0

    def expect(name: str, baseline: dict, current: dict, want_fail: bool,
               **arg_overrides) -> None:
        nonlocal failures
        diff, _ = run_diff(baseline, current, make_args(**arg_overrides))
        failed = bool(diff.failures)
        if failed != want_fail:
            failures += 1
            state = f"failures {diff.failures}" if failed else "clean"
            print(f"bench_diff selftest: {name}: got {state}, want "
                  f"{'failure' if want_fail else 'clean'}", file=sys.stderr)

    expect("identical reports", _fixture_report(), _fixture_report(), False)

    # A 2x span-time regression (also 2x link_seconds) must fail even under
    # the default (wide) tolerances.
    slow = _fixture_report()
    slow["spans"][0]["total_ms"] = 4000.0
    slow["scalars"]["link_seconds"] = 4.0
    expect("2x span-time regression", _fixture_report(), slow, True)

    # Small timing noise within tolerance passes.
    noisy = _fixture_report()
    noisy["spans"][0]["total_ms"] = 2300.0
    noisy["scalars"]["link_seconds"] = 2.2
    expect("timing noise within tolerance", _fixture_report(), noisy, False)

    # Faster is never a failure.
    fast = _fixture_report()
    fast["spans"][0]["total_ms"] = 100.0
    fast["scalars"]["link_seconds"] = 0.1
    expect("improvement", _fixture_report(), fast, False)

    drift = _fixture_report()
    drift["quality"]["default.record"]["true_positives"] = 89
    expect("quality drift", _fixture_report(), drift, True)

    arena = _fixture_report()
    arena["memory"]["arenas"]["simbatch"]["bytes_total"] = 5000
    expect("arena byte drift", _fixture_report(), arena, True)

    counts = _fixture_report()
    counts["scalars"]["record_links"] = 901.0
    expect("count scalar drift", _fixture_report(), counts, True)

    other = _fixture_report()
    other["options"]["scale"] = 0.25
    expect("option mismatch", _fixture_report(), other, True)

    # Baselines written while a --blocking option chose between hash
    # blocking and the index (the same candidate set) stay comparable.
    legacy = _fixture_report()
    legacy["options"]["blocking"] = "hash"
    expect("retired blocking option", legacy, _fixture_report(), False)

    # The fixture predates --scenario; an explicit "default" run must still
    # compare clean against it, while a real scenario must not.
    default_scenario = _fixture_report()
    default_scenario["options"]["scenario"] = "default"
    default_scenario["options"]["scenario_hash"] = "none"
    expect("scenario defaults vs pre-scenario baseline", _fixture_report(),
           default_scenario, False)
    shifted = _fixture_report()
    shifted["options"]["scenario"] = "migration_shock"
    expect("scenario mismatch", _fixture_report(), shifted, True)
    rehash_base = _fixture_report()
    rehash_base["options"]["scenario"] = "migration_shock"
    rehash_base["options"]["scenario_hash"] = "00000000deadbeef"
    rehash_cur = _fixture_report()
    rehash_cur["options"]["scenario"] = "migration_shock"
    rehash_cur["options"]["scenario_hash"] = "00000000cafef00d"
    expect("scenario content hash mismatch", rehash_base, rehash_cur, True)

    aborted = _fixture_report()
    aborted["aborted"] = True
    expect("aborted current run", _fixture_report(), aborted, True)

    # RSS noise below 50% passes; allocator totals never gate.
    rss = _fixture_report()
    rss["memory"]["rss_kb"] = 60000
    rss["memory"]["allocator"]["bytes_allocated"] = 10500
    expect("rss noise + allocator drift", _fixture_report(), rss, False)

    if failures:
        print(f"bench_diff selftest: {failures} case(s) failed",
              file=sys.stderr)
        return 1
    print("bench_diff selftest: all cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="baseline RunReport JSON")
    parser.add_argument("current", nargs="?", help="current RunReport JSON")
    parser.add_argument("--time-tolerance", type=float, default=0.5,
                        help="allowed *seconds growth ratio (default 0.5 "
                             "= +50%%)")
    parser.add_argument("--span-tolerance", type=float, default=1.0,
                        help="allowed span total_ms growth ratio (default "
                             "1.0 = +100%%)")
    parser.add_argument("--min-ms", type=float, default=50.0,
                        help="absolute growth floor below which timings "
                             "never fail (default 50 ms)")
    parser.add_argument("--rss-tolerance", type=float, default=0.5,
                        help="allowed RSS growth ratio (default 0.5)")
    parser.add_argument("--allow-schema-mismatch", action="store_true",
                        help="compare a /1 baseline against a /2 run")
    parser.add_argument("--selftest", action="store_true",
                        help="validate the embedded regression fixtures")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.current:
        parser.error("BASELINE.json and CURRENT.json (or --selftest) "
                     "are required")

    reports = []
    for path in (args.baseline, args.current):
        try:
            with open(path, encoding="utf-8") as f:
                reports.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: cannot load {path}: {e}", file=sys.stderr)
            return 2
    diff, comparable = run_diff(reports[0], reports[1], args)

    for note in diff.notes:
        print(f"bench_diff: note: {note}")
    for failure in diff.failures:
        print(f"bench_diff: FAIL: {failure}", file=sys.stderr)
    if not comparable:
        return 2
    if diff.failures:
        print(f"bench_diff: {len(diff.failures)} regression(s) vs "
              f"{args.baseline}", file=sys.stderr)
        return 1
    print(f"bench_diff: no regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
