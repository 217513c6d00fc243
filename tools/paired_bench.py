#!/usr/bin/env python3
"""paired_bench — alternating paired runs of a git revision and the working
tree on one perfbench workload, judged by a fixed rule.

Usage:
    python3 tools/paired_bench.py --rev HEAD~1 --workload rawtenstall_pair
            [--pairs 10] [--seconds 50] [--seed 1] [--metric link_s]
            [--work-dir DIR]
    python3 tools/paired_bench.py --selftest

Builds perfbench's `linkbench` twice with perfbench/run.py's own build step:
once from `git archive REV` and once from the working tree, each into its
own directory under --work-dir (default .bench_build/paired). Then runs the
two binaries in --pairs pairs on the workload, each run a --trace 0 run of
--seconds through run.py's runner (its inputs, settings and timeout),
alternating which side runs first. run.py comes from the working tree, so
both sides run under the same settings. One run's sample is the metric as
run.py reports it: the median of the run's calls.

Every run must pass run.py's own checks (its calls agree on the links,
record_f and group_f reach the workload's floor). Every run measures all
of run.py's end-to-end metrics; for each one the report prints each
side's median and quartiles over its runs and how many pairs the working
tree won (ties count for neither side; record_f and group_f are better
higher, the others lower). It also prints whether every run of both sides
produced the same links (linkbench's fingerprint). The verdict is on
--metric alone: "gain" only when the working tree wins at least nine
tenths of the pairs and the medians differ by more than the distance
between the quartiles of the revision's runs; otherwise "no claim".
Lower is better for every metric --metric offers.

Exit codes: 0 = ran (either verdict), 1 = the links differ or a run
failed, 2 = could not build or start.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from types import ModuleType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("link_s", "link_cpu_s", "setup_s", "peak_rss_mb")
HIGHER_IS_BETTER = ("record_f", "group_f")
WIN_SHARE = 0.9


def fail_setup(message: str) -> None:
    print(f"paired_bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_run_py() -> ModuleType:
    """The working tree's perfbench/run.py, loaded as a module."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    if spec is None or spec.loader is None or not os.path.isfile(path):
        fail_setup(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = load_run_py()


def rev_runs_first(pair: int) -> bool:
    """The revision opens even pairs, the working tree odd ones."""
    return pair % 2 == 0


def judge(base: list[float], change: list[float],
          higher_is_better: bool = False) -> dict:
    """Summary of paired samples (base[i] and change[i] are pair i; lower
    is better unless `higher_is_better`)."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change sample per pair")
    sign = -1.0 if higher_is_better else 1.0
    wins = sum(sign * c < sign * b for b, c in zip(base, change))
    losses = sum(sign * c > sign * b for b, c in zip(base, change))
    base_lo, base_hi = RUN.quartiles(base)
    change_lo, change_hi = RUN.quartiles(change)
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    iqr = base_hi - base_lo
    gain = (wins >= WIN_SHARE * len(base)
            and sign * (base_median - change_median) > iqr)
    return {
        "pairs": len(base), "wins": wins, "losses": losses,
        "base": (base_median, base_lo, base_hi),
        "change": (change_median, change_lo, change_hi),
        "base_iqr": iqr, "verdict": "gain" if gain else "no claim",
    }


def summarize(base_runs: list[dict], change_runs: list[dict]) -> dict:
    """judge() for every end-to-end metric of run.py, from per-run metric
    values (base_runs[i] and change_runs[i] are pair i's runs, each a
    {metric: value} dict); keyed by metric, in run.py's order."""
    return {name: judge([run[name] for run in base_runs],
                        [run[name] for run in change_runs],
                        name in HIGHER_IS_BETTER)
            for name in RUN.END_TO_END_UNITS}


def report_lines(summary: dict, rev: str) -> list[str]:
    """One table row per metric: each side's median and quartiles and the
    working tree's wins and losses."""
    lines = [f"  {'metric':<12}{'side':<14}{'median':>12}{'p25':>12}"
             f"{'p75':>12}  tree wins"]
    for name, s in summary.items():
        unit = RUN.END_TO_END_UNITS[name]
        better = "higher" if name in HIGHER_IS_BETTER else "lower"
        for label, (median, lo, hi) in ((rev, s["base"]),
                                        ("tree", s["change"])):
            tail = (f"  {s['wins']}/{s['pairs']} (loses {s['losses']}; "
                    f"{better} is better, {unit})" if label == "tree" else "")
            lines.append(f"  {name:<12}{label:<14}{median:>12.6g}{lo:>12.6g}"
                         f"{hi:>12.6g}{tail}")
    return lines


def use_checkout(source: str, build_dir: str) -> None:
    """Points run.py's build() and linkbench() at `source` and `build_dir`;
    both read these module globals when called."""
    RUN.ROOT = source
    RUN.BUILD_DIR = build_dir
    RUN.BINARY = os.path.join(build_dir, "linkbench")


def build(source: str, build_dir: str) -> str:
    """Builds linkbench from `source` with run.py's build step; returns the
    binary's path. Build chatter goes to stderr."""
    use_checkout(source, build_dir)
    RUN.build()
    return RUN.BINARY


def export_rev(rev: str, dest: str) -> tuple[str, str]:
    """Extracts the committed tree of `rev` into dest/src-<commit>; returns
    the directory (reused when already there) and the short commit id."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                             rev + "^{commit}"], capture_output=True,
                            text=True)
    if commit.returncode:
        fail_setup(f"unknown revision {rev!r}")
    short = commit.stdout.strip()[:12]
    source = os.path.join(dest, "src-" + short)
    if not os.path.isdir(source):
        with tempfile.TemporaryFile() as archive:
            if subprocess.run(["git", "-C", ROOT, "archive", rev],
                              stdout=archive).returncode:
                fail_setup(f"git archive {rev} failed")
            archive.seek(0)
            with tarfile.open(fileobj=archive) as tar:
                if hasattr(tarfile, "data_filter"):
                    tar.extractall(source, filter="data")
                else:
                    tar.extractall(source)
    return source, short


def checked(out: dict, floor: float) -> tuple[list[str], dict]:
    """run.py's end-to-end checks and metrics of one linkbench result,
    without its table on stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        _, problems, metrics = RUN.end_to_end(out, floor)
    return problems, metrics


def run_once(binary: str, w: dict, args: argparse.Namespace
             ) -> tuple[dict | None, list[str], dict]:
    """One --trace 0 run: (linkbench result or None, problems, metrics)."""
    RUN.BINARY = binary
    out, err = RUN.linkbench("link", w, args.seed,
                             ("--seconds", repr(args.seconds),
                              "--setups", str(RUN.SETUPS),
                              "--min-links", str(RUN.MIN_LINKS)))
    if out is None:
        return None, [err], {}
    problems, metrics = checked(out, w["floor"])
    return out, problems, metrics


def paired(args: argparse.Namespace) -> int:
    if args.workload not in RUN.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from "
                   + ", ".join(sorted(RUN.WORKLOADS)))
    w = RUN.WORKLOADS[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    rev_source, rev_commit = export_rev(args.rev, args.work_dir)
    rev_binary = build(rev_source,
                       os.path.join(args.work_dir, "build-" + rev_commit))
    tree_binary = build(ROOT, os.path.join(args.work_dir, "build-tree"))
    base_runs, change_runs, prints = [], [], set()
    for pair in range(args.pairs):
        order = [("rev", rev_binary), ("tree", tree_binary)]
        if not rev_runs_first(pair):
            order.reverse()
        got = {}
        for side, binary in order:
            out, problems, metrics = run_once(binary, w, args)
            if problems:
                for p in problems:
                    print(f"paired_bench: FAILED: pair {pair + 1}, {side}: "
                          f"{p}", file=sys.stderr)
                return 1
            got[side] = {name: m["value"] for name, m in metrics.items()}
            prints.add(out["fingerprint"])
        base_runs.append(got["rev"])
        change_runs.append(got["tree"])
        print(f"pair {pair + 1:>2}: {args.rev} "
              f"{got['rev'][args.metric]:.6g}  "
              f"tree {got['tree'][args.metric]:.6g}", flush=True)
    summary = summarize(base_runs, change_runs)
    print(f"\n{args.workload}, {len(base_runs)} pairs of "
          f"{args.seconds:g} s runs, seed {args.seed}")
    for line in report_lines(summary, args.rev):
        print(line)
    s = summary[args.metric]
    print(f"\n{args.metric}: tree wins {s['wins']}/{s['pairs']} pairs "
          f"(loses {s['losses']}); {args.rev} IQR {s['base_iqr']:.6g}")
    same = len(prints) == 1
    print(f"  fingerprints equal: {'yes' if same else 'NO'} "
          f"({', '.join(sorted(prints))})")
    print(f"  verdict: {s['verdict']}")
    return 0 if same else 1


def selftest() -> int:
    failures = []

    def expect(name: str, got, want) -> None:
        if got != want:
            failures.append(f"{name}: got {got!r}, want {want!r}")

    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [v * 0.75 for v in parent]
    s = judge(parent, faster)
    expect("clear gain wins", s["wins"], 10)
    expect("clear gain verdict", s["verdict"], "gain")
    # Eight wins of ten fall short of nine tenths, however large.
    eight = faster[:8] + [v * 1.5 for v in parent[8:]]
    expect("8/10 verdict", judge(parent, eight)["verdict"], "no claim")
    # Nine wins of ten suffice when the gap exceeds the parent's IQR.
    nine = faster[:9] + [parent[9] * 1.5]
    expect("9/10 verdict", judge(parent, nine)["verdict"], "gain")
    # Ties count for neither side.
    ties = judge(parent, list(parent))
    expect("ties wins", (ties["wins"], ties["losses"]), (0, 0))
    expect("ties verdict", ties["verdict"], "no claim")
    # Winning every pair by less than the parent's spread is no claim.
    noisy = [0.8, 1.2, 0.8, 1.2, 0.8, 1.2, 0.8, 1.2, 0.8, 1.2]
    slight = [v - 0.01 for v in noisy]
    s = judge(noisy, slight)
    expect("small gap wins", s["wins"], 10)
    expect("small gap verdict", s["verdict"], "no claim")
    expect("order alternates",
           [rev_runs_first(i) for i in range(4)], [True, False, True, False])
    try:
        judge([1.0], [])
        failures.append("unpaired samples accepted")
    except ValueError:
        pass

    # A run is judged by run.py's own checks; the sample is its median.
    good = {"fingerprint_mismatches": 0, "record_f": 0.95, "group_f": 0.93,
            "link_s": [3.0, 1.0, 2.0], "link_cpu_s": [3.0, 1.0, 2.0],
            "setup_s": [0.1, 0.1], "peak_rss_mb": 50.0}
    problems, metrics = checked(good, 0.9)
    expect("good run problems", problems, [])
    expect("sample is the median", metrics["link_s"]["value"], 2.0)
    expect("scalar metric as is", metrics["peak_rss_mb"]["value"], 50.0)

    # Every end-to-end metric is summarized from the same runs, each in its
    # own direction: record_f and group_f win higher, the others lower.
    base_runs = [{name: 1.0 for name in RUN.END_TO_END_UNITS}
                 for _ in range(4)]
    change_runs = [dict(run, link_s=0.5, record_f=1.5, group_f=0.5)
                   for run in base_runs]
    summary = summarize(base_runs, change_runs)
    expect("every metric summarized", list(summary),
           list(RUN.END_TO_END_UNITS))
    expect("lower link_s wins", summary["link_s"]["wins"], 4)
    expect("higher record_f wins", summary["record_f"]["wins"], 4)
    expect("lower group_f loses", summary["group_f"]["losses"], 4)
    expect("higher record_f verdict", summary["record_f"]["verdict"], "gain")
    expect("equal setup_s ties", (summary["setup_s"]["wins"],
                                  summary["setup_s"]["losses"]), (0, 0))
    lines = report_lines(summary, "HEAD")
    for name in RUN.END_TO_END_UNITS:
        expect(f"report rows for {name}",
               sum(line.split()[0] == name for line in lines[1:]), 2)
    expect("calls disagree fails",
           len(checked(dict(good, fingerprint_mismatches=1), 0.9)[0]), 1)
    expect("below the floor fails",
           len(checked(dict(good, group_f=0.5), 0.9)[0]), 1)

    for f in failures:
        print(f"paired_bench selftest: FAILED: {f}", file=sys.stderr)
    print("paired_bench selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="git revision to compare against")
    parser.add_argument("--workload", help="perfbench workload name")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--metric", choices=METRICS, default="link_s")
    parser.add_argument("--work-dir",
                        default=os.path.join(ROOT, ".bench_build", "paired"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.rev is None or args.workload is None:
        parser.error("--rev and --workload are required")
    if args.pairs < 1 or args.seconds < 0:
        parser.error("--pairs must be positive, --seconds non-negative")
    return paired(args)


if __name__ == "__main__":
    sys.exit(main())
