"""Microbenchmarks for the simulation hot path (``repro bench``).

Every paper figure is thousands of discrete-event runs, so the per-event
cost of the kernel/lock/trace path *is* the repo's performance story.
This module prices that path directly:

- ``calibration``     — a fixed pure-Python spin, used to normalize
  ops/sec across machines (CI gates on the *normalized* throughput, so
  a slower runner does not read as a regression);
- ``event_dispatch``  — raw kernel event throughput: N bare callbacks
  through ``Kernel.run``;
- ``timer_churn``     — schedule + cancel far-future timers while
  draining near events (the deadline-timer pattern; exercises the
  event-queue's dead-entry compaction);
- ``spawn_resume``    — process creation and generator resume churn;
- ``single_site_pcp`` / ``single_site_2pl`` — one seeded single-site
  run under protocols C and L (transactions/sec);
- ``dist_local`` / ``dist_global`` — one seeded distributed run per
  architecture (transactions/sec, messages included);
- ``traced_single_site`` — the PCP run again under an installed
  :class:`~repro.trace.tracer.Tracer`, pricing observability overhead.

``run_bench`` writes ``BENCH_<timestamp>.json`` documents; ``compare``
diffs two documents and enforces a regression threshold (the CI gate).
Wall time is measured with ``time.perf_counter`` — host time never
leaks into simulation state (the runs themselves are seeded and
virtual-time deterministic, which is property-tested elsewhere).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exec.host import peak_rss_kb

#: Benchmarks the CI regression gate checks by default: the acceptance
#: metrics of the optimization pass (raw dispatch and the single-site
#: microbench), chosen because they are the least noisy.
DEFAULT_GATED = ("event_dispatch", "single_site_pcp")

#: (full, quick) problem sizes per benchmark.
_SIZES = {
    "calibration": (400_000, 120_000),
    "event_dispatch": (200_000, 30_000),
    "timer_churn": (60_000, 10_000),
    "spawn_resume": (2_000, 400),
    "single_site": (400, 120),
    "distributed": (150, 60),
}


def _reset_counters() -> None:
    """Process-global id counters restart so every measured run does
    identical work regardless of what ran before it."""
    import repro.kernel.process as process_module
    import repro.txn.transaction as transaction_module
    transaction_module._tid_counter = itertools.count(1)
    process_module._pid_counter = itertools.count(1)


# ----------------------------------------------------------------------
# the benchmark bodies: each returns the operation count it performed
# ----------------------------------------------------------------------
def _bench_calibration(n: int) -> int:
    total = 0
    for i in range(n):
        total += i & 7
    return n


def _bench_event_dispatch(n: int) -> int:
    from ..kernel.kernel import Kernel
    kernel = Kernel(seed=0)
    schedule = kernel.events.schedule

    def callback() -> None:
        pass

    for i in range(n):
        schedule(float(i), callback)
    kernel.run()
    return n


def _bench_timer_churn(n: int) -> int:
    from ..kernel.kernel import Kernel
    kernel = Kernel(seed=0)
    events = kernel.events

    def callback() -> None:
        pass

    horizon = float(n) * 1e6
    for i in range(n):
        timer = events.schedule(horizon + i, callback)
        events.schedule(float(i), callback)
        events.cancel(timer)
    kernel.run(until=float(n))
    return 2 * n


def _bench_spawn_resume(n: int) -> int:
    from ..kernel.kernel import Kernel
    from ..kernel.syscalls import Delay
    yields = 10

    def body():
        for __ in range(yields):
            yield Delay(1.0)

    kernel = Kernel(seed=0)
    for i in range(n):
        kernel.spawn(body(), name=f"p{i}")
    kernel.run()
    return n * (yields + 1)


def _single_site_config(protocol: str, n_transactions: int):
    from ..core.config import SingleSiteConfig, WorkloadConfig
    return SingleSiteConfig(
        protocol=protocol, db_size=200, seed=17,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=2.0,
                                transaction_size=8, size_jitter=2,
                                read_only_fraction=0.25))


def _run_single_site(protocol: str, n: int) -> int:
    from ..core.experiment import run_single_site
    _reset_counters()
    row = run_single_site(_single_site_config(protocol, n))
    return int(row["processed"])


def _bench_single_site_pcp(n: int) -> int:
    return _run_single_site("C", n)


def _bench_single_site_2pl(n: int) -> int:
    return _run_single_site("L", n)


def _distributed_config(mode: str, n_transactions: int):
    from ..core.config import (DistributedConfig, TimingConfig,
                               WorkloadConfig)
    from ..txn.manager import CostModel
    return DistributedConfig(
        mode=mode, comm_delay=1.0, db_size=120, seed=17,
        workload=WorkloadConfig(n_transactions=n_transactions,
                                mean_interarrival=3.0,
                                transaction_size=4, size_jitter=1,
                                read_only_fraction=0.5),
        timing=TimingConfig(slack_factor=10.0),
        costs=CostModel(cpu_per_object=1.0, io_per_object=0.0))


def _run_distributed(mode: str, n: int) -> int:
    from ..core.experiment import run_distributed
    _reset_counters()
    row = run_distributed(_distributed_config(mode, n))
    return int(row["processed"])


def _bench_dist_local(n: int) -> int:
    return _run_distributed("local", n)


def _bench_dist_global(n: int) -> int:
    return _run_distributed("global", n)


def _bench_traced_single_site(n: int) -> int:
    from ..core.experiment import run_single_site
    from ..trace.tracer import Tracer, tracing
    _reset_counters()
    with tracing(Tracer()):
        row = run_single_site(_single_site_config("C", n))
    return int(row["processed"])


def _bench_metered_event_dispatch(n: int) -> int:
    from ..telemetry.registry import metering
    with metering():
        return _bench_event_dispatch(n)


def _bench_metered_single_site(n: int) -> int:
    from ..core.experiment import run_single_site
    from ..telemetry.registry import metering
    _reset_counters()
    with metering():
        row = run_single_site(_single_site_config("C", n))
    return int(row["processed"])


#: Metered benchmark -> plain baseline; priced as overhead ratios and
#: gated by ``--max-metrics-overhead`` (the ISSUE's <=10% budget).
METERED_PAIRS = {"metered_event_dispatch": "event_dispatch",
                 "metered_single_site": "single_site_pcp"}

#: name -> (size key, body).  Declaration order is report order.
BENCHMARKS: Dict[str, Tuple[str, Callable[[int], int]]] = {
    "calibration": ("calibration", _bench_calibration),
    "event_dispatch": ("event_dispatch", _bench_event_dispatch),
    "timer_churn": ("timer_churn", _bench_timer_churn),
    "spawn_resume": ("spawn_resume", _bench_spawn_resume),
    "single_site_pcp": ("single_site", _bench_single_site_pcp),
    "single_site_2pl": ("single_site", _bench_single_site_2pl),
    "dist_local": ("distributed", _bench_dist_local),
    "dist_global": ("distributed", _bench_dist_global),
    "traced_single_site": ("single_site", _bench_traced_single_site),
    "metered_event_dispatch": ("event_dispatch",
                               _bench_metered_event_dispatch),
    "metered_single_site": ("single_site", _bench_metered_single_site),
}


def _measure(body: Callable[[int], int], size: int,
             repeats: int) -> Tuple[int, float, List[float]]:
    """Run ``body`` ``repeats`` times; return (ops, best wall, walls).

    Best-of-N is the standard microbenchmark estimator: the minimum is
    the least contaminated by scheduler noise, and every repeat does
    identical (seeded) work.
    """
    walls: List[float] = []
    ops = 0
    for __ in range(repeats):
        started = time.perf_counter()
        ops = body(size)
        walls.append(time.perf_counter() - started)
    return ops, min(walls), walls


def run_bench(quick: bool = False, only: Optional[Sequence[str]] = None,
              repeats: int = 3) -> dict:
    """Run the suite and return the benchmark document (pure data)."""
    selected = list(BENCHMARKS) if not only else list(only)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmark(s) {unknown}; expected "
                         f"a subset of {list(BENCHMARKS)}")
    if "calibration" not in selected:
        selected.insert(0, "calibration")
    results: Dict[str, dict] = {}
    calibration_rate: Optional[float] = None
    for name in selected:
        size_key, body = BENCHMARKS[name]
        size = _SIZES[size_key][1 if quick else 0]
        ops, best, walls = _measure(body, size, repeats)
        rate = ops / best if best > 0 else float("inf")
        entry = {
            "ops": ops,
            "size": size,
            "repeats": repeats,
            "wall_s": best,
            "wall_s_all": walls,
            "ops_per_sec": rate,
            "peak_rss_kb": peak_rss_kb(),
        }
        if name == "calibration":
            calibration_rate = rate
        elif calibration_rate:
            entry["normalized_ops"] = rate / calibration_rate
        results[name] = entry
    if ("traced_single_site" in results
            and "single_site_pcp" in results):
        untraced = results["single_site_pcp"]["ops_per_sec"]
        traced = results["traced_single_site"]["ops_per_sec"]
        if traced > 0:
            results["traced_single_site"]["tracer_overhead_x"] = (
                untraced / traced)
    for metered_name, plain_name in METERED_PAIRS.items():
        if metered_name in results and plain_name in results:
            plain = results[plain_name]["ops_per_sec"]
            metered = results[metered_name]["ops_per_sec"]
            if metered > 0:
                results[metered_name]["metrics_overhead_x"] = (
                    plain / metered)
    import platform
    return {
        "schema": "repro-bench/1",
        # Host wall-clock provenance for the artifact name/metadata
        # only; no simulation state ever reads it.
        "timestamp": time.strftime(  # noqa: RPL001
            "%Y%m%d_%H%M%S", time.localtime()),  # noqa: RPL001
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
    }


def write_doc(doc: dict, out_dir: str) -> str:
    """Write ``BENCH_<timestamp>.json`` under ``out_dir``; return path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{doc['timestamp']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema") != "repro-bench/1":
        raise ValueError(f"{path}: not a repro-bench/1 document")
    return doc


def format_doc(doc: dict) -> str:
    lines = [f"repro bench — {doc['timestamp']} "
             f"(python {doc['python']}, "
             f"{'quick' if doc.get('quick') else 'full'})",
             f"{'benchmark':<20} {'ops':>10} {'wall s':>9} "
             f"{'ops/sec':>12} {'norm':>8} {'rss KB':>9}"]
    for name, entry in doc["results"].items():
        norm = entry.get("normalized_ops")
        lines.append(
            f"{name:<20} {entry['ops']:>10} {entry['wall_s']:>9.4f} "
            f"{entry['ops_per_sec']:>12.0f} "
            f"{norm if norm is None else format(norm, '.4f')!s:>8} "
            f"{entry.get('peak_rss_kb') or 0:>9}")
    traced = doc["results"].get("traced_single_site", {})
    if "tracer_overhead_x" in traced:
        lines.append(f"tracer overhead: "
                     f"{traced['tracer_overhead_x']:.2f}x the untraced "
                     f"single-site run")
    for metered_name, plain_name in METERED_PAIRS.items():
        metered = doc["results"].get(metered_name, {})
        if "metrics_overhead_x" in metered:
            lines.append(f"metrics overhead ({metered_name}): "
                         f"{metered['metrics_overhead_x']:.2f}x the "
                         f"plain {plain_name} run")
    return "\n".join(lines)


def metrics_overhead_violations(doc: dict,
                                limit: float) -> List[str]:
    """Metered benchmarks whose slowdown exceeds ``limit``.

    ``limit`` is a ratio ceiling (1.10 == at most 10% slower than the
    plain baseline).  Pairs the document lacks are skipped — the gate
    only applies to what actually ran.
    """
    messages = []
    for metered_name in METERED_PAIRS:
        overhead = doc["results"].get(metered_name, {}).get(
            "metrics_overhead_x")
        if overhead is not None and overhead > limit:
            messages.append(
                f"{metered_name}: {overhead:.3f}x exceeds the "
                f"{limit:.2f}x metrics-overhead ceiling")
    return messages


# ----------------------------------------------------------------------
# comparison / regression gating
# ----------------------------------------------------------------------
def _comparable_rate(entry: dict, other: dict) -> Tuple[float, float,
                                                        bool]:
    """Rates for old/new, normalized when both sides can be."""
    if "normalized_ops" in entry and "normalized_ops" in other:
        return entry["normalized_ops"], other["normalized_ops"], True
    return entry["ops_per_sec"], other["ops_per_sec"], False


def missing_gated(old: dict, new: dict,
                  gated: Sequence[str]) -> List[str]:
    """Gated benchmarks absent from either document.

    Each entry reads ``name (missing from: old)`` etc.  A gate on a
    benchmark neither document contains can never fire, so the CLI
    refuses such comparisons (exit 3) instead of silently passing.
    """
    messages = []
    for name in gated:
        absent = [label for label, doc in (("old", old), ("new", new))
                  if name not in doc["results"]]
        if absent:
            messages.append(f"{name} (missing from: "
                            f"{', '.join(absent)})")
    return messages


def compare_docs(old: dict, new: dict,
                 gated: Sequence[str] = DEFAULT_GATED,
                 threshold: float = 0.2) -> Tuple[str, List[str]]:
    """Render an A/B table; return (text, regression messages).

    A *gated* benchmark regresses when its (machine-normalized, when
    available) throughput drops by more than ``threshold`` relative to
    the old document.  Non-gated benchmarks are reported but never
    fail the comparison.  Only benchmarks present in both documents
    are compared — callers that gate should first reject comparisons
    where :func:`missing_gated` is non-empty, as the CLI does.
    """
    shared = [name for name in old["results"] if name in new["results"]]
    lines = [f"{'benchmark':<20} {'old ops/s':>12} {'new ops/s':>12} "
             f"{'speedup':>9}  basis"]
    regressions: List[str] = []
    for name in shared:
        if name == "calibration":
            continue
        old_rate, new_rate, normalized = _comparable_rate(
            old["results"][name], new["results"][name])
        speedup = (new_rate / old_rate) if old_rate > 0 else float("inf")
        basis = "normalized" if normalized else "raw"
        gate = ""
        if name in gated:
            gate = " [gated]"
            if speedup < 1.0 - threshold:
                regressions.append(
                    f"{name}: {speedup:.3f}x is below the "
                    f"{1.0 - threshold:.2f}x regression floor "
                    f"({basis} throughput)")
        lines.append(
            f"{name:<20} "
            f"{old['results'][name]['ops_per_sec']:>12.0f} "
            f"{new['results'][name]['ops_per_sec']:>12.0f} "
            f"{speedup:>8.3f}x  {basis}{gate}")
    return "\n".join(lines), regressions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Microbenchmark the simulation hot path and emit a "
                    "BENCH_<timestamp>.json document.")
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes (CI smoke)")
    parser.add_argument("--only", default=None,
                        help="comma-separated benchmark subset "
                             f"(of: {', '.join(BENCHMARKS)})")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per benchmark; the "
                             "best (minimum) wall time is kept")
    parser.add_argument("--out", default="benchmarks",
                        help="directory for the BENCH_*.json artifact "
                             "(default: benchmarks/)")
    parser.add_argument("--no-write", action="store_true",
                        help="print the table only; write no artifact")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON document to stdout")
    parser.add_argument("--max-metrics-overhead", type=float,
                        default=None, metavar="RATIO",
                        help="fail (exit 1) when a metered benchmark "
                             "is more than RATIO x its plain baseline "
                             "(e.g. 1.10 gates at 10%% overhead)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if (args.max_metrics_overhead is not None
            and args.max_metrics_overhead < 1.0):
        print("error: --max-metrics-overhead must be >= 1.0",
              file=sys.stderr)
        return 2
    only = ([token.strip() for token in args.only.split(",")
             if token.strip()] if args.only else None)
    try:
        doc = run_bench(quick=args.quick, only=only,
                        repeats=args.repeat)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_doc(doc))
    if not args.no_write:
        path = write_doc(doc, args.out)
        print(f"\nwrote {path}", file=sys.stderr)
    if args.max_metrics_overhead is not None:
        violations = metrics_overhead_violations(
            doc, args.max_metrics_overhead)
        if violations:
            print("\nMETRICS OVERHEAD:", file=sys.stderr)
            for message in violations:
                print(f"  {message}", file=sys.stderr)
            return 1
    return 0


def _compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench compare",
        description="Compare two BENCH_*.json documents and enforce a "
                    "regression threshold on the gated benchmarks.")
    parser.add_argument("old", help="baseline document (A)")
    parser.add_argument("new", help="candidate document (B)")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="maximum tolerated throughput drop on "
                             "gated benchmarks (default 0.2 = 20%%)")
    parser.add_argument("--gate", default=",".join(DEFAULT_GATED),
                        help="comma-separated benchmarks the threshold "
                             "applies to")
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        print("error: --threshold must be in [0, 1)", file=sys.stderr)
        return 2
    try:
        old, new = load_doc(args.old), load_doc(args.new)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gated = [token.strip() for token in args.gate.split(",")
             if token.strip()]
    missing = missing_gated(old, new, gated)
    if missing:
        print("error: gated benchmark(s) absent from the compared "
              "documents — the regression gate cannot apply:",
              file=sys.stderr)
        for message in missing:
            print(f"  {message}", file=sys.stderr)
        print("re-run 'repro bench' with these benchmarks included, "
              "or adjust --gate", file=sys.stderr)
        return 3
    text, regressions = compare_docs(old, new, gated=gated,
                                     threshold=args.threshold)
    print(text)
    if regressions:
        print("\nREGRESSION:", file=sys.stderr)
        for message in regressions:
            print(f"  {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
