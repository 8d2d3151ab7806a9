#!/usr/bin/env python3
"""Benchmark of the real-time locking simulator.

Run from the repository root:

    python3 perfbench/run.py --workload pcp_knee --seed 1 --seconds 10
    python3 perfbench/run.py --workload all          # every workload

One run builds the workload's run units from ``--seed``, executes them
in this process through ``repro.exec.run_units`` (``jobs=1``, cache
off, no retries) in passes until ``--seconds`` reference seconds (see
hostspeed.py) have been measured, checks every summary row, and prints
one JSON object as its last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
workload with every layer's entry points wrapped in spans and reports
per-layer self time and work counts.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import layers
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(HERE, "out")

#: Seed whose unit rows are pinned in ``reference/<workload>.json``.
DEFAULT_SEED = 1
#: Fresh processes timed per run for ``setup_s``; the median is kept.
SETUP_PROBES = 5
#: Traced passes per ``--trace 1`` run, at least; their call counts
#: must repeat exactly.
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {"txn_per_s": "txn/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator on one workload (or all).")
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default: %(default)s, whose "
                             "rows are pinned)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="reference seconds of passes to measure "
                             "(wall seconds for --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer "
                             "metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="pin the default seed's unit rows in "
                             "reference/<workload>.json")
    return parser.parse_args(argv)


def scrub_environment() -> None:
    """Plain runs see no REPRO_* knob (cache, jobs, engine, tracing)."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------
def setup_probe(name: str, seed: int) -> int:
    """Child side: time importing repro and planning the workload, in
    reference seconds (see hostspeed.py)."""
    before = loop_seconds()
    started = time.perf_counter()
    import repro  # noqa: F401
    imported = time.perf_counter()
    import workloads
    workloads.plan(name, seed)
    done = time.perf_counter()
    scale = hostspeed.REFERENCE_LOOP_S / (0.5 * (before + loop_seconds()))
    print(json.dumps({"import_s": (imported - started) * scale,
                      "setup_s": (done - started) * scale}))
    return 0


def loop_seconds() -> float:
    """Median duration of three calibration loops."""
    return statistics.median(end - start for start, end in
                             (hostspeed.time_loop() for _ in range(3)))


def measure_setup(name: str, seed: int) -> dict:
    """Median set-up and import time over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(completed.stdout.strip()
                                  .splitlines()[-1]))
    return {key: statistics.median(sample[key] for sample in samples)
            for key in ("import_s", "setup_s")}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def resident_mb() -> float:
    """Current resident set size (Linux), or 0 where unavailable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def run_pass(units, sample_rss: bool = False) -> dict:
    """Execute every unit once.  ``begin``/``end`` bracket the units,
    each timed from config to summary row, back to back."""
    import repro.exec as engine

    class UnitClock(engine.NullProgress):
        def __init__(self):
            self.begin = self.end = time.perf_counter()
            self.rss = []

        def start(self, stats):
            self.begin = self.end = time.perf_counter()

        def unit_done(self, unit, wall_s, cached, batch=1, failed=False,
                      row=None):
            self.end = time.perf_counter()
            if sample_rss:
                self.rss.append(resident_mb())

    clock = UnitClock()
    result = engine.run_units(units, jobs=1, cache=False, retries=0,
                              progress=clock)
    rows = result.rows
    return {"rows": rows, "failures": result.failures,
            "begin": clock.begin, "end": clock.end,
            "wall_s": clock.end - clock.begin, "rss": clock.rss,
            "processed": sum(row["processed"] for row in rows
                             if row is not None)}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
IDENTITIES = (
    ("processed", ("committed", "missed")),
    ("cc_requests", ("cc_immediate_grants", "cc_blocks")),
    ("cc_blocks", ("cc_direct_blocks", "cc_ceiling_blocks")),
)


def identity_errors(row: dict) -> list:
    errors = []
    for total, parts in IDENTITIES:
        if row[total] != sum(row[part] for part in parts):
            errors.append(f"{total} != {' + '.join(parts)}")
    return errors


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def differing_keys(row: dict, expected: dict) -> list:
    return sorted(key for key in set(row) | set(expected)
                  if canonical(row.get(key)) != canonical(
                      expected.get(key)))


class Verdict:
    """Counts unit executions and names every failed one."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check_pass(self, label: str, outcome: dict, expected,
                   against: str) -> None:
        """Check one pass's rows; ``expected`` may be None."""
        raised = {failure.index: failure for failure in outcome["failures"]}
        for index, row in enumerate(outcome["rows"]):
            self.attempted += 1
            problems = []
            if row is None:
                failure = raised.get(index)
                problems.append(f"raised {failure.error}"
                                if failure is not None else "no row")
            else:
                problems.extend(identity_errors(row))
                if expected is not None:
                    keys = differing_keys(row, expected[index])
                    if keys:
                        problems.append(f"differs from {against} in "
                                        f"{', '.join(keys)}")
            if problems:
                self.fail(f"{label} unit {index}: {'; '.join(problems)}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(f"{self.workload}: {message}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str):
    with open(reference_path(name), encoding="utf-8") as handle:
        return json.load(handle)["rows"]


def json_rows(rows):
    """Rows as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(rows))


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------
def instrument_environment(work_dir: str) -> None:
    """Switch the sanitizer, tracer and metrics on the user's way."""
    os.environ["REPRO_SANITIZE"] = "1"
    os.environ["REPRO_TRACE_DIR"] = os.path.join(work_dir, "trace")
    os.environ["REPRO_METRICS_DIR"] = os.path.join(work_dir, "metrics")


def baseline(args, workload, units, verdict, work_dir, sample_rss=False):
    """The rows every measured pass must reproduce.

    Returns ``(expected, plain)``: the pinned rows for the default seed
    (else ``None``) and one plain pass, run first when the workload is
    instrumented so its rows can be compared with the instrumented
    ones.  The environment is switched to instrumented afterwards.
    """
    expected = None
    if args.seed == DEFAULT_SEED:
        try:
            expected = load_reference(args.workload)
        except (OSError, ValueError, KeyError) as exc:
            verdict.fail(f"no pinned reference rows ({exc})")
        if expected is not None and len(expected) != len(units):
            verdict.fail(f"{len(expected)} pinned rows for "
                         f"{len(units)} units")
            expected = None
    plain = None
    if workload.instrumented or sample_rss:
        plain = run_pass(units, sample_rss=sample_rss)
        verdict.check_pass("plain pass", plain, expected, "pinned rows")
    if workload.instrumented:
        instrument_environment(work_dir)
    return expected, plain


def plain_run(args, workload, units, verdict, work_dir) -> dict:
    expected, plain = baseline(args, workload, units, verdict, work_dir)
    passes = []
    rates = []
    measured = 0.0
    with hostspeed.SpeedSampler() as sampler:
        while not passes or measured < args.seconds:
            outcome = run_pass(units)
            if expected is not None:
                compare, against = expected, "pinned rows"
            elif plain is not None:
                compare, against = json_rows(plain["rows"]), "plain rows"
            elif passes:
                compare, against = json_rows(passes[0]["rows"]), "pass 1"
            else:
                compare, against = None, ""
            verdict.check_pass(f"pass {len(passes) + 1}", outcome,
                               compare, against)
            passes.append(outcome)
            reference_s = sampler.reference_seconds(outcome["begin"],
                                                    outcome["end"])
            measured += reference_s
            rates.append(outcome["processed"] / reference_s)
    setup = measure_setup(args.workload, args.seed)
    print(f"passes: {len(passes)}; txn per reference second: "
          + ", ".join(f"{rate:.1f}" for rate in rates)
          + "; txn per wall second: "
          + ", ".join(f"{outcome['processed'] / outcome['wall_s']:.1f}"
                      for outcome in passes))
    return {
        "txn_per_s": statistics.median(rates),
        "setup_s": setup["setup_s"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(args, workload, units, verdict, work_dir) -> dict:
    import repro

    expected, plain = baseline(args, workload, units, verdict, work_dir,
                               sample_rss=True)
    untraced = plain
    if workload.instrumented:
        untraced = run_pass(units)
        verdict.check_pass("untraced instrumented pass", untraced,
                           json_rows(plain["rows"]), "plain rows")
    compare = expected or json_rows(plain["rows"])
    against = "pinned rows" if expected else "plain rows"

    recorder = spans.SpanRecorder(os.path.dirname(repro.__file__))
    traced = []
    started = time.perf_counter()
    with spans.instrument(recorder):
        while (len(traced) < MIN_TRACED_PASSES
               or time.perf_counter() - started < args.seconds):
            recorder.clear()
            outcome = run_pass(units)
            verdict.check_pass(f"traced pass {len(traced) + 1}", outcome,
                               compare, against)
            traced.append((outcome, layers.pass_metrics(recorder,
                                                        outcome["rows"])))
    first_counts = traced[0][1]["counts"]
    for number, (_, measured) in enumerate(traced[1:], start=2):
        changed = sorted(key for key in first_counts
                         if measured["counts"][key] != first_counts[key])
        if changed:
            verdict.fail(f"traced pass {number} call counts differ from "
                         f"pass 1 in {', '.join(changed)}")
    recorder.write(os.path.join(OUT_DIR, f"{args.workload}.spans"),
                   {"workload": args.workload, "seed": args.seed})

    setup = measure_setup(args.workload, args.seed)
    host = {
        "host.import_s": setup["import_s"],
        "host.rss_growth_mb": (plain["rss"][-1] - plain["rss"][0]
                               if plain["rss"] else 0.0),
        "host.span_overhead_x": (
            statistics.median(outcome["wall_s"] for outcome, _ in traced)
            / untraced["wall_s"]),
    }
    metrics = layers.combine([measured for _, measured in traced], host)
    print(layers.format_report(args.workload, metrics,
                               len(traced)))
    return metrics


def write_reference(args, units) -> int:
    if args.seed != DEFAULT_SEED:
        print(f"error: references are pinned for seed {DEFAULT_SEED} "
              f"only", file=sys.stderr)
        return 2
    outcome = run_pass(units)
    if outcome["failures"]:
        for failure in outcome["failures"]:
            print(f"error: unit {failure.index}: {failure.error}",
                  file=sys.stderr)
        return 1
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(reference_path(args.workload), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rows": outcome["rows"]}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(units)} rows in "
          f"{os.path.relpath(reference_path(args.workload), ROOT)}")
    return 0


def run_one(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    workload, units = workloads.plan(args.workload, args.seed)
    if args.write_reference:
        return write_reference(args, units)
    verdict = Verdict(args.workload)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        runner = traced_run if args.trace else plain_run
        metrics = runner(args, workload, units, verdict, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for message in verdict.messages:
        print(f"FAILED {message}", file=sys.stderr)
    if args.trace:
        units_of = layers.UNITS
    else:
        units_of = END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"{name:>12} = {value:.6g} {units_of[name]}")
    print(f"correct: {verdict.correct} ({verdict.failed} of "
          f"{verdict.attempted} unit runs failed; failed_frac = "
          f"{verdict.failed / verdict.attempted:.4f})")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and tabulate the result."""
    import workloads

    ok = True
    table = []
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            table.append(f"{name}: exited with {completed.returncode}")
            ok = False
            continue
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        verdict = ("correct" if result["correct"] else
                   f"INCORRECT ({result['failed']} of "
                   f"{result['attempted']} unit runs failed)")
        table.append(f"{name}: {verdict}; failed_frac = "
                     f"{result['failed'] / result['attempted']:.4f}")
        for metric, reading in result["metrics"].items():
            table.append(f"  {metric:<28} {reading['value']:>14.6g} "
                         f"{reading['unit']}")
    print("\n".join(table))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator source at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    scrub_environment()
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
