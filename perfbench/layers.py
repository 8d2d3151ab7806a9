"""Per-layer metrics of a traced pass.

Two sources, both exactly repeatable for a seed:

- span aggregates from :class:`spans.SpanRecorder` — self time per
  layer and call counts at the wrapped entry points;
- counters the program already puts in every summary row.

``METRICS`` lists every per-layer metric with its unit and which way
is better.  Counts are identical on every traced pass of a seed and
reported from the first; times are medians over the traced passes.
"""

from __future__ import annotations

import statistics

from spans import GUARDS, LAYERS

#: Layers whose entry counts exclude the construction-time guards.
OBSERVERS = ("trace", "telemetry", "analyze")

METRICS = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.share", "fraction", "lower") for layer in LAYERS]
    + [
        ("kernel.events_scheduled", "count", "lower"),
        ("kernel.events_cancelled", "count", "lower"),
        ("kernel.spawns", "count", "lower"),
        ("kernel.us_per_event", "us", "lower"),
        ("cc.calls", "count", "lower"),
        ("cc.us_per_call", "us", "lower"),
        ("cc.requests", "count", "lower"),
        ("cc.blocks", "count", "lower"),
        ("cc.ceiling_blocks", "count", "lower"),
        ("cc.direct_blocks", "count", "lower"),
        ("cc.deadlocks", "count", "lower"),
        ("cc.inheritance_events", "count", "lower"),
        ("cc.grant_ratio", "fraction", "higher"),
        ("cc.blocked_sim_mean", "sim_time", "lower"),
        ("db.lock_grants", "count", "lower"),
        ("db.lock_releases", "count", "lower"),
        ("db.lock_probes", "count", "lower"),
        ("db.replica_writes", "count", "lower"),
        ("txn.resumes", "count", "lower"),
        ("txn.generated", "count", "higher"),
        ("txn.restarts", "count", "lower"),
        ("txn.percent_missed", "%", "lower"),
        ("resources.cpu_uses", "count", "lower"),
        ("resources.io_uses", "count", "lower"),
        ("resources.cpu_utilization", "fraction", "higher"),
        ("dist.messages_sent", "count", "lower"),
        ("dist.messages_lost", "count", "lower"),
        ("dist.undeliverable", "count", "lower"),
        ("dist.rpc_requests", "count", "lower"),
        ("dist.us_per_message", "us", "lower"),
        ("faults.rpc_retries", "count", "lower"),
        ("faults.courier_retries", "count", "lower"),
        ("core.build_s", "s", "lower"),
        ("core.summary_s", "s", "lower"),
        ("core.records", "count", "higher"),
        ("exec.units", "count", "higher"),
        ("trace.calls", "count", "lower"),
        ("telemetry.calls", "count", "lower"),
        ("analyze.calls", "count", "lower"),
        ("regime.blocks_per_txn", "blocks/txn", "lower"),
        ("regime.msgs_per_txn", "msgs/txn", "lower"),
        ("regime.backlog_max", "events", "lower"),
        ("regime.spans", "count", "lower"),
        ("host.import_s", "s", "lower"),
        ("host.rss_growth_mb", "MB", "lower"),
        ("host.span_overhead_x", "x", "lower"),
    ])

UNITS = {name: unit for name, unit, _ in METRICS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(recorder, rows) -> dict:
    """Every span- and row-derived metric of one traced pass."""
    totals = recorder.totals()
    self_s = dict.fromkeys(LAYERS, 0.0)
    entries = dict.fromkeys(LAYERS, 0)
    by_label = {}
    for nid, label in enumerate(recorder.labels):
        layer = recorder.layer[nid]
        self_s[layer] = self_s.get(layer, 0.0) + totals["self_s"][nid]
        if label not in GUARDS:
            entries[layer] = entries.get(layer, 0) + totals["entries"][nid]
        by_label[label] = (totals["count"][nid], totals["incl_s"][nid])

    def count(*labels):
        return sum(by_label.get(label, (0, 0.0))[0] for label in labels)

    def inclusive(*labels):
        return sum(by_label.get(label, (0, 0.0))[1] for label in labels)

    rows = [row for row in rows if row is not None]

    def total(key):
        return sum(row.get(key, 0) for row in rows)

    processed = total("processed")
    utilizations = [row["cpu_utilization"] for row in rows
                    if "cpu_utilization" in row]
    events = count("EventQueue.schedule", "EventQueue.schedule_resume")
    calls_into_cc = entries["cc"]
    counts = {
        "kernel.events_scheduled": events,
        "kernel.events_cancelled": count("Event.cancel"),
        "kernel.spawns": count("Kernel.spawn"),
        "cc.calls": calls_into_cc,
        "cc.requests": total("cc_requests"),
        "cc.blocks": total("cc_blocks"),
        "cc.ceiling_blocks": total("cc_ceiling_blocks"),
        "cc.direct_blocks": total("cc_direct_blocks"),
        "cc.deadlocks": total("cc_deadlocks"),
        "cc.inheritance_events": total("cc_inheritance_events"),
        "cc.grant_ratio": _ratio(total("cc_immediate_grants"),
                                 total("cc_requests")),
        "cc.blocked_sim_mean": _ratio(
            sum(row["mean_blocked_time"] * row["processed"]
                for row in rows), processed),
        "db.lock_grants": count("LockTable.grant"),
        "db.lock_releases": count("LockTable.release",
                                  "LockTable.release_all"),
        "db.lock_probes": count("LockTable.can_grant",
                                "LockTable.conflicting_holders",
                                "LockTable.holder_map",
                                "LockTable.holders"),
        "db.replica_writes": count("ReplicaCatalog.record_write"),
        "txn.resumes": sum(
            totals["count"][nid]
            for nid, label in enumerate(recorder.labels)
            if recorder.layer[nid] == "txn" and label.startswith("body ")),
        "txn.generated": recorder.generated,
        "txn.restarts": total("restarts"),
        "txn.percent_missed": 100.0 * _ratio(total("missed"), processed),
        "resources.cpu_uses": count("CPU.use"),
        "resources.io_uses": count("ParallelIO.use", "DiskArray.use"),
        "resources.cpu_utilization": (statistics.mean(utilizations)
                                      if utilizations else 0.0),
        "dist.messages_sent": total("messages_sent"),
        "dist.messages_lost": total("messages_lost"),
        "dist.undeliverable": total("undeliverable"),
        "dist.rpc_requests": count("DirectComms.request",
                                   "ReliableComms.request",
                                   "ReliableComms.gather"),
        "faults.rpc_retries": total("fault_rpc_retries"),
        "faults.courier_retries": total("fault_courier_retries"),
        "core.records": count("PerformanceMonitor.record"),
        "exec.units": count("execute_config"),
        "regime.blocks_per_txn": _ratio(total("cc_blocks"), processed),
        "regime.msgs_per_txn": _ratio(total("messages_sent"), processed),
        "regime.backlog_max": max(recorder.backlogs, default=0),
        "regime.spans": len(recorder),
    }
    for layer in OBSERVERS:
        counts[f"{layer}.calls"] = entries[layer]
    root_s = totals["root_s"]
    times = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    times.update({f"{layer}.share": _ratio(self_s[layer], root_s)
                  for layer in LAYERS})
    times.update({
        "kernel.us_per_event": 1e6 * _ratio(self_s["kernel"], events),
        "cc.us_per_call": 1e6 * _ratio(self_s["cc"], calls_into_cc),
        "dist.us_per_message": 1e6 * _ratio(self_s["dist"],
                                            counts["dist.messages_sent"]),
        "core.build_s": inclusive("SingleSiteSystem.__init__",
                                  "DistributedSystem.__init__"),
        "core.summary_s": inclusive("SingleSiteSystem.summary",
                                    "DistributedSystem.summary"),
    })
    return {"counts": counts, "times": times}


def combine(passes, host: dict) -> dict:
    """Counts of the first pass, medians of the times, host figures,
    in ``METRICS`` order."""
    merged = dict(passes[0]["counts"])
    for key in passes[0]["times"]:
        merged[key] = statistics.median(measured["times"][key]
                                        for measured in passes)
    merged.update(host)
    return {name: merged[name] for name, _, _ in METRICS}


def format_report(workload: str, metrics: dict, traced_passes: int) -> str:
    """The human-readable traced-run report."""
    lines = [f"traced run of {workload}: {traced_passes} traced passes",
             f"{'layer':<10} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        lines.append(f"{layer:<10} {metrics[f'{layer}.self_s']:>10.4f} "
                     f"{100 * metrics[f'{layer}.share']:>6.1f}%")
    lines.append(
        f"regime: {metrics['txn.percent_missed']:.1f}% missed, "
        f"{metrics['regime.blocks_per_txn']:.2f} blocks/txn, "
        f"{metrics['regime.msgs_per_txn']:.2f} messages/txn, arrival "
        f"backlog up to {metrics['regime.backlog_max']} events per unit "
        f"(sorted drain from 2048)")
    for name, unit, _ in METRICS:
        lines.append(f"{name:<28} {metrics[name]:>14.6g} {unit}")
    return "\n".join(lines)
