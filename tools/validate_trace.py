#!/usr/bin/env python3
"""Validate faultlab telemetry: a Chrome trace, an event log, a status
snapshot, or a metrics snapshot against its run manifest.

By default the file is a Chrome trace-event JSON, as
tools/faultlab_report.py --chrome-trace renders it from an event log.
The checks are that it is what Perfetto / chrome://tracing will accept
and that its structure matches the per-trial records it came from:

  * the JSON parses and carries a `traceEvents` list of "X" (complete)
    events with numeric ts/dur and a pid/tid;
  * every `trial` event is tagged with app, tool, category, k, checkpoint
    (hit|miss), and outcome;
  * phase events (restore/execute/classify) nest inside a trial event on
    the same thread;
  * optionally, the number of trial events matches --expect-trials.

With --events, the file is instead validated as a FAULTLAB_EVENTS trial
event log (one JSON object per line, schema v1 from src/obs/events.h):

  * every record carries the full required key set with sane types;
  * enum fields hold known values (outcome, trap kind, checkpoint);
  * `seq` is monotonic per scheduler run and worker (0, 1, 2, ... — the
    writer promises per-worker ordering even though shards interleave in
    the file; `run` numbers the scheduler runs of the logging process and
    reads as 0 when absent);
  * cross-field consistency: a crash carries a trap (and only a crash
    does), activation implies injection, and the propagation distance
    equals instructions_total - inject_instruction for injected trials;
  * the phase split (restore_us, execute_us, classify_us) and start_us
    are non-negative integers, and the phases fit in the trial's latency
    (with 1 us of rounding per field).

With --status, the file is instead validated as a FAULTLAB_STATUS campaign
snapshot (schema v1 from src/obs/monitor.h):

  * the header carries the full required key set with sane types and a
    `final` flag;
  * per-cell tallies are internally consistent (outcomes sum to `done`,
    `activated` = done - not_activated, Wilson bounds ordered, `converged`
    matches the half-width vs ci_target comparison);
  * per-worker records and watchdog events are well-formed;
  * when `final` is true the quiescent cross-checks apply too: every cell
    complete, no in-flight trials, worker tallies sum to `trials_done`.

With --metrics M.json --manifest R.manifest.csv, a FAULTLAB_METRICS
snapshot is checked against the run manifest of the same single-run
process: the registry's `checkpoint.restores` and
`checkpoint.delta_restores` must equal the manifest's per-campaign
`restored` and `delta_restores` summed, and `checkpoint.converged_trials`,
`checkpoint.converged_instructions` and `checkpoint.armed_instructions`
its run-level columns.

Usage:
  tools/validate_trace.py TRACE [--expect-trials N]
  tools/validate_trace.py --events EVENTS.jsonl [--expect-trials N]
  tools/validate_trace.py --status STATUS.json [--expect-trials N]
                          [--expect-converged N]
  tools/validate_trace.py --metrics M.json --manifest R.manifest.csv

Exit status 0 when the file is valid, 1 otherwise (with a message per
violation on stderr). Stdlib only — no third-party dependencies.
"""

import argparse
import csv
import json
import sys

REQUIRED_TRIAL_TAGS = ("app", "tool", "category", "k", "checkpoint", "outcome")
PHASE_NAMES = ("restore", "execute", "classify")

EVENT_REQUIRED_KEYS = (
    "v", "app", "tool", "category", "fault_model", "worker", "seq", "trial",
    "k", "bit", "site", "opcode", "function", "injected", "activated",
    "outcome", "trap", "inject_instruction", "instructions_total",
    "instructions_after_injection", "checkpoint", "latency_ms",
    "start_us", "restore_us", "execute_us", "classify_us",
)
EVENT_PHASE_KEYS = ("restore_us", "execute_us", "classify_us")
EVENT_OUTCOMES = ("benign", "sdc", "crash", "hang", "not-activated")
EVENT_TRAP_KINDS = (
    "unmapped-access", "divide-by-zero", "invalid-jump", "stack-overflow",
    "bad-free", "unreachable",
)
# Schema v2 (FAULTLAB_PROP): every v1 field unchanged plus an additive
# "prop" object carrying the per-trial propagation summary.
EVENT_PROP_INT_KEYS = (
    "depth", "fanout", "tainted_reads", "masking_events", "store_load_edges",
    "tainted_stores", "tainted_branches", "peak_tainted_values",
    "peak_tainted_pages", "divergence_pc", "divergence_offset",
)
EVENT_PROP_BOOL_KEYS = ("traced", "diverged")


def load_events(path):
    """Returns the event list of a Chrome trace-event JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("top-level object must contain 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    return events


def validate(events):
    """Yields one message per violation."""
    trials = []
    phases = []
    for i, ev in enumerate(events):
        where = f"event {i} ({ev.get('name', '?')!r})"
        for field in ("name", "cat", "ph", "ts", "dur", "tid"):
            if field not in ev:
                yield f"{where}: missing field '{field}'"
        if ev.get("ph") != "X":
            yield f"{where}: ph is {ev.get('ph')!r}, expected 'X'"
        for field in ("ts", "dur"):
            if field in ev and not isinstance(ev[field], (int, float)):
                yield f"{where}: '{field}' is not numeric"
        if ev.get("name") == "trial":
            trials.append(ev)
        elif ev.get("name") in PHASE_NAMES:
            phases.append(ev)

    for i, trial in enumerate(trials):
        args = trial.get("args", {})
        for tag in REQUIRED_TRIAL_TAGS:
            if tag not in args:
                yield f"trial span {i}: missing tag '{tag}'"
        if args.get("checkpoint") not in ("hit", "miss", None):
            yield (
                f"trial span {i}: checkpoint tag is "
                f"{args.get('checkpoint')!r}, expected 'hit' or 'miss'"
            )

    # Nesting: each phase event must sit inside some trial event on its
    # thread; containment may be exact.
    by_tid = {}
    for trial in trials:
        by_tid.setdefault(trial.get("tid"), []).append(
            (trial.get("ts", 0), trial.get("ts", 0) + trial.get("dur", 0))
        )
    for i, phase in enumerate(phases):
        start = phase.get("ts", 0)
        end = start + phase.get("dur", 0)
        windows = by_tid.get(phase.get("tid"), [])
        if not any(lo <= start and end <= hi for lo, hi in windows):
            yield (
                f"phase span {i} ({phase.get('name')!r}, tid "
                f"{phase.get('tid')}): [{start}, {end}] us not nested in "
                "any trial span on its thread"
            )


def load_event_log(path):
    """Returns the list of trial-event dicts from a FAULTLAB_EVENTS JSONL."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"line {lineno}: invalid JSON: {e}") from e
            if not isinstance(record, dict):
                raise ValueError(f"line {lineno}: not a JSON object")
            record["_line"] = lineno
            records.append(record)
    return records


def validate_events(records):
    """Yields one message per event-log violation."""
    seq_by_worker = {}
    for record in records:
        where = f"line {record['_line']}"
        for key in EVENT_REQUIRED_KEYS:
            if key not in record:
                yield f"{where}: missing key '{key}'"
        version = record.get("v")
        if version not in (1, 2):
            yield (
                f"{where}: schema version is {version!r}, expected 1 or 2"
            )
        if version == 1 and "prop" in record:
            yield f"{where}: v1 record carries a 'prop' object"
        if version == 2:
            prop = record.get("prop")
            if not isinstance(prop, dict):
                yield f"{where}: v2 record without a 'prop' object"
            else:
                for key in EVENT_PROP_INT_KEYS:
                    if not isinstance(prop.get(key), int) or \
                            isinstance(prop.get(key), bool):
                        yield (
                            f"{where}: prop.{key} is {prop.get(key)!r}, "
                            "expected an integer"
                        )
                for key in EVENT_PROP_BOOL_KEYS:
                    if not isinstance(prop.get(key), bool):
                        yield (
                            f"{where}: prop.{key} is {prop.get(key)!r}, "
                            "expected a boolean"
                        )
                if isinstance(prop.get("traced"), bool) and \
                        not prop["traced"]:
                    yield f"{where}: v2 record with prop.traced false"
                if isinstance(prop.get("diverged"), bool) and \
                        not prop["diverged"]:
                    for key in ("divergence_pc", "divergence_offset"):
                        if prop.get(key) not in (0, None):
                            yield (
                                f"{where}: undiverged trial carries "
                                f"prop.{key} = {prop.get(key)!r}"
                            )
        for key in ("run", "worker", "seq", "trial", "k", "bit", "site",
                    "inject_instruction", "instructions_total",
                    "instructions_after_injection"):
            if key in record and not isinstance(record[key], int):
                yield f"{where}: '{key}' is not an integer"
        if "latency_ms" in record and not isinstance(
            record["latency_ms"], (int, float)
        ):
            yield f"{where}: 'latency_ms' is not numeric"
        for key in ("start_us", *EVENT_PHASE_KEYS):
            value = record.get(key)
            if key in record and (not isinstance(value, int)
                                  or isinstance(value, bool) or value < 0):
                yield f"{where}: '{key}' is {value!r}, expected an " \
                    "integer >= 0"
        phases = [record.get(key) for key in EVENT_PHASE_KEYS]
        latency = record.get("latency_ms")
        if all(isinstance(v, int) for v in phases) and \
                isinstance(latency, (int, float)) and \
                sum(phases) > latency * 1000 + 3:
            yield (
                f"{where}: phases sum to {sum(phases)} us, more than the "
                f"{latency} ms latency"
            )
        for key in ("injected", "activated"):
            if key in record and not isinstance(record[key], bool):
                yield f"{where}: '{key}' is not a boolean"
        outcome = record.get("outcome")
        if outcome not in EVENT_OUTCOMES:
            yield f"{where}: unknown outcome {outcome!r}"
        trap = record.get("trap")
        if trap is not None and trap not in EVENT_TRAP_KINDS:
            yield f"{where}: unknown trap kind {trap!r}"
        fault_model = record.get("fault_model")
        if "fault_model" in record and (
            not isinstance(fault_model, str) or not fault_model
        ):
            yield (
                f"{where}: fault_model is {fault_model!r}, expected a "
                "non-empty string"
            )
        if record.get("checkpoint") not in ("hit", "miss"):
            yield (
                f"{where}: checkpoint is {record.get('checkpoint')!r}, "
                "expected 'hit' or 'miss'"
            )
        # Cross-field consistency.
        if outcome == "crash" and trap is None:
            yield f"{where}: crash outcome without a trap kind"
        if outcome in ("benign", "sdc", "hang", "not-activated") and \
                trap is not None:
            yield f"{where}: outcome {outcome!r} carries trap {trap!r}"
        if record.get("activated") and not record.get("injected"):
            yield f"{where}: activated without injected"
        if all(
            isinstance(record.get(k), int)
            for k in ("inject_instruction", "instructions_total",
                      "instructions_after_injection")
        ):
            expected = (
                max(0, record["instructions_total"]
                    - record["inject_instruction"])
                if record.get("injected")
                else 0
            )
            if record["instructions_after_injection"] != expected:
                yield (
                    f"{where}: instructions_after_injection is "
                    f"{record['instructions_after_injection']}, expected "
                    f"{expected}"
                )
        # Per-worker ordering: the writer promises a contiguous 0,1,2,...
        # seq per scheduler run and worker even though shard spills
        # interleave in the file. Logs that predate the `run` key hold one
        # run.
        run = record.get("run", 0)
        worker = record.get("worker")
        seq = record.get("seq")
        if isinstance(run, int) and isinstance(worker, int) and \
                isinstance(seq, int):
            expected_seq = seq_by_worker.get((run, worker), 0)
            if seq != expected_seq:
                yield (
                    f"{where}: run {run} worker {worker} seq {seq}, "
                    f"expected {expected_seq} (per-worker seq must be "
                    "contiguous)"
                )
            seq_by_worker[(run, worker)] = max(expected_seq, seq) + 1


STATUS_HEADER_KEYS = {
    "v": int,
    "schema": str,
    "final": bool,
    "generated_unix": int,
    "elapsed_seconds": (int, float),
    "ci_target": (int, float),
    "watchdog_factor": (int, float),
    "status_interval_ms": int,
    "workers_total": int,
    "trials_total": int,
    "trials_done": int,
    "cells_total": int,
    "converged_cells": int,
    "watchdog_flags": int,
    "status_writes": int,
    "rate_trials_per_second": (int, float),
    "eta_seconds": (int, float),
    "phases": dict,
    "counters": dict,
    "dispatch_mode": str,
    "cells": list,
    "workers": list,
    "watchdog_events": list,
    "watchdog_events_dropped": int,
}
STATUS_CELL_KEYS = {
    "app": str,
    "tool": str,
    "category": str,
    "fault_model": str,
    "trials": int,
    "done": int,
    "crash": int,
    "sdc": int,
    "benign": int,
    "hang": int,
    "not_activated": int,
    "activated": int,
    "crash_share": (int, float),
    "ci_lo": (int, float),
    "ci_hi": (int, float),
    "ci_halfwidth": (int, float),
    "converged": bool,
    "p50_ms": (int, float),
    "p99_ms": (int, float),
    "mean_ms": (int, float),
    "watchdog_flags": int,
    "in_flight": int,
}
STATUS_WORKER_KEYS = {
    "worker": int,
    "state": str,
    "trial_age_ms": (int, float),
    "trials_done": int,
    "in_flight": int,
    "flagged": bool,
}
STATUS_PHASE_KEYS = ("restore_seconds", "execute_seconds", "classify_seconds")
STATUS_COUNTER_KEYS = (
    "checkpoint_snapshots", "checkpoint_restores", "delta_restores",
    "converged_trials", "converged_instructions",
    "trace_decodes", "trace_hits", "trace_invalidations",
)


def check_keys(obj, spec, where):
    """Yields a message per missing or mistyped key. Note bool is an int in
    Python, so int-typed keys explicitly reject booleans."""
    for key, types in spec.items():
        if key not in obj:
            yield f"{where}: missing key '{key}'"
            continue
        value = obj[key]
        if types is int or types == (int, float):
            if isinstance(value, bool) or not isinstance(value, types):
                yield f"{where}: '{key}' is not numeric"
        elif not isinstance(value, types):
            yield f"{where}: '{key}' has wrong type {type(value).__name__}"


def validate_status(doc):
    """Yields one message per status-snapshot violation (schema v1)."""
    if not isinstance(doc, dict):
        yield "top-level value is not a JSON object"
        return
    yield from check_keys(doc, STATUS_HEADER_KEYS, "header")
    if doc.get("v") != 1:
        yield f"header: schema version is {doc.get('v')!r}, expected 1"
    if doc.get("schema") != "faultlab-status":
        yield (
            f"header: schema is {doc.get('schema')!r}, expected "
            "'faultlab-status'"
        )
    final = doc.get("final") is True

    phases = doc.get("phases", {})
    if isinstance(phases, dict):
        for key in STATUS_PHASE_KEYS:
            value = phases.get(key)
            if not isinstance(value, (int, float)) or \
                    isinstance(value, bool) or value < 0:
                yield f"phases: '{key}' is not a non-negative number"
    counters = doc.get("counters", {})
    if isinstance(counters, dict):
        for key in STATUS_COUNTER_KEYS:
            value = counters.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                yield f"counters: '{key}' is not a non-negative integer"

    ci_target = doc.get("ci_target")
    cells = doc.get("cells", [])
    if not isinstance(cells, list):
        cells = []
    if isinstance(doc.get("cells_total"), int) and \
            doc["cells_total"] != len(cells):
        yield (
            f"header: cells_total is {doc['cells_total']}, but {len(cells)} "
            "cells are listed"
        )
    converged_count = 0
    cell_done = 0
    cell_watchdog = 0
    for i, cell in enumerate(cells):
        where = f"cell {i}"
        if not isinstance(cell, dict):
            yield f"{where}: not a JSON object"
            continue
        yield from check_keys(cell, STATUS_CELL_KEYS, where)
        try:
            outcomes = sum(
                cell[k] for k in ("crash", "sdc", "benign", "hang",
                                  "not_activated")
            )
            if cell["done"] != outcomes:
                yield (
                    f"{where}: done is {cell['done']}, but outcomes sum to "
                    f"{outcomes}"
                )
            if cell["activated"] != cell["done"] - cell["not_activated"]:
                yield (
                    f"{where}: activated is {cell['activated']}, expected "
                    f"done - not_activated = "
                    f"{cell['done'] - cell['not_activated']}"
                )
            if cell["done"] > cell["trials"]:
                yield (
                    f"{where}: done {cell['done']} exceeds planned trials "
                    f"{cell['trials']}"
                )
            if not 0.0 <= cell["ci_lo"] <= cell["ci_hi"] <= 1.0:
                yield (
                    f"{where}: Wilson bounds [{cell['ci_lo']}, "
                    f"{cell['ci_hi']}] are not ordered within [0, 1]"
                )
            halfwidth = (cell["ci_hi"] - cell["ci_lo"]) / 2.0
            if abs(cell["ci_halfwidth"] - halfwidth) > 1e-3:
                yield (
                    f"{where}: ci_halfwidth {cell['ci_halfwidth']} != "
                    f"(ci_hi - ci_lo) / 2 = {halfwidth:.6f}"
                )
            if isinstance(ci_target, (int, float)):
                expected = (
                    cell["activated"] > 0
                    and cell["ci_halfwidth"] <= ci_target
                )
                if cell["converged"] != expected:
                    yield (
                        f"{where}: converged is {cell['converged']}, but "
                        f"half-width {cell['ci_halfwidth']} vs ci_target "
                        f"{ci_target} implies {expected}"
                    )
            if cell["converged"]:
                converged_count += 1
            cell_done += cell["done"]
            cell_watchdog += cell["watchdog_flags"]
            if final and cell["done"] != cell["trials"]:
                yield (
                    f"{where}: final snapshot but done {cell['done']} != "
                    f"planned {cell['trials']}"
                )
            if final and cell["in_flight"] != 0:
                yield (
                    f"{where}: final snapshot but in_flight is "
                    f"{cell['in_flight']}"
                )
        except (KeyError, TypeError):
            pass  # missing/mistyped keys already reported by check_keys

    if isinstance(doc.get("converged_cells"), int) and \
            doc["converged_cells"] != converged_count:
        yield (
            f"header: converged_cells is {doc['converged_cells']}, but "
            f"{converged_count} cells are marked converged"
        )
    if final and isinstance(doc.get("trials_done"), int) and \
            doc["trials_done"] != cell_done:
        yield (
            f"header: trials_done is {doc['trials_done']}, but cell tallies "
            f"sum to {cell_done}"
        )
    if final and isinstance(doc.get("trials_total"), int) and \
            isinstance(doc.get("trials_done"), int) and \
            doc["trials_done"] != doc["trials_total"]:
        yield (
            f"header: final snapshot but trials_done {doc['trials_done']} "
            f"!= trials_total {doc['trials_total']}"
        )
    if final and isinstance(doc.get("watchdog_flags"), int) and \
            doc["watchdog_flags"] != cell_watchdog:
        yield (
            f"header: watchdog_flags is {doc['watchdog_flags']}, but cell "
            f"flags sum to {cell_watchdog}"
        )

    workers = doc.get("workers", [])
    if not isinstance(workers, list):
        workers = []
    if isinstance(doc.get("workers_total"), int) and \
            doc["workers_total"] != len(workers):
        yield (
            f"header: workers_total is {doc['workers_total']}, but "
            f"{len(workers)} workers are listed"
        )
    worker_done = 0
    for i, worker in enumerate(workers):
        where = f"worker {i}"
        if not isinstance(worker, dict):
            yield f"{where}: not a JSON object"
            continue
        yield from check_keys(worker, STATUS_WORKER_KEYS, where)
        state = worker.get("state")
        if state not in ("running", "idle"):
            yield f"{where}: unknown state {state!r}"
        cell_ref = worker.get("cell")
        if state == "running" and not isinstance(cell_ref, str):
            yield f"{where}: running but cell is {cell_ref!r}"
        if state == "idle" and cell_ref is not None:
            yield f"{where}: idle but cell is {cell_ref!r}"
        if final and state == "running":
            yield f"{where}: final snapshot but state is 'running'"
        if final and worker.get("in_flight") not in (0, None):
            yield (
                f"{where}: final snapshot but in_flight is "
                f"{worker.get('in_flight')}"
            )
        if isinstance(worker.get("in_flight"), int) and \
                state == "idle" and worker["in_flight"] != 0:
            yield f"{where}: idle but in_flight is {worker['in_flight']}"
        if isinstance(worker.get("trials_done"), int):
            worker_done += worker["trials_done"]
    if final and isinstance(doc.get("trials_done"), int) and \
            worker_done != doc["trials_done"]:
        yield (
            f"header: worker trials_done sum to {worker_done}, expected "
            f"{doc['trials_done']}"
        )

    events = doc.get("watchdog_events", [])
    if not isinstance(events, list):
        events = []
    for i, ev in enumerate(events):
        where = f"watchdog event {i}"
        if not isinstance(ev, dict):
            yield f"{where}: not a JSON object"
            continue
        for key in ("worker", "cell", "trial_age_ms", "threshold_ms",
                    "elapsed_seconds"):
            if key not in ev:
                yield f"{where}: missing key '{key}'"


def validate_metrics(metrics, rows):
    """Yields one message per checkpoint counter in a metrics snapshot that
    disagrees with the run manifest's campaign rows."""
    counters = metrics.get("counters") if isinstance(metrics, dict) else None
    if not isinstance(counters, dict):
        yield "metrics: no 'counters' object"
        return
    if not rows:
        yield "manifest: no campaign rows"
        return
    expected = {
        "checkpoint.restores": sum(int(r["restored"]) for r in rows),
        "checkpoint.delta_restores":
            sum(int(r["delta_restores"]) for r in rows),
    }
    for column in ("converged_trials", "converged_instructions",
                   "armed_instructions"):
        values = {r[column] for r in rows}
        if len(values) != 1:
            yield f"manifest: run-level column '{column}' varies by row"
            continue
        expected["checkpoint." + column] = int(values.pop())
    for name, want in expected.items():
        got = counters.get(name)
        if got != want:
            yield f"{name} is {got}, the manifest gives {want}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?",
                        help="path to the Chrome trace (or, with a mode "
                             "flag, the file that mode checks)")
    parser.add_argument(
        "--expect-trials",
        type=int,
        default=None,
        help="fail unless exactly N trials are present",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="validate a FAULTLAB_EVENTS trial event log instead of a trace",
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help="validate a FAULTLAB_STATUS campaign snapshot instead of a "
        "trace",
    )
    parser.add_argument(
        "--expect-prop",
        action="store_true",
        help="with --events: fail unless every record is schema v2 with a "
        "propagation summary (a FAULTLAB_PROP run)",
    )
    parser.add_argument(
        "--expect-converged",
        type=int,
        default=None,
        help="with --status: fail unless at least N cells are converged",
    )
    parser.add_argument(
        "--metrics",
        help="FAULTLAB_METRICS snapshot to check against --manifest",
    )
    parser.add_argument(
        "--manifest",
        help="run manifest CSV (<results>.manifest.csv) for --metrics",
    )
    args = parser.parse_args(argv)

    if (args.metrics is None) != (args.manifest is None):
        parser.error("--metrics and --manifest go together")
    if args.metrics is not None:
        if args.trace is not None or args.status or args.events:
            parser.error("--metrics/--manifest take no trace argument")
        try:
            with open(args.metrics, "r", encoding="utf-8") as fh:
                metrics = json.load(fh)
            with open(args.manifest, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            errors = list(validate_metrics(metrics, rows))
        except (OSError, ValueError, KeyError) as e:
            errors = [f"cannot read input: {e!r}"]
        for message in errors:
            print(f"{args.metrics}: {message}", file=sys.stderr)
        if not errors:
            print(
                f"{args.metrics}: OK — checkpoint counters match "
                f"{len(rows)} manifest row(s)"
            )
        return 1 if errors else 0
    if args.trace is None:
        parser.error("a trace argument is required")
    if args.status and args.events:
        parser.error("--status and --events are mutually exclusive")

    if args.status:
        try:
            with open(args.trace, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as e:
            print(f"{args.trace}: {e}", file=sys.stderr)
            return 1
        errors = list(validate_status(doc))
        if args.expect_trials is not None and \
                doc.get("trials_done") != args.expect_trials:
            errors.append(
                f"expected trials_done == {args.expect_trials}, found "
                f"{doc.get('trials_done')}"
            )
        if args.expect_converged is not None and not (
            isinstance(doc.get("converged_cells"), int)
            and doc["converged_cells"] >= args.expect_converged
        ):
            errors.append(
                f"expected >= {args.expect_converged} converged cells, "
                f"found {doc.get('converged_cells')}"
            )
        for message in errors:
            print(f"{args.trace}: {message}", file=sys.stderr)
        if not errors:
            kind = "final" if doc.get("final") else "mid-run"
            print(
                f"{args.trace}: OK — {kind} snapshot, "
                f"{doc.get('trials_done')}/{doc.get('trials_total')} trials, "
                f"{doc.get('converged_cells')}/{doc.get('cells_total')} "
                "cells converged"
            )
        return 1 if errors else 0

    if args.events:
        try:
            records = load_event_log(args.trace)
        except (OSError, ValueError) as e:
            print(f"{args.trace}: {e}", file=sys.stderr)
            return 1
        errors = list(validate_events(records))
        if not records:
            errors.append("no event records found")
        if args.expect_trials is not None and len(records) != \
                args.expect_trials:
            errors.append(
                f"expected {args.expect_trials} events, found {len(records)}"
            )
        if args.expect_prop:
            untraced = sum(1 for r in records if r.get("v") != 2)
            if untraced:
                errors.append(
                    f"expected every record at schema v2 with a prop "
                    f"summary, found {untraced} without"
                )
        for message in errors:
            print(f"{args.trace}: {message}", file=sys.stderr)
        if not errors:
            workers = {r.get("worker") for r in records}
            print(
                f"{args.trace}: OK — {len(records)} trial events from "
                f"{len(workers)} worker(s)"
            )
        return 1 if errors else 0

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"{args.trace}: {e}", file=sys.stderr)
        return 1

    errors = list(validate(events))
    trial_count = sum(1 for ev in events if ev.get("name") == "trial")
    if trial_count == 0:
        errors.append("no 'trial' spans found")
    if args.expect_trials is not None and trial_count != args.expect_trials:
        errors.append(
            f"expected {args.expect_trials} trial spans, found {trial_count}"
        )

    for message in errors:
        print(f"{args.trace}: {message}", file=sys.stderr)
    if not errors:
        print(
            f"{args.trace}: OK — {len(events)} events, "
            f"{trial_count} trial spans"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
