#!/usr/bin/env python3
"""Render a static HTML campaign dashboard from faultlab observability files.

Merges up to three artifacts of one campaign run:

  * the FAULTLAB_EVENTS trial event log (JSONL, required) — per-trial
    outcomes, injection sites, trap kinds, propagation distances;
  * the FAULTLAB_METRICS JSON snapshot (optional) — counters/gauges/
    histograms from the metrics registry;
  * the run manifest CSV (optional, written by examples/fault_campaign as
    <results>.csv.manifest.csv or by manifest_csv()) — wall time, threads,
    checkpoint hit rates, exact latency percentiles.

and writes a single self-contained HTML file (inline CSS + SVG, no
external assets, stdlib only):

  * per-(app, tool, category) outcome stacks with Wilson 95% error bars on
    the crash and SDC shares;
  * a crash-divergence attribution table per cell — the same mapping-class
    decomposition as fault/attribution.cc, naming the gep/phi/call drivers;
  * a trap-kind histogram over all crashing trials;
  * trial latency p50/p95/p99 (from the event log, plus the manifest's
    exact values when provided) and the metrics snapshot's histograms;
  * an early-exit panel — trials that stopped on a golden snapshot and
    the golden-suffix instructions they did not simulate (why the execute
    phase can shrink while the records' instruction totals do not).

With --chrome-trace OUT.json, also (or, without -o, only) writes the event
log as Chrome trace-event JSON for chrome://tracing or Perfetto: one "X"
`trial` event per record, at the record's `start_us` for its latency, on
thread worker + 1, tagged app/tool/category/k/checkpoint/outcome, with its
restore, execute and classify phases nested in that order from the start.
tools/validate_trace.py checks the result.

With --status, renders a FAULTLAB_STATUS campaign snapshot (schema v1)
instead: grid progress, per-cell convergence table, per-worker state, and
watchdog events. Mid-run snapshots get a <meta refresh> tag matched to the
snapshot cadence, so a browser pointed at the output follows the campaign
live (re-run the tool in a loop, or point it straight at the snapshot the
campaign keeps rewriting).

Usage:
  tools/faultlab_report.py --events EV.jsonl [--metrics M.json]
                           [--manifest MANIFEST.csv] [-o OUT.html]
                           [--chrome-trace OUT.json]
  tools/faultlab_report.py --status STATUS.json -o OUT.html
"""

import argparse
import csv
import html
import json
import math
import sys

OUTCOMES = ("crash", "sdc", "benign", "hang", "not-activated")
OUTCOME_COLORS = {
    "crash": "#c0392b",
    "sdc": "#e67e22",
    "benign": "#27ae60",
    "hang": "#8e44ad",
    "not-activated": "#95a5a6",
}
TRAP_KINDS = (
    "unmapped-access", "divide-by-zero", "invalid-jump", "stack-overflow",
    "bad-free", "unreachable",
)

# Mirror of fault/attribution.cc's mapping-class table: IR opcode names and
# asm mnemonics folded into one comparable vocabulary.
OPCODE_CLASSES = {}
for _cls, _ops in {
    "arith": (
        "add", "sub", "mul", "sdiv", "udiv", "srem", "urem", "and", "or",
        "xor", "shl", "lshr", "ashr", "fadd", "fsub", "fmul", "fdiv",
        "imul", "sar", "shr", "neg", "not", "idiv", "irem", "addsd",
        "subsd", "mulsd", "divsd", "sqrtsd",
    ),
    "cmp": ("icmp", "fcmp", "cmp", "test", "ucomisd", "set"),
    "load": ("load", "mov.load", "movzx.load", "movsx.load", "movsd.load"),
    "store": ("store",),
    "gep": ("getelementptr", "lea"),
    "cast": (
        "trunc", "zext", "sext", "fptosi", "sitofp", "bitcast", "ptrtoint",
        "inttoptr", "movzx", "movsx", "cvtsi2sd", "cvttsd2si",
    ),
    "phi/mov": ("phi", "select", "mov", "movsd", "movq", "cmov"),
    "call": ("call", "callb", "ret", "push", "pop"),
    "control": ("br", "jmp", "j"),
    "alloca": ("alloca",),
}.items():
    for _op in _ops:
        OPCODE_CLASSES[_op] = _cls


def opcode_class(opcode):
    if opcode is None:
        return "other"
    return OPCODE_CLASSES.get(opcode, "other")


def wilson95(hits, trials):
    """Wilson score interval, matching support/stats.h."""
    if trials == 0:
        return (0.0, 0.0)
    z = 1.959963984540054
    n = float(trials)
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def percentile(sorted_values, pct):
    if not sorted_values:
        return 0.0
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def load_events(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {e}") from e
    return records


def load_manifest(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def group_cells(events):
    """Groups events by (app, tool, category) in first-seen order."""
    cells = {}
    for ev in events:
        key = (ev.get("app", "?"), ev.get("tool", "?"),
               ev.get("category", "?"))
        cells.setdefault(key, []).append(ev)
    return cells


def esc(text):
    return html.escape(str(text), quote=True)


def outcome_stack_svg(cell_events):
    """A horizontal stacked outcome bar with Wilson error bars on the
    crash and SDC shares (over activated trials, the paper's convention)."""
    activated = [e for e in cell_events if e.get("outcome") != "not-activated"]
    n = len(activated)
    counts = {o: 0 for o in OUTCOMES}
    for ev in cell_events:
        counts[ev.get("outcome", "benign")] = \
            counts.get(ev.get("outcome", "benign"), 0) + 1
    width, bar_h = 560, 26
    parts = [
        f'<svg width="{width}" height="{bar_h + 14}" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    if n == 0:
        parts.append(
            f'<text x="0" y="{bar_h - 8}" font-size="12">'
            "no activated trials</text></svg>"
        )
        return "".join(parts), counts, n
    x = 0.0
    for outcome in ("crash", "sdc", "benign", "hang"):
        share = counts[outcome] / n
        w = share * width
        if w > 0:
            parts.append(
                f'<rect x="{x:.1f}" y="0" width="{w:.1f}" '
                f'height="{bar_h}" fill="{OUTCOME_COLORS[outcome]}">'
                f"<title>{outcome}: {counts[outcome]}/{n} "
                f"({100.0 * share:.1f}%)</title></rect>"
            )
            if w > 34:
                parts.append(
                    f'<text x="{x + w / 2:.1f}" y="{bar_h - 8}" '
                    'font-size="11" fill="#fff" text-anchor="middle">'
                    f"{100.0 * share:.0f}%</text>"
                )
        x += w
    # Wilson error bars under the bar: crash interval then sdc interval.
    y = bar_h + 6
    offset = 0.0
    for outcome in ("crash", "sdc"):
        lo, hi = wilson95(counts[outcome], n)
        x0, x1 = lo * width + offset, hi * width + offset
        parts.append(
            f'<line x1="{x0:.1f}" y1="{y}" x2="{x1:.1f}" y2="{y}" '
            f'stroke="{OUTCOME_COLORS[outcome]}" stroke-width="3">'
            f"<title>{outcome} Wilson 95%: [{100 * lo:.1f}, "
            f"{100 * hi:.1f}]%</title></line>"
        )
        offset += counts[outcome] / n * width
        y += 4
    parts.append("</svg>")
    return "".join(parts), counts, n


def attribution_rows(cells):
    """Per-(app, category) mapping-class crash decomposition, mirroring
    fault/attribution.cc (delta = PINFI - LLFI in points)."""
    by_cell = {}
    for (app, tool, category), events in cells.items():
        by_cell.setdefault((app, category), {})[tool] = events
    rows = []
    for (app, category), tools in sorted(by_cell.items()):
        llfi = tools.get("LLFI")
        pinfi = tools.get("PINFI")
        if not llfi or not pinfi:
            continue

        def side(events):
            activated = [
                e for e in events if e.get("outcome") != "not-activated"
            ]
            per_class = {}
            for ev in activated:
                if ev.get("outcome") != "crash":
                    continue
                cls = opcode_class(ev.get("opcode"))
                entry = per_class.setdefault(cls, {"crash": 0, "sites": {}})
                entry["crash"] += 1
                site = (
                    f"{ev.get('function') or '?'}:"
                    f"{ev.get('opcode') or '?'}@{ev.get('site', 0)}"
                )
                entry["sites"][site] = entry["sites"].get(site, 0) + 1
            return per_class, len(activated)

        l_by, l_n = side(llfi)
        p_by, p_n = side(pinfi)
        if l_n == 0 or p_n == 0:
            continue
        classes = sorted(set(l_by) | set(p_by))
        entries = []
        for cls in classes:
            lc = l_by.get(cls, {}).get("crash", 0)
            pc = p_by.get(cls, {}).get("crash", 0)
            delta = 100.0 * pc / p_n - 100.0 * lc / l_n

            def top(by):
                sites = by.get(cls, {}).get("sites", {})
                if not sites:
                    return "-"
                return max(sorted(sites), key=lambda s: sites[s])

            entries.append({
                "class": cls,
                "delta": delta,
                "llfi": (lc, l_n),
                "pinfi": (pc, p_n),
                "llfi_top": top(l_by),
                "pinfi_top": top(p_by),
            })
        entries.sort(key=lambda e: (-abs(e["delta"]), e["class"]))
        cell_delta = sum(e["delta"] for e in entries)
        rows.append({
            "app": app,
            "category": category,
            "delta": cell_delta,
            "entries": entries,
        })
    return rows


def fault_model_rows(events):
    """Per-(fault model, tool) outcome tallies, in first-seen model order.
    Events from logs written before the fault_model field existed default
    to the paper's transient baseline."""
    groups = {}
    order = []
    for ev in events:
        key = (ev.get("fault_model") or "transient", ev.get("tool", "?"))
        if key not in groups:
            groups[key] = {o: 0 for o in OUTCOMES}
            order.append(key)
        outcome = ev.get("outcome", "benign")
        groups[key][outcome] = groups[key].get(outcome, 0) + 1
    rows = []
    for model, tool in order:
        counts = groups[(model, tool)]
        activated = sum(counts[o] for o in OUTCOMES[:4])
        rows.append({
            "model": model,
            "tool": tool,
            "counts": counts,
            "activated": activated,
        })
    return rows


DISPATCH_FIELDS = (
    "dispatch_mode", "trace_decodes", "trace_hits", "trace_invalidations",
)


def dispatch_summary(manifest, metrics):
    """Dispatch-mode provenance and trace-cache counters, preferring the
    manifest's run-level columns (repeated per row) and falling back to the
    metrics snapshot's dispatch.* counters. Empty dict when neither
    source has dispatch data (pre-dispatch artifacts)."""
    row = {}
    if manifest and "dispatch_mode" in manifest[0]:
        for field in DISPATCH_FIELDS:
            row[field] = manifest[0].get(field, "")
    elif metrics:
        counters = metrics.get("counters", {})
        if any(k.startswith("dispatch.") for k in counters):
            row = {
                "trace_decodes": counters.get("dispatch.trace_decodes", 0),
                "trace_hits": counters.get("dispatch.trace_hits", 0),
                "trace_invalidations":
                    counters.get("dispatch.trace_invalidations", 0),
            }
    if not row:
        return {}
    try:
        hits = float(row.get("trace_hits", 0) or 0)
        exits = float(row.get("trace_invalidations", 0) or 0)
        if hits > 0:
            row["fast-path retention"] = f"{100.0 * (1.0 - exits / hits):.2f}%"
    except ValueError:
        pass
    return row


CONVERGE_FIELDS = ("converged_trials", "converged_instructions")


def converge_summary(manifest, metrics):
    """Golden-convergence early exit: trials that stopped once their state
    equalled a golden snapshot, and the golden-suffix instructions they did
    not simulate. Prefers the manifest's run-level columns and falls back
    to the metrics snapshot's checkpoint.converged_* counters. Adds the
    converged share of all trials when the manifest gives the trial count.
    Empty dict when neither source has the counters."""
    row = {}
    if manifest and "converged_trials" in manifest[0]:
        for field in CONVERGE_FIELDS:
            row[field] = manifest[0].get(field, "")
    elif metrics:
        counters = metrics.get("counters", {})
        if "checkpoint.converged_trials" in counters:
            row = {field: counters.get("checkpoint." + field, 0)
                   for field in CONVERGE_FIELDS}
    if not row:
        return {}
    try:
        converged = float(row.get("converged_trials", 0) or 0)
        skipped = float(row.get("converged_instructions", 0) or 0)
        row["suffix not simulated"] = f"{skipped / 1e6:,.2f} Minstr"
        trials = sum(float(r.get("trials", 0) or 0) for r in manifest or [])
        if trials > 0:
            row["converged share"] = f"{100.0 * converged / trials:.1f}%"
    except ValueError:
        pass
    return row


def traced_events(events):
    """Schema-v2 records carrying a propagation summary (FAULTLAB_PROP)."""
    return [
        e for e in events
        if isinstance(e.get("prop"), dict) and e["prop"].get("traced")
    ]


def log2_bucket_histogram_svg(values, fill, unit):
    """Small log2-bucketed bar chart of a non-negative integer metric."""
    if not values:
        return ""
    buckets = {}
    for v in values:
        lo = 0 if v == 0 else 1 << (int(v).bit_length() - 1)
        buckets[lo] = buckets.get(lo, 0) + 1
    items = sorted(buckets.items())
    peak = max(count for _, count in items) or 1
    bar_w, gap, h = 34, 8, 80
    width = len(items) * (bar_w + gap)
    parts = [
        f'<svg width="{width}" height="{h + 30}" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, (lo, count) in enumerate(items):
        x = i * (bar_w + gap)
        bh = h * count / peak
        parts.append(
            f'<rect x="{x}" y="{h - bh:.1f}" width="{bar_w}" '
            f'height="{bh:.1f}" fill="{fill}">'
            f"<title>&#8805;{lo:,} {unit}: {count} trials</title></rect>"
            f'<text x="{x + bar_w / 2}" y="{h + 12}" font-size="9" '
            f'text-anchor="middle">{lo:,}</text>'
            f'<text x="{x + bar_w / 2}" y="{h + 24}" font-size="10" '
            f'text-anchor="middle">{count}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def prop_class_rows(traced):
    """Per-(tool, mapping class) propagation statistics over traced
    trials: depth/fan-out distributions plus masking and divergence
    tallies, mirroring fault/attribution.cc's propagation_attribution_csv."""
    groups = {}
    for ev in traced:
        key = (ev.get("tool", "?"), opcode_class(ev.get("opcode")))
        groups.setdefault(key, []).append(ev)
    rows = []
    for (tool, cls), evs in sorted(groups.items()):
        depths = sorted(e["prop"].get("depth", 0) for e in evs)
        fanouts = sorted(e["prop"].get("fanout", 0) for e in evs)
        rows.append({
            "tool": tool,
            "class": cls,
            "traced": len(evs),
            "depths": depths,
            "fanouts": fanouts,
            "diverged": sum(1 for e in evs if e["prop"].get("diverged")),
            "masking": sum(e["prop"].get("masking_events", 0) for e in evs),
            "store_load": sum(
                e["prop"].get("store_load_edges", 0) for e in evs
            ),
        })
    return rows


def prop_fate(ev):
    """Folds a traced trial into the masked/propagated/crashed taxonomy:
    crashed (crash or hang), propagated (SDC, or benign with a control-flow
    divergence — the fault travelled but the output survived), or masked
    (benign, control flow never left the golden path)."""
    outcome = ev.get("outcome")
    if outcome in ("crash", "hang"):
        return "crashed"
    if outcome == "sdc" or ev["prop"].get("diverged"):
        return "propagated"
    return "masked"


PROP_FATES = ("masked", "propagated", "crashed")
PROP_FATE_COLORS = {
    "masked": "#27ae60", "propagated": "#f39c12", "crashed": "#c0392b",
}


def prop_fate_stack_svg(evs):
    """Horizontal masked/propagated/crashed stack over traced activated
    trials."""
    activated = [e for e in evs if e.get("outcome") != "not-activated"]
    n = len(activated)
    if n == 0:
        return "", 0
    counts = {f: 0 for f in PROP_FATES}
    for ev in activated:
        counts[prop_fate(ev)] += 1
    width, bar_h = 560, 24
    parts = [
        f'<svg width="{width}" height="{bar_h + 4}" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    x = 0.0
    for fate in PROP_FATES:
        share = counts[fate] / n
        w = share * width
        if w > 0:
            parts.append(
                f'<rect x="{x:.1f}" y="0" width="{w:.1f}" '
                f'height="{bar_h}" fill="{PROP_FATE_COLORS[fate]}">'
                f"<title>{fate}: {counts[fate]}/{n} "
                f"({100.0 * share:.1f}%)</title></rect>"
            )
            if w > 46:
                parts.append(
                    f'<text x="{x + w / 2:.1f}" y="{bar_h - 7}" '
                    'font-size="11" fill="#fff" text-anchor="middle">'
                    f"{100.0 * share:.0f}%</text>"
                )
        x += w
    parts.append("</svg>")
    return "".join(parts), n


def divergence_cdf_svg(by_tool):
    """Divergence-offset CDF per tool (dynamic instructions between
    injection and first control-flow divergence, log2 x axis)."""
    series = {
        tool: sorted(
            e["prop"].get("divergence_offset", 0)
            for e in evs
            if e["prop"].get("diverged")
        )
        for tool, evs in by_tool.items()
    }
    series = {t: v for t, v in series.items() if v}
    if not series:
        return ""
    colors = {"LLFI": "#2980b9", "PINFI": "#8e44ad"}
    max_off = max(v[-1] for v in series.values())
    max_log = max(1.0, math.log2(max_off + 1))
    width, h, pad = 560, 140, 24
    parts = [
        f'<svg width="{width}" height="{h + 40}" '
        f'xmlns="http://www.w3.org/2000/svg">',
        f'<line x1="{pad}" y1="{h}" x2="{width}" y2="{h}" stroke="#999"/>',
        f'<line x1="{pad}" y1="0" x2="{pad}" y2="{h}" stroke="#999"/>',
        f'<text x="4" y="12" font-size="9">100%</text>',
        f'<text x="{(width + pad) / 2}" y="{h + 34}" font-size="10" '
        'text-anchor="middle">instructions after injection (log2)</text>',
    ]
    for tool, offsets in sorted(series.items()):
        color = colors.get(tool, "#16a085")
        n = len(offsets)
        points = []
        for i, off in enumerate(offsets):
            x = pad + (width - pad) * math.log2(off + 1) / max_log
            y = h - h * (i + 1) / n
            points.append(f"{x:.1f},{y:.1f}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="{color}" stroke-width="2">'
            f"<title>{tool}: {n} diverged trials, median offset "
            f"{offsets[n // 2]:,}</title></polyline>"
        )
        parts.append(
            f'<text x="{width - 50}" '
            f'y="{14 + 14 * sorted(series).index(tool)}" font-size="11" '
            f'fill="{color}">{esc(tool)}</text>'
        )
    # Log-decade ticks.
    tick = 1
    while tick <= max_off:
        x = pad + (width - pad) * math.log2(tick + 1) / max_log
        parts.append(
            f'<line x1="{x:.1f}" y1="{h}" x2="{x:.1f}" y2="{h + 4}" '
            'stroke="#999"/>'
            f'<text x="{x:.1f}" y="{h + 16}" font-size="9" '
            f'text-anchor="middle">{tick:,}</text>'
        )
        tick *= 10
    parts.append("</svg>")
    return "".join(parts)


def trap_histogram_svg(events):
    counts = {t: 0 for t in TRAP_KINDS}
    for ev in events:
        trap = ev.get("trap")
        if trap in counts:
            counts[trap] += 1
    peak = max(counts.values()) or 1
    bar_w, gap, h = 72, 14, 120
    width = len(TRAP_KINDS) * (bar_w + gap)
    parts = [
        f'<svg width="{width}" height="{h + 34}" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, trap in enumerate(TRAP_KINDS):
        x = i * (bar_w + gap)
        bh = h * counts[trap] / peak
        parts.append(
            f'<rect x="{x}" y="{h - bh:.1f}" width="{bar_w}" '
            f'height="{bh:.1f}" fill="#c0392b">'
            f"<title>{trap}: {counts[trap]}</title></rect>"
            f'<text x="{x + bar_w / 2}" y="{h + 12}" font-size="9" '
            f'text-anchor="middle">{esc(trap)}</text>'
            f'<text x="{x + bar_w / 2}" y="{h + 26}" font-size="11" '
            f'text-anchor="middle">{counts[trap]}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def render(events, metrics, manifest):
    cells = group_cells(events)
    out = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>faultlab campaign dashboard</title><style>",
        "body{font-family:sans-serif;margin:24px;color:#222}",
        "h1{font-size:20px}h2{font-size:16px;margin-top:28px}",
        "table{border-collapse:collapse;margin:8px 0}",
        "td,th{border:1px solid #ccc;padding:4px 8px;font-size:12px;",
        "text-align:left}",
        "th{background:#f4f4f4}",
        ".cell{margin:10px 0}.label{font-size:13px;font-weight:bold}",
        ".legend span{display:inline-block;margin-right:14px;font-size:12px}",
        ".swatch{display:inline-block;width:10px;height:10px;",
        "margin-right:4px}",
        "</style></head><body>",
        "<h1>faultlab campaign dashboard</h1>",
        f"<p>{len(events)} trial events, {len(cells)} campaign cell(s).</p>",
    ]

    out.append("<h2>Outcome breakdown (activated trials)</h2><p class='legend'>")
    for outcome in OUTCOMES[:4]:
        out.append(
            f"<span><span class='swatch' style='background:"
            f"{OUTCOME_COLORS[outcome]}'></span>{outcome}</span>"
        )
    out.append(
        "</span></p><p>Whisker lines under each bar: Wilson 95% intervals "
        "for the crash and SDC shares.</p>"
    )
    for (app, tool, category), cell_events in cells.items():
        svg, counts, n = outcome_stack_svg(cell_events)
        out.append(
            f"<div class='cell'><div class='label'>{esc(app)} / {esc(tool)}"
            f" / {esc(category)} — {n} activated of {len(cell_events)}"
            f"</div>{svg}</div>"
        )

    out.append("<h2>Crash-divergence attribution (PINFI − LLFI)</h2>")
    rows = attribution_rows(cells)
    if not rows:
        out.append(
            "<p>Needs both tools' events for the same (app, category) "
            "cell.</p>"
        )
    for row in rows:
        out.append(
            f"<h3 style='font-size:14px'>{esc(row['app'])} / "
            f"{esc(row['category'])} — crash delta "
            f"{row['delta']:+.1f} points</h3>"
        )
        out.append(
            "<table><tr><th>class</th><th>delta (pts)</th>"
            "<th>LLFI share</th><th>PINFI share</th>"
            "<th>LLFI top site</th><th>PINFI top site</th></tr>"
        )
        for e in row["entries"]:
            def share(pair):
                hits, n = pair
                if n == 0:
                    return "-"
                lo, hi = wilson95(hits, n)
                return (
                    f"{100.0 * hits / n:.1f}% "
                    f"[{100 * lo:.1f}, {100 * hi:.1f}]"
                )
            out.append(
                f"<tr><td>{esc(e['class'])}</td>"
                f"<td>{e['delta']:+.1f}</td>"
                f"<td>{share(e['llfi'])}</td><td>{share(e['pinfi'])}</td>"
                f"<td>{esc(e['llfi_top'])}</td>"
                f"<td>{esc(e['pinfi_top'])}</td></tr>"
            )
        out.append("</table>")

    out.append("<h2>Fault models</h2>")
    out.append(
        "<p>Outcome shares per hardware fault model and tool (rates over "
        "activated trials, Wilson 95% on the crash share).</p>"
    )
    out.append(
        "<table><tr><th>fault model</th><th>tool</th><th>trials</th>"
        "<th>activated</th><th>crash</th><th>sdc</th><th>benign</th>"
        "<th>hang</th><th>crash rate</th><th>sdc rate</th></tr>"
    )
    for row in fault_model_rows(events):
        counts = row["counts"]
        n = row["activated"]
        trials = n + counts["not-activated"]

        def rate(hits, n=n):
            if n == 0:
                return "-"
            lo, hi = wilson95(hits, n)
            return f"{100.0 * hits / n:.1f}% [{100 * lo:.1f}, {100 * hi:.1f}]"

        out.append(
            f"<tr><td>{esc(row['model'])}</td><td>{esc(row['tool'])}</td>"
            f"<td>{trials}</td><td>{n}</td>"
            f"<td>{counts['crash']}</td><td>{counts['sdc']}</td>"
            f"<td>{counts['benign']}</td><td>{counts['hang']}</td>"
            f"<td>{rate(counts['crash'])}</td>"
            f"<td>{rate(counts['sdc'])}</td></tr>"
        )
    out.append("</table>")

    out.append("<h2>Trap kinds (crashing trials)</h2>")
    out.append(trap_histogram_svg(events))

    traced = traced_events(events)
    if traced:
        out.append("<h2>Fault propagation (FAULTLAB_PROP traces)</h2>")
        out.append(
            f"<p>{len(traced)} traced trials. Taint depth is the longest "
            "def-use chain rooted at the corrupted bits; fan-out counts "
            "tainted reads of any tainted value.</p>"
        )
        out.append(
            "<h3>Depth and fan-out per mapping class</h3>"
            "<table><tr><th>tool</th><th>class</th><th>traced</th>"
            "<th>depth p50/p95/max</th><th>depth histogram</th>"
            "<th>fan-out p50/p95/max</th><th>fan-out histogram</th>"
            "<th>diverged</th><th>masking events</th>"
            "<th>store&#8594;load edges</th></tr>"
        )
        for row in prop_class_rows(traced):
            depths, fanouts = row["depths"], row["fanouts"]
            out.append(
                f"<tr><td>{esc(row['tool'])}</td><td>{esc(row['class'])}"
                f"</td><td>{row['traced']}</td>"
                f"<td>{percentile(depths, 50):.0f} / "
                f"{percentile(depths, 95):.0f} / {depths[-1]:,}</td>"
                f"<td>{log2_bucket_histogram_svg(depths, '#2980b9', 'depth')}"
                "</td>"
                f"<td>{percentile(fanouts, 50):.0f} / "
                f"{percentile(fanouts, 95):.0f} / {fanouts[-1]:,}</td>"
                f"<td>{log2_bucket_histogram_svg(fanouts, '#8e44ad', 'uses')}"
                "</td>"
                f"<td>{row['diverged']}</td><td>{row['masking']}</td>"
                f"<td>{row['store_load']}</td></tr>"
            )
        out.append("</table>")

        out.append(
            "<h3>Masked vs propagated vs crashed</h3>"
            "<p>Activated traced trials only. Propagated means the fault "
            "left the golden control-flow path or corrupted output; masked "
            "means it stayed on-path and the output survived.</p>"
        )
        by_tool = {}
        for ev in traced:
            by_tool.setdefault(ev.get("tool", "?"), []).append(ev)
        out.append("<table>")
        for tool, evs in sorted(by_tool.items()):
            svg, n = prop_fate_stack_svg(evs)
            if n:
                out.append(
                    f"<tr><td>{esc(tool)} ({n})</td><td>{svg}</td></tr>"
                )
        out.append("</table>")
        legend = " ".join(
            f'<span style="color:{PROP_FATE_COLORS[f]}">&#9632; {f}</span>'
            for f in PROP_FATES
        )
        out.append(f"<p>{legend}</p>")

        cdf = divergence_cdf_svg(by_tool)
        if cdf:
            out.append(
                "<h3>Divergence-offset CDF</h3>"
                "<p>How many dynamic instructions each diverging trial "
                "executed past the injection before leaving the golden "
                "control-flow path &mdash; asm-level faults (PINFI) tend to "
                "diverge sooner than IR-level ones (LLFI).</p>"
            )
            out.append(cdf)

    out.append("<h2>Trial latency</h2>")
    out.append(
        "<table><tr><th>app</th><th>tool</th><th>category</th>"
        "<th>trials</th><th>p50 ms</th><th>p95 ms</th><th>p99 ms</th>"
        "<th>mean propagation (instrs after injection)</th></tr>"
    )
    for (app, tool, category), cell_events in cells.items():
        lat = sorted(
            float(e.get("latency_ms", 0.0)) for e in cell_events
        )
        injected = [e for e in cell_events if e.get("injected")]
        prop = (
            sum(e.get("instructions_after_injection", 0) for e in injected)
            / len(injected)
            if injected
            else 0.0
        )
        out.append(
            f"<tr><td>{esc(app)}</td><td>{esc(tool)}</td>"
            f"<td>{esc(category)}</td><td>{len(cell_events)}</td>"
            f"<td>{percentile(lat, 50):.2f}</td>"
            f"<td>{percentile(lat, 95):.2f}</td>"
            f"<td>{percentile(lat, 99):.2f}</td>"
            f"<td>{prop:,.0f}</td></tr>"
        )
    out.append("</table>")

    dispatch = dispatch_summary(manifest, metrics)
    if dispatch:
        out.append("<h2>Dispatch</h2>")
        out.append(
            "<p>Micro-op trace-cache activity: blocks decoded once and "
            "replayed by the threaded fast path; invalidations are "
            "armed-window side exits onto the hooked slow path.</p>"
        )
        out.append("<table><tr>")
        for key in dispatch:
            out.append(f"<th>{esc(key)}</th>")
        out.append("</tr><tr>")
        for value in dispatch.values():
            out.append(f"<td>{esc(value)}</td>")
        out.append("</tr></table>")

    converge = converge_summary(manifest, metrics)
    if converge:
        out.append("<h2>Early exit</h2>")
        out.append(
            "<p>Checkpointed trials whose state again equals the golden "
            "run's at a snapshot position stop there; their records are "
            "completed from the golden run, so instruction totals still "
            "count the suffix that was not simulated.</p>"
        )
        out.append("<table><tr>")
        for key in converge:
            out.append(f"<th>{esc(key)}</th>")
        out.append("</tr><tr>")
        for value in converge.values():
            out.append(f"<td>{esc(value)}</td>")
        out.append("</tr></table>")

    if manifest:
        out.append("<h2>Run manifest</h2><table><tr>")
        keys = list(manifest[0].keys())
        for key in keys:
            out.append(f"<th>{esc(key)}</th>")
        out.append("</tr>")
        for row in manifest:
            out.append("<tr>")
            for key in keys:
                out.append(f"<td>{esc(row.get(key, ''))}</td>")
            out.append("</tr>")
        out.append("</table>")

    if metrics:
        out.append("<h2>Metrics snapshot</h2>")
        counters = metrics.get("counters", {})
        if counters:
            out.append("<table><tr><th>counter</th><th>value</th></tr>")
            for name, value in counters.items():
                out.append(
                    f"<tr><td>{esc(name)}</td><td>{esc(value)}</td></tr>"
                )
            out.append("</table>")
        gauges = metrics.get("gauges", {})
        if gauges:
            out.append("<table><tr><th>gauge</th><th>value</th></tr>")
            for name, value in gauges.items():
                out.append(
                    f"<tr><td>{esc(name)}</td><td>{esc(value)}</td></tr>"
                )
            out.append("</table>")
        hists = metrics.get("histograms", {})
        if hists:
            out.append(
                "<table><tr><th>histogram</th><th>count</th><th>mean</th>"
                "<th>p50</th><th>p95</th><th>p99</th><th>max</th></tr>"
            )
            for name, h in hists.items():
                out.append(
                    f"<tr><td>{esc(name)}</td><td>{h.get('count', 0)}</td>"
                    f"<td>{h.get('mean', 0):.2f}</td>"
                    f"<td>{h.get('p50', 0):.2f}</td>"
                    f"<td>{h.get('p95', 0):.2f}</td>"
                    f"<td>{h.get('p99', 0):.2f}</td>"
                    f"<td>{h.get('max', 0)}</td></tr>"
                )
            out.append("</table>")

    out.append("</body></html>\n")
    return "".join(out)


CHROME_TRIAL_TAGS = ("app", "tool", "category", "k", "checkpoint", "outcome")
PHASES = ("restore", "execute", "classify")


def chrome_trace(events):
    """The event log as a Chrome trace-event document: per record, one
    `trial` event and its phases nested in order from the trial's start."""
    trace = []
    for ev in sorted(events, key=lambda e: (e.get("start_us", 0),
                                            e.get("worker", 0))):
        missing = [k for k in ("start_us", *(p + "_us" for p in PHASES))
                   if k not in ev]
        if missing:
            raise ValueError(
                f"trial {ev.get('trial')} of worker {ev.get('worker')} has "
                f"no {', '.join(missing)}: the log predates the phase split"
            )
        tid = ev.get("worker", 0) + 1
        ts = ev["start_us"]
        trace.append({
            "name": "trial", "cat": "scheduler", "ph": "X", "ts": ts,
            "dur": round(ev.get("latency_ms", 0.0) * 1000.0, 3),
            "pid": 1, "tid": tid,
            "args": {tag: ev.get(tag) for tag in CHROME_TRIAL_TAGS},
        })
        for phase in PHASES:
            dur = ev[phase + "_us"]
            trace.append({"name": phase, "cat": "phase", "ph": "X",
                          "ts": ts, "dur": dur, "pid": 1, "tid": tid})
            ts += dur
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def fmt_duration(seconds):
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def progress_bar_svg(done, total, converged_cells, cells_total):
    width, h = 560, 22
    frac = done / total if total else 0.0
    return (
        f'<svg width="{width}" height="{h}" '
        'xmlns="http://www.w3.org/2000/svg">'
        f'<rect x="0" y="0" width="{width}" height="{h}" fill="#eee"/>'
        f'<rect x="0" y="0" width="{frac * width:.1f}" height="{h}" '
        'fill="#2980b9"/>'
        f'<text x="{width / 2}" y="{h - 6}" font-size="12" fill="#222" '
        f'text-anchor="middle">{done:,}/{total:,} trials '
        f'({100.0 * frac:.1f}%) — {converged_cells}/{cells_total} cells '
        "converged</text></svg>"
    )


def render_status(doc):
    """Renders a FAULTLAB_STATUS snapshot (schema v1) into a standalone HTML
    page. Mid-run snapshots auto-refresh at the snapshot cadence so the page
    can be pointed at the file the campaign keeps rewriting."""
    final = bool(doc.get("final"))
    interval_ms = int(doc.get("status_interval_ms", 1000) or 1000)
    refresh_s = max(1, (interval_ms + 999) // 1000)
    out = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>faultlab campaign status</title>",
    ]
    if not final:
        out.append(f"<meta http-equiv='refresh' content='{refresh_s}'>")
    out.append(
        "<style>"
        "body{font-family:sans-serif;margin:24px;color:#222}"
        "h1{font-size:20px}h2{font-size:16px;margin-top:28px}"
        "table{border-collapse:collapse;margin:8px 0}"
        "td,th{border:1px solid #ccc;padding:4px 8px;font-size:12px;"
        "text-align:left}"
        "th{background:#f4f4f4}"
        ".ok{color:#27ae60;font-weight:bold}"
        ".warn{color:#c0392b;font-weight:bold}"
        ".muted{color:#888}"
        "</style></head><body>"
    )
    state = "final" if final else f"live (refreshing every {refresh_s}s)"
    out.append(f"<h1>faultlab campaign status — {esc(state)}</h1>")
    out.append(progress_bar_svg(
        int(doc.get("trials_done", 0)), int(doc.get("trials_total", 0)),
        int(doc.get("converged_cells", 0)), int(doc.get("cells_total", 0)),
    ))
    rate = float(doc.get("rate_trials_per_second", 0.0))
    eta = float(doc.get("eta_seconds", 0.0))
    wd = int(doc.get("watchdog_flags", 0))
    out.append("<table><tr>")
    summary = [
        ("elapsed", fmt_duration(doc.get("elapsed_seconds", 0.0))),
        ("rate", f"{rate:.2f} trials/s" if rate > 0 else "-"),
        ("eta", fmt_duration(eta) if not final and eta > 0 else "-"),
        ("workers", str(doc.get("workers_total", 0))),
        ("ci target", f"{float(doc.get('ci_target', 0.0)):.4f}"),
        ("watchdog flags", str(wd)),
        ("snapshot writes", str(doc.get("status_writes", 0))),
        ("dispatch", doc.get("dispatch_mode", "") or "-"),
    ]
    for key, _ in summary:
        out.append(f"<th>{esc(key)}</th>")
    out.append("</tr><tr>")
    for key, value in summary:
        cls = " class='warn'" if key == "watchdog flags" and wd else ""
        out.append(f"<td{cls}>{esc(value)}</td>")
    out.append("</tr></table>")

    out.append("<h2>Cells</h2>")
    out.append(
        "<p>Crash share over activated trials with Wilson 95% interval; a "
        "cell converges when the CI half-width drops below the target.</p>"
    )
    out.append(
        "<table><tr><th>app</th><th>tool</th><th>category</th>"
        "<th>model</th><th>done</th><th>crash</th><th>sdc</th>"
        "<th>benign</th><th>hang</th><th>n/a</th><th>crash share</th>"
        "<th>CI ±</th><th>converged</th><th>p50 ms</th><th>p99 ms</th>"
        "<th>in flight</th><th>wd</th></tr>"
    )
    for cell in doc.get("cells", []):
        share = float(cell.get("crash_share", 0.0))
        lo = float(cell.get("ci_lo", 0.0))
        hi = float(cell.get("ci_hi", 0.0))
        conv = bool(cell.get("converged"))
        conv_td = ("<td class='ok'>yes</td>" if conv
                   else "<td class='muted'>no</td>")
        wd_cell = int(cell.get("watchdog_flags", 0))
        wd_td = (f"<td class='warn'>{wd_cell}</td>" if wd_cell
                 else "<td>0</td>")
        out.append(
            f"<tr><td>{esc(cell.get('app', '?'))}</td>"
            f"<td>{esc(cell.get('tool', '?'))}</td>"
            f"<td>{esc(cell.get('category', '?'))}</td>"
            f"<td>{esc(cell.get('fault_model', '?'))}</td>"
            f"<td>{cell.get('done', 0)}/{cell.get('trials', 0)}</td>"
            f"<td>{cell.get('crash', 0)}</td><td>{cell.get('sdc', 0)}</td>"
            f"<td>{cell.get('benign', 0)}</td><td>{cell.get('hang', 0)}</td>"
            f"<td>{cell.get('not_activated', 0)}</td>"
            f"<td>{100.0 * share:.1f}% [{100 * lo:.1f}, {100 * hi:.1f}]</td>"
            f"<td>{float(cell.get('ci_halfwidth', 0.0)):.4f}</td>"
            f"{conv_td}"
            f"<td>{float(cell.get('p50_ms', 0.0)):.2f}</td>"
            f"<td>{float(cell.get('p99_ms', 0.0)):.2f}</td>"
            f"<td>{cell.get('in_flight', 0)}</td>{wd_td}</tr>"
        )
    out.append("</table>")

    workers = doc.get("workers", [])
    if workers:
        out.append("<h2>Workers</h2>")
        out.append(
            "<table><tr><th>worker</th><th>state</th><th>cell</th>"
            "<th>trial age ms</th><th>trials done</th>"
            "<th>flagged</th></tr>"
        )
        for w in workers:
            flagged = bool(w.get("flagged"))
            flag_td = ("<td class='warn'>stalled</td>" if flagged
                       else "<td>-</td>")
            out.append(
                f"<tr><td>{w.get('worker', 0)}</td>"
                f"<td>{esc(w.get('state', '?'))}</td>"
                f"<td>{esc(w.get('cell') or '-')}</td>"
                f"<td>{float(w.get('trial_age_ms', 0.0)):.0f}</td>"
                f"<td>{w.get('trials_done', 0)}</td>{flag_td}</tr>"
            )
        out.append("</table>")

    events = doc.get("watchdog_events", [])
    dropped = int(doc.get("watchdog_events_dropped", 0))
    out.append("<h2>Watchdog</h2>")
    if not events:
        out.append("<p class='muted'>No stalled trials observed.</p>")
    else:
        out.append(
            "<table><tr><th>at</th><th>worker</th><th>cell</th>"
            "<th>trial age ms</th><th>threshold ms</th></tr>"
        )
        for ev in events:
            out.append(
                f"<tr><td>{fmt_duration(ev.get('elapsed_seconds', 0.0))}"
                f"</td><td>{ev.get('worker', 0)}</td>"
                f"<td>{esc(ev.get('cell') or '-')}</td>"
                f"<td>{float(ev.get('trial_age_ms', 0.0)):.0f}</td>"
                f"<td>{float(ev.get('threshold_ms', 0.0)):.0f}</td></tr>"
            )
        out.append("</table>")
        if dropped:
            out.append(
                f"<p class='muted'>{dropped} earlier event(s) dropped "
                "(bounded buffer).</p>"
            )

    phases = doc.get("phases", {})
    counters = doc.get("counters", {})
    out.append("<h2>Phase split and engine counters</h2>")
    out.append("<table><tr><th>phase</th><th>seconds</th></tr>")
    for key in ("restore_seconds", "execute_seconds", "classify_seconds"):
        out.append(
            f"<tr><td>{esc(key)}</td>"
            f"<td>{float(phases.get(key, 0.0)):.3f}</td></tr>"
        )
    out.append("</table>")
    if counters:
        out.append("<table><tr><th>counter</th><th>value</th></tr>")
        for name, value in counters.items():
            out.append(f"<tr><td>{esc(name)}</td><td>{esc(value)}</td></tr>")
        out.append("</table>")

    out.append("</body></html>\n")
    return "".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events",
                        help="FAULTLAB_EVENTS JSONL path")
    parser.add_argument("--status",
                        help="FAULTLAB_STATUS snapshot JSON path; renders "
                             "the live-status page instead of the event "
                             "dashboard")
    parser.add_argument("--metrics", help="FAULTLAB_METRICS JSON path")
    parser.add_argument("--manifest", help="run manifest CSV path")
    parser.add_argument("-o", "--out", help="output HTML path")
    parser.add_argument("--chrome-trace", metavar="OUT.json",
                        help="with --events: also write the log as Chrome "
                             "trace-event JSON")
    args = parser.parse_args(argv)

    if bool(args.events) == bool(args.status):
        print("error: exactly one of --events or --status is required",
              file=sys.stderr)
        return 2
    if not (args.out or (args.events and args.chrome_trace)):
        print("error: -o is required (or --chrome-trace with --events)",
              file=sys.stderr)
        return 2

    if args.status:
        try:
            with open(args.status, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {args.status}: {e}", file=sys.stderr)
            return 1
        document = render_status(doc)
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as e:
            print(f"error: {args.out}: {e}", file=sys.stderr)
            return 1
        kind = "final" if doc.get("final") else "live"
        print(
            f"{args.out}: {kind} status page, "
            f"{doc.get('trials_done', 0)}/{doc.get('trials_total', 0)} "
            f"trials, {doc.get('converged_cells', 0)}/"
            f"{doc.get('cells_total', 0)} cells converged"
        )
        return 0

    try:
        events = load_events(args.events)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not events:
        print(f"error: {args.events}: no trial events", file=sys.stderr)
        return 1

    if args.chrome_trace:
        try:
            document = chrome_trace(events)
            with open(args.chrome_trace, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
        except (OSError, ValueError) as e:
            print(f"error: {args.chrome_trace}: {e}", file=sys.stderr)
            return 1
        print(f"{args.chrome_trace}: Chrome trace with {len(events)} trials")
        if not args.out:
            return 0

    metrics = None
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as fh:
                metrics = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {args.metrics}: {e}", file=sys.stderr)
            return 1

    manifest = None
    if args.manifest:
        try:
            manifest = load_manifest(args.manifest)
        except OSError as e:
            print(f"error: {args.manifest}: {e}", file=sys.stderr)
            return 1

    document = render(events, metrics, manifest)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(document)
    except OSError as e:
        print(f"error: {args.out}: {e}", file=sys.stderr)
        return 1
    print(
        f"{args.out}: dashboard with {len(events)} events "
        f"({len(group_cells(events))} cells)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
