#!/usr/bin/env python3
"""Validate a ddnn trace file against the Chrome trace_event schema and
cross-check its span sums against a metrics JSON export.

Usage:
    check_trace.py trace.json [metrics.json] [--series series.csv]
                   [--served] [--oracle sim_trace.json]

Schema checks (always):
  * top level is {"displayTimeUnit": ..., "traceEvents": [...]}
  * every event is "M" (thread_name/process_name metadata) or "X" (complete
    span) with integer pid/tid and, for "X", string name/cat plus numeric
    ts/dur >= 0
  * every "X" event's (pid, tid) has a thread_name metadata entry
  * per-sample: the delivered bytes summed over a sample's send:* spans
    equal the root "sample" span's "bytes" arg exactly

Simulator traces are one sequential timeline, so a child belongs to the
sample whose [ts, ts+dur] window contains it. Merged served traces
(`ddnn trace-merge`) interleave spans from several wall-clock processes;
pass --served to group children by their "sample_index" arg instead (every
hop of a served sample is stamped with its distributed trace identity).

--oracle compares a served trace's per-sample span tree against a simulator
trace of the same model/dataset: for every sample index, the exit taken,
the degraded/dead flags and the multiset of child span names must match
exactly. This is the serve-vs-simulate parity check at span granularity.

Metrics cross-checks (with metrics.json, produced by --metrics-out):
  * span count == runtime.samples
  * sum of sample "bytes" args == runtime.bytes_total (exact int)
  * sum of sample "latency_s" args == runtime.total_latency_s (exact float:
    both sides accumulate the same doubles in the same order)
  * per-exit span counts == runtime.exit.* counters

Served HDR cross-checks (with --served and metrics.json, when the export
carries runtime.hdr_latency_ms):
  * its count == runtime.samples == the number of sample spans
  * its exact max == the largest sample "latency_s" arg, in ms
  * every exemplar (p99/p999/max) names a sample span by sample_index whose
    "trace_id" arg equals the exemplar's trace id

Series cross-checks (with --series, produced by --series-out): every
windowed-series column whose name exactly matches a counter in the metrics
export must sum over all windows to that counter's final value — exact
integer equality, no tolerance. The series is recorded at each sample's
simulated start time by the same single-threaded loop that bumps the
counters, so the window deltas must partition the totals.

Tail reconciliation (same flag): every hdr series column family
(<name>.n / <name>.max) whose base name is an hdr metric in the export
must agree with it exactly — the .n cells sum to the metric's total count,
and the largest .max cell over the non-empty windows equals the metric's
exact max. When the export holds runtime.hdr_latency_ms or
fleet.hdr_latency_ms, the series must carry that family's .n and .max
columns, so a rename on either side fails instead of checking nothing.
"""
import csv
import json
import sys

EPS_US = 0.01  # ts/dur are microseconds rounded to 3 decimals


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def check_schema(trace):
    if not isinstance(trace, dict):
        fail("top level must be an object")
    if "traceEvents" not in trace or not isinstance(trace["traceEvents"], list):
        fail("missing traceEvents array")
    named_tracks = set()
    spans = []
    for i, ev in enumerate(trace["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where} is not an object")
        ph = ev.get("ph")
        if ph not in ("M", "X"):
            fail(f"{where}: unexpected ph {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                fail(f"{where}: {key} must be an integer")
        if ph == "M":
            if ev.get("name") not in ("thread_name", "process_name"):
                fail(f"{where}: metadata event must be thread_name or "
                     "process_name")
            name = ev.get("args", {}).get("name")
            if not isinstance(name, str) or not name:
                fail(f"{where}: {ev['name']} needs args.name")
            if ev["name"] == "thread_name":
                named_tracks.add((ev["pid"], ev["tid"]))
            continue
        for key in ("name", "cat"):
            if not isinstance(ev.get(key), str) or not ev[key]:
                fail(f"{where}: {key} must be a non-empty string")
        for key in ("ts", "dur"):
            v = ev.get(key)
            if not isinstance(v, (int, float)) or v < 0:
                fail(f"{where}: {key} must be a non-negative number")
        if "args" in ev and not isinstance(ev["args"], dict):
            fail(f"{where}: args must be an object")
        spans.append(ev)
    for s in spans:
        if (s["pid"], s["tid"]) not in named_tracks:
            fail(f"span {s['name']!r} on unnamed track "
                 f"{s['pid']}/{s['tid']}")
    return spans


def group_children(spans, served):
    """Map root sample span -> its child spans.

    Simulator timelines are sequential simulated time, so containment in the
    root's [ts, ts+dur] window identifies a child. Merged served traces
    interleave wall clocks across processes; there every child carries the
    sample_index it served, so grouping is by identity, not geometry.
    """
    samples = [s for s in spans if s["name"] == "sample"]
    children = [s for s in spans if s["name"] != "sample"]
    by_root = {}
    if served:
        by_index = {}
        for c in children:
            idx = c.get("args", {}).get("sample_index")
            if not isinstance(idx, int):
                fail(f"served child span {c['name']!r} lacks an integer "
                     "args.sample_index")
            by_index.setdefault(idx, []).append(c)
        for root in samples:
            by_root[id(root)] = by_index.get(
                root["args"]["sample_index"], [])
    else:
        # Samples run back-to-back, so a zero-duration child emitted at the
        # very end of its sample (e.g. a local exit's gateway_fuse) also sits
        # at the start of the next window. Assign each child to the earliest
        # containing window, exactly once.
        ordered = sorted(samples, key=lambda s: s["ts"])
        for root in ordered:
            by_root[id(root)] = []
        for c in children:
            for root in ordered:
                lo, hi = root["ts"], root["ts"] + root["dur"]
                if c["ts"] >= lo - EPS_US and c["ts"] + c["dur"] <= hi + EPS_US:
                    by_root[id(root)].append(c)
                    break
    return samples, by_root


def check_samples(spans, served=False):
    samples, by_root = group_children(spans, served)
    if not samples:
        fail("no sample spans")
    required = ("sample_index", "exit", "prediction", "label", "entropy",
                "latency_s", "bytes", "retries", "degraded", "dead")
    for s in samples:
        args = s.get("args", {})
        for key in required:
            if key not in args:
                fail(f"sample span missing args.{key}")
    for root in samples:
        inside = by_root[id(root)]
        send_bytes = sum(c["args"]["bytes"] for c in inside
                         if c["name"].startswith("send:"))
        if send_bytes != root["args"]["bytes"]:
            fail(f"sample {root['args']['sample_index']}: send spans sum to "
                 f"{send_bytes} B but the root says "
                 f"{root['args']['bytes']} B")
        if root["args"]["dead"] == 0 and not inside:
            fail(f"sample {root['args']['sample_index']}: classified but "
                 "has no child spans")
    return samples, by_root


def sample_shapes(samples, by_root):
    """sample_index -> (exit, degraded, dead, sorted child span names)."""
    shapes = {}
    for root in samples:
        a = root["args"]
        idx = a["sample_index"]
        if idx in shapes:
            fail(f"duplicate sample span for index {idx}")
        names = sorted(c["name"] for c in by_root[id(root)])
        shapes[idx] = (a["exit"], a["degraded"], a["dead"], names)
    return shapes


def check_oracle(served_shapes, oracle_path):
    """Served span tree == simulator span tree, per sample."""
    oracle_spans = check_schema(load(oracle_path))
    oracle_samples, oracle_children = group_children(oracle_spans,
                                                     served=False)
    oracle_shapes = sample_shapes(oracle_samples, oracle_children)
    if set(served_shapes) != set(oracle_shapes):
        only_served = sorted(set(served_shapes) - set(oracle_shapes))
        only_oracle = sorted(set(oracle_shapes) - set(served_shapes))
        fail(f"sample index mismatch vs oracle: served-only {only_served}, "
             f"oracle-only {only_oracle}")
    for idx in sorted(served_shapes):
        s_exit, s_deg, s_dead, s_names = served_shapes[idx]
        o_exit, o_deg, o_dead, o_names = oracle_shapes[idx]
        if (s_exit, s_deg, s_dead) != (o_exit, o_deg, o_dead):
            fail(f"sample {idx}: served (exit={s_exit}, degraded={s_deg}, "
                 f"dead={s_dead}) vs oracle (exit={o_exit}, "
                 f"degraded={o_deg}, dead={o_dead})")
        if s_names != o_names:
            fail(f"sample {idx}: served span tree {s_names} vs oracle "
                 f"{o_names}")
    return len(served_shapes)


def check_metrics(samples, metrics):
    by_name = {m["name"]: m for m in metrics.get("metrics", [])}

    def metric(name):
        if name not in by_name:
            fail(f"metrics export missing {name}")
        return by_name[name]["value"]

    if len(samples) != metric("runtime.samples"):
        fail(f"{len(samples)} sample spans vs runtime.samples = "
             f"{metric('runtime.samples')}")
    total_bytes = 0
    total_latency = 0.0
    for s in samples:  # same accumulation order as the runtime
        total_bytes += s["args"]["bytes"]
        total_latency += s["args"]["latency_s"]
    if total_bytes != metric("runtime.bytes_total"):
        fail(f"span bytes {total_bytes} != runtime.bytes_total "
             f"{metric('runtime.bytes_total')}")
    if total_latency != metric("runtime.total_latency_s"):
        fail(f"span latency {total_latency!r} != runtime.total_latency_s "
             f"{metric('runtime.total_latency_s')!r}")
    for name, m in by_name.items():
        if not name.startswith("runtime.exit."):
            continue
        exit_name = name[len("runtime.exit."):]
        order = {"local": 0, "edge": 1, "cloud": 2}
        # Exit indices are positional; map via the canonical name order
        # restricted to the exits this run actually registered.
        present = sorted((n[len("runtime.exit."):] for n in by_name
                          if n.startswith("runtime.exit.")),
                         key=lambda n: order[n])
        idx = present.index(exit_name)
        count = sum(1 for s in samples if s["args"]["exit"] == idx)
        if count != m["value"]:
            fail(f"{count} spans took exit {exit_name} but {name} = "
                 f"{m['value']}")


def check_served_hdr(samples, metrics):
    """The driver's HDR latency histogram partitions the sample spans, and
    its exemplars resolve to them by (sample_index, trace_id)."""
    by_name = {m["name"]: m for m in metrics.get("metrics", [])}
    hdr = by_name.get("runtime.hdr_latency_ms")
    if hdr is None:
        return False
    if hdr["count"] != by_name["runtime.samples"]["value"] or \
            hdr["count"] != len(samples):
        fail(f"runtime.hdr_latency_ms counted {hdr['count']} samples vs "
             f"runtime.samples {by_name['runtime.samples']['value']} and "
             f"{len(samples)} sample spans")
    max_ms = max(s["args"]["latency_s"] for s in samples) * 1e3
    if hdr["max"] != max_ms:
        fail(f"runtime.hdr_latency_ms max {hdr['max']!r} != largest sample "
             f"span latency {max_ms!r} ms")
    trace_ids = {s["args"]["sample_index"]: s["args"].get("trace_id")
                 for s in samples}
    for which in ("p99", "p999", "max"):
        idx = hdr[f"{which}_sample"]
        tid = hdr[f"{which}_trace_id"]
        if idx not in trace_ids:
            fail(f"runtime.hdr_latency_ms {which} exemplar names sample "
                 f"{idx}, which has no sample span")
        if trace_ids[idx] != tid:
            fail(f"runtime.hdr_latency_ms {which} exemplar trace id {tid} "
                 f"!= sample {idx}'s trace_id {trace_ids[idx]}")
    return True


# Latency families the series must reconcile whenever the export has them.
REQUIRED_TAIL_FAMILIES = ("runtime.hdr_latency_ms", "fleet.hdr_latency_ms")


def check_series(series_path, metrics):
    counters = {m["name"]: m["value"] for m in metrics.get("metrics", [])
                if m.get("type") == "counter"}
    tails = {m["name"]: m for m in metrics.get("metrics", [])
             if m.get("type") == "hdr"}
    try:
        with open(series_path, "r", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        fail(f"cannot load {series_path}: {e}")
    if len(rows) < 2:
        fail(f"{series_path}: no data windows")
    header = rows[0]
    checked = 0
    for col, name in enumerate(header):
        if name not in counters:
            continue
        total = 0
        for r, row in enumerate(rows[1:], start=2):
            try:
                total += int(row[col])
            except (IndexError, ValueError):
                fail(f"{series_path}:{r}: column {name!r} is not an integer")
        if total != counters[name]:
            fail(f"series column {name!r} sums to {total} across "
                 f"{len(rows) - 1} windows but the metrics export says "
                 f"{counters[name]}")
        checked += 1
    # Tail reconciliation: an hdr column family (<base>.n, <base>.max) must
    # partition its registry metric — window counts sum to the total and the
    # window maxima peak at the exact recorded max.
    for base in REQUIRED_TAIL_FAMILIES:
        if base in tails and not {f"{base}.n", f"{base}.max"} <= set(header):
            fail(f"{series_path}: metrics export has {base!r} but the series "
                 f"lacks its {base + '.n'!r}/{base + '.max'!r} columns")
    for col, name in enumerate(header):
        if not name.endswith(".n"):
            continue
        base = name[:-len(".n")]
        metric = tails.get(base)
        if metric is None or f"{base}.max" not in header:
            continue
        max_col = header.index(f"{base}.max")
        total_n = 0
        window_max = None
        for r, row in enumerate(rows[1:], start=2):
            try:
                n = int(row[col])
                mx = float(row[max_col])
            except (IndexError, ValueError):
                fail(f"{series_path}:{r}: column family {base!r} is not "
                     "numeric")
            total_n += n
            if n > 0 and (window_max is None or mx > window_max):
                window_max = mx
        if total_n != metric["count"]:
            fail(f"series column {name!r} sums to {total_n} windows-worth "
                 f"of samples but metric {metric['name']!r} counted "
                 f"{metric['count']}")
        if total_n > 0 and window_max != metric["max"]:
            fail(f"series column {base + '.max'!r} peaks at {window_max!r} "
                 f"but metric {metric['name']!r} reports exact max "
                 f"{metric['max']!r}")
        checked += 1
    # A vacuous pass (no shared columns) means someone renamed the columns;
    # that is a bug in its own right.
    for required in ("runtime.samples", "runtime.bytes_total"):
        if required not in header:
            fail(f"{series_path}: missing required column {required!r}")
    return checked


def take_option(argv, flag):
    if flag not in argv:
        return None
    i = argv.index(flag)
    if i + 1 >= len(argv):
        print(__doc__)
        sys.exit(2)
    value = argv[i + 1]
    del argv[i:i + 2]
    return value


def main():
    argv = sys.argv[1:]
    series_path = take_option(argv, "--series")
    oracle_path = take_option(argv, "--oracle")
    served = "--served" in argv
    if served:
        argv.remove("--served")
    if len(argv) not in (1, 2) or (series_path and len(argv) != 2):
        print(__doc__)
        sys.exit(2)
    if oracle_path and not served:
        fail("--oracle requires --served (the oracle is the simulator "
             "timeline; the subject must be a served trace)")
    trace = load(argv[0])
    spans = check_schema(trace)
    samples, by_root = check_samples(spans, served=served)
    notes = []
    if oracle_path:
        n = check_oracle(sample_shapes(samples, by_root), oracle_path)
        notes.append(f"{n} samples match the simulator oracle")
    if len(argv) == 2:
        metrics = load(argv[1])
        check_metrics(samples, metrics)
        notes.append("metrics cross-check passed")
        if served and check_served_hdr(samples, metrics):
            notes.append("served HDR exemplars resolved")
        if series_path:
            n = check_series(series_path, metrics)
            notes.append(f"{n} series columns reconciled")
    extra = (", " + ", ".join(notes)) if notes else ""
    print(f"check_trace: OK ({len(samples)} samples, "
          f"{len(spans)} spans{extra})")


if __name__ == "__main__":
    main()
