#!/usr/bin/env python3
"""Summarizes the Chrome traces a traced benchmark run writes.

Usage: python3 perfbench/summarize_trace.py TRACE_DIR

TRACE_DIR holds block-*.json (Chrome trace_event exports of the traced
blocks) and labels.json (root span id -> request label). Prints a JSON object
of per-span figures on stdout.

The span tree: on one thread, a span's parent is the innermost span of that
thread that encloses it one nesting level up; a span at the top of its
thread (a pool task on a worker) hangs under the span named by its
parent_id. The benchmark's own spans (around each layer call, depth 0 on the
client thread with no parent) are the roots; the program's spans nest under
them.

For every span name:
  self time      its duration minus the part of it its children cover
  lanes          most distinct threads it ran on within one request
  critical share its share of the requests' wall time on the critical path: the
                 path from a root's end back to its start that always steps
                 into the child that finished last.
For every root name:
  busy lanes     sum over threads of the time some span of the request was
                 open there, divided by the root's wall time. The client
                 lane counts for the whole request, so 1.0 means no other
                 lane worked and N means N lanes were busy throughout.
"""

import collections
import glob
import json
import os
import sys

# The benchmark's own spans, one around each layer call.
ROOT_NAMES = ("setup.generate", "setup.index", "service.plan",
              "service.execute", "service.proveall", "service.apply",
              "discovery.discover")


class Span:
    __slots__ = ("name", "start", "end", "tid", "depth", "span_id",
                 "parent_id", "children", "parent")

    def __init__(self, ev):
        args = ev.get("args", {})
        self.name = ev["name"]
        self.start = float(ev["ts"])
        self.end = self.start + float(ev["dur"])
        self.tid = ev["tid"]
        self.depth = int(args.get("depth", 0))
        self.span_id = int(args.get("span_id", 0))
        self.parent_id = int(args.get("parent_id", 0))
        self.children = []
        self.parent = None


def load(trace_dir):
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "block-*.json"))):
        with open(path) as f:
            spans.extend(Span(ev) for ev in json.load(f)["traceEvents"]
                         if ev.get("ph") == "X")
    labels = {}
    label_path = os.path.join(trace_dir, "labels.json")
    if os.path.exists(label_path):
        with open(label_path) as f:
            labels = {int(k): v for k, v in json.load(f).items()}
    return spans, labels


def build_tree(spans):
    """Links parents and children; returns the roots."""
    by_id = {s.span_id: s for s in spans if s.span_id}
    by_tid = collections.defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    for lane in by_tid.values():
        lane.sort(key=lambda s: (s.start, -s.end, s.depth))
        stack = []  # open enclosing spans on this thread
        for s in lane:
            # Timestamps are whole microseconds, so a child may appear to end
            # up to a microsecond or two after its parent.
            while stack and (stack[-1].end + 2 < s.end or
                             stack[-1].depth >= s.depth):
                stack.pop()
            if s.depth > 0 and stack:
                s.parent = stack[-1]
            stack.append(s)
    roots = []
    for s in spans:
        if s.parent is None and s.parent_id in by_id:
            parent = by_id[s.parent_id]
            if parent is not s:
                s.parent = parent
        if s.parent is None:
            roots.append(s)
        else:
            s.parent.children.append(s)
    return roots


def covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(s):
    return (s.end - s.start) - covered(
        [(c.start, c.end) for c in s.children], s.start, s.end)


def critical_path(root, credit):
    """Credits each span name with its time on the root's critical path.
    The root's own time is credited to "(root)": the root shares its name
    with the program span it wraps."""
    work = [(root, root.end)]
    while work:
        span, t = work.pop()
        key = "(root)" if span is root else span.name
        while t > span.start:
            best, best_end = None, None
            for c in span.children:
                c_end = min(c.end, t)
                if c.start < t and c_end > span.start and (
                        best is None or c_end > best_end):
                    best, best_end = c, c_end
            if best is None:
                credit[key] += t - span.start
                break
            credit[key] += t - best_end
            work.append((best, best_end))
            t = max(best.start, span.start)


def subtree(root):
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(s.children)
    return out


def summarize(trace_dir):
    spans, labels = load(trace_dir)
    roots = [r for r in build_tree(spans) if r.name in ROOT_NAMES]
    self_us = collections.defaultdict(float)
    count = collections.Counter()
    lanes = collections.defaultdict(int)
    crit = collections.defaultdict(float)
    root_wall = collections.defaultdict(float)
    root_busy = collections.defaultdict(float)
    root_lanes = collections.defaultdict(int)
    root_count = collections.Counter()
    label_wall = collections.defaultdict(float)
    label_busy = collections.defaultdict(float)
    total_wall = 0.0
    for root in roots:
        members = subtree(root)
        wall = root.end - root.start
        if root.name.startswith("setup."):
            # Set-up phases have no program spans under them: only their
            # wall time is reported, and they stay out of the shares.
            root_count[root.name] += 1
            root_wall[root.name] += wall
            continue
        total_wall += wall
        per_tid = collections.defaultdict(list)
        tids_by_name = collections.defaultdict(set)
        for s in members:
            per_tid[s.tid].append((s.start, s.end))
            if s is not root:
                self_us[s.name] += self_time(s)
                count[s.name] += 1
                tids_by_name[s.name].add(s.tid)
        for name, tids in tids_by_name.items():
            lanes[name] = max(lanes[name], len(tids))
        busy = sum(covered(iv, root.start, root.end) for iv in per_tid.values())
        root_count[root.name] += 1
        root_wall[root.name] += wall
        root_busy[root.name] += busy
        root_lanes[root.name] = max(root_lanes[root.name], len(per_tid))
        label = labels.get(root.span_id)
        if label is not None:
            label_wall[root.name + " " + label] += wall
            label_busy[root.name + " " + label] += busy
        critical_path(root, crit)
    spans_out = {
        name: {"self_ms": self_us[name] / 1000 / count[name],
               "count": count[name],
               "lanes": lanes[name],
               "crit_share": crit.get(name, 0.0) / total_wall if total_wall else 0.0}
        for name in count}
    roots_out = {
        name: {"wall_ms": root_wall[name] / 1000 / root_count[name],
               "count": root_count[name],
               "busy_lanes": root_busy[name] / root_wall[name] if root_wall[name] else 0.0,
               "lanes": root_lanes[name]}
        for name in root_wall}
    labels_out = {
        key: {"wall_ms": label_wall[key] / 1000,  # total over the run
              "busy_lanes": label_busy[key] / label_wall[key] if label_wall[key] else 0.0}
        for key in label_wall}
    root_crit = crit.get("(root)", 0.0) / total_wall if total_wall else 0.0
    return {"roots": roots_out, "spans": spans_out, "labels": labels_out,
            "root_crit_share": root_crit,
            "root_count": len(roots), "span_count": len(spans)}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    json.dump(summarize(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
