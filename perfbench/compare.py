"""Compare two sets of benchmark results, metric by metric.

A result set is a directory of the per-run files perfbench writes
(<workload>-seed<N>-trace0.json). For every workload and end-to-end
metric in BENCHMARK.json it reports each side's median and quartiles and
a verdict:

  better      B won at least 9 of every 10 pairs, and the medians differ
              by more than A's interquartile range
  worse       B's median is worse than A's by more than the metric's bound
  unresolved  either side's spread is wider than the bound, and B's runs
              do not all beat A's; or too few runs to tell
  same        otherwise

Runs pair up by seed when both sides used the same seeds, by position
otherwise.
"""

import glob
import json
import os
import statistics


def load(directory):
    """{workload: {metric: {seed: value}}} from the trace-0 result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            run = json.load(f)
        head = run["header"]
        per = out.setdefault(head["workload"], {})
        for name, m in run["metrics"].items():
            if m["value"] is not None:
                per.setdefault(name, {})[int(head["seed"])] = m["value"]
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a, b, better, bound):
    """a, b: {seed: value}. Returns (verdict, details)."""
    av, bv = list(a.values()), list(b.values())
    if len(av) < 2 or len(bv) < 2:
        return "unresolved", {}
    ma, mb = statistics.median(av), statistics.median(bv)
    (a1, a3), (b1, b3) = spread(av), spread(bv)
    sign = 1 if better == "higher" else -1
    common = sorted(set(a) & set(b))
    if len(common) >= min(len(a), len(b)):
        pairs = [(a[s], b[s]) for s in common]
    else:
        pairs = list(zip(av, bv))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    details = {"a_median": ma, "a_q1": a1, "a_q3": a3,
               "b_median": mb, "b_q1": b1, "b_q3": b3,
               "pairs": len(pairs), "b_wins": wins}
    if pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) > a3 - a1:
        return "better", details
    wide = (a3 - a1) > bound * abs(ma) or (b3 - b1) > bound * abs(mb)
    all_better = (min(bv) > max(av)) if sign > 0 else (max(bv) < min(av))
    if wide and not all_better:
        return "unresolved", details
    if ma != 0 and sign * (ma - mb) / abs(ma) > bound:
        return "worse", details
    return "same", details


def compare(dir_a, dir_b, benchmark):
    a, b = load(dir_a), load(dir_b)
    rows = []
    for w in benchmark["workloads"]:
        for m in benchmark["end_to_end"]:
            va = a.get(w["name"], {}).get(m["name"], {})
            vb = b.get(w["name"], {}).get(m["name"], {})
            v, d = verdict(va, vb, m["better"], m["bound"])
            rows.append((w["name"], m["name"], m["unit"], v, d))
    return rows


def render(rows):
    lines = ["%-13s %-26s %-30s %-30s %s" % ("workload", "metric", "A median [q1, q3]",
                                              "B median [q1, q3]", "verdict")]
    for w, name, unit, v, d in rows:
        if d:
            fa = "%.4g [%.4g, %.4g] %s" % (d["a_median"], d["a_q1"], d["a_q3"], unit)
            fb = "%.4g [%.4g, %.4g] %s" % (d["b_median"], d["b_q1"], d["b_q3"], unit)
            v = "%s (B won %d/%d)" % (v, d["b_wins"], d["pairs"])
        else:
            fa = fb = "-"
        lines.append("%-13s %-26s %-30s %-30s %s" % (w, name, fa, fb, v))
    return "\n".join(lines)


def selftest():
    """Verdicts on synthetic samples; returns the number of failures."""
    base = {s: 100.0 + (s % 5) for s in range(10)}
    cases = [
        ("a clear gain", {s: v * 0.8 for s, v in base.items()}, "lower", "better"),
        ("a clear loss", {s: v * 1.5 for s, v in base.items()}, "lower", "worse"),
        ("no change", dict(base), "lower", "same"),
        ("a gain on a higher-is-better metric", {s: v * 1.3 for s, v in base.items()}, "higher",
         "better"),
        ("a small loss inside the bound", {s: v * 1.05 for s, v in base.items()}, "lower", "same"),
        ("8 of 10 pairs won is not a gain",
         {s: (v * 0.8 if s < 8 else v * 1.01) for s, v in base.items()}, "lower", "same"),
        ("a wide spread is unresolved",
         {s: (50.0 if s % 2 else 200.0) for s in range(10)}, "lower", "unresolved"),
        ("too few runs", {0: 90.0}, "lower", "unresolved"),
    ]
    failed = 0
    for name, b, better, want in cases:
        got, _ = verdict(base, b, better, 0.1)
        ok = got == want
        failed += not ok
        print("%s compare: %s (%s)" % ("ok  " if ok else "FAIL", name, got))
    return failed
