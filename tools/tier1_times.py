#!/usr/bin/env python3
"""Alternating before/after pairs of the Tier-1 test run, timed per suite.

Run from the root of a checkout, in the environment of the Tier-1 command
(ROADMAP.md, "Tier-1 verify": COURSIER_MODE, SBT_OPTS, SPARK_*):

    python3 tools/tier1_times.py --parent REV --out TIER1_<n>.json \\
        [--pairs 5] [--tests '*']

For every pair it runs

    sbt --batch -Dsbt.log.noformat=true "testOnly TESTS"

once in this checkout ("change") and once in a checkout of REV ("parent"),
one after the other; the parent runs first in odd pairs. Before the pairs,
each side runs once and that run is discarded, so that both sides are
compiled and their trace caches (`target/traces`) are filled. After each
run it reads every `target/test-reports/TEST-*.xml` (emptied before the
run): each suite's seconds, tests, failures and errors, and each test's
seconds. Each run records the sbt wall time and how many files the trace
cache held before it started (`cache_warm` is whether there were any).

The output names the change by `tree`, as `bench_pairs.py` does, and keeps
every run and, per suite and for the wall time, both sides' values in pair
order, their medians and quartiles, and the pairs the change won (lower
seconds). The parent checkout is a `git clone` at REV under --parent-dir,
kept and reused.
"""

import argparse
import json
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, change_tree, git, log, parent_checkout, spread  # noqa: E402

RUN_TIMEOUT_S = 2670


def run_once(side, cwd, tests, pair):
    reports = cwd / "target" / "test-reports"
    for f in reports.glob("TEST-*.xml"):
        f.unlink()
    cache = cwd / "target" / "traces"
    cached = len(list(cache.glob("*.bin"))) if cache.is_dir() else 0
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", f"testOnly {tests}"]
    log(f"{side}: pair {pair}, {' '.join(cmd)}")
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - t0
    suites, cases = {}, {}
    for f in sorted(reports.glob("TEST-*.xml")):
        s = ET.parse(f).getroot()
        name = s.get("name")
        suites[name] = {k: float(s.get(k)) if k == "time" else int(s.get(k))
                        for k in ("time", "tests", "failures", "errors")}
        for c in s.iter("testcase"):
            cases[f"{name}::{c.get('name')}"] = float(c.get("time"))
    failed = sum(s["failures"] + s["errors"] for s in suites.values())
    if p.returncode != 0 and not failed:
        sys.stderr.write(p.stdout[-4000:])
        sys.exit(f"{side} run failed with code {p.returncode} and no failed test")
    return {"pair": pair, "side": side, "wall_s": wall, "cache_files": cached, "cache_warm": cached > 0,
            "returncode": p.returncode, "tests": sum(s["tests"] for s in suites.values()), "failed": failed,
            "suites": suites, "test_s": cases}


def summarise(runs):
    by = {(r["pair"], r["side"]): r for r in runs}
    pairs = sorted({n for n, _ in by if (n, "parent") in by and (n, "change") in by})

    def compare(get):
        parent = [get(by[(n, "parent")]) for n in pairs]
        change = [get(by[(n, "change")]) for n in pairs]
        if not pairs or None in parent or None in change:
            return None
        ps, cs = spread(parent), spread(change)
        return {"parent": parent, "change": change,
                "parent_median": ps["median"], "parent_q1": ps["q1"], "parent_q3": ps["q3"],
                "change_median": cs["median"], "change_q1": cs["q1"], "change_q3": cs["q3"],
                "median_change": (cs["median"] / ps["median"] - 1) if ps["median"] else None,
                "change_wins": sum(c < p for p, c in zip(parent, change)),
                "parent_wins": sum(c > p for p, c in zip(parent, change))}

    names = sorted(set().union(*(r["suites"] for r in runs))) if runs else []
    suites = {n: compare(lambda r, n=n: r["suites"].get(n, {}).get("time")) for n in names}
    return {"pairs": pairs,
            "cache_warm": sorted({r["cache_warm"] for r in runs}),
            "failed_tests": {side: sum(r["failed"] for r in runs if r["side"] == side) for side in ("parent", "change")},
            "wall_s": compare(lambda r: r["wall_s"]),
            "suites_s": compare(lambda r: sum(s["time"] for s in r["suites"].values())),
            "suite_s": {n: v for n, v in suites.items() if v is not None}}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--out", required=True, type=Path, help="TIER1_<n>.json to write")
    ap.add_argument("--pairs", type=int, default=5, help="alternating pairs (default 5)")
    ap.add_argument("--tests", default="*", help="the testOnly pattern (default '*')")
    ap.add_argument("--parent-dir", type=Path, default=ROOT / ".bench_build" / "parent",
                    help="where the parent checkout lives (default .bench_build/parent)")
    a = ap.parse_args()

    parent_dir = a.parent_dir.resolve()
    parent = parent_checkout(a.parent, parent_dir)
    tree = change_tree(a.out.resolve().relative_to(ROOT))
    sides = [("parent", parent_dir), ("change", ROOT)]
    for side, cwd in sides:
        log(f"{side}: warm-up run, discarded")
        run_once(side, cwd, a.tests, -1)
    runs = []
    for pair in range(a.pairs):
        for side, cwd in (sides if pair % 2 else sides[::-1]):
            runs.append(run_once(side, cwd, a.tests, pair))
        doc = {
            "command": f"sbt --batch -Dsbt.log.noformat=true \"testOnly {a.tests}\"",
            "tree": tree,
            "commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "parent": parent,
            "order": "the parent runs first in odd pairs, otherwise the change",
            "summary": summarise(runs),
            "runs": runs,
        }
        a.out.write_text(json.dumps(doc, indent=1) + "\n")
    s = doc["summary"]
    print(f"{len(s['pairs'])} pairs; trace cache warm: {s['cache_warm']}; failed tests: {s['failed_tests']}")
    for name, m in [("wall", s["wall_s"]), ("suites", s["suites_s"])] + sorted(s["suite_s"].items()):
        print(f"  {name}: parent {m['parent_median']:.2f} [{m['parent_q1']:.2f}, {m['parent_q3']:.2f}]"
              f" -> change {m['change_median']:.2f} [{m['change_q1']:.2f}, {m['change_q3']:.2f}];"
              f" change won {m['change_wins']} of {len(s['pairs'])}")


if __name__ == "__main__":
    main()
