#!/usr/bin/env python3
"""Alternating before/after pairs of the perfbench benchmark.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        --workload replay-matrix --seeds 1-10 [--trace 0|1] [--repeat N]

For every seed, repetition and workload it runs

    python3 perfbench/run.py --heap 4g --workload W --seed S --seconds 20 --trace T

once in this checkout ("change") and once in a checkout of REV ("parent"),
one after the other. Before the pairs, each side runs each workload once
with the first seed, and that warm-up run is discarded: the first run in a
freshly built checkout can be an outlier. A pair is a (seed, repetition);
when seed + repetition is odd the parent runs first, otherwise the change. The warm
workloads replay fixed traces whatever the seed, so --repeat gives more
pairs of one seed. The parent checkout is a `git clone` of this
repository at REV, kept under --parent-dir and reused, so its build and
trace cache stay warm between invocations.

Each run's last standard-output line is perfbench's JSON result. The output
file names the change by `tree`, the hash of the tree of this checkout's
tracked files without the output file (`git stash create`, or HEAD when
nothing is modified; stage new files first so that they count), next to
HEAD's `commit` and `dirty`; every change-side run records it too. It
keeps every run and, per workload and trace mode, per metric: both
sides' values in pair order, their medians and quartiles
(`statistics.quantiles(values, n=4)`), and the pairs each side won (ties
count for neither; the direction comes from BENCHMARK.json). If the output
file exists for the same parent, the new runs are added to it, replacing
runs of the same workload, trace mode, seed and repetition, and the
summaries are recomputed from all runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HEAP = "4g"
SECONDS = 20
RUN_TIMEOUT_S = 1200


def log(msg):
    print(f"[bench_pairs] {msg}", file=sys.stderr, flush=True)


def git(*args, cwd=ROOT, env=None):
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def change_tree(out):
    """Hash of the tree of this checkout's tracked files, without `out`."""
    rev = git("stash", "create") or "HEAD"
    with tempfile.TemporaryDirectory() as d:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(d, "index")}
        git("read-tree", f"{rev}^{{tree}}", env=env)
        git("rm", "--cached", "--quiet", "--ignore-unmatch", "--", str(out), env=env)
        return git("write-tree", env=env)


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parent_checkout(rev, parent_dir):
    """A clone of this repository at `rev` in `parent_dir`, made once."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if not (parent_dir / ".git").is_dir():
        log(f"cloning {commit[:12]} into {parent_dir}")
        parent_dir.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(parent_dir)], check=True)
    else:
        git("fetch", "--quiet", "origin", cwd=parent_dir)
    git("checkout", "--quiet", "--detach", commit, cwd=parent_dir)
    if git("status", "--porcelain", "--untracked-files=no", cwd=parent_dir):
        sys.exit(f"{parent_dir} has local changes; remove it or pass another --parent-dir")
    return commit


def run_once(side, cwd, workload, seed, rep, trace, tree=None):
    cmd = ["python3", "perfbench/run.py", "--heap", HEAP, "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    log(f"{side}: {' '.join(cmd[1:])}")
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        sys.exit(f"{side} run failed with code {p.returncode}")
    result = json.loads(lines[-1])
    host = next((line[len("host: "):] for line in lines if line.startswith("host: ")), "")
    facts = dict(kv.split("=", 1) for kv in host.split() if "=" in kv)
    return {"workload": workload, "trace": trace, "seed": seed, "rep": rep, "side": side,
            "commit": facts.get("commit"), "source": facts.get("source"), "tree": tree,
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {n: m["value"] for n, m in result["metrics"].items()}}


def directions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["unit"]) for m in bench["end_to_end"] + bench["per_layer"]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs):
    better = directions()
    out = {}
    for key in sorted({(r["workload"], r["trace"]) for r in runs}):
        mine = [r for r in runs if (r["workload"], r["trace"]) == key]
        by = {(r["seed"], r["rep"], r["side"]): r for r in mine}
        pairs = sorted({(s, n) for s, n, _ in by if (s, n, "parent") in by and (s, n, "change") in by})
        metrics = {}
        for name in sorted(set().union(*(r["metrics"] for r in mine))):
            parent = [by[(s, n, "parent")]["metrics"].get(name) for s, n in pairs]
            change = [by[(s, n, "change")]["metrics"].get(name) for s, n in pairs]
            if not pairs or None in parent or None in change:
                continue
            way, unit = better.get(name, ("lower", ""))
            wins = sum((c < p) if way == "lower" else (c > p) for p, c in zip(parent, change))
            losses = sum((c > p) if way == "lower" else (c < p) for p, c in zip(parent, change))
            ps, cs = spread(parent), spread(change)
            metrics[name] = {
                "unit": unit, "better": way, "parent": parent, "change": change,
                "parent_median": ps["median"], "parent_q1": ps["q1"], "parent_q3": ps["q3"],
                "change_median": cs["median"], "change_q1": cs["q1"], "change_q3": cs["q3"],
                "median_change": (cs["median"] / ps["median"] - 1) if ps["median"] else None,
                "pairs": len(pairs), "change_wins": wins, "parent_wins": losses,
                "ties": len(pairs) - wins - losses,
            }
        out[f"{key[0]} trace={key[1]}"] = {
            "pairs": [{"seed": s, "rep": n} for s, n in pairs],
            "failed_checks": sum(r["failed"] for r in mine),
            "attempted_checks": sum(r["attempted"] for r in mine),
            "metrics": metrics,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write or extend")
    ap.add_argument("--workload", action="append", required=True,
                    choices=("engine-cold", "replay-matrix", "adaptive-qcut"))
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,11")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="pairs per seed (default 1)")
    ap.add_argument("--parent-dir", type=Path, default=ROOT / ".bench_build" / "parent",
                    help="where the parent checkout lives (default .bench_build/parent)")
    a = ap.parse_args()

    parent = parent_checkout(a.parent, a.parent_dir.resolve())
    doc = json.loads(a.out.read_text()) if a.out.is_file() else {}
    if doc and doc.get("parent") != parent:
        sys.exit(f"{a.out} compares against {doc.get('parent')}, not {parent}")
    runs = doc.get("runs", [])
    tree = change_tree(a.out.resolve().relative_to(ROOT))
    seeds = parse_seeds(a.seeds)
    sides = [("parent", a.parent_dir, None), ("change", ROOT, tree)]
    for w in a.workload:
        for side, cwd, _ in sides:
            log(f"{side}: warm-up run of {w}, discarded")
            run_once(side, cwd, w, seeds[0], -1, a.trace)
    for seed in seeds:
        for rep in range(a.repeat):
            for w in a.workload:
                new = [run_once(side, cwd, w, seed, rep, a.trace, t)
                       for side, cwd, t in (sides if (seed + rep) % 2 else sides[::-1])]
                runs = [r for r in runs if (r["workload"], r["trace"], r["seed"], r["rep"]) != (w, a.trace, seed, rep)]
                runs += new
            doc = {
                "benchmark": f"python3 perfbench/run.py --heap {HEAP} --seconds {SECONDS}",
                "tree": tree,
                "commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                "parent": parent,
                "order": "the parent runs first when seed + repetition is odd, otherwise the change",
                "summary": summarise(runs),
                "runs": runs,
            }
            a.out.write_text(json.dumps(doc, indent=1) + "\n")
    for key, s in doc["summary"].items():
        print(f"{key}: {len(s['pairs'])} pairs, {s['failed_checks']} of {s['attempted_checks']} checks failed")
        for name, m in s["metrics"].items():
            change = "" if m["median_change"] is None else f" ({m['median_change']:+.1%})"
            print(f"  {name}: parent {m['parent_median']:.4g} [{m['parent_q1']:.4g}, {m['parent_q3']:.4g}]"
                  f" -> change {m['change_median']:.4g} [{m['change_q1']:.4g}, {m['change_q3']:.4g}]{change};"
                  f" change won {m['change_wins']} of {m['pairs']}")


if __name__ == "__main__":
    main()
