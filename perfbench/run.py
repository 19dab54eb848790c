#!/usr/bin/env python3
"""Wall-clock benchmark of the Q-Graph reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --heap 4g --workload NAME --seed N --seconds S --trace 0|1

Workloads: engine-cold, replay-matrix, adaptive-qcut (see perfbench/README.md).

The first run in a checkout builds the program from source with sbt
(perfbench/build.sbt) and prepares the warm workloads' trace cache; both
happen outside all timing and are redone only when the sources change.
Everything generated lives under .bench_build/perfbench.

Each run checks the program's outputs: engine answers against Dijkstra, and
trace and simulated-latency digests against the reference files in
perfbench/refs (a seed or configuration without a committed reference
records one under .bench_build/perfbench/refs and says so). The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("engine-cold", "replay-matrix", "adaptive-qcut")
END_TO_END = ("setup_s", "run_s", "rss_peak_mb")

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"
STATE = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
# Sources the benchmark JVM is compiled from; the program part alone keys
# the trace cache.
PROGRAM_SOURCES = ("src/main/scala", "src/main/resources")
BENCH_SOURCES = ("perfbench/src", "perfbench/build.sbt", "perfbench/project/build.properties")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 300
PREPARE_TIMEOUT_S = 560


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def tree_hash(rel_paths):
    h = hashlib.sha256()
    for rel in rel_paths:
        p = ROOT / rel
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def run_bounded(cmd, timeout, log_path, cwd=ROOT, env=None):
    """Runs cmd in its own process group with output to log_path; kills the
    whole group on timeout and waits for it. Returns the exit code."""
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as out:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log(f"timed out after {timeout} s: {' '.join(cmd[:3])} ... (log: {log_path})")
            return -1
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def tail(path, n=40):
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-n:])
    except OSError:
        return ""


def build():
    """Compiles the program and the benchmark code when their sources
    changed; returns the runtime classpath."""
    stamp = STATE / "build.stamp"
    classpath = BENCH / "target" / "classpath.txt"
    want = tree_hash(PROGRAM_SOURCES + BENCH_SOURCES)
    if stamp.is_file() and stamp.read_text() == want and classpath.is_file():
        return classpath.read_text().strip()
    stamp.unlink(missing_ok=True)
    log("building the program and the benchmark with sbt")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SPARK_HOME" not in env and shutil.which("spark-submit"):
        env["SPARK_HOME"] = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.is_file():
        env["SBT_OPTS"] = f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} -Dsbt.offline=true"
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={STATE / 'sbt-global'}", "compile", "writeClasspath"]
    code = run_bounded(cmd, BUILD_TIMEOUT_S, STATE / "logs" / "build.log", cwd=BENCH, env=env)
    if code != 0 or not classpath.is_file():
        log("build failed:\n" + tail(STATE / "logs" / "build.log"))
        sys.exit(1)
    stamp.write_text(want)
    return classpath.read_text().strip()


def java_cmd(classpath, heap, args):
    # A fixed heap and fixed generation sizes under Parallel GC. With G1's
    # adaptive sizing the peak RSS of identical runs differed by half, and
    # growing the heap from its small default start cost up to 5 s of full
    # collections per engine pass. The large young generation and survivor
    # spaces let the engine's per-iteration garbage die young instead of
    # being promoted at whatever moment a collection happens to hit.
    return ["java", f"-Xms{heap}", f"-Xmx{heap}", "-Xmn2g", "-XX:SurvivorRatio=2",
            "-XX:InitialTenuringThreshold=15", "-XX:MaxTenuringThreshold=15",
            "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
            f"-Dspark.local.dir={STATE / 'spark-local'}",
            f"-Dspark.sql.warehouse.dir={STATE / 'spark-warehouse'}",
            f"-Djava.io.tmpdir={STATE / 'tmp'}",
            f"-Dqgraph.trace.dir={STATE / 'traces'}",
            "-cp", classpath, "perfbench.Main"] + args


def prepare(classpath, heap):
    """Builds the warm workloads' trace cache when the program changed."""
    stamp = STATE / "prepare.stamp"
    want = tree_hash(PROGRAM_SOURCES)
    if stamp.is_file() and stamp.read_text() == want:
        return
    stamp.unlink(missing_ok=True)
    log("preparing the warm trace cache (engine runs, untimed)")
    out = STATE / "prepare.json"
    code = run_bounded(java_cmd(classpath, heap, ["prepare", "--out", str(out)]),
                       PREPARE_TIMEOUT_S, STATE / "logs" / "prepare.log")
    if code != 0:
        log("trace preparation failed:\n" + tail(STATE / "logs" / "prepare.log"))
        sys.exit(1)
    stamp.write_text(want)


def ref_key(workload, seed):
    # Engine traces depend on the queries generated from the seed; the warm
    # workloads replay the fixed prepared traces, so every seed shares one
    # reference.
    return f"seed {seed}" if workload == "engine-cold" else "any seed"


def check_against_reference(result, workload, seed):
    """Compares trace and output digests with the reference; returns
    (attempted, failed)."""
    key = ref_key(workload, seed)
    actual = {"trace_digests": result["trace_digests"], "outputs": result["outputs"]}
    committed = BENCH / "refs" / f"{workload}.json"
    recorded = STATE / "refs" / f"{workload}.json"
    ref = None
    for path in (committed, recorded):
        if path.is_file():
            ref = json.loads(path.read_text()).get(key)
            if ref is not None:
                break
    if ref is None:
        table = json.loads(recorded.read_text()) if recorded.is_file() else {}
        table[key] = actual
        recorded.parent.mkdir(parents=True, exist_ok=True)
        recorded.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"no reference for {workload} ({key}); recorded this run's outputs in {recorded}")
        return 0, 0
    attempted = failed = 0
    for section in ("trace_digests", "outputs"):
        names = sorted(set(ref[section]) | set(actual[section]))
        for name in names:
            attempted += 1
            want, got = ref[section].get(name), actual[section].get(name)
            if want != got:
                failed += 1
                log(f"CHECK FAILED: {workload} {section} '{name}' differs from the reference ({key}):"
                    f"\n  reference {want}\n  this run  {got}")
    return attempted, failed


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heap", default="4g", help="JVM max heap of the benchmark process")
    a = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir() or not (BENCH / "build.sbt").is_file():
        log(f"no program sources under {ROOT}: run from the root of a checkout of the repository")
        sys.exit(2)

    STATE.mkdir(parents=True, exist_ok=True)
    for d in ("tmp", "spark-local", "results"):
        (STATE / d).mkdir(exist_ok=True)
    classpath = build()
    prepare(classpath, a.heap)

    out = STATE / "results" / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    out.unlink(missing_ok=True)
    args = ["run", "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", str(out)]
    jvm_log = STATE / "logs" / f"{a.workload}-seed{a.seed}-trace{a.trace}.log"
    code = run_bounded(java_cmd(classpath, a.heap, args), RUN_TIMEOUT_S, jvm_log)
    if code != 0 or not out.is_file():
        log(f"benchmark JVM exited with code {code}:\n" + tail(jvm_log))
        sys.exit(1)

    result = json.loads(out.read_text())
    ref_attempted, ref_failed = check_against_reference(result, a.workload, a.seed)
    attempted = result["attempted"] + ref_attempted
    failed = result["failed"] + ref_failed
    result["host"] = dict(result["info"].get("host", {}), commit=git_commit(),
                          source=tree_hash(PROGRAM_SOURCES))
    result["reference_checks"] = {"attempted": ref_attempted, "failed": ref_failed}
    out.write_text(json.dumps(result, indent=1) + "\n")

    e2e = result["end_to_end"]
    print(f"{a.workload} seed={a.seed} trace={a.trace}: "
          + "  ".join(f"{n}={e2e[n]['value']:.4f} {e2e[n]['unit']}" for n in END_TO_END)
          + f"  fail_ratio={failed / attempted:.4f} ({failed} of {attempted} checks failed)")
    print("host: " + " ".join(f"{k}={v}" for k, v in result["host"].items()))
    for name, o in result["outputs"].items():
        print(f"simulated {name}: total {o['total_sim_s']:.6f} sim-s, {o['repartitions']} repartitions,"
              f" {o['moved_vertices']} moved vertices, digest {o['latency_digest']}")
    print(f"full report: {out}")

    metrics = result["per_layer"] if a.trace else {n: e2e[n] for n in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
