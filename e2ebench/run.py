#!/usr/bin/env python3
"""Run one e2ebench workload and print its result as the last stdout line.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (a cargo package of its own in this directory) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in a child
process of its own so that its peak RSS is the workload's alone, and
prints:

  * one informational line per session, span layer and sample list;
  * a `# result` line with the run's settings: seed, nproc, git commit
    (or a digest of the sources when there is no git checkout), flush
    policy, and the CPU time the hypervisor stole during the run;
  * one `# metric` line per metric with its unit and sample count;
  * as the last line, one JSON object with exactly the keys `correct`,
    `attempted`, `failed` and `metrics`.

Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit if there is one, plus a digest of every source file
    the benchmark builds from (identical trees give identical digests)."""
    commit = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "e2ebench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(base)
            for f in files if not d.startswith(os.path.join(base, "target")))
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def steal_ticks():
    """Machine-wide CPU time stolen by the hypervisor, in clock ticks."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if a.trace == "1" else bench["end_to_end"]
    if a.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {a.workload}")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "e2ebench")

    scratch = os.path.join(ROOT, ".bench_scratch", f"{a.workload}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--scratch", scratch]
    if a.trace == "1":
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{a.workload}-{a.seed}.jsonl")]
    # The child writes to a file and is reaped with wait4, which reports
    # the peak RSS of that process alone.
    out_path = os.path.join(out_dir, f"stdout-{os.getpid()}.txt")
    try:
        with open(out_path, "w+") as out:
            steal0 = steal_ticks()
            child = subprocess.Popen(cmd, cwd=ROOT, stdout=out)

            def stop(signum, _frame):
                child.kill()
                os.wait4(child.pid, 0)
                child.returncode = -signum
                shutil.rmtree(scratch, ignore_errors=True)
                sys.exit(128 + signum)

            signal.signal(signal.SIGTERM, stop)
            signal.signal(signal.SIGINT, stop)
            deadline = time.monotonic() + TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    child.kill()
                    os.wait4(child.pid, 0)
                    child.returncode = -9
                    fail(f"workload did not finish within {TIMEOUT_S} s")
                time.sleep(0.05)
            child.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.exists(out_path):
            os.remove(out_path)
    peak_kib = usage.ru_maxrss
    steal_s = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    if child.returncode != 0:
        fail(f"workload exited with code {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    res = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = dict(res["metrics"])
    if a.trace == "0":
        metrics["peak_rss_mib"] = {"value": peak_kib / 1024.0, "unit": "MiB", "n": 1}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics missing from the run: {missing}")
    for name, vals in res.get("samples", {}).items():
        print(f"samples {name} n={len(vals)}: {' '.join(f'{v:.3f}' for v in vals)}")
    commit, digest = source_id()
    info = dict(res.get("info", {}))
    info.update({"commit": commit, "source_digest": digest, "seconds": a.seconds,
                 "trace": a.trace, "host_steal_s": round(steal_s, 2)})
    print("# result " + json.dumps(info, sort_keys=True))
    for m in wanted:
        v = metrics[m["name"]]
        print(f"# metric {m['name']:<34} {v['value']:>16.6f} {v['unit']:<6} n={v.get('n', 1)}")
    final = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
