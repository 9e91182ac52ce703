#!/usr/bin/env python3
"""Build and run the repository's benchmark, stamped with its host.

Run from the repository root:

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare --base A.json [...] --head B.json [...]

The first form builds `perfbench/` (a package of its own) into
`$CARGO_TARGET_DIR` (default `.bench_build`), prints a `stamp` line
(CPU count and model, rustc, git revision and dirty flag, a digest of the
sources, the seed), runs the workload, and passes its output through: one
line per metric with unit and direction, then the JSON result as the last
line.  Each result is also saved with its stamp under
`<target>/perfbench-work/results/`.

`compare` reads saved results and reports, per workload and end-to-end
metric, the medians of both sides and `pass` or `regression` by the bounds
in BENCHMARK.json.  Results whose host stamps differ are never compared:
the verdict is `incomparable host`.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# Fields that must match for two results to be comparable.
HOST_KEYS = ("cpu_count", "cpu_model", "rustc")
RUN_TIMEOUT_S = 170


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over every source file the benchmark builds from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), os.path.join(ROOT, "vendor"), HERE]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in roots:
        for d, subdirs, names in os.walk(top):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", "__pycache__"))
            files.extend(os.path.join(d, n) for n in sorted(names))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_stamp(seed):
    rev = capture(["git", "rev-parse", "HEAD"])
    dirty = None
    if rev is not None:
        dirty = capture(["git", "status", "--porcelain", "--untracked-files=no"]) != ""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": capture(["rustc", "--version"]) or "unknown",
        "git_rev": rev or "none (not a git checkout)",
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "seed": seed,
    }


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run(args):
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    stamp = host_stamp(args.seed)
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)
    work = os.path.join(target, "perfbench-work")
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    # Its own process group, so a timeout also stops the daemon it starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"workload": args.workload, "trace": args.trace, "stamp": stamp,
                   "result": result, "lines": lines[:-1]}, f, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    return 0


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def compare(base_paths, head_paths):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, head = load(base_paths), load(head_paths)
    hosts = {tuple(r["stamp"].get(k) for k in HOST_KEYS) for r in base + head}
    if len(hosts) > 1:
        print("incomparable host: " + " vs ".join(str(dict(zip(HOST_KEYS, h))) for h in sorted(hosts, key=str)))
        return 3
    worst = 0
    for wl in sorted({r["workload"] for r in base + head if r["trace"] == 0}):
        for m in spec["end_to_end"]:
            def median(side):
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in side if r["workload"] == wl and r["trace"] == 0
                        and m["name"] in r["result"]["metrics"]]
                return statistics.median(vals) if vals else None
            b, h = median(base), median(head)
            if b is None or h is None:
                print(f"{wl} {m['name']}: missing on one side")
                worst = max(worst, 1)
                continue
            change = (h - b) / abs(b) if b else 0.0
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            verdict = "regression" if worse else "pass"
            worst = max(worst, 1 if worse else 0)
            print(f"{wl} {m['name']}: base {b:.6g} head {h:.6g} {m['unit']} "
                  f"({change:+.1%}, bound {m['bound']:.1%}, {m['better']} is better): {verdict}")
    return worst


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--base", nargs="+", required=True)
        p.add_argument("--head", nargs="+", required=True)
        a = p.parse_args(argv[1:])
        return compare(a.base, a.head)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
