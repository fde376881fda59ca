#!/usr/bin/env python3
"""Build and run the data-path benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload randwrite-4k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The Go build cache, the binary and a traced
run's spans and CPU profile all go under .bench_build/ in the root, so a run
reads and writes nothing outside the checkout. The benchmark's last line of
standard output is its JSON result. --seconds defaults to BENCHMARK.json's
run_seconds, the run length the benchmark's bounds were set for.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A measured run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT = 170


def go_env():
    """Environment for the go tool that keeps every file it writes in BUILD."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def build():
    """Build the benchmark binary; return True on success."""
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; nothing to build",
              file=sys.stderr)
        return False
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        r = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE,
                           env=go_env(), stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def source_digest():
    """SHA-256 over the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    paths = []
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in files:
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                paths.append(os.path.relpath(os.path.join(d, f), ROOT))
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(os.path.join(ROOT, p), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    """The checkout's git commit, or "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(args, capture=False):
    """Run the built benchmark; return (exit code, stdout or None)."""
    cmd = [BINARY, "-commit", commit(), "-source", source_digest(),
           "-out", os.path.join(BUILD, "trace")] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT,
                           stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 1, None
    return r.returncode, r.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    """Check the verifier rejects wrong data, and that a short run of each
    workload prints exactly the metrics BENCHMARK.json names, with units."""
    spec = load_spec()
    r = subprocess.run(["go", "test", "-count=1", "."], cwd=HERE, env=go_env())
    ok = r.returncode == 0
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            code, out = run_binary(["-workload", wl["name"], "-seed", "1",
                                    "-seconds", "2", "-trace", str(trace)],
                                   capture=True)
            problems = []
            try:
                res = json.loads(out.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if code != 0 or not res["correct"] or res["failed"]:
                    problems.append(f"exit {code}, result {res['correct']}/{res['failed']} failed")
                if got != want:
                    problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}, "
                                    f"units {[k for k in want if k in got and got[k] != want[k]]}")
                bad = [k for k, v in res["metrics"].items()
                       if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
                if bad:
                    problems.append(f"non-numeric values {bad}")
            except (AttributeError, IndexError, KeyError, ValueError) as e:
                problems.append(f"no result line ({e})")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-test {wl['name']} trace={trace}: {status}")
            ok = ok and not problems
    print("self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    if a.self_test:
        return self_test()
    if a.seconds is None:
        a.seconds = load_spec()["run_seconds"]
    code, _ = run_binary(["-workload", a.workload, "-seed", str(a.seed),
                          "-seconds", repr(a.seconds), "-trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
