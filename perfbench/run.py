#!/usr/bin/env python3
"""cgsim benchmark runner.

Builds the perfbench binary from the checkout's sources, runs one workload
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. Metric names, units and the
end-to-end / per-layer split come from BENCHMARK.json at the repository
root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --record-baseline --workload <name> --seed <n>

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from the span trace and leaves the span file (Chrome trace-event
JSON) in <build>/spans/<workload>.json. sim_exact compares the run's exact counts with
perfbench/baseline.json. The exit status is 1 when an output failed its
check or an exact count differs from the baseline.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
RUN_TIMEOUT_S = 170
# Per-layer metrics (name prefixes) each workload's traced run must report;
# any other per-layer metric belongs to a layer the workload never enters
# and reads 0.
EXPECTED_LAYERS = {
    "paper-functional": ["core.", "aie.", "trace."],
    "paper-cycle": ["aiesim.", "aie.", "core.resumes", "trace."],
    "sweep-dse": ["compiled.compile_ms", "compiled.hit_us",
                  "compiled.hit_ratio", "resim.", "sweep.",
                  "aiesim.virtual_cycles", "trace."],
    "service-mix": ["compiled.hit_ratio", "compiled.store_", "net.",
                    "service.", "gen.", "aiesim.virtual_cycles", "trace."],
}


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def up_to_date(exe):
    """True when the binary is newer than every source it is built from,
    so a run can skip the build tool's own (slower) dependency scan."""
    if not os.path.exists(exe):
        return False
    built = os.path.getmtime(exe)
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, _, files in os.walk(top):
            for f in files:
                if not f.endswith((".hpp", ".cpp", ".h", "CMakeLists.txt")):
                    continue
                if os.path.getmtime(os.path.join(dirpath, f)) > built:
                    return False
    return True


def build(bdir):
    """Configures (once) and builds the binary; returns its path."""
    exe = os.path.join(bdir, "perfbench")
    if up_to_date(exe):
        return exe
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    return exe


def run_binary(exe, args, work):
    """Runs one workload; returns the report dict the binary printed."""
    os.makedirs(work, exist_ok=True)
    cmd = [exe] + args + ["--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die("workload timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("perfbench binary failed (exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def load_baseline():
    with open(BASELINE) as f:
        return json.load(f)


def sim_exact(report, workload, seed):
    """1 when every exact count matches the committed baseline (digests
    only for seeds the baseline records), else 0."""
    entry = load_baseline().get(workload)
    if not entry:
        return 0.0, ["no baseline for " + workload]
    exact = report["exact"]
    bad = []
    for name, want in entry["counts"].items():
        if exact.get(name) != want:
            bad.append("%s = %s, baseline %s" % (name, exact.get(name), want))
    for name, want in entry["digests"].get(str(seed), {}).items():
        if exact.get(name) != want:
            bad.append("%s = %s, baseline %s" % (name, exact.get(name), want))
    return (0.0 if bad else 1.0), bad


def missing_layers(rep, workload, bench):
    """Per-layer metrics a traced run of this workload must report but
    did not."""
    have = set(rep["metrics"]) | set(rep["exact"])
    return [m["name"] for m in bench["per_layer"]
            if m["name"] not in have
            and any(m["name"].startswith(p) for p in EXPECTED_LAYERS[workload])]


def span_self_times(path):
    """Parses a span file; returns {id: self_ms} and the events."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    self_ms = {e["args"]["id"]: e["dur"] / 1e3 for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if parent in self_ms:
            self_ms[parent] -= e["dur"] / 1e3
    return self_ms, events


def measure(args, bench):
    exe = build(build_dir())
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        rep = run_binary(exe, cmd, work)
        if args.trace:
            spans = os.path.join(work, "spans-%s.json" % args.workload)
            keep = os.path.join(build_dir(), "spans")
            os.makedirs(keep, exist_ok=True)
            # One file per workload (the latest traced run): a traced
            # sweep-dse run alone writes tens of MB.
            dst = os.path.join(keep, "%s.json" % args.workload)
            if os.path.exists(spans):
                shutil.move(spans, dst)
                print("span file: " + os.path.relpath(dst, ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in rep["errors"]:
        print("FAILED: " + err)
    attempted, failed = int(rep["attempted"]), int(rep["failed"])
    exact_ok, mismatches = sim_exact(rep, args.workload, args.seed)
    for m in mismatches:
        print("exact-count mismatch: " + m)
    got = rep["metrics"]
    got["sim_exact"] = {"value": exact_ok, "unit": "count"}
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = missing_layers(rep, args.workload, bench) if args.trace else []
    for name in missing:
        print("FAILED: traced run did not report " + name)
    failed += len(missing)
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in got:
            value = got[name]["value"]
        elif args.trace and name in rep["exact"]:
            value = float(rep["exact"][name])
        elif args.trace:
            value = 0.0  # missing (failed above) or a layer never entered
        else:
            die("workload did not report " + name)
        metrics[name] = {"value": value, "unit": m["unit"]}

    print("workload %s seed %d trace %d: %d attempted, %d failed" %
          (args.workload, args.seed, args.trace, attempted, failed))
    if not args.trace:
        print("  %-22s %14.6g %s" % ("error_ratio",
                                     failed / max(1, attempted), "ratio"))
        if "model_err_pct" in rep["info"]:
            print("  %-22s %14.6g %s" % ("model_err_pct",
                                         rep["info"]["model_err_pct"], "%"))
    for name, m in metrics.items():
        print("  %-22s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value in sorted(rep["info"].items()):
        print("  info %s %.9g" % (name, value))
    result = {"correct": failed == 0 and attempted > 0 and exact_ok == 1.0,
              "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


def record_baseline(args):
    """Adds this seed's digests (and, when absent, the workload's
    seed-independent counts) to baseline.json."""
    exe = build(build_dir())
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    try:
        rep = run_binary(exe, ["--workload", args.workload, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rep["failed"]:
        die("run failed: %s" % rep["errors"])
    base = load_baseline() if os.path.exists(BASELINE) else {}
    entry = base.setdefault(args.workload, {"counts": {}, "digests": {}})
    counts = {k: v for k, v in rep["exact"].items()
              if not k.startswith("digest.")}
    digests = {k: v for k, v in rep["exact"].items() if k.startswith("digest.")}
    if entry["counts"] and entry["counts"] != counts:
        die("counts differ from the committed baseline: %s vs %s" %
            (counts, entry["counts"]))
    entry["counts"] = counts
    entry["digests"][str(args.seed)] = digests
    with open(BASELINE, "w") as f:
        json.dump(base, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %s seed %d" % (args.workload, args.seed))


def selfcheck(bench):
    """Each workload at tiny scale, traced, twice with one seed: outputs
    verify, nothing fails, the span file parses with no negative self
    time, and the exact counts repeat."""
    exe = build(build_dir())
    ok = True

    def check(cond, what):
        nonlocal ok
        ok &= cond
        print("  %-52s %s" % (what, "PASS" if cond else "FAIL"))

    for name in [w["name"] for w in bench["workloads"]]:
        print(name)
        exacts = []
        for run in range(2):
            work = os.path.join(build_dir(), "selfcheck-%d" % os.getpid())
            try:
                rep = run_binary(exe, ["--workload", name, "--seed", "3",
                                       "--seconds", "2", "--trace", "1",
                                       "--tiny"], work)
                spans = os.path.join(work, "spans-%s.json" % name)
                try:
                    self_ms, events = span_self_times(spans)
                    parsed = len(events) > 0
                except (OSError, ValueError, KeyError):
                    self_ms, parsed = {}, False
            finally:
                shutil.rmtree(work, ignore_errors=True)
            exacts.append(rep["exact"])
            if run == 0:
                for err in rep["errors"]:
                    print("    " + err)
                check(rep["attempted"] > 0 and rep["failed"] == 0,
                      "outputs match references, error_ratio 0")
                check(not missing_layers(rep, name, bench),
                      "every expected per-layer metric reported")
                check(parsed, "span file parses")
                check(all(v > -1e-3 for v in self_ms.values()),
                      "no span has negative self time")
        check(exacts[0] == exacts[1], "exact counts repeat with one seed")
    print("selfcheck: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--record-baseline", action="store_true")
    args = p.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        die("BENCHMARK.json not found at the repository root", 2)
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        die("cgsim sources (src/) not found next to perfbench/", 2)
    with open(bench_path) as f:
        bench = json.load(f)

    if args.selfcheck:
        sys.exit(selfcheck(bench))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("--workload must be one of " + ", ".join(names), 2)
    if args.record_baseline:
        record_baseline(args)
    else:
        measure(args, bench)


if __name__ == "__main__":
    main()
