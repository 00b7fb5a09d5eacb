#!/usr/bin/env python3
"""Build, run and compare bench_live (stdlib only).

One run of one workload, as BENCHMARK.json's command runs it:

    python3 bench/live/run.py --workload cold_browse --seed 1 --seconds 20 --trace 0

builds bench_live from source when needed (into $CARGO_TARGET_DIR, else
.bench_build at the repository root), runs it, prints one
`workload metric value unit` line per metric it measured and, last, one JSON
object with `correct`, `attempted`, `failed` and the BENCHMARK.json metrics of
that mode (end_to_end with --trace 0, per_layer with --trace 1).

Other modes:

    run.py all [--runs N] [--seed S] [--seconds S] [--trace 0|1]
               [--workloads a,b] [--out merged.json]
        every workload N times, each in its own process, merged into one JSON
    run.py compare A.json B.json
        per (metric, workload): both sides' median and quartiles; flags a
        worsening beyond the BENCHMARK.json bound, and `unresolved` when a
        side's spread exceeds it.  Refuses unoptimised or sanitized results.
    run.py --self-test
        feeds the comparator seeded regressions
    run.py smoke [--binary PATH]
        every workload for 1 s in both modes: no failed operation, and every
        BENCHMARK.json metric present
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures once and builds the bench_live target; returns its path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "bench_live",
                  "-j", str(os.cpu_count() or 1)])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_live")


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return -1, None
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, None


def metric_lines(result):
    for name, m in result["metrics"].items():
        yield "%s %s %.10g %s" % (result["workload"], name, m["value"], m["unit"])


def contract_line(spec, result, trace):
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        raise SystemExit("run.py: bench_live did not report " + ", ".join(missing))
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {n: result["metrics"][n] for n in wanted}}


def cmd_single(args):
    spec = load_spec()
    binary = build()
    code, result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        raise SystemExit("run.py: bench_live exited %d without a result" % code)
    stamp = dict(result["stamp"], rev=git_rev())
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for line in metric_lines(result):
        print(line)
    line = contract_line(spec, result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] and code == 0 else 1


def cmd_all(args):
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    binary = build()
    merged = {"stamp": None, "seconds": args.seconds, "trace": args.trace, "runs": []}
    failures = 0
    # Each pass runs every workload once, so slow drift of the host hits all alike.
    for i in range(args.runs):
        for name in names:
            code, result = run_binary(binary, name, args.seed + i, args.seconds, args.trace)
            if result is None or code != 0:
                failures += 1
                log("run.py: %s seed %d failed (exit %d)" % (name, args.seed + i, code))
                if result is None:
                    continue
            merged["stamp"] = merged["stamp"] or dict(result["stamp"], rev=git_rev())
            for line in metric_lines(result):
                print(line, flush=True)
            merged["runs"].append({
                "workload": name, "seed": result["seed"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "units": {k: v["unit"] for k, v in result["metrics"].items()}})
    if args.out:
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=1, sort_keys=True)
    return 1 if failures else 0


# --- comparison -------------------------------------------------------------

def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def usable(merged):
    stamp = merged.get("stamp") or {}
    if not stamp.get("optimized"):
        return "built without optimisation"
    if stamp.get("sanitizer", "none") != "none":
        return "built with the %s sanitizer" % stamp["sanitizer"]
    return None


def compare(spec, base, head):
    """Returns rows (metric, workload, base stats, head stats, change, verdict).

    Every metric both sides printed gets a row; only the end_to_end metrics
    of BENCHMARK.json get a verdict."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def by_key(merged):
        out = {}
        for run in merged["runs"]:
            for name, value in run["metrics"].items():
                out.setdefault((name, run["workload"]), []).append(value)
        return out

    a, b = by_key(base), by_key(head)
    rows = []
    for key in sorted(set(a) & set(b), key=lambda k: (k[0] not in bounds, k)):
        name, workload = key
        sa, sb = quartiles(a[key]), quartiles(b[key])
        change = (sb[1] - sa[1]) / sa[1] if sa[1] else 0.0
        verdict = "-"
        if name in bounds:
            lower = bounds[name]["better"] == "lower"
            worse = change if lower else -change
            bound = bounds[name]["bound"]
            spread = max((s[2] - s[0]) / s[1] if s[1] else 0.0 for s in (sa, sb))
            head_always_better = (max(b[key]) < min(a[key])) if lower else \
                (min(b[key]) > max(a[key]))
            if worse > bound:
                verdict = "REGRESSION"
            elif spread > bound and not head_always_better:
                verdict = "unresolved"
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "ok"
        rows.append((name, workload, sa, sb, change, verdict))
    return rows


def cmd_compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.head) as f:
        head = json.load(f)
    for label, merged in (("A", base), ("B", head)):
        why = usable(merged)
        if why:
            raise SystemExit("run.py: refusing to compare: %s was %s" % (label, why))
    rows = compare(spec, base, head)
    print("%-34s %-12s %28s %28s %8s  %s" % ("metric", "workload", "A median [q1, q3]",
                                           "B median [q1, q3]", "change", "verdict"))
    for name, workload, sa, sb, change, verdict in rows:
        print("%-34s %-12s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%%  %s" % (
            name, workload, sa[1], sa[0], sa[2], sb[1], sb[0], sb[2], 100 * change, verdict))
    return 1 if any(r[5] == "REGRESSION" for r in rows) else 0


def self_test():
    bound = 0.1
    spec = {"end_to_end": [{"name": n, "better": b, "bound": bound}
                           for n, b in (("rps", "higher"), ("p50_ms", "lower"),
                                        ("p90_ms", "lower"), ("setup_s", "lower"))]}
    rng = random.Random(7)
    stamp = {"optimized": True, "sanitizer": "none"}

    def merged(scale):
        runs = []
        for w in ("w1", "w2"):
            for seed in range(5):
                metrics = {}
                for m in spec["end_to_end"]:
                    noise = 1 + rng.uniform(-0.01, 0.01)
                    metrics[m["name"]] = 100 * noise * scale.get((m["name"], w), 1)
                if (w, seed) in (("w2", 0), ("w2", 1)):
                    # two wild runs: the spread exceeds the bound
                    metrics["p90_ms"] *= 1 + 4 * bound
                runs.append({"workload": w, "seed": seed, "metrics": metrics})
        return {"stamp": stamp, "runs": runs}

    base = merged({})
    head = merged({("rps", "w1"): 1 - 2 * bound,
                   ("p50_ms", "w1"): 1 + bound / 2,
                   ("setup_s", "w2"): 1 - 2 * bound,
                   ("p90_ms", "w2"): 1 + bound / 5})
    verdicts = {(r[0], r[1]): r[5] for r in compare(spec, base, head)}
    expected = {("rps", "w1"): "REGRESSION",
                ("p50_ms", "w1"): "ok",
                ("setup_s", "w2"): "improved",
                ("p90_ms", "w2"): "unresolved",
                ("setup_s", "w1"): "ok"}
    failures = ["%s/%s: expected %s, got %s" % (k[0], k[1], v, verdicts.get(k))
                for k, v in expected.items() if verdicts.get(k) != v]
    if usable({"stamp": {"optimized": False, "sanitizer": "none"}}) is None:
        failures.append("an unoptimised result was accepted")
    if usable({"stamp": {"optimized": True, "sanitizer": "address"}}) is None:
        failures.append("a sanitized result was accepted")
    for f in failures:
        log("self-test: " + f)
    print("self-test: %d checks, %d failed" % (len(expected) + 2, len(failures)))
    return 1 if failures else 0


def cmd_smoke(args):
    spec = load_spec()
    binary = args.binary or build()
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_binary(binary, w["name"], 1, 1, trace)
            if result is None:
                problems.append("%s trace %d: no result (exit %d)" % (w["name"], trace, code))
                continue
            if code != 0 or result["failed"] != 0:
                problems.append("%s trace %d: %d of %d operations failed" % (
                    w["name"], trace, result["failed"], result["attempted"]))
            wanted = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
            if missing:
                problems.append("%s trace %d: missing %s" % (w["name"], trace, missing))
    for p in problems:
        log("smoke: " + p)
    print("smoke: %d workloads, %d problems" % (len(spec["workloads"]), len(problems)))
    return 1 if problems else 0


def main(argv):
    if argv[:1] == ["--self-test"]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode")
    p_all = sub.add_parser("all")
    p_all.add_argument("--runs", type=int, default=1)
    p_all.add_argument("--seed", type=int, default=1)
    p_all.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    p_all.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_all.add_argument("--workloads")
    p_all.add_argument("--out")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("base")
    p_cmp.add_argument("head")
    p_smoke = sub.add_parser("smoke")
    p_smoke.add_argument("--binary")
    if argv[:1] in (["all"], ["compare"], ["smoke"]):
        args = parser.parse_args(argv)
        return {"all": cmd_all, "compare": cmd_compare, "smoke": cmd_smoke}[args.mode](args)
    single = argparse.ArgumentParser(description="one run of one workload")
    single.add_argument("--workload", required=True)
    single.add_argument("--seed", type=int, default=1)
    single.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(single.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
