#!/usr/bin/env python3
"""Repository benchmark: host cost of reproducing the paper.

Builds the perfbench binary from source (the library under src/ plus this
directory), then measures one workload:

  python3 perfbench/run.py --workload amlb_sweep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all        # every workload, summary table
  python3 perfbench/run.py --selftest            # metric names + gate checks

Every measured run is a fresh perfbench process, so no run reuses the
process-wide caches (ASKL meta-store, scratch arenas) another filled.
With --trace 0 runs repeat until --seconds have passed; throughput and
CPU per op pool their timed work, set-up time and memory are medians
over them. With --trace 1 untraced and traced runs alternate and the
per-layer metrics are medians over the traced ones. A gate run compares
a fixed configuration with its reference snapshot. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; a manifest (host, build, git sha, workers, seed, pinned
environment) precedes it and is written with the per-run samples to
.bench_out/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("amlb_sweep", "mixed_tasks_sweep", "serve_replay")
REFERENCES = {
    "amlb_sweep": BENCH_DIR / "reference" / "amlb_sweep.digest",
    "mixed_tasks_sweep": ROOT / "BENCH_mixed_tasks.json",
    "serve_replay": ROOT / "BENCH_serve.json",
}
# Workloads whose timed section runs on one thread (see pinned_cpu).
ONE_THREAD = ("serve_replay",)
# A whole invocation must end within 180 s once built.
DEADLINE_S = 170.0
MIN_RUNS = 3


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then brings the perfbench binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"{ROOT / 'src'} is missing: nothing to build")
        sys.exit(2)
    OUT_DIR.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench", "-j", jobs])
    with open(OUT_DIR / "build.log", "a") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"build failed: {' '.join(step)} (see {OUT_DIR / 'build.log'})")
                sys.exit(1)


def child_env():
    """The caller's environment with the library's inputs pinned."""
    set_vars = sorted(k for k in os.environ if k.startswith("GREEN_"))
    if set_vars:
        log(f"refusing to run with {', '.join(set_vars)} set; "
            "the benchmark pins the library's configuration")
        sys.exit(2)
    env = dict(os.environ)
    env["GREEN_KERNELS"] = "1"
    return env


def pinned_cpu(workload, index):
    """The CPU the index-th process of a one-thread workload runs on, or
    None to leave placement to the scheduler.

    On a shared host each CPU slows down and recovers on its own, for
    seconds at a time, and a one-thread process tends to start where the
    last one ran, so back-to-back runs read alike and a run set's result
    leans on whichever CPU it happened to get. Pinning successive runs to
    successive CPUs spreads every run set over all of them."""
    if workload not in ONE_THREAD:
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[index % len(cpus)]


def run_bench(args, env, started, cpu=None):
    """One perfbench process, pinned to `cpu` if one is given; returns its
    JSON result (None if it produced none) and its exit code."""
    timeout = max(5.0, DEADLINE_S - (time.monotonic() - started))
    command = [str(BINARY), "--out-dir", str(OUT_DIR)] + args
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=timeout,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(args)}")
        return None, -1
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        log(f"no result from: {' '.join(args)} (exit {proc.returncode})")
        return None, proc.returncode


def median(values):
    return statistics.median(values) if values else 0.0


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no .git)"


def host_manifest():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "powercap": Path("/sys/class/powercap").is_dir()}


class Measurement:
    """Results of one workload's runs and its verdicts."""

    def __init__(self, workload):
        self.workload = workload
        self.runs = []     # Untraced run results.
        self.traced = []   # Traced run results.
        self.gate = None
        self.problems = []

    def check(self, result, code, label):
        if result is None:
            self.problems.append(f"{label}: no result (exit {code})")
            return False
        if code != 0 or not result["passed"]:
            failed = [k for k, ok in result["gates"].items() if not ok]
            self.problems.append(f"{label}: failed gates {failed}")
        return True

    @property
    def correct(self):
        return not self.problems

    def counts(self):
        results = self.runs + self.traced + ([self.gate] if self.gate else [])
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        # A missing or failed run counts as one more failed attempt.
        extra = len(self.problems)
        return max(1, attempted + extra), failed + extra


def measure(workload, seed, seconds, trace, tiny, env):
    started = time.monotonic()
    m = Measurement(workload)
    common = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    min_runs = 1 if tiny else MIN_RUNS

    if not tiny:
        gate, code = run_bench(["--workload", workload, "--mode", "gate",
                                 "--reference", str(REFERENCES[workload])],
                                env, started)
        if m.check(gate, code, "gate"):
            m.gate = gate

    def timed_out():
        return time.monotonic() - started >= seconds

    while True:
        result, code = run_bench(common + ["--mode", "run"], env, started,
                                 pinned_cpu(workload, len(m.runs)))
        if not m.check(result, code, "run"):
            break
        m.runs.append(result)
        if trace:
            result, code = run_bench(common + ["--mode", "traced"], env,
                                      started,
                                      pinned_cpu(workload, len(m.traced)))
            if not m.check(result, code, "traced"):
                break
            m.traced.append(result)
        # Past half the deadline, stop early rather than overrun it.
        if (len(m.runs) >= min_runs and timed_out()) or \
                time.monotonic() - started > DEADLINE_S / 2:
            break

    digests = {r["digest"] for r in m.runs + m.traced}
    if len(digests) > 1:
        m.problems.append(
            "output streams differ between runs of one seed "
            "(or traced != untraced)")
    return m


def end_to_end(m):
    """Throughput and CPU per op pool every run's timed work: the host's
    speed wanders over several seconds, and the pooled ratio averages it
    more evenly than a median of a few runs does. Set-up and memory are
    medians per run."""
    runs = [r for r in m.runs if r["ops"] > 0 and r["wall_s"] > 0]
    ops = sum(r["ops"] for r in runs)
    wall = sum(r["wall_s"] for r in runs)
    cpu = sum(r["cpu_s"] for r in runs)
    return {
        "setup_s": median([r["setup_s"] for r in runs]),
        "ops_per_s": ops / wall if wall > 0 else 0.0,
        "cpu_ms_per_op": cpu * 1e3 / ops if ops > 0 else 0.0,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }


def per_layer(m, names):
    """Median of each per-layer metric over the traced runs; layers this
    workload does not exercise read 0."""
    values = {}
    for r in m.traced:
        for name, value in r["layers"].items():
            values.setdefault(name, []).append(value)
    unknown = sorted(set(values) - set(names))
    if unknown:
        log(f"{m.workload}: layer metrics missing from BENCHMARK.json: {unknown}")
    layers = {name: median(values[name]) if name in values else 0.0
              for name in names}
    untraced = median([r["wall_s"] for r in m.runs])
    traced = median([r["wall_s"] for r in m.traced])
    if "bench.trace_overhead_share" in layers and untraced > 0:
        layers["bench.trace_overhead_share"] = traced / untraced - 1.0
    return layers, unknown


def manifest(m, seed, trace):
    child = (m.runs or m.traced or [m.gate or {}])[0].get("manifest", {})
    return {
        "workload": m.workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "host": host_manifest(),
        "build": {k: child.get(k)
                  for k in ("compiler", "build_type", "cxx_flags")},
        "workers": child.get("workers"),
        "env": child.get("env"),
        "effective": child.get("effective"),
        "runs": len(m.runs),
        "traced_runs": len(m.traced),
    }


def report(m, spec, seed, trace):
    """Prints the manifest and metrics; returns the result object."""
    if trace:
        names = [x["name"] for x in spec["per_layer"]]
        units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        values, _ = per_layer(m, names)
    else:
        units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
        measured = end_to_end(m)
        values = {name: measured[name] for name in units}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    attempted, failed = m.counts()
    record = {"manifest": manifest(m, seed, trace),
              "gate": m.gate and m.gate["gates"],
              "problems": m.problems,
              "samples": m.runs + m.traced,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result_{m.workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("manifest: " + json.dumps(record["manifest"]))
    for name, metric in metrics.items():
        print(f"  {m.workload:18s} {name:45s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    gate = m.gate["gates"] if m.gate else "not run"
    print(f"  {m.workload:18s} gate {gate}; runs {len(m.runs)} "
          f"traced {len(m.traced)}; correct {m.correct} {m.problems or ''}")
    return {"correct": m.correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def selftest(spec, env):
    """Tiny runs print every BENCHMARK.json metric with its unit, and each
    gate passes on its reference but fails on a one-byte perturbation."""
    ok = True
    started = time.monotonic()
    exercised = set()
    layer_names = [x["name"] for x in spec["per_layer"]]
    for workload in WORKLOADS:
        for trace in (0, 1):
            m = measure(workload, 7, 0, trace, True, env)
            result = report(m, spec, 7, trace)
            want = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [x["name"] for x in want
                       if result["metrics"].get(x["name"], {}).get("unit")
                       != x["unit"]]
            if trace:
                _, unknown = per_layer(m, layer_names)
                missing += unknown
                for r in m.traced:
                    exercised.update(r["layers"])
            verdict = not missing and result["correct"]
            ok = ok and verdict
            print(f"selftest {workload} trace {trace}: metrics "
                  f"{'ok' if verdict else 'BAD ' + str(missing + m.problems)}")
    never = [n for n in layer_names
             if n not in exercised and n != "bench.trace_overhead_share"]
    print(f"selftest per-layer metrics no workload emits: {never or 'none'}")
    ok = ok and not never

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for workload, reference in REFERENCES.items():
            original = reference.read_bytes()
            cases = [(reference, True)]
            # One flipped bit at the first, middle and last byte.
            for index in (0, len(original) // 2, len(original) - 1):
                data = bytearray(original)
                data[index] ^= 0x01
                perturbed = Path(tmp) / f"{index}_{reference.name}"
                perturbed.write_bytes(bytes(data))
                cases.append((perturbed, False))
            verdicts = []
            for path, want_pass in cases:
                result, code = run_bench(
                    ["--workload", workload, "--mode", "gate", "--reference",
                     str(path)], env, time.monotonic())
                passed = result is not None and code == 0 and result["passed"]
                verdicts.append(passed == want_pass)
            ok = ok and all(verdicts)
            print(f"selftest {workload} gate: passes on reference "
                  f"{verdicts[0]}, fails on each of 3 one-byte perturbations "
                  f"{all(verdicts[1:])}")
    print(f"selftest: {'PASS' if ok else 'FAIL'} "
          f"({time.monotonic() - started:.0f} s)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    # A terminated run.py ends as an exception, so subprocess.run kills
    # and reaps the perfbench process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = child_env()
    build()
    if args.selftest:
        sys.exit(0 if selftest(spec, env) else 1)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        m = measure(workload, args.seed, seconds, args.trace, False, env)
        results[workload] = report(m, spec, args.seed, args.trace)
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
