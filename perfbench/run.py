"""condada benchmark: run one workload as a closed loop, check it, report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller, one run at a time: each run is a fresh worker process
(perfbench/worker.py) started after the previous one ends. The first run is a
warm-up, checked but not measured; the others are measured until the next one
would end after S seconds. Set-up is also measured in fresh processes of its
own, one before each measured run.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured on
traced runs that alternate with untraced ones (their difference is the
tracing overhead). Lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Every worker is killed by this many seconds after start, so the benchmark
# always exits within its 180 s limit.
DEADLINE_S = 165.0
# speed_probe() time (worker.py) that defines the reference machine speed.
# Timed end-to-end figures are scaled by REFERENCE_PROBE_S / (median probe
# time of the run), so that the host slowing down or speeding up for minutes
# at a time does not move them; a change to the program cannot move the probe.
REFERENCE_PROBE_S = 0.08
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts worker processes one at a time, each in its own directory."""

    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, **PINNED_THREADS)

    def __call__(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        child_dir = os.path.join(self.work_dir, f"{self.count:03d}-{mode}")
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return {"error": "no time left before the benchmark's deadline"}
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--dir", child_dir, "--mode", mode, "--trace", str(int(trace))]
        proc = None
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
            with open(os.path.join(child_dir, "result.json")) as fh:
                return json.load(fh)
        except subprocess.TimeoutExpired:
            return {"error": f"worker killed after {timeout:.0f} s"}
        except (OSError, ValueError):
            detail = f"exited {proc.returncode}:\n{proc.stderr[-3000:]}" if proc else "could not start"
            return {"error": f"worker {detail} without a result"}
        finally:
            shutil.rmtree(child_dir, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- accounting -------------------------------------------------------------

def account(setups: list[dict], runs: list[tuple[str, dict]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): every set-up, run, output check and
    determinism comparison is one operation."""
    attempted = failed = 0
    messages = []
    reference = None
    for i, res in enumerate(setups):
        attempted += 1
        if "error" in res:
            failed += 1
            messages.append(f"set-up {i}: {res['error']}")
    for i, (kind, res) in enumerate(runs):
        label = f"run {i} ({kind})"
        attempted += 1
        if "error" in res:
            failed += 1
            messages.append(f"{label}: {res['error']}")
            continue
        for name, problem in res["checks"]:
            attempted += 1
            if problem is not None:
                failed += 1
                messages.append(f"{label}: check {name} failed: {problem}")
        if reference is None:
            reference = res["hashes"]
            continue
        attempted += 1
        if res["hashes"] != reference:
            failed += 1
            differing = sorted(k for k in set(reference) | set(res["hashes"])
                               if reference.get(k) != res["hashes"].get(k))
            messages.append(f"{label}: not deterministic, {', '.join(differing)} differ from run 0")
    return attempted, failed, messages


# -- metrics ----------------------------------------------------------------

def speed_factor(setups: list[dict], runs: list[dict]) -> float:
    """Reference probe time over this run's median probe time: < 1 when the machine is slow."""
    return REFERENCE_PROBE_S / median([p for r in setups + runs for p in r["probe_s"]])


def end_to_end(setups: list[dict], runs: list[dict], speed: float) -> dict:
    wall = median([r["wall_s"] for r in runs]) * speed
    return {
        "setup_s": median([r["setup_s"] for r in setups + runs if "setup_s" in r]) * speed,
        "wall_s": wall,
        "work_per_s": median([r["units"] for r in runs]) / wall,
        "peak_rss_mb": median([r["rss_kb"] for r in runs]) * 1024 / 1e6,
        "quality": median([r["quality"] for r in runs]),
    }


class SpanTable:
    def __init__(self, trace: dict):
        self.rows = trace["spans"]  # [name, parent, calls, total_s, self_s]
        self.ops = trace["ops"]

    def calls(self, name):
        return sum(r[2] for r in self.rows if r[0] == name)

    def total(self, name, parent=None):
        return sum(r[3] for r in self.rows if r[0] == name and parent in (None, r[1]))

    def self_s(self, name):
        return sum(r[4] for r in self.rows if r[0] == name)


FORWARDS = ("networks.forward_F", "networks.forward_G", "networks.forward_D")
SELF_TIMES = ("tensor.backward", "conditioning.condition", "objectives.cdan_step_losses",
              "objectives.cross_entropy", "objectives.entropy_weight", "objectives.adversarial_losses",
              "optim.step", "runner.train", "analysis.proxy_a_distance", "analysis.export_features",
              "analysis.theorem1_verify")
TOTAL_TIMES = ("networks.save_model", "networks.load_model", "serialize.write_arrays",
               "serialize.read_arrays", "datagen.load_csv", "datagen.generate", "datagen.batch_iter")


def per_layer_one(res: dict) -> dict:
    """Per-layer figures of one traced run."""
    t = SpanTable(res["trace"])
    steps = t.calls("objectives.cdan_step_losses")
    out = {f"{name}.self_s": t.self_s(name) for name in SELF_TIMES}
    out.update({f"{name}.s": t.total(name) for name in TOTAL_TIMES})
    out.update({f"{name}.step_s": t.total(name, "objectives.cdan_step_losses") for name in FORWARDS})
    out["tensor.ops_per_step"] = t.ops.get("step", 0) / steps if steps else 0.0
    out["tensor.ops_eval"] = t.ops.get("eval", 0)
    out["runner.eval_s"] = sum(t.total(name, "runner.train") for name in FORWARDS)
    out["io.bytes_written"] = res.get("io_bytes", 0)
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    singles = [per_layer_one(r) for r in traced]
    out = {name: median([s[name] for s in singles]) for name in singles[0]}
    step_ms = [v for r in traced for v in r["trace"]["step_ms"]]
    out["runner.step_ms_p50"] = percentile(step_ms, 50)
    out["runner.step_ms_p99"] = percentile(step_ms, 99)
    out["tracing.overhead_s"] = median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
    return out


# -- report -----------------------------------------------------------------

def print_span_table(traced: list[dict], wall: float) -> None:
    merged: dict[tuple[str, str], list[float]] = {}
    for res in traced:
        for name, parent, calls, total, self_s in res["trace"]["spans"]:
            acc = merged.setdefault((name, parent), [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    n = len(traced)
    print(f"spans, per traced run (mean of {n}); share = self time / traced wall {wall:.3f} s:")
    print(f"  {'span':34} {'parent':30} {'calls':>8} {'total_s':>9} {'self_s':>9} {'share':>6}")
    for (name, parent), (calls, total, self_s) in sorted(merged.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:34} {parent or '-':30} {calls / n:8.0f} {total / n:9.4f} {self_s / n:9.4f} "
              f"{self_s / n / wall:6.1%}")
    ops = {}
    for res in traced:
        for region, count in res["trace"]["ops"].items():
            ops[region] = ops.get(region, 0) + count
    print("tensor-op calls per traced run, by region: "
          + (", ".join(f"{k}={v / n:.0f}" for k, v in sorted(ops.items())) or "none"))
    last = traced[-1]["trace"]
    print("wrapped boundaries with zero calls: " + (", ".join(last["zero_calls"]) or "none"))
    print("boundaries absent from the program: " + (", ".join(last["absent"]) or "none"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "condada", "__init__.py")):
        print(f"error: no condada package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metric_specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    runner = Runner(args.workload, args.seed, work_dir, started + DEADLINE_S)
    try:
        t0 = time.monotonic()
        # The first run fills the bytecode and file caches and the memory the
        # guest touches for the first time. It is checked, not measured.
        warm = runner("run")
        if "env" not in warm:
            print(f"error: set-up failed:\n{warm['error']}", file=sys.stderr)
            return 1
        setups: list[dict] = []
        runs: list[tuple[str, dict]] = [("warm-up", warm)]
        durations = []
        while True:
            kind = "traced" if args.trace and len(runs) % 2 == 0 else "untraced"
            t = time.monotonic()
            setups.append(runner("setup"))  # set-up samples span the same time as the runs
            runs.append((kind, runner("run", trace=kind == "traced")))
            durations.append(time.monotonic() - t)
            if len(runs) >= 2 + args.trace and time.monotonic() - t0 + median(durations) > args.seconds:
                break
            if started + DEADLINE_S - time.monotonic() < 1.5 * max(durations):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    attempted, failed, messages = account(setups, runs)
    untraced = [r for kind, r in runs if kind == "untraced" and "error" not in r]
    traced_runs = [r for kind, r in runs if kind == "traced" and "error" not in r]
    env = warm["env"]
    print(f"condada benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: commit={git_commit()} nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']!r} "
          f"threads={','.join(f'{k}={v}' for k, v in PINNED_THREADS.items())}")
    print(f"closed loop, 1 caller: 1 warm-up run, {len(setups)} set-ups, {len(untraced)} untraced + "
          f"{len(traced_runs)} traced runs ok of {len(runs) - 1}; {failed} of {attempted} operations failed "
          f"(failed_ratio {failed / attempted:.4f})")
    for message in messages:
        print("FAILED " + message)
    if not untraced or (args.trace and not traced_runs):
        print("error: no successful run to measure", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(traced_runs, untraced)
        print_span_table(traced_runs, median([r["wall_s"] for r in traced_runs]))
    else:
        speed = speed_factor([r for r in setups if "probe_s" in r], untraced)
        values = end_to_end(setups, untraced, speed)
        print(f"  machine speed factor {speed:.4f} (reference probe {REFERENCE_PROBE_S} s); uncorrected: "
              f"setup_s {values['setup_s'] / speed:.6g}, wall_s {values['wall_s'] / speed:.6g}")
        print("  setup_s of each set-up: " + " ".join(f"{r['setup_s']:.3f}" for r in setups if "setup_s" in r))
        print("  wall_s of each run: " + " ".join(f"{r['wall_s']:.3f}" for r in untraced)
              + "; cpu_s: " + " ".join(f"{r['cpu_s']:.3f}" for r in untraced)
              + "; probe_s: " + " ".join(f"{p:.4f}" for r in untraced for p in r["probe_s"]))
        if workloads.WORKLOADS[args.workload]["kind"] == "verify":
            print(f"  resamples_per_s = work_per_s = {values['work_per_s']:.6g}; "
                  f"quality = share of rows inside the gate")
        else:
            print(f"  steps_per_s = work_per_s = {values['work_per_s']:.6g}; "
                  f"acc_tgt = {median([r['acc_tgt'] for r in untraced]):.6g}; "
                  f"quality = acc_src = {median([r['acc_src'] for r in untraced]):.6g}")
        print(f"  failed_ratio = {failed / attempted:.6g}")
    for spec in metric_specs:
        print(f"  {spec['name']:36} {values[spec['name']]:>14.6g} {spec['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                    for spec in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
