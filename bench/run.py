"""Closed-loop benchmark harness for ethlab.

Run from the root of an ethlab checkout:

    python3 bench/run.py                         # every workload, timed
    python3 bench/run.py --trace 1               # every workload, traced
    python3 bench/run.py --workload demo-L10 --seed 3 --seconds 20 --trace 0

One client, one run at a time: each run is a fresh ``python3 bench/child.py``
process started as soon as the previous one and its output checks are done,
until ``--seconds`` have passed (at least one run). In a timed invocation
the set-up time is taken from separate set-up-only processes started before
the first run. With ``--trace 1`` timed and traced runs alternate, so the
tracing overhead is the difference of their medians, and the per-layer
metrics come from the traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (for one workload),
or a JSON object of those per workload when no ``--workload`` is given. A
full record, with the environment, every sample and every check, is written
to ``.bench_work/results/``.
"""

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")

SETUP_PROBES = 11
DEADLINE_S = 170.0     # the runs of one workload end well inside 180 s

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

SELF_TIME_SPANS = (
    "dynamics.spectral_densities", "dynamics.spectral_peaks", "dynamics.otoc",
    "dynamics.two_point", "dynamics.symmetric_and_response",
    "dynamics.dynamical_fluctuation",
    "spectral.eigendecompose", "spectral.require_hermitian", "spectral.entropy_model",
    "models.to_eigenbasis", "models.build_local_observable",
    "models.build_mixed_field_ising",
    "synth.synth_eth_operator", "synth.synth_spectrum",
    "extract.envelope_estimate", "extract.gaussianity_stats", "extract.diagonal_profile",
    "aqec.kl_residuals", "aqec.check_bounds",
    "io.write_array", "io.read_array", "io.file_sha256", "io.write_csv",
    "io.read_csv", "io.dump_json",
) + tuple(f"pipeline.stage.{s}" for s in workloads.ALL_STAGES)

# Counts from tracer.COUNTS: (span name, count, unit). All but the call
# count of is_hermitian are computed from array and file sizes for the dense
# algorithm, not measured, and their units say so.
SPAN_COUNTS = (
    ("dynamics.spectral_densities", "kernel_evals", "count.computed"),
    ("dynamics.otoc", "gflop", "GFLOP.computed"),
    ("spectral.OperatorEigenbasis.is_hermitian", "n", "count"),
    ("spectral.eigendecompose", "dim", "count.computed"),
    ("models.to_eigenbasis", "gflop", "GFLOP.computed"),
    ("extract.envelope_estimate", "pairs", "count.computed"),
    ("io.write_array", "bytes", "B.computed"),
    ("io.read_array", "bytes", "B.computed"),
    ("io.file_sha256", "bytes", "B.computed"),
)

PER_LAYER = {f"{name}.s": "s" for name in SELF_TIME_SPANS}
PER_LAYER.update({f"{name}.{count}": unit for name, count, unit in SPAN_COUNTS})
PER_LAYER.update({
    "pipeline.sweep.point_s": "s", "pipeline.sweep.critical_path_s": "s",
    "pipeline.sweep.worker_busy_frac": "1", "pipeline.cpu_s": "s",
    "pipeline.threads": "count",
    "trace.overhead_s": "s", "trace.layer_cover": "1",
})


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                   help="one workload (default: all, in turn)")
    p.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seed >= 1 << 64:
        p.error("--seed must be a nonnegative 64-bit integer")
    return args


class Runner:
    """Starts measured child processes for one workload invocation."""

    def __init__(self, workload, seed, work_dir, t_begin):
        self.workload = workload
        self.work_dir = work_dir
        self.t_begin = t_begin
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(workload.config(seed), fh, indent=2)
        threads = str(workload.blas_threads)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.serial = 0

    def start(self, setup_only=False, traced=False):
        """Run one child to completion and return its result; ``ok`` is False on failure."""
        self.serial += 1
        tag = f"{self.serial:03d}"
        out = os.path.join(self.work_dir, f"out-{tag}")
        trace_dir = os.path.join(self.work_dir, f"trace-{tag}") if traced else None
        if trace_dir:
            os.makedirs(trace_dir)
        job = {"config": self.config_path, "setup_only": setup_only,
               "argvs": self.workload.argvs(self.config_path, out),
               "trace_dir": trace_dir, "run_id": f"{self.workload.name}-{tag}",
               "result": os.path.join(self.work_dir, f"result-{tag}.json")}
        job_path = os.path.join(self.work_dir, f"job-{tag}.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        log_path = os.path.join(self.work_dir, f"log-{tag}.txt")
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.t_begin))
        with open(log_path, "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), job_path],
                                    env=self.env, stdout=log, stderr=log, cwd=ROOT,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = "timeout"
        if code != 0 or not os.path.exists(job["result"]):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            print(f"{self.workload.name}: child {tag} failed ({code}):\n{tail}",
                  file=sys.stderr)
            return {"ok": False, "out": out, "code": code}
        with open(job["result"]) as fh:
            res = json.load(fh)
        res.update(ok=True, out=out, code=code, setup_s=res["t_setup"] - t_spawn)
        if not setup_only:
            res["wall_s"] = res["t_end"] - res["t_start"]
        return res


def layer_metrics(spans, res, workload):
    """Per-layer metrics of one traced run (see PER_LAYER)."""
    from tracer import is_layer, self_times, union_s
    own = self_times(spans)
    self_s = collections.defaultdict(float)
    counts = collections.defaultdict(float)
    for s in spans:
        self_s[s["name"]] += own[s["id"]]
        for key, val in s["counts"].items():
            k = (s["name"], key)
            counts[k] = max(counts[k], val) if key == "dim" else counts[k] + val
    m = {f"{name}.s": self_s[name] for name in SELF_TIME_SPANS}
    m.update({f"{name}.{c}": counts[(name, c)] for name, c, _ in SPAN_COUNTS})
    sweeps = {s["id"]: s for s in spans if s["name"] == "pipeline.sweep"}
    points = [s["end"] - s["start"] for s in spans
              if s["name"] == "pipeline.run" and s["parent"] in sweeps]
    sweep_s = sum(s["end"] - s["start"] for s in sweeps.values())
    m["pipeline.sweep.point_s"] = statistics.mean(points) if points else 0.0
    m["pipeline.sweep.critical_path_s"] = max(points, default=0.0)
    m["pipeline.sweep.worker_busy_frac"] = (
        sum(points) / (workload.workers * sweep_s) if sweep_s else 0.0)
    m["pipeline.cpu_s"] = res["cpu_s"]
    # OS threads of each process that ran a stage (the most seen at any of
    # its span ends), summed over those processes.
    stage_pids = {s["pid"] for s in spans if s["name"].startswith("pipeline.stage.")}
    m["pipeline.threads"] = sum(max(s["threads"] for s in spans if s["pid"] == pid)
                                for pid in stage_pids)
    m["trace.layer_cover"] = union_s(s for s in spans if is_layer(s["name"])) / res["wall_s"]
    return m


def environment(workload):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": workload.blas_threads,
            "OMP_NUM_THREADS": workload.blas_threads,
            "cpu_count": os.cpu_count(), "workers": workload.workers,
            "git_commit": commit, "machine": platform.machine()}


def run_workload(workload, seed, seconds, trace):
    import checks
    t_begin = time.monotonic()
    work_dir = os.path.join(WORK, f"{workload.name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(workload, seed, work_dir, t_begin)
    # The first set-up process is untimed: it compiles bytecode and fills caches.
    probes = [runner.start(setup_only=True)
              for _ in range(1 if trace else 1 + SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes[1:] if r["ok"]]
    samples, traced, refs = [], [], {}
    attempted = len(probes)
    failed = sum(not r["ok"] for r in probes)
    failures = [f"set-up process exit {r['code']}" for r in probes if not r["ok"]]
    t_loop = time.monotonic()
    while True:
        use_trace = bool(trace) and len(samples) > len(traced)
        t0 = time.monotonic()
        res = runner.start(traced=use_trace)
        chk = checks.Checks()
        try:
            checks.check_run(chk, workload, res["out"], res.get("exit_codes", [res["code"]]),
                             refs, os.path.join(WORK, "cache"))
        except Exception as exc:  # a malformed output fails the run, not the harness
            chk.ok("checks_completed", False, f"{type(exc).__name__}: {exc}")
        if not res["ok"]:
            chk.ok("run", False, f"child exit {res['code']}")
        attempted += len(chk.results)
        failed += len(chk.failed)
        failures += [f"sample {runner.serial}: {n}: {d}" for n, _, d in chk.failed]
        if res["ok"]:
            res.pop("t_setup", None)
            if use_trace:
                res["layers"] = layer_metrics(res.pop("spans"), res, workload)
                traced.append(res)
            else:
                samples.append(res)
        shutil.rmtree(res["out"], ignore_errors=True)
        now = time.monotonic()
        one = now - t0
        if now - t_begin + 1.2 * one > DEADLINE_S or not res["ok"]:
            break
        if now - t_loop >= seconds and (not trace or traced):
            break
    metrics = {}
    if trace:
        for name in (traced[0]["layers"] if traced else ()):
            metrics[name] = statistics.median(t["layers"][name] for t in traced)
        if traced and samples:
            metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                           - statistics.median(s["wall_s"] for s in samples))
        units, n = PER_LAYER, len(traced)
    else:
        if samples:
            metrics["wall_s"] = statistics.median(s["wall_s"] for s in samples)
            metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in samples)
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        units, n = END_TO_END, len(samples)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": workload.config(seed),
        "env": environment(workload), "setup_samples": setups,
        "samples": samples, "traced_samples": traced, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{workload.name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work_dir, ignore_errors=True)
    complete = len(metrics) == len(units) and n > 0
    summary = {
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if complete else max(failed, 1),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report(workload, summary, record, n, len(setups))
    return summary


def report(workload, summary, record, n, n_setup):
    name = workload.name
    for key, m in summary["metrics"].items():
        count = n_setup if key == "setup_s" else n
        print(f"{name:18s} {key:44s} {m['value']:14.6g} {m['unit']:14s} n={count}")
    frac = summary["failed"] / summary["attempted"]
    print(f"{name:18s} {'fail_frac':44s} {frac:14.6g} {'1':14s} "
          f"n={summary['attempted']} ({summary['failed']} failed)")
    for line in record["failures"][:20]:
        print(f"{name:18s} FAILED {line}", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ethlab", "__init__.py")):
        print("error: src/ethlab not found; run from the root of an ethlab checkout",
              file=sys.stderr)
        return 2
    # The harness's own numpy (output checks) uses at most nproc threads and
    # never runs while a measured child does.
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace)
               for n in names}
    final = results[args.workload] if args.workload else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
