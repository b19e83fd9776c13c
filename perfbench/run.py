"""phonodist benchmark: one command per workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload rank-curve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/phonodist`` must exist).
The harness writes the seeded inputs under ``perfbench/.work``, measures
set-up in fresh interpreters, runs the workload in a fresh worker
interpreter (BLAS/OpenMP pinned to one thread, one worker at a time),
checks every output against ``oracle``, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Timings are in reference seconds (``speed.py``); the
wall-clock figures go to the run record and the line before the JSON.  A failed operation is one that raised or whose output
failed a check; ``correct`` is false when any failure is not one of the
known program faults listed in KNOWN_FAULTS.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import speed
import tracer

WORKLOADS = ("rank-curve", "lexicon-zipf", "lexicon-sparse", "cli-batch")
SETUP_SAMPLES = 5  # fresh interpreters per run that only set up
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "dirichlet.order_statistic_moments.s": "s",
    "dirichlet.order_statistic_moments.calls": "count",
    "dirichlet.order_statistic_quantile.s": "s",
    "dirichlet.order_statistic_quantile.calls": "count",
    "dirichlet.solve_alpha.s": "s",
    "dirichlet.solve_alpha.calls": "count",
    "corpus.segmental_information.s": "s",
    "corpus.segmental_information.calls": "count",
    "corpus.lexical_conditional_diversity.s": "s",
    "corpus.build_feature_table.s": "s",
    "corpus.build_feature_table.alloc_peak_mb": "MB",
    "entropy.cwj_estimate.s": "s",
    "entropy.cwj_estimate.calls": "count",
    "maxent.check_feasibility.s": "s",
    "maxent.solve.s": "s",
    "maxent.solve.iterations": "count",
    "analysis.compensation_report.s": "s",
    "io.s": "s",
    "cli.main.s": "s",
    "cli.import.phonodist_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.scipy_special_s": "s",
    "cli.import.scipy_integrate_s": "s",
    "cli.import.scipy_optimize_s": "s",
    "trace.overhead_ratio": "ratio",
}

# the faults kept in the workloads: each fails on every run, in this way
KNOWN_FAULTS = {
    "rank-curve": "OverflowError from the moment quadrature at n = 1800",
    "lexicon-sparse": "capped.lex: lex_div equals the CWJ series cut after 10^7 terms",
    "cli-batch": "features on toy_a.lex: lex_div drops the unseen term when f1 = 1",
}


def check_rank_curve(manifest, record):
    """(failed, expected) for one reconstruct_from_inventory call."""
    n = int(record["key"].split(",")[0][2:])
    if record["error"] is not None:
        return True, n == manifest["rank-curve"]["overflow_n"] and record["error"].startswith(
            "OverflowError")
    out = record["output"]
    unit = record["key"].endswith("alpha=1")
    alpha = 1.0 if unit else oracle.DEFAULT_LAW[0] * n ** oracle.DEFAULT_LAW[1]
    problems = oracle.check_rank_curve(n, out["alpha"], out["mean"], out["sd"], out["ci_low"],
                                       out["ci_high"], unit_alpha=unit)
    if not oracle._close(out["alpha"], alpha, 1e-12):
        problems.append(f"alpha {out['alpha']!r} != {alpha!r}")
    return bool(problems), False


class LexiconChecker:
    def __init__(self, manifest, workload):
        self.incidence = oracle.read_incidence(manifest["incidence"])
        self.capped = manifest[workload].get("capped")
        self.refs = {}

    def __call__(self, manifest, record):
        if record["error"] is not None:
            return True, False
        path = record["key"]
        if path not in self.refs:
            self.refs[path] = oracle.lexicon_reference(oracle.read_lexicon(path), self.incidence)
        ref, out = self.refs[path], record["output"]
        problems, lex_off = oracle.check_lexicon_op(ref, out)
        if not lex_off:
            return bool(problems), False
        fault = oracle.lex_div_fault(ref, out["phonemes"], out["lex_div"], lex_off)
        return True, not problems and path == self.capped and fault == "cap"


class CliChecker:
    def __init__(self):
        self.first = {}    # op index -> (stdout, output) of its first call
        self.verdict = {}  # (index, stdout, output) -> (failed, expected)

    def __call__(self, manifest, record):
        if record["error"] is not None:
            return True, False
        out = record["output"]
        call = manifest["cli-batch"]["ops"][record["index"]]
        if out["returncode"] != 0:
            return True, False
        artifact = (out["stdout"], out["output"])
        if self.first.setdefault(record["index"], artifact) != artifact:
            return True, False  # a repeat differs byte for byte
        key = (record["index"], *artifact)
        if key not in self.verdict:
            problems, fault = oracle.check_cli_call(call, out["stdout"], out["output"])
            expected = fault == "f1=1" and call["argv"][:2] == ["features", f"{gen.BUNDLED}/toy_a.lex"]
            self.verdict[key] = (bool(problems), bool(problems) and expected)
        return self.verdict[key]


def checker_for(workload, manifest):
    if workload == "rank-curve":
        return check_rank_curve
    if workload == "cli-batch":
        return CliChecker()
    return LexiconChecker(manifest, workload)


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Harness:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.start = time.perf_counter()
        self.live = None  # the worker process while it runs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            self.env[var] = "1"

    def remaining(self) -> float:
        return max(5.0, DEADLINE_S - (time.perf_counter() - self.start))

    def start_worker(self, *extra):
        """Start a worker; return it with its set-up time (start to READY)."""
        cmd = [sys.executable, "perfbench/worker.py", "--workload", self.args.workload,
               "--manifest", str(self.work / "manifest.json"), *extra]
        with open(self.work / "worker.log", "a", encoding="utf-8") as log:
            began = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=log,
                                    text=True)
        self.live = proc
        readable, _, _ = select.select([proc.stdout], [], [], self.remaining())
        line = proc.stdout.readline() if readable else ""
        ready = time.perf_counter() - began
        if line.strip() != "READY":
            raise RuntimeError("worker did not get ready; see " + str(self.work / "worker.log"))
        return proc, ready

    def finish(self, proc) -> None:
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker ran past the deadline") from None
        proc.stdout.close()
        self.live = None
        if code != 0:
            raise RuntimeError(f"worker exited with {code}; see {self.work / 'worker.log'}")

    def stop(self) -> None:
        """Kill and reap a worker left running by an error."""
        if self.live is not None:
            self.live.kill()
            self.live.wait()
            self.live.stdout.close()
            self.live = None

    def run(self) -> dict:
        setup = []
        for _ in range(SETUP_SAMPLES):
            # speed sampled before the start and after the exit, not beside
            # the child, which runs on the same CPU
            before = speed.sample(5)
            proc, ready = self.start_worker("--setup-only")
            self.finish(proc)
            setup.append({"seconds": ready, "factor": speed.factor([before, speed.sample(5)])})
        result_path = self.work / "result.json"
        proc, _ = self.start_worker("--seconds", str(self.args.seconds),
                                    "--trace", str(self.args.trace),
                                    "--result", str(result_path))
        self.finish(proc)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup"] = setup
        if self.args.trace:
            factor = speed.factor([speed.sample(5)])
            split = tracer.import_split(sys.executable, self.env, 3)
            result["per_layer"].update({k: v * factor for k, v in split.items()})
        return result


def summarize(workload, manifest, result, trace: int) -> dict:
    check = checker_for(workload, manifest)
    ops = result["ops"]
    failed = expected = 0
    for record in ops:
        is_failed, is_expected = check(manifest, record)
        record["failed"] = is_failed
        failed += is_failed
        expected += is_failed and is_expected
    passed = len(ops) - failed
    if trace:
        layers = result["per_layer"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        op_s = [r["seconds"] * f for r, f in zip(ops, speed.op_factors(ops))]
        values = {
            "setup_s": statistics.median(s["seconds"] * s["factor"] for s in result["setup"]),
            "op_p50_s": statistics.median(op_s),
            "ops_per_s": passed / sum(op_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": bool(ops) and failed == expected, "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def raw_figures(result) -> dict:
    """The same timings in plain wall-clock seconds, for the run record."""
    ops = result["ops"]
    return {"setup_s": statistics.median(s["seconds"] for s in result["setup"]),
            "op_p50_s": statistics.median(r["seconds"] for r in ops),
            "ops_per_s": sum(not r["failed"] for r in ops) / sum(r["seconds"] for r in ops),
            "speed_kernel_s": statistics.median(r["calib"] for r in ops)}


def main() -> int:
    parser = argparse.ArgumentParser(description="phonodist benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/phonodist/__init__.py").is_file():
        print("error: run from the root of a phonodist checkout (src/phonodist is missing)",
              file=sys.stderr)
        return 2

    # one CPU for the harness, the worker and every child, so that speed
    # samples are taken where the measured work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = Path("perfbench/.work") / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = gen.generate(args.seed, work)
        harness = Harness(args, work)
        try:
            result = harness.run()
        finally:
            harness.stop()
        line = summarize(args.workload, manifest, result, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "versions": result["versions"], "setup": result["setup"], "rounds": result["rounds"],
        "ops": [{k: r[k] for k in ("key", "round", "seconds", "calib", "probes", "error", "failed")}
                for r in result["ops"]],
        "raw": raw_figures(result), "result": line,
    }
    results = Path("perfbench/.work/results")
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    env = {k: record[k] for k in ("git_sha", "nproc", "versions")}
    print(f"# {args.workload} seed={args.seed}: {line['attempted']} attempted, "
          f"{line['failed']} failed, known fault: {KNOWN_FAULTS.get(args.workload, 'none')}; "
          f"wall-clock {json.dumps(record['raw'], sort_keys=True)}; "
          f"env {json.dumps(env, sort_keys=True)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
