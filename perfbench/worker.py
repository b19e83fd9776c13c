"""Benchmark worker: one fresh interpreter that runs one workload.

It imports phonodist, loads the generated inputs, prints ``READY`` (the
end of set-up as the harness measures it) and, unless ``--setup-only``,
runs whole rounds of the workload's operations until the next round
would pass ``--seconds``.  Every operation is timed on its own, after
one sample of the speed kernel (``speed.py``); its output or exception
is written with the timings to ``--result`` for the harness to check.  With ``--trace 1`` half of the time runs untraced and
half under ``tracer.Tracer``, one round at least each.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 perfbench/worker.py --workload rank-curve \\
        --manifest M.json --seconds 20 --trace 0 --result R.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import phonodist
from phonodist import corpus, dirichlet, io, maxent

import speed
import tracer

PERFBENCH = Path(__file__).resolve().parent


class RankCurve:
    """reconstruct_from_inventory over the seeded rotation of sizes."""

    probe = True

    def __init__(self, manifest):
        spec = manifest["rank-curve"]
        law = dirichlet.AlphaScalingLaw()
        self.ops = [(f"n={n}", n, law) for n in spec["sizes"]]
        n = spec["unit_alpha_n"]
        self.ops.append((f"n={n},alpha=1", n, dirichlet.AlphaScalingLaw(1.0, 0.0)))

    def run(self, op):
        _, n, law = op
        summary = dirichlet.reconstruct_from_inventory(n, law)
        return {"n": n, "alpha": summary.alpha, "mean": summary.mean.tolist(),
                "sd": summary.sd.tolist(), "ci_low": summary.ci_low.tolist(),
                "ci_high": summary.ci_high.tolist()}

    def alloc_pass(self):
        return 0.0  # build_feature_table is never called here


class Lexicons:
    """build_feature_table -> constraint_expectations -> maxent.solve."""

    probe = True

    def __init__(self, manifest, workload):
        self.incidence = io.load_incidence(manifest["incidence"])
        self.ops = [(path, io.load_lexicon(path)) for path in manifest[workload]["lexicons"]]
        self.capped = manifest[workload].get("capped")

    def run(self, op):
        table = corpus.build_feature_table(op[1], self.incidence)
        targets = corpus.constraint_expectations(table).as_array()
        solution = maxent.solve(
            maxent.MaxEntProblem(table.phonemes, table.feature_matrix(), targets))
        return {"phonemes": list(table.phonemes), "observed_prob": table.observed_prob.tolist(),
                "cost": table.cost.tolist(), "seg_info": table.seg_info.tolist(),
                "lex_div": table.lex_div.tolist(), "targets": targets.tolist(),
                "probs": solution.probs.tolist(), "lambda0": solution.lambda0,
                "lambdas": solution.lambdas.tolist(), "residuals": solution.residuals.tolist()}

    def alloc_pass(self):
        # tracemalloc slows the build tenfold: measure the largest lexicon
        # only, leaving out the capped one, whose 10^7-term loop would
        # take minutes under it
        largest = max((lexicon for path, lexicon in self.ops if path != self.capped),
                      key=lambda lexicon: len(lexicon.entries))
        return tracer.alloc_peak_mb(corpus.build_feature_table, largest, self.incidence)


class CliBatch:
    """One ``python -m phonodist.cli`` subprocess per operation."""

    # no kernel runs during a call: they would share the two CPUs with
    # the child; the samples before it and the next call bracket it
    probe = False

    def __init__(self, manifest):
        self.ops = [(" ".join(call["argv"]), call) for call in manifest["cli-batch"]["ops"]]
        self.stats = Path(manifest["work"]) / f"clitrace-{os.getpid()}.json"
        self.tracer = None  # set while tracing: calls then go through tracer.py

    def run(self, op):
        call = op[1]
        if "output" in call:
            Path(call["output"]).unlink(missing_ok=True)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "phonodist.cli", *call["argv"]]
        else:
            cmd = [sys.executable, str(PERFBENCH / "tracer.py"), str(self.stats), "--", *call["argv"]]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        output = None
        if "output" in call and Path(call["output"]).exists():
            output = Path(call["output"]).read_text(encoding="utf-8")
        if self.tracer is not None:
            self.tracer.merge(json.loads(self.stats.read_text(encoding="utf-8")))
            self.stats.unlink()
        return {"returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr, "output": output}

    def alloc_pass(self):
        peaks = [0.0]
        for _, call in self.ops:
            if call["argv"][0] == "features":
                lexicon = io.load_lexicon(call["argv"][1])
                incidence = io.load_incidence(call["argv"][2])
                peaks.append(tracer.alloc_peak_mb(corpus.build_feature_table, lexicon, incidence))
        return max(peaks)


def load(workload: str, manifest: dict):
    if workload == "rank-curve":
        return RankCurve(manifest)
    if workload in ("lexicon-zipf", "lexicon-sparse"):
        return Lexicons(manifest, workload)
    if workload == "cli-batch":
        return CliBatch(manifest)
    raise SystemExit(f"unknown workload {workload!r}")


def run_rounds(bench, budget: float, min_rounds: int) -> tuple[list[dict], list[float]]:
    """Whole rounds until the next one would pass ``budget`` seconds.

    Each operation is preceded by an untimed speed-kernel sample; an
    in-process one is also probed while it runs, and the probes' time is
    taken out of its own.
    """
    records, rounds = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, op in enumerate(bench.ops):
            calib = speed.sample()
            with speed.Probe(bench.probe) as probe:
                op_start = time.perf_counter()
                try:
                    output, error = bench.run(op), None
                except Exception as exc:  # a failing call is a result to check
                    output, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - op_start
            records.append({"key": op[0], "index": index, "round": len(rounds),
                            "seconds": elapsed - probe.spent, "calib": calib,
                            "probes": probe.samples, "output": output, "error": error})
        rounds.append(time.perf_counter() - round_start)
        spent = time.perf_counter() - start
        if len(rounds) >= min_rounds and spent + sum(rounds) / len(rounds) > budget:
            return records, rounds


def reference_round_s(records: list[dict], rounds: int) -> float:
    """Mean operation time per round, in reference seconds."""
    scale = speed.op_factors(records)
    return sum(r["seconds"] * f for r, f in zip(records, scale)) / rounds


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def per_layer(trace: tracer.Tracer, rounds: int, factor: float) -> dict[str, float]:
    """Per-round self time (reference seconds) and calls of the traced functions."""
    out = {}
    for label in sorted(set(trace.self_s) | set(trace.calls)):
        out[f"{label}.s"] = trace.self_s.get(label, 0.0) * factor / rounds
        out[f"{label}.calls"] = trace.calls.get(label, 0) / rounds
    out["maxent.solve.iterations"] = trace.iterations / rounds
    out["io.s"] = sum(v for k, v in trace.self_s.items() if k.startswith("io.")) * factor / rounds
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="phonodist benchmark worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    bench = load(args.workload, manifest)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy

    # byte-identical repeats of each CLI call need a second round; a
    # traced run has two halves of one round at least
    min_rounds = 2 if args.workload == "cli-batch" and args.trace == 0 else 1
    result = {
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "phonodist": phonodist.__version__},
    }
    if args.trace == 0:
        records, rounds = run_rounds(bench, args.seconds, min_rounds)
        result["peak_rss_mb"] = peak_rss_mb(args.workload)
    else:
        plain, plain_rounds = run_rounds(bench, args.seconds / 2, min_rounds)
        trace = tracer.Tracer()
        trace.install()
        if isinstance(bench, CliBatch):
            bench.tracer = trace
        try:
            traced, traced_rounds = run_rounds(bench, args.seconds / 2, min_rounds)
        finally:
            trace.uninstall()
            bench.tracer = None
        records, rounds = plain + traced, plain_rounds + traced_rounds
        factor = speed.factor([x for r in traced for x in (r["calib"], *r["probes"])])
        result["per_layer"] = per_layer(trace, len(traced_rounds), factor)
        result["per_layer"]["corpus.build_feature_table.alloc_peak_mb"] = bench.alloc_pass()
        result["per_layer"]["trace.overhead_ratio"] = (
            reference_round_s(traced, len(traced_rounds))
            / reference_round_s(plain, len(plain_rounds)))
    result["rounds"] = rounds
    result["ops"] = records
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
