"""Per-layer tracing of phonodist, applied from outside the package.

``Tracer.install`` replaces every public function of the library modules
(and ``cli.main``) with a timing wrapper, in every namespace where a
caller looks the name up: the defining module, modules that imported the
name (``corpus.cwj_estimate``, ``analysis.solve_alpha``) and the package
itself.  Each wrapper records calls and self time (its duration minus
that of traced calls made inside it).  ``uninstall`` puts the original
functions back.

Run as a script, it traces one CLI call and writes the stats as JSON:

    python3 perfbench/tracer.py STATS.json -- predict-alpha --n 40
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import statistics
import subprocess
import sys
import time
import tracemalloc

LAYERS = ("dirichlet", "entropy", "corpus", "maxent", "analysis", "io", "cli")


def _label(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("phonodist."):
        return None
    layer = module.split(".", 1)[1]
    if layer not in LAYERS or fn.__name__.startswith("_"):
        return None
    if layer == "cli" and fn.__name__ != "main":
        return None  # the rest of the cli layer counts as cli.main self time
    return f"{layer}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.iterations = 0  # Newton iterations reported by maxent.solve
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, label):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[label] = self_s.get(label, 0.0) + elapsed - frame[0]
                calls[label] = calls.get(label, 0) + 1
            if label == "maxent.solve":
                self.iterations += result.iterations
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for name, module in list(sys.modules.items()):
            if name != "phonodist" and not name.startswith("phonodist."):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                label = _label(obj)
                if label is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, label)
                setattr(module, attr, wrappers[id(obj)])
                self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "iterations": self.iterations}

    def merge(self, snap: dict) -> None:
        for label, value in snap["self_s"].items():
            self.self_s[label] = self.self_s.get(label, 0.0) + value
        for label, value in snap["calls"].items():
            self.calls[label] = self.calls.get(label, 0) + value
        self.iterations += snap["iterations"]


def alloc_peak_mb(fn, *args) -> float:
    """Peak bytes traced by tracemalloc while ``fn(*args)`` runs, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# import split: a bucket takes the modules its pattern names plus every
# module they pulled in first, unless that module is named by another
# bucket.  scipy's lazy loader prints no line for the scipy.special and
# scipy.integrate packages themselves, so their submodules are matched;
# numpy submodules that scipy imports later stay with scipy.
IMPORT_BUCKETS = {
    "cli.import.numpy_s": re.compile(r"numpy$"),
    "cli.import.scipy_special_s": re.compile(r"scipy\.special(\.|$)"),
    "cli.import.scipy_integrate_s": re.compile(r"scipy\.integrate(\.|$)"),
    "cli.import.scipy_optimize_s": re.compile(r"scipy\.optimize(\.|$)"),
}
_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``python -X importtime -c 'import phonodist'`` into buckets (s).

    ``cli.import.phonodist_s`` is the cumulative time of the phonodist
    line; the other buckets are exclusive of one another.
    """
    rows = []  # (depth, name, self_us, cumulative_us); children come first
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            rows.append((len(match.group(3)), match.group(4),
                         int(match.group(1)), int(match.group(2))))
    totals = dict.fromkeys(IMPORT_BUCKETS, 0.0)
    stack: list[tuple[int, str | None]] = []  # open ancestors, parents first
    for depth, name, self_us, _ in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        own = next((metric for metric, pattern in IMPORT_BUCKETS.items()
                    if pattern.match(name)), None)
        bucket = own or (stack[-1][1] if stack else None)
        stack.append((depth, bucket))
        if bucket is not None:
            totals[bucket] += self_us / 1e6
    totals["cli.import.phonodist_s"] = next(
        (cum / 1e6 for _, name, _, cum in rows if name == "phonodist"), 0.0)
    return totals


def import_split(python: str, env: dict, repeats: int) -> dict[str, float]:
    """Median of ``repeats`` import splits of a fresh interpreter."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import phonodist"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    import phonodist.cli

    tracer = Tracer()
    tracer.install()
    try:
        return phonodist.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
