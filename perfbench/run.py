"""Benchmark of spindetect's CLI run kinds, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's config is built from the seed (see workloads.py) and run
through spindetect.runner.run_config, once per fresh child process
(child.py), for about S seconds: no run starts that would end past S at the
pace of the runs before it.  Every run's outputs are checked; a run that
raises or fails its check counts as failed.  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics; the line before it holds the run environment (with the share of
CPU time the hypervisor took away during the runs), the sha256 of every
CSV artifact and each run's numbers.

--trace 0 reports the end-to-end metrics (medians over the runs): wall_s,
the run_config call; setup_s, importing spindetect.runner plus
resolve_config and build_scene; peak_rss_mb, the RUSAGE_SELF peak of the
run process.

--trace 1 alternates untraced runs with traced ones and reports the
per-layer metrics (medians over the traced runs).  trace.overhead_s is the
median traced run_config wall minus the median untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# at least this many untraced runs per --trace 0 result, whatever --seconds says
MIN_RUNS = 3
# the whole benchmark ends within 180 s; no new run starts after this
DEADLINE_S = 170.0


def _run_child(args: list[str], timeout: float) -> tuple[int, str]:
    """Run child.py in its own process group, so that a timeout also stops
    any process it started."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        return -1, f"timed out after {timeout:.0f} s\n{output}"
    return proc.returncode, output


class Bench:
    """Runs one workload repeatedly and keeps each run's numbers."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workloads.build_config(workload, seed)))
        self.runs: list[dict] = []
        self.digests: dict[str, str] | None = None
        self.env: dict | None = None
        self.steal_share: float | None = None

    def run(self, traced: bool, timeout: float) -> dict:
        index = len(self.runs)
        out = self.work / f"run{index}"
        result = self.work / f"run{index}.json"
        args = [str(self.config), str(out), str(result)]
        if traced:
            args.append("--trace")
        code, output = _run_child(args, timeout)
        record = {"traced": traced, "problems": []}
        if code != 0:
            record["problems"].append(f"exit code {code}: {output[-2000:]}")
        else:
            record.update(json.loads(result.read_text()))
            self.env = record.pop("env")
            record["problems"] += workloads.check_outputs(self.workload, out)
            digests = workloads.csv_digests(out)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                record["problems"].append("CSV bytes differ from the first run's")
            if not record["problems"]:
                record["health"] = workloads.health(out)
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(record)
        return record

    def ok(self, traced: bool) -> list[dict]:
        return [r for r in self.runs if r["traced"] == traced and not r["problems"]]

    def end_to_end(self) -> dict[str, float]:
        runs = self.ok(traced=False)
        return {name: _median([r[name] for r in runs])
                for name in ("wall_s", "setup_s", "peak_rss_mb")}

    def per_layer(self) -> dict[str, float]:
        plain, traced = self.ok(traced=False), self.ok(traced=True)
        if not traced:
            return defaultdict(float)
        metrics = {"trace.overhead_s": 0.0}
        for name in traced[0]["layers"]:
            metrics[name] = _median([r["layers"][name] for r in traced])
        for name in traced[0]["health"]:
            metrics[name] = _median([r["health"][name] for r in traced])
        metrics["runner.import_s"] = _median([r["import_s"] for r in plain + traced])
        metrics["trace.wall_s"] = metrics.pop("runner.wall_s")
        if plain:
            metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                           - _median([r["wall_s"] for r in plain]))
        return metrics


def metric_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics a result reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _cpu_ticks() -> list[int]:
    """The machine's CPU tick counters (user, nice, system, idle, iowait,
    irq, softirq, steal, ...), or [] where /proc/stat is not available."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else None


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Bench:
    """Run the workload for about `seconds`: no run starts that would end
    past them at the pace so far.  With trace, untraced and traced runs
    alternate and at least one of each is made."""
    bench = Bench(workload, seed, work)
    subprocess.run([sys.executable, "-c", "import spindetect.runner"],
                   env={**os.environ, "PYTHONPATH": str(SRC)})  # warm the file cache
    ticks = _cpu_ticks()
    start = time.monotonic()
    pattern = [False, True] if trace else [False]
    min_runs = len(pattern) if trace else MIN_RUNS
    while True:
        elapsed = time.monotonic() - start
        done = len(bench.runs)
        pace = elapsed / done if done else 0.0
        if done >= min_runs and elapsed + pace > seconds:
            break
        if elapsed >= DEADLINE_S or elapsed + pace > DEADLINE_S:
            break
        bench.run(traced=pattern[done % len(pattern)], timeout=DEADLINE_S - elapsed)
    bench.steal_share = _steal_share(ticks, _cpu_ticks())
    return bench


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spindetect" / "runner.py").is_file():
        print(f"no spindetect sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    values = bench.per_layer() if args.trace else bench.end_to_end()
    units = metric_units(bool(args.trace))
    failed = sum(1 for r in bench.runs if r["problems"])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": bench.env,
                      "cpu_steal_share": bench.steal_share,
                      "csv_sha256": bench.digests, "runs": bench.runs}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
