"""One timed run of spindetect in a fresh process.

Usage: python3 child.py CONFIG_JSON OUT_DIR RESULT_JSON [--trace]

Times the import of spindetect.runner plus resolve_config and build_scene
(set-up), then the run_config call (wall), and reports this process's own
peak RSS (RUSAGE_SELF, so nothing an ancestor ran is counted).  With
--trace the run is recorded as spans (see spans.py).
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads_env": {k: v for k, v in os.environ.items()
                            if k.endswith("_NUM_THREADS")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("out")
    ap.add_argument("result")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    raw = json.loads(Path(args.config).read_text())
    out = Path(args.out)

    start = time.perf_counter()
    import spindetect.runner as runner
    imported = time.perf_counter()
    runner.build_scene(runner.resolve_config(raw))
    ready = time.perf_counter()

    result = {"import_s": imported - start, "setup_s": ready - start}
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        with tracer.span(spans.ROOT):
            t0 = time.perf_counter()
            runner.run_config(raw, out)
            result["wall_s"] = time.perf_counter() - t0
        result["layers"] = spans.layer_metrics(tracer.spans)
    else:
        t0 = time.perf_counter()
        runner.run_config(raw, out)
        result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()
    result["env"] = _environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
