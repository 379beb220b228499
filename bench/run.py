"""Closed-loop benchmark of dynframes: one workload per process, one client.

    python3 bench/run.py --workload {bounds,design,recover,span} --seed N \
        --seconds S --trace {0,1}

Set-up is done SETUPS times and its median reported: each set-up builds
and validates the inputs, writes the input files and makes one warm-up
pass. Then whole passes over the task list run until S seconds of passes
have been timed. Every output, warm-up included, is checked against the
benchmark's own reference right after its task, outside the timed region,
and then dropped.

Times are reported at a reference host speed: each pass's and each
set-up's seconds are scaled by the rate of a calibration kernel run
alongside them (see ``hostspeed``). The unscaled figures are kept in the
run record.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` dynframes' public functions are wrapped, spans
are written to ``bench/out/`` and the result holds the per-layer metrics.
A record of the run (machine, numpy/BLAS configuration, every timing) is
written to ``bench/out/`` as well.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUPS = 3

# Layers that run only in set-up; their per-layer figures are per set-up,
# every other layer's are per timed pass.
SETUP_LAYERS = {"reconstruct.heat_cycle_operator"}


def layer_metrics() -> dict:
    """Per-layer metric name -> (layer, field, unit), from BENCHMARK.json.

    A name is ``<module>.<function>.<field>``; the field is ``calls``,
    ``self_ms`` or a work count read off the layer's spans.
    """
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for row in spec["per_layer"]:
        layer, field = row["name"].rsplit(".", 1)
        out[row["name"]] = (layer, field if field in ("calls", "self_ms") else "count",
                            row["unit"])
    return out


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Runs passes over a task list, checking each output as soon as it is timed.

    After each task the calibrator gets a tenth of that task's time, and then
    the output is checked and dropped, both outside the task's span; task
    times never include them.
    """

    def __init__(self, span, calibrator):
        self.span = span
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.errors = []

    def run_pass(self, tasks) -> tuple:
        """Returns (seconds of each task, whether each task returned)."""
        durations, returned = [], []
        with self.span("pass"):
            for task in tasks:
                with self.span("task"):
                    start = time.perf_counter()
                    try:
                        out = task.run()
                    except Exception:  # a failed operation is counted, not fatal
                        self.failed += 1
                        self.errors.append(f"{task.name}: {traceback.format_exc()}")
                        out = None
                    elapsed = time.perf_counter() - start
                self.attempted += 1
                self.calibrator.after(elapsed)
                durations.append(elapsed)
                returned.append(out is not None)
                if out is not None:
                    self.check(task, out)
                del out
        return durations, returned

    def check(self, task, out) -> None:
        try:
            task.check(out)
        except Exception:
            self.errors.append(f"check {task.name}: {traceback.format_exc()}")
            self.wrong = True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bounds", "design", "recover", "span"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dynframes" / "__init__.py").is_file():
        print(f"error: no dynframes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import dynframes  # noqa: F401  (import time is left out of every metric)
    import hostspeed
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runner = Runner(spans.tracing(tracer), hostspeed.Calibrator())

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}"
    workdir.mkdir(exist_ok=True)
    # (raw seconds, host speed factor) per task, grouped by set-up and by pass
    setups, passes, latencies = [], [], []
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        for _ in range(SETUPS):
            tasks = None  # drop the previous set-up's objects first
            with runner.span("setup"):
                start = time.perf_counter()
                tasks = workload.setup()
                build = time.perf_counter() - start
                runner.calibrator.after(build)
                durations, _ = runner.run_pass(tasks)
            setups.append(list(zip([build, *durations], runner.calibrator.take())))
        warmup = {"attempted": runner.attempted, "failed": runner.failed}
        runner.attempted = runner.failed = 0

        while sum(d for p in passes for d, _ in p) < args.seconds:
            durations, returned = runner.run_pass(tasks)
            timings = list(zip(durations, runner.calibrator.take()))
            passes.append(timings)
            latencies.extend(t for t, ok in zip(timings, returned) if ok)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def total(timings, scaled=True):
        return sum(d * f if scaled else d for d, f in timings)

    def typical_pass(scaled=True):
        """Each task's median time over the timed passes, summed over the task list."""
        return sum(statistics.median(d * f if scaled else d for d, f in column)
                   for column in zip(*passes))

    raw = {
        "tasks_per_s": len(tasks) / typical_pass(scaled=False),
        "task_p50_ms": statistics.median(d for d, _ in latencies) * 1e3,
        "setup_s": statistics.median(total(s, False) for s in setups),
    }
    end_to_end = {
        "tasks_per_s": {"value": len(tasks) / typical_pass(), "unit": "1/s"},
        "task_p50_ms": {"value": statistics.median(d * f for d, f in latencies) * 1e3,
                        "unit": "ms"},
        "setup_s": {"value": statistics.median(total(s) for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }
    metrics = end_to_end
    if args.trace:
        phases = {phase: tracer.layer_totals(phase) for phase in ("pass", "setup")}
        factors = {"pass": statistics.median(f for p in passes for _, f in p),
                   "setup": statistics.median(f for s in setups for _, f in s)}
        metrics = {}
        for metric, (layer, field, unit) in layer_metrics().items():
            phase = "setup" if layer in SETUP_LAYERS else "pass"
            totals, count = phases[phase]
            row = totals.get(layer)
            if row is None:
                value = 0.0
            elif field == "self_ms":
                value = row["self_s"] * 1e3 * factors[phase] / count
            else:
                value = row[field] / count
            metrics[metric] = {"value": value, "unit": unit}
        tracer.write(OUT / f"trace-{tag}.jsonl")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(np), "tasks_per_pass": len(tasks),
        "setups": setups, "passes": passes, "calibration": runner.calibrator.log,
        "warmup": warmup,
        "end_to_end": end_to_end, "unscaled": raw, "errors": runner.errors, "metrics": metrics,
    }
    with open(OUT / f"run-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for err in runner.errors:
        print(err, file=sys.stderr)

    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
