"""kunent benchmark: one closed-loop workload per run, one JSON result line.

    python3 benchmark/run.py --workload preset_eval --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; kunent is imported from ./src.
The run writes its input files under benchmark/out/ and removes them at
exit.  With --trace 0 the result holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, from passes that alternate
traced and untraced, and the spans are written to
benchmark/out/spans-<workload>.jsonl.gz.  End-to-end times are scaled to
the reference machine's speed (speed.py).  The line before the result is
a JSON record of the machine, the pinned BLAS thread count, the speed
scale, per-pass times and sample counts.  See benchmark/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5

# Seconds one pass takes on the reference machine (2-core Xeon, Python
# 3.11, numpy 2.4 with OpenBLAS at one thread).  A run makes
# round(--seconds / PASS_SECONDS) passes, at least MIN_PASSES, so the
# amount of work, and every count, is fixed by --seconds alone.
PASS_SECONDS = {
    "preset_eval": 2.2,
    "file_eval": 2.6,
    "family_scan": 7.0,
    "soundness_sweep": 2.0,
}
MIN_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "evals_per_s": "1/s",
}


def require_sources() -> None:
    if not (SRC / "kunent" / "__init__.py").is_file():
        raise SystemExit(f"error: no kunent sources at {SRC}")


def import_kunent():
    require_sources()
    sys.path.insert(0, str(SRC))
    import kunent
    import kunent.cli  # noqa: F401

    if Path(kunent.__file__).resolve().parent != SRC / "kunent":
        raise SystemExit(f"error: imported kunent from {kunent.__file__}, not {SRC}")
    return kunent


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def machine_block() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def setup_probe(args) -> None:
    """Child process: time `import kunent` plus one warm-up request."""
    start = perf_counter()
    kunent = import_kunent()
    imported = perf_counter() - start
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.passes, Path(args.workdir))
    start = perf_counter()
    workload.warmup(kunent)
    print(json.dumps({"setup_s": imported + perf_counter() - start}))


def measure_setup(args, passes: int, workdir: Path, speed) -> list[float]:
    """Set-up times of SETUP_PROBES child processes, with a speed sample around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--passes", str(passes),
           "--workdir", str(workdir)]
    samples = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    speed.sample()
    return samples


def run(args) -> None:
    require_sources()
    from speed import REFERENCE_S, REFERENCE_SETUP_S, SpeedProbe
    from workloads import WORKLOADS, Tally

    passes = passes_for(args.workload, args.seconds)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, passes, workdir)
    setup_speed, speed = SpeedProbe(REFERENCE_SETUP_S), SpeedProbe(REFERENCE_S)
    try:
        workload.prepare()
        setup = measure_setup(args, passes, workdir, setup_speed)
        kunent = import_kunent()
        workload.warmup(kunent)

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(kunent)
        tally = Tally()
        results, traced = [], []
        for p in range(passes):
            is_traced = tracer is not None and p % 2 == 0
            if tracer is not None:
                tracer.enabled = is_traced
            results.append(workload.run_pass(kunent, p, tally, tracer, speed.between))
            traced.append(is_traced)
        speed.sample()
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every timing is scaled to the reference machine's speed (speed.py).
    scale = speed.factor()
    walls = [scale * r.wall_s for r in results]
    latencies = [scale * t for r in results for t in r.latencies_s]
    setup_scaled = [setup_speed.factor() * t for t in setup]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_block(),
        "passes": passes,
        "requests_per_pass": len(results[0].latencies_s),
        "latency_samples": len(latencies),
        "pass_wall_s": walls,
        "setup_samples_s": setup_scaled,
        "unscaled_pass_wall_s": [r.wall_s for r in results],
        "unscaled_setup_samples_s": setup,
        "speed_samples": len(speed.durations),
        "speed_scale": scale,
        "setup_speed_scale": setup_speed.factor(),
        "false_certificates": tally.false_certs,
        "errors": tally.errors[:10],
    }
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "req_p50_ms": 1e3 * percentile(latencies, 50),
            "req_p90_ms": 1e3 * percentile(latencies, 90),
            "evals_per_s": statistics.median(r.evals / w for r, w in zip(results, walls)),
        }
        units = END_TO_END_UNITS
    else:
        from spans import LAYER_METRICS, layer_metrics

        on = [r for r, t in zip(results, traced) if t]
        metrics = layer_metrics(tracer.spans)
        metrics["criteria.false_certs"] = sum(r.false_certs for r in on)
        metrics["cli.out_kib"] = sum(r.out_bytes for r in on) / 1024
        metrics["trace.overhead_share"] = (
            statistics.median(w for w, t in zip(walls, traced) if t)
            / statistics.median(w for w, t in zip(walls, traced) if not t) - 1
        )
        units = LAYER_METRICS
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl.gz")
        detail["spans"] = len(tracer.spans)
        detail["traced_passes"] = len(on)

    print(json.dumps(detail))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
