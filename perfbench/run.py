"""Benchmark entry point: one workload per call, in a fresh process.

    python3 perfbench/run.py --workload score_100k|iris_cv|fit_n1000 \
        --seed N --seconds S --trace 0|1

``score_100k`` and ``iris_cv`` are the workloads of BENCHMARK.json;
``fit_n1000`` is kept for measuring the large-N training path by hand.

Run from the root of a checkout; the workload imports lmkad from the
checkout's ``src``.  The workload process gets one BLAS/OpenMP thread,
so ``iris_cv``'s two pool workers do not oversubscribe two cores, and a
temp dir inside the checkout (``.bench_tmp/``) for every file it
generates; the dir is removed afterwards.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  A human-readable summary comes first; the last
stdout line is the JSON result.  The full record (samples, environment)
goes to ``.bench_out/<workload>-seed<N>-trace<T>.json``, with the traced
run's spans beside it.  The exit code is 0 only when every output check
passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: a run must end within 180 s; leave room for the import probes and clean-up
CHILD_TIMEOUT_S = 165
IMPORT_PROBE = "import time; t = time.perf_counter(); import lmkad; print(time.perf_counter() - t)"

#: the name each workload's op_wall_s goes by in the summary
OP_NAMES = {"fit_n1000": "fit_s", "score_100k": "predict_s", "iris_cv": "cv_wall_s"}


def workload_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        "TMPDIR": str(tmp),
    })
    return env


def import_seconds(env: dict) -> float:
    """Time to import lmkad in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def run_workload(args, env: dict, tmp: Path) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload did not finish within {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:  # interrupted: take the pool workers down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(args, spec_metrics: list[dict], result: dict) -> list[str]:
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"correct {str(result['correct']).lower()}  attempted {attempted}  failed {failed}  "
        f"failed_frac {failed / attempted:.6g}",
    ]
    lines += [f"  mismatch: {m}" for m in result["mismatches"]]
    for m in spec_metrics:
        lines.append(f"  {m['name']:<30} {result['metrics'][m['name']]:.6g} {m['unit']}")
    samples = result["samples"].get("op_wall_s")
    if samples:
        q1, q2, q3 = quartiles(samples)
        alias = OP_NAMES[args.workload]
        lines.append(f"  {alias}: median {q2:.6g} s, quartiles {q1:.6g} / {q3:.6g} s, n={len(samples)}")
        if args.workload == "score_100k":
            rows = result["samples"]["rows_per_op"]
            lines.append(f"  score_rows_per_s: {rows / q2:.6g} rows/s (median call, {rows} rows)")
    env = result["env"]
    lines.append("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or fit_n1000 (run by hand)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lmkad" / "__init__.py").is_file():
        print(f"error: no lmkad sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    env = workload_env(tmp)
    try:
        # one import probe before the workload and one after, so they span its run
        probes = [] if args.trace else [import_seconds(env)]
        result = run_workload(args, env, tmp)
        probes += [] if args.trace else [import_seconds(env)]
        spans = tmp / "spans.csv"
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans.is_file():
            shutil.move(spans, out_dir / f"{stem}.spans.csv")
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = result["metrics"]
    import_s = statistics.median(probes) if probes else None
    if "setup_s" in metrics:
        metrics["setup_s"] += import_s
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = {m["name"] for m in spec_metrics} - set(metrics)
    if missing:
        print(f"error: workload did not report {sorted(missing)}", file=sys.stderr)
        return 1

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, import_s=import_s, import_probes_s=probes)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(summary(args, spec_metrics, result)))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
