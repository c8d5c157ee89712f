"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 0-9 [--workloads fit_n1000,iris_cv] \
        [--label NAME] [--against .bench_out/spread-OTHER.json]

Runs ``run.py`` once per (seed, workload), interleaving the workloads so
that slow drift on a shared machine hits all of them alike.  For each
end-to-end metric it prints the sample count, median, quartiles and the
quartile spread ``(q3 - q1) / median`` (``statistics.quantiles(n=4)``)
next to the metric's bound; ``--against`` adds each median's shift from
an earlier summary.  The summary is written to
``.bench_out/spread-<label>.json``.  Exits non-zero if any run failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="a range 'a-b' or a list 'a,b,c'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--label", default="latest")
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: run {wall:.1f} s, " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    previous = json.loads(args.against.read_text()) if args.against else {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict[str, dict]] = {}
    print(f"\n{'workload':<12} {'metric':<12} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'shift':>7}")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            entry = {"n": len(vals), "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            prev = previous.get(workload, {}).get(name)
            shift = (med - prev["median"]) / prev["median"] if prev else None
            summary.setdefault(workload, {})[name] = entry
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  WIDE"
            shift_text = f"{shift:+7.3f}" if shift is not None else "      -"
            print(f"{workload:<12} {name:<12} {len(vals):>3} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>7.3f} {bounds[name]:>6.3f} {shift_text}{flag}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spread-{args.label}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
