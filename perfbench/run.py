"""Benchmark of the FlexOS simulator: host cost and simulated results.

Run one workload, or all four, each in a fresh interpreter::

    python3 perfbench/run.py --workload redis-mpk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics from untraced rounds;
``--trace 1`` reports the per-layer metrics from a run under
``cProfile``.  Every metric is printed by name with its unit, each
result is appended to ``perfbench/out/results.jsonl`` (schema
``perfbench.result/1``), and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when any output was wrong, any simulated result
failed to repeat, or the workload could not run.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out" / "results.jsonl"
SCHEMA = "perfbench.result/1"
WORKLOADS = ("redis-mpk", "iperf-stream", "cluster-repl", "redis-obs")
#: A workload process that runs longer than this is killed.
TIMEOUT_S = 170

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "host_ops_s": "1/s",
    "host_mib_s": "MiB/s",
    "peak_rss_mib": "MiB",
    "sim_mreq_s": "Mreq/s",
    "sim_mbps": "Mb/s",
}
#: Printed and recorded beside the end-to-end metrics, but not part of
#: the result line: latencies exist only where the client records
#: them (the redis workloads), and the error rate is 0 on a correct run.
EXTRA_UNITS = {"sim_p50_us": "us", "sim_p99_us": "us", "error_rate": "fraction"}


def _layer_unit(name: str) -> str:
    # Per-layer times in ms and us are simulated, not host, time.
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "sim_ms"
    if name.endswith("_us"):
        return "sim_us"
    if name.endswith("_per_op"):
        return "1/op"
    if name.endswith("_x"):
        return "x"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def source_digest() -> str:
    """Hash of the simulator and benchmark sources (determinism key)."""
    digest = hashlib.sha256()
    for root in (SRC / "repro", HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run ``harness.py`` for one workload in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Set and dict iteration orders must not vary between processes.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"workload": name, "error": f"timed out after {TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"workload": name, "error": f"no result (exit code {done.returncode})"}
    # A run whose checks failed exits non-zero but still reports.
    if done.returncode != 0 and "error" not in result and not result.get("failed"):
        result["error"] = f"exit code {done.returncode}"
    return result


def check_repeat(record: dict) -> str | None:
    """Compare simulated results with earlier runs of the same seed and code."""
    if not OUT.exists():
        return None
    for line in OUT.read_text().splitlines():
        earlier = json.loads(line)
        same_run = all(
            earlier.get(key) == record[key] for key in ("schema", "workload", "seed", "source")
        )
        if same_run and earlier.get("sim") != record["sim"]:
            return f"simulated results differ from an earlier run: {earlier['sim']} vs {record['sim']}"
    return None


def metrics_of(result: dict, trace: int) -> dict[str, dict]:
    if trace:
        values = result["layer"]
        return {name: {"value": values[name], "unit": _layer_unit(name)} for name in values}
    values = {**result["host"], **result["sim"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(name: str, result: dict, metrics: dict) -> None:
    print(f"== {name}: {result.get('rounds', 0)} rounds", end="")
    if "traced_rounds" in result:
        print(f" untraced, {result['traced_rounds']} traced", end="")
    print()
    extra = {key: result["sim"][key] for key in ("sim_p50_us", "sim_p99_us") if key in result["sim"]}
    extra["error_rate"] = result["failed"] / max(1, result["attempted"])
    rows = list(metrics.items()) + [
        (key, {"value": value, "unit": EXTRA_UNITS[key]}) for key, value in extra.items()
    ]
    for metric, row in rows:
        print(f"   {metric:28s} {row['value']:>16.6g} {row['unit']}")
    if "wall" in result:
        wall = result["wall"]
        print(
            f"   (unscaled: setup {wall['setup_s']:.4g} s, {wall['host_ops_s']:.6g} ops/s;"
            f" this host took {wall['time_factor']:.3f}x the reference host's time)"
        )
    for check in result.get("checks", []):
        print(f"   ok: {check}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    source = source_digest()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if "error" in result:
            print(f"== {name}: FAILED: {result['error']}", file=sys.stderr)
            summary["correct"] = False
            summary["failed"] += 1
            summary["attempted"] += 1
            continue
        record = {
            "schema": SCHEMA,
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "source": source,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **{key: result[key] for key in ("rounds", "attempted", "failed", "sim", "checks")},
            **{key: result[key] for key in ("host", "wall", "layer") if key in result},
        }
        mismatch = check_repeat(record)
        if mismatch:
            print(f"== {name}: FAILED: {mismatch}", file=sys.stderr)
            summary["correct"] = False
            result["failed"] += 1
        OUT.parent.mkdir(exist_ok=True)
        with OUT.open("a") as out:
            out.write(json.dumps(record) + "\n")
        metrics = metrics_of(result, args.trace)
        report(name, result, metrics)
        summary["correct"] &= result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + key: row for key, row in metrics.items()})
    if summary["correct"] or summary["metrics"]:
        print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
