"""Crossing-plan fast path: host wall-clock per gate crossing, fast vs slow.

Not a figure from the paper — the measurement behind ISSUE 9's
optimisation of the simulator's gate crossings.  The ``REPRO_GATEPLAN``
toggle (default on) selects between the per-edge compiled
:class:`~repro.gates.plan.CrossingPlan` and the original
interpret-every-call path; both must produce bit-identical simulated
clocks and counters, so the only thing allowed to differ is host time.
Three claims:

- **per-crossing microbenchmark** — a sync ``invoke`` on an
  ``mpk-shared`` channel at batch 1 must be at least **2x** cheaper in
  host wall-clock with the plan than without (the other backends and
  the batched queue point are reported alongside);
- **end-to-end figures** — fig3-style iperf (MPK shared), fig4-style
  redis under SH hardening, and fig5-style redis (MPK switched), timed
  under both toggles and compared against the wall times recorded in
  ``benchmarks/BENCH_machine.json`` by the simulation-core pass;
- **identity** (``--check``) — for every isolation profile
  (mpk-shared, mpk-switched, vm-rpc/EPT, CHERI, SH-asan, SH-dfi, and
  an mpk-shared deployment with a batched queue edge) the fast and
  slow runs produce bit-identical clocks, counter snapshots, and
  application numbers.

Full runs write ``benchmarks/BENCH_fastpath.json`` and record the
trajectory in ``benchmarks/results.json``.  Smoke runs are reduced in
size, so they never overwrite those committed full-run artifacts: they
write ``benchmarks/smoke/BENCH_fastpath.json`` (git-ignored) unless
``--json`` is given, and record no trajectory.  Runs standalone:

    PYTHONPATH=src python benchmarks/bench_fastpath.py --smoke --check
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import time

from repro import BuildConfig, build_image
from repro.apps import (
    make_get_payloads,
    make_set_payloads,
    run_iperf,
    run_redis_phase,
    start_redis,
)
from repro.gates import GateOptions, make_channel
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export
from repro.machine.capabilities import base_capabilities
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_fastpath.json"
MACHINE_JSON = pathlib.Path(__file__).parent / "BENCH_machine.json"
RESULTS_JSON = pathlib.Path(__file__).parent / "results.json"
#: Where smoke runs write their artifacts (git-ignored).
SMOKE_DIR = pathlib.Path(__file__).parent / "smoke"

#: Required per-crossing speedup on mpk-shared at batch 1 (ISSUE 9).
CROSSING_FLOOR = 2.0
#: Required end-to-end fast-vs-slow speedup on the gate-heavy figures
#: (full runs only; smoke runs are too short to time reliably).
E2E_FLOOR = 1.02

IPERF_LIBS = ["libc", "netstack", "iperf"]
REDIS_LIBS = ["libc", "netstack", "redis"]
IPERF_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]
REDIS_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "redis"]]
SH_SUITE = ("asan", "ubsan", "stackprotector", "cfi")


@contextlib.contextmanager
def _gateplan(enabled: bool):
    """Scope the crossing-plan toggle for images built inside the block."""
    saved = os.environ.get("REPRO_GATEPLAN")
    os.environ["REPRO_GATEPLAN"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_GATEPLAN"]
        else:
            os.environ["REPRO_GATEPLAN"] = saved


# --- per-crossing microbenchmark ---------------------------------------------


class _Service(MicroLibrary):
    NAME = "svc"
    SPEC = "[Memory access] Read(Own); Write(Own)"

    @export
    def echo(self, value):
        return value


class _Caller(MicroLibrary):
    NAME = "caller"
    SPEC = "[Memory access] Read(Own); Write(Own)"


def _bench_world(backend: str, gateplan: bool):
    machine = Machine(gateplan=gateplan)
    linker = Linker()
    comp_a = Compartment(0, "svc-comp", machine)
    comp_b = Compartment(1, "caller-comp", machine)
    if backend == "vm-rpc":
        domain_a = machine.new_vm_domain("svc")
        comp_a.vm_domain = domain_a
        comp_a.address_space = domain_a.space
        domain_b = machine.new_vm_domain("caller")
        comp_b.vm_domain = domain_b
        comp_b.address_space = domain_b.space
    else:
        space = machine.new_address_space("main")
        comp_a.address_space = space
        comp_a.pkey = 1
        comp_a.pkru_value = pkru_for_keys(writable=[1, 14])
        comp_b.address_space = space
        comp_b.pkey = 2
        comp_b.pkru_value = pkru_for_keys(writable=[2, 14])
    if backend == "cheri":
        comp_a.capabilities = base_capabilities(comp_a, [])
        comp_b.capabilities = base_capabilities(comp_b, [])
    service = _Service()
    caller = _Caller()
    service.install(machine, comp_a, linker)
    caller.install(machine, comp_b, linker)
    return machine, service, caller


def _sync_run(backend: str, gateplan: bool, iterations: int):
    """Time ``iterations`` sync invokes; returns (wall_s, observables)."""
    machine, service, caller = _bench_world(backend, gateplan)
    channel = make_channel(backend, machine, caller, service)
    machine.cpu.push_context(caller.compartment.make_context("bench"))
    channel.invoke("echo", (0,))  # warm the plan / caches
    start = time.perf_counter()
    for index in range(iterations):
        channel.invoke("echo", (index,))
    wall = time.perf_counter() - start
    observables = (
        machine.cpu.clock_ns,
        tuple(sorted(machine.cpu.snapshot().items())),
    )
    return wall, observables, machine.fastpath_stats()["gateplan"]


def _queue_run(backend: str, gateplan: bool, iterations: int, batch: int):
    """Time batched submissions through a queue channel."""
    machine, service, caller = _bench_world(backend, gateplan)
    channel = make_channel(
        f"queue:{backend}",
        machine,
        caller,
        service,
        options=GateOptions(queue_batch=batch, queue_depth=max(batch, 64)),
    )
    machine.cpu.push_context(caller.compartment.make_context("bench"))
    start = time.perf_counter()
    for index in range(iterations):
        channel.submit("echo", index)
    channel.flush()
    channel.poll()
    wall = time.perf_counter() - start
    observables = (
        machine.cpu.clock_ns,
        tuple(sorted(machine.cpu.snapshot().items())),
    )
    return wall, observables, machine.fastpath_stats()["gateplan"]


def micro_matrix(smoke: bool) -> list[dict]:
    """Fast-vs-slow wall clock per backend, identical observables."""
    iterations = 4000 if smoke else 20000
    cells = []
    points = [
        ("mpk-shared", "sync", 1),
        ("mpk-switched", "sync", 1),
        ("vm-rpc", "sync", 1),
        ("cheri", "sync", 1),
        ("mpk-shared", "queue", 16),
    ]
    for backend, mode, batch in points:
        fast_wall = slow_wall = None
        stats = None
        for _ in range(3):  # best-of-3 against host noise
            if mode == "sync":
                wall_f, obs_f, stats = _sync_run(backend, True, iterations)
                wall_s, obs_s, _ = _sync_run(backend, False, iterations)
            else:
                wall_f, obs_f, stats = _queue_run(
                    backend, True, iterations, batch
                )
                wall_s, obs_s, _ = _queue_run(
                    backend, False, iterations, batch
                )
            assert obs_f == obs_s, f"observables diverged on {backend}/{mode}"
            fast_wall = wall_f if fast_wall is None else min(fast_wall, wall_f)
            slow_wall = wall_s if slow_wall is None else min(slow_wall, wall_s)
        cells.append({
            "backend": backend,
            "mode": mode,
            "batch": batch,
            "iterations": iterations,
            "fast_wall_s": fast_wall,
            "slow_wall_s": slow_wall,
            "speedup": slow_wall / fast_wall,
            "fast_us_per_crossing": fast_wall / iterations * 1e6,
            "slow_us_per_crossing": slow_wall / iterations * 1e6,
            "plan_hits": stats["plan_hits"],
        })
    return cells


# --- end-to-end figure workloads ---------------------------------------------


def _fig3_config() -> BuildConfig:
    return BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="mpk-shared",
    )


def _fig4_config() -> BuildConfig:
    return BuildConfig(
        libraries=REDIS_LIBS, compartments=REDIS_COMPARTMENTS,
        backend="none", hardening={"netstack": SH_SUITE},
    )


def _fig5_config() -> BuildConfig:
    return BuildConfig(
        libraries=REDIS_LIBS, compartments=REDIS_COMPARTMENTS,
        backend="mpk-switched",
    )


def _drive_iperf(image, smoke: bool) -> dict:
    total = 1 << 17 if smoke else 1 << 20
    result = run_iperf(image, 4096, total)
    return {"throughput_mbps": result.throughput_mbps,
            "elapsed_ns": result.elapsed_ns}


def _drive_redis(image, smoke: bool) -> dict:
    requests = 100 if smoke else 600
    start_redis(image)
    run_redis_phase(
        image, make_set_payloads(64, 500, keyspace=64),
        window=8, expect_prefix=b"+OK",
    )
    result = run_redis_phase(
        image, make_get_payloads(requests, keyspace=64), window=8,
    )
    return {"throughput_mbps": result.throughput_mbps,
            "elapsed_ns": result.elapsed_ns}


#: Keys match BENCH_machine.json's end_to_end cells so the two passes'
#: wall clocks can be compared run-over-run.
E2E_WORKLOADS = {
    "fig3_iperf_mpk_shared": (_fig3_config, _drive_iperf, True),
    "fig4_redis_sh": (_fig4_config, _drive_redis, False),
    "fig5_redis_mpk_switched": (_fig5_config, _drive_redis, True),
}


def _e2e_once(config_factory, driver, fast: bool, smoke: bool):
    with _gateplan(fast):
        image = build_image(config_factory())
    start = time.perf_counter()
    numbers = driver(image, smoke)
    wall = time.perf_counter() - start
    snapshot = image.machine.cpu.snapshot()
    counters = dict(image.machine.cpu.metrics.counter_values())
    return wall, numbers, snapshot, counters, image.machine.fastpath_stats()


def _machine_baseline(smoke: bool) -> dict:
    """fig3/4/5 wall clocks recorded by the simulation-core pass.

    Only a baseline run in the same mode counts: smoke and full runs
    drive different workload sizes, so their wall clocks do not compare.
    """
    path = SMOKE_DIR / MACHINE_JSON.name if smoke else MACHINE_JSON
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if data.get("smoke") != smoke:
        return {}
    return {
        cell["workload"]: cell["fast_wall_s"]
        for cell in data.get("end_to_end", [])
    }


def e2e_matrix(smoke: bool) -> list[dict]:
    baseline = _machine_baseline(smoke)
    cells = []
    for name, (config_factory, driver, gate_heavy) in E2E_WORKLOADS.items():
        fast_wall = slow_wall = None
        stats = None
        rounds = 1 if smoke else 3
        for _ in range(rounds):
            wall_f, numbers_f, snap_f, counters_f, stats = _e2e_once(
                config_factory, driver, True, smoke
            )
            wall_s, numbers_s, snap_s, counters_s, _ = _e2e_once(
                config_factory, driver, False, smoke
            )
            # The toggle must be invisible in simulation.
            assert numbers_f == numbers_s, f"{name}: workload numbers diverged"
            assert snap_f == snap_s, f"{name}: counter snapshot diverged"
            assert counters_f == counters_s, f"{name}: metrics diverged"
            fast_wall = wall_f if fast_wall is None else min(fast_wall, wall_f)
            slow_wall = wall_s if slow_wall is None else min(slow_wall, wall_s)
        plan = stats["gateplan"]
        cells.append({
            "workload": name,
            "gate_heavy": gate_heavy,
            "fast_wall_s": fast_wall,
            "slow_wall_s": slow_wall,
            "speedup": slow_wall / fast_wall,
            "simulated": numbers_f,
            "plan_hits": plan["plan_hits"],
            "plan_refreshes": plan["plan_refreshes"],
            # Wall clock the simulation-core bench recorded for the same
            # workload (its fast path on, the plans absent), or None
            # when no baseline of the same mode exists.
            "machine_baseline_wall_s": baseline.get(name),
        })
    return cells


# --- bit-identity check across isolation profiles ----------------------------


CHECK_PROFILES = {
    "mpk-shared": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="mpk-shared",
    ),
    "mpk-switched": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="mpk-switched",
    ),
    "vm-rpc": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="vm-rpc",
    ),
    "cheri": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="cheri",
    ),
    "sh-asan": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="mpk-shared", hardening={"netstack": ("asan",)},
    ),
    "sh-dfi": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="mpk-shared", hardening={"netstack": ("dfi",)},
    ),
    # Exercises the queue + wake-driven completion path under the toggle.
    "mpk-shared+queue": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="mpk-shared", queue_edges={"iperf->netstack": "batch:8"},
    ),
}


def check_profiles(smoke: bool) -> list[dict]:
    """Fast vs slow bit-identity for every isolation profile."""
    verdicts = []
    for name, config_factory in CHECK_PROFILES.items():
        _, numbers_f, snap_f, counters_f, stats = _e2e_once(
            config_factory, _drive_iperf, True, smoke
        )
        _, numbers_s, snap_s, counters_s, _ = _e2e_once(
            config_factory, _drive_iperf, False, smoke
        )
        assert numbers_f == numbers_s, f"{name}: workload numbers diverged"
        assert snap_f == snap_s, f"{name}: counter snapshot diverged"
        assert counters_f == counters_s, f"{name}: metrics diverged"
        assert snap_f["clock_ns"] == snap_s["clock_ns"]
        verdicts.append({
            "profile": name,
            "identical": True,
            "clock_ns": snap_f["clock_ns"],
            "plan_hits": stats["gateplan"]["plan_hits"],
        })
    return verdicts


# --- orchestration -----------------------------------------------------------


def run(smoke: bool, check: bool) -> dict:
    micro = micro_matrix(smoke)
    e2e = e2e_matrix(smoke)
    payload = {
        "smoke": smoke,
        "per_crossing": micro,
        "end_to_end": e2e,
        "identity_checks": check_profiles(smoke) if check else None,
    }
    _check(payload)
    return payload


def _check(payload: dict) -> None:
    """The claims the numbers must support."""
    micro = payload["per_crossing"]
    # Every sync backend must win; the headline mpk-shared batch-1
    # point must clear the 2x floor.
    for cell in micro:
        if cell["mode"] == "sync":
            assert cell["speedup"] > 1.0, (
                f"fast path slower on {cell['backend']}: "
                f"{cell['speedup']:.2f}x"
            )
        assert cell["plan_hits"] > 0, f"{cell['backend']}: plan never hit"
    headline = next(
        cell for cell in micro
        if cell["backend"] == "mpk-shared" and cell["mode"] == "sync"
    )
    assert headline["speedup"] >= CROSSING_FLOOR, (
        f"mpk-shared per-crossing speedup {headline['speedup']:.2f}x "
        f"< required {CROSSING_FLOOR}x"
    )
    # End-to-end: the plans must actually move the gate-heavy figures
    # (full runs only; smoke runs are too short to time meaningfully).
    if not payload["smoke"]:
        for cell in payload["end_to_end"]:
            if not cell["gate_heavy"]:
                continue
            assert cell["speedup"] >= E2E_FLOOR, (
                f"{cell['workload']}: speedup {cell['speedup']:.2f}x "
                f"< required {E2E_FLOOR}x"
            )
    # The plans are actually doing the work on the gate-heavy figures.
    for cell in payload["end_to_end"]:
        if cell["gate_heavy"]:
            assert cell["plan_hits"] > 0, cell["workload"]


def _record_trajectory(payload: dict) -> None:
    """Append the headline numbers to benchmarks/results.json."""
    data = {}
    if RESULTS_JSON.exists():
        data = json.loads(RESULTS_JSON.read_text())
    headline = next(
        cell for cell in payload["per_crossing"]
        if cell["backend"] == "mpk-shared" and cell["mode"] == "sync"
    )
    data["Crossing-plan fast path"] = {
        "smoke": payload["smoke"],
        "per_crossing_mpk_shared_speedup": round(headline["speedup"], 2),
        "per_crossing": {
            f"{cell['backend']}/{cell['mode']}": round(cell["speedup"], 2)
            for cell in payload["per_crossing"]
        },
        "end_to_end": {
            cell["workload"]: {
                "speedup": round(cell["speedup"], 2),
                "plan_hits": cell["plan_hits"],
            }
            for cell in payload["end_to_end"]
        },
        "identity_profiles_checked": [
            verdict["profile"]
            for verdict in payload["identity_checks"] or []
        ],
    }
    RESULTS_JSON.write_text(json.dumps(data, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes for CI (same matrix shape, same identity "
        "assertions, no end-to-end wall-clock floor)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also verify fast-vs-slow bit-identity across all "
        "isolation profiles (mpk/ept/cheri/sh/queue)",
    )
    parser.add_argument(
        "--json",
        help=f"output path (default {BENCH_JSON.name}, or "
        f"smoke/{BENCH_JSON.name} with --smoke)",
    )
    options = parser.parse_args(argv)
    payload = run(smoke=options.smoke, check=options.check)
    default = SMOKE_DIR / BENCH_JSON.name if options.smoke else BENCH_JSON
    out = pathlib.Path(options.json or default)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    if not options.smoke:
        _record_trajectory(payload)
    for cell in payload["per_crossing"]:
        print(
            f"crossing {cell['backend']:14s} {cell['mode']:5s} "
            f"fast {cell['fast_us_per_crossing']:8.3f} us  "
            f"slow {cell['slow_us_per_crossing']:8.3f} us  "
            f"{cell['speedup']:5.2f}x"
        )
    for cell in payload["end_to_end"]:
        baseline = cell["machine_baseline_wall_s"]
        versus = (
            f"  vs core-pass {baseline:.3f}s" if baseline is not None else ""
        )
        print(
            f"e2e  {cell['workload']:26s} {cell['speedup']:5.2f}x  "
            f"(plan hits {cell['plan_hits']}){versus}"
        )
    if payload["identity_checks"]:
        profiles = ", ".join(
            verdict["profile"] for verdict in payload["identity_checks"]
        )
        print(f"identity verified (clock, counters, app numbers): {profiles}")
    print(f"wrote {out}")
    return 0


# --- pytest entry points (same helpers, bench-suite reporting) ---------------


def test_crossing_fastpath_microbench(report):
    micro = micro_matrix(smoke=True)
    for cell in micro:
        report.row(
            "Crossing fast path (us/crossing, host)",
            f"{cell['backend']:14s} {cell['mode']:5s} "
            f"fast={cell['fast_us_per_crossing']:8.3f} "
            f"slow={cell['slow_us_per_crossing']:8.3f} "
            f"{cell['speedup']:5.2f}x",
        )
        report.value(
            "fastpath", f"crossing/{cell['backend']}/{cell['mode']}",
            cell["speedup"],
        )
    headline = next(
        cell for cell in micro
        if cell["backend"] == "mpk-shared" and cell["mode"] == "sync"
    )
    assert headline["speedup"] >= CROSSING_FLOOR


def test_crossing_fastpath_identity(report):
    verdicts = check_profiles(smoke=True)
    for verdict in verdicts:
        report.row(
            "Crossing fast path identity",
            f"{verdict['profile']:20s} clock={verdict['clock_ns']:.0f}ns "
            f"plan_hits={verdict['plan_hits']}",
        )
    assert all(verdict["identical"] for verdict in verdicts)


if __name__ == "__main__":
    raise SystemExit(main())
