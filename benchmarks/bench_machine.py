"""Simulation-core fast path: host wall-clock, fast vs slow toggle.

Not a figure from the paper — the measurement behind ISSUE 7's
optimisation of the simulator itself.  Two claims, both against the
``REPRO_FASTPATH`` toggle (identical machines, only translation caching
differs):

- **load/store microbenchmark** — checked accesses through the
  software TLB vs the per-page walk, across access sizes.  Small
  accesses win by skipping the walk/permission/PKRU re-checks; bulk
  accesses win again through the range cache (one probe + one slice
  per multi-page run).  The bulk point must clear **5x**.
- **end-to-end figures** — fig3-style iperf (MPK shared stacks),
  fig4-style redis under the SH suite, and fig5-style redis (MPK
  switched stacks), timed wall-clock under both toggles.

``--check`` additionally proves the optimisation invisible in
simulation: for every isolation profile (mpk-shared, mpk-switched,
vm-rpc/EPT, CHERI, SH-asan, SH-dfi) the fast and slow runs must
produce bit-identical clocks, counter snapshots, and application
numbers.  Full runs write ``benchmarks/BENCH_machine.json`` and
record the trajectory in ``benchmarks/results.json``.  Smoke runs are
reduced in size, so they never overwrite those committed full-run
artifacts: they write ``benchmarks/smoke/BENCH_machine.json``
(git-ignored) unless ``--json`` is given, and record no trajectory.
Runs standalone:

    PYTHONPATH=src python benchmarks/bench_machine.py --smoke --check
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import sys
import time

from repro import BuildConfig, build_image
from repro.apps import (
    make_get_payloads,
    make_set_payloads,
    run_iperf,
    run_redis_phase,
    start_redis,
)
from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SIZE

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_machine.json"
RESULTS_JSON = pathlib.Path(__file__).parent / "results.json"
#: Where smoke runs write their artifacts (git-ignored).
SMOKE_DIR = pathlib.Path(__file__).parent / "smoke"

#: Required speedup of the bulk load/store point (ISSUE 7 acceptance).
MICRO_BULK_FLOOR = 5.0
#: Required end-to-end speedup on the figure workloads (full runs only;
#: smoke runs are too short to time reliably).
E2E_FLOOR = 1.02

IPERF_LIBS = ["libc", "netstack", "iperf"]
REDIS_LIBS = ["libc", "netstack", "redis"]
IPERF_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]
REDIS_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "redis"]]
SH_SUITE = ("asan", "ubsan", "stackprotector", "cfi")


@contextlib.contextmanager
def _fastpath(enabled: bool):
    """Scope the machine fast path for images built inside the block."""
    saved = os.environ.get("REPRO_FASTPATH")
    os.environ["REPRO_FASTPATH"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_FASTPATH"]
        else:
            os.environ["REPRO_FASTPATH"] = saved


# --- load/store microbenchmark ----------------------------------------------


def _micro_run(fast: bool, size: int, iterations: int):
    """Time ``iterations`` store+load pairs; returns (wall_s, observables)."""
    machine = Machine(fastpath=fast)
    space = machine.new_address_space("bench")
    payload = b"\x5a" * size
    stride = max(size, 256)
    window = 8
    pages = (window * stride + size) // PAGE_SIZE + 2
    base = space.map_new(pages * PAGE_SIZE)
    machine.boot_context(space, label="bench")
    start = time.perf_counter()
    for index in range(iterations):
        vaddr = base + (index % window) * stride
        machine.store(vaddr, payload)
        machine.load(vaddr, size)
    wall = time.perf_counter() - start
    observables = (machine.cpu.clock_ns, tuple(sorted(machine.cpu.snapshot().items())))
    return wall, observables, machine.fastpath_stats()


def micro_matrix(smoke: bool) -> list[dict]:
    """Fast-vs-slow wall clock per access size, identical observables."""
    scale = 1 if smoke else 4
    cells = []
    for size, iterations in (
        (64, 4000 * scale),
        (4096, 2000 * scale),
        (65536, 400 * scale),
        (262144, 100 * scale),
    ):
        fast_wall = slow_wall = None
        for _ in range(3):  # best-of-3 against host noise
            wall_f, obs_f, stats = _micro_run(True, size, iterations)
            wall_s, obs_s, _ = _micro_run(False, size, iterations)
            assert obs_f == obs_s, f"observables diverged at size {size}"
            fast_wall = wall_f if fast_wall is None else min(fast_wall, wall_f)
            slow_wall = wall_s if slow_wall is None else min(slow_wall, wall_s)
        cells.append({
            "size_bytes": size,
            "iterations": iterations,
            "fast_wall_s": fast_wall,
            "slow_wall_s": slow_wall,
            "speedup": slow_wall / fast_wall,
            "fast_us_per_pair": fast_wall / iterations * 1e6,
            "slow_us_per_pair": slow_wall / iterations * 1e6,
            "tlb_hits": stats["tlb_hits"],
            "tlb_misses": stats["tlb_misses"],
        })
    return cells


# --- end-to-end figure workloads --------------------------------------------


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


E2E_WORKLOADS = {
    "fig3_iperf_mpk_shared": (_fig3_config, _drive_iperf),
    "fig4_redis_sh": (_fig4_config, _drive_redis),
    "fig5_redis_mpk_switched": (_fig5_config, _drive_redis),
}


def _e2e_once(config_factory, driver, fast: bool, smoke: bool):
    with _fastpath(fast):
        image = build_image(config_factory())
    start = time.perf_counter()
    numbers = driver(image, smoke)
    wall = time.perf_counter() - start
    snapshot = image.machine.cpu.snapshot()
    return wall, numbers, snapshot, image.machine.fastpath_stats()


def e2e_matrix(smoke: bool) -> list[dict]:
    cells = []
    for name, (config_factory, driver) in E2E_WORKLOADS.items():
        fast_wall = slow_wall = None
        rounds = 1 if smoke else 3
        for _ in range(rounds):
            wall_f, numbers_f, snap_f, stats = _e2e_once(
                config_factory, driver, True, smoke
            )
            wall_s, numbers_s, snap_s, _ = _e2e_once(
                config_factory, driver, False, smoke
            )
            # The toggle must be invisible in simulation.
            assert numbers_f == numbers_s, f"{name}: workload numbers diverged"
            assert snap_f == snap_s, f"{name}: counter snapshot diverged"
            fast_wall = wall_f if fast_wall is None else min(fast_wall, wall_f)
            slow_wall = wall_s if slow_wall is None else min(slow_wall, wall_s)
        hit_rate = stats["tlb_hits"] / max(
            1, stats["tlb_hits"] + stats["tlb_misses"]
        )
        cells.append({
            "workload": name,
            "fast_wall_s": fast_wall,
            "slow_wall_s": slow_wall,
            "speedup": slow_wall / fast_wall,
            "simulated": numbers_f,
            "tlb_hits": stats["tlb_hits"],
            "tlb_misses": stats["tlb_misses"],
            "tlb_hit_rate": hit_rate,
        })
    return cells


# --- bit-identity check across isolation profiles ---------------------------


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
        backend="none", hardening={"netstack": ("asan",)},
    ),
    "sh-dfi": lambda: BuildConfig(
        libraries=IPERF_LIBS, compartments=IPERF_COMPARTMENTS,
        backend="none", hardening={"netstack": ("dfi",)},
    ),
}


def check_profiles(smoke: bool) -> list[dict]:
    """Fast vs slow bit-identity for every isolation profile."""
    verdicts = []
    for name, config_factory in CHECK_PROFILES.items():
        _, numbers_f, snap_f, stats = _e2e_once(
            config_factory, _drive_iperf, True, smoke
        )
        _, numbers_s, snap_s, _ = _e2e_once(
            config_factory, _drive_iperf, False, smoke
        )
        assert numbers_f == numbers_s, f"{name}: workload numbers diverged"
        assert snap_f == snap_s, f"{name}: counter snapshot diverged"
        assert snap_f["clock_ns"] == snap_s["clock_ns"]
        verdicts.append({
            "profile": name,
            "identical": True,
            "clock_ns": snap_f["clock_ns"],
            "tlb_hits": stats["tlb_hits"],
            "tlb_misses": stats["tlb_misses"],
        })
    return verdicts


# --- orchestration -----------------------------------------------------------


def run(smoke: bool, check: bool) -> dict:
    micro = micro_matrix(smoke)
    e2e = e2e_matrix(smoke)
    payload = {
        "smoke": smoke,
        "microbench": micro,
        "end_to_end": e2e,
        "identity_checks": check_profiles(smoke) if check else None,
    }
    _check(payload)
    return payload


def _check(payload: dict) -> None:
    """The claims the numbers must support."""
    micro = payload["microbench"]
    # Every size must win; the bulk (range-cache) point must clear 5x.
    for cell in micro:
        assert cell["speedup"] > 1.0, (
            f"fast path slower at {cell['size_bytes']}B: "
            f"{cell['speedup']:.2f}x"
        )
    bulk_speedup = max(
        cell["speedup"] for cell in micro if cell["size_bytes"] >= 65536
    )
    assert bulk_speedup >= MICRO_BULK_FLOOR, (
        f"bulk load/store speedup {bulk_speedup:.2f}x "
        f"< required {MICRO_BULK_FLOOR}x"
    )
    # End-to-end: the fast path must actually help the figures (full
    # runs only; smoke runs are too short to time meaningfully).
    if not payload["smoke"]:
        for cell in payload["end_to_end"]:
            assert cell["speedup"] >= E2E_FLOOR, (
                f"{cell['workload']}: speedup {cell['speedup']:.2f}x "
                f"< required {E2E_FLOOR}x"
            )
    # The software TLB is actually doing the work on the figures.
    for cell in payload["end_to_end"]:
        assert cell["tlb_hit_rate"] > 0.5, cell["workload"]


def _record_trajectory(payload: dict) -> None:
    """Append the headline numbers to benchmarks/results.json."""
    data = {}
    if RESULTS_JSON.exists():
        data = json.loads(RESULTS_JSON.read_text())
    bulk_speedup = max(
        cell["speedup"]
        for cell in payload["microbench"]
        if cell["size_bytes"] >= 65536
    )
    small = min(payload["microbench"], key=lambda cell: cell["size_bytes"])
    data["Simulation-core fast path"] = {
        "smoke": payload["smoke"],
        "micro_small_speedup": round(small["speedup"], 2),
        "micro_bulk_speedup": round(bulk_speedup, 2),
        "end_to_end": {
            cell["workload"]: {
                "speedup": round(cell["speedup"], 2),
                "tlb_hit_rate": round(cell["tlb_hit_rate"], 4),
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
        "isolation profiles (mpk/ept/cheri/sh)",
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
    for cell in payload["microbench"]:
        print(
            f"micro {cell['size_bytes']:7d}B  "
            f"fast {cell['fast_us_per_pair']:8.2f} us/pair  "
            f"slow {cell['slow_us_per_pair']:8.2f} us/pair  "
            f"{cell['speedup']:5.2f}x"
        )
    for cell in payload["end_to_end"]:
        print(
            f"e2e  {cell['workload']:26s} {cell['speedup']:5.2f}x  "
            f"(tlb hit rate {cell['tlb_hit_rate']:.1%})"
        )
    if payload["identity_checks"]:
        profiles = ", ".join(
            verdict["profile"] for verdict in payload["identity_checks"]
        )
        print(f"identity verified (clock, counters, app numbers): {profiles}")
    print(f"wrote {out}")
    return 0


# --- pytest entry points (same helpers, bench-suite reporting) ---------------


def test_machine_fastpath_microbench(report):
    micro = micro_matrix(smoke=True)
    for cell in micro:
        report.row(
            "Machine fast path (us/pair, host)",
            f"{cell['size_bytes']:7d}B fast={cell['fast_us_per_pair']:8.2f} "
            f"slow={cell['slow_us_per_pair']:8.2f} {cell['speedup']:5.2f}x",
        )
        report.value(
            "machine", f"micro/{cell['size_bytes']}", cell["speedup"]
        )
    assert max(
        cell["speedup"] for cell in micro if cell["size_bytes"] >= 65536
    ) >= MICRO_BULK_FLOOR


def test_machine_fastpath_identity(report):
    verdicts = check_profiles(smoke=True)
    for verdict in verdicts:
        report.row(
            "Machine fast path identity",
            f"{verdict['profile']:13s} clock={verdict['clock_ns']:14.1f} "
            f"hits={verdict['tlb_hits']}",
        )
    assert len(verdicts) == len(CHECK_PROFILES)


if __name__ == "__main__":
    sys.exit(main())
