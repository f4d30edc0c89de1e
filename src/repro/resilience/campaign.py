"""The containment and recovery scenarios of the campaign engine.

Both run under :mod:`repro.resilience.engine`, which owns the
site × schedule × backend loop, the verdict matrix and the CLI.

**Containment** (``--scenario containment``) runs one workload cell
per (backend × fault site × seeded schedule): build an image, arm the
site's :class:`InjectionPlan`, drive an iperf transfer with a bounded
retry budget (the supervisor a production deployment would have), and
classify what the injected fault did:

- ``recovered``  — the fault fired and the workload still completed
  (VM-RPC retries absorbed it, or the failed compartment restarted);
- ``contained``  — the fault was stopped at a boundary (typed
  ``CompartmentFailure``/trap/reaped thread) but the workload did not
  finish within the retry budget;
- ``propagated`` — the fault silently corrupted another compartment's
  memory (a wild write landed) — the outcome isolation exists to
  prevent;
- ``not-triggered`` — the site never fired under this backend (e.g.
  VM notification faults on a non-VM backend).

**Recovery** (``--scenario recovery``) runs the durability variant:
a redis server journaling SET/DEL through a gate into the storage
compartment (``blk`` + ``kv``), power failures injected at the storage
sites (``blk-torn-write``, ``crash-mid-compaction``,
``crash-mid-recovery``), and a verdict per cell:

- ``recovered-state``  — after crash + reboot + recovery, every
  acknowledged (flushed) write reads back exactly, and no torn record
  surfaced (CRC framing discarded them);
- ``lost-acked-write`` — an acknowledged write is missing after
  recovery (the durability contract is broken);
- ``torn-surfaced``    — recovery exposed garbage bytes (a torn record
  escaped the CRC check) — the worst verdict;
- ``not-triggered``    — the armed fault never fired.

Everything is a pure function of the seed and the simulated machine,
so the same seed always yields the identical matrix.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core.builder import build_image
from repro.core.config import BuildConfig
from repro.machine.faults import MachineError, PowerFailure
from repro.resilience.engine import Scenario
from repro.resilience.injector import FaultInjector, arm
from repro.resilience.plan import InjectionPlan

#: Backends a campaign sweeps by default.
DEFAULT_BACKENDS = ("none", "mpk-shared", "mpk-switched", "vm-rpc", "cheri")
#: Fault sites a campaign arms by default.
DEFAULT_SITES = (
    "gate-crash",
    "wild-write",
    "alloc-exhaustion",
    "sched-kill",
    "vm-drop",
)
#: Severity order for aggregating schedule verdicts into a matrix cell.
_SEVERITY = {"not-triggered": 0, "recovered": 1, "contained": 2, "propagated": 3}

#: Workload shape: a small iperf transfer, netstack isolated from the
#: rest (the paper's Fig. 3 two-compartment split).
_LIBRARIES = ["libc", "netstack", "iperf"]
_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]
_BUFFER_SIZE = 1024
_TOTAL_BYTES = 32 * 1024


#: Site → its canonical single-fault plan, armed on a seeded plan.
_PLANS = {
    "gate-crash": lambda plan: plan.crash_crossing(callee="netstack", nth=4),
    # A hijacked netstack scribbles into the scheduler's pages — the
    # cross-compartment corruption isolation must stop.
    "wild-write": lambda plan: plan.wild_write(
        victim="sched", callee="netstack", nth=4
    ),
    "alloc-exhaustion": lambda plan: plan.exhaust_alloc(heap=None, nth=1),
    # The iperf thread gets few switch-ins under VM backends (it blocks
    # on whole rx batches), so keep the trigger early and the schedule
    # jitter tight or jittered schedules never fire.
    "sched-kill": lambda plan: plan.kill_thread(thread="iperf", nth=1, jitter=1),
    "vm-drop": lambda plan: plan.drop_vm_notify(nth=5),
    "vm-dup": lambda plan: plan.duplicate_vm_notify(nth=5),
}


def default_plan(site: str, seed: int) -> InjectionPlan:
    """The canonical single-fault plan for one site."""
    if site not in _PLANS:
        raise ValueError(f"unknown fault site {site!r}")
    return _PLANS[site](InjectionPlan(seed=seed))


def _revive(image) -> None:
    """Between attempts: wait out restart backoffs, respawn dead drivers.

    This is the supervisor half of ``restart-with-backoff``: the gate
    restarts a failed compartment on the next crossing once its
    deadline passes, so the supervisor merely advances simulated time
    to that deadline and respawns service threads that died with the
    failure.
    """
    cpu = image.machine.cpu
    for compartment in image.compartments:
        if (
            compartment.failed
            and compartment.failure_policy == "restart-with-backoff"
            and compartment.restart_at_ns > cpu.clock_ns
        ):
            cpu.charge(compartment.restart_at_ns - cpu.clock_ns)
    if image.has_lib("netstack"):
        alive = any(
            thread.name == "netstack-rx"
            for thread in image.scheduler.threads.values()
        )
        if not alive:
            image.start_network()


def _classify(
    injector: FaultInjector,
    completed: bool,
    failures: list[str],
    thread_failures: int,
) -> str:
    if injector.fired == 0:
        return "not-triggered"
    if not injector.probes_intact():
        return "propagated"
    if completed:
        return "recovered"
    stopped = (
        thread_failures > 0
        or any(event.outcome != "landed" for event in injector.events)
        or any(
            name.startswith(("CompartmentFailure", "RPCTimeout"))
            for name in failures
        )
    )
    return "contained" if stopped else "propagated"


def run_cell(
    backend: str,
    site: str,
    plan: InjectionPlan,
    policy: str = "restart-with-backoff",
    attempts: int = 4,
    total_bytes: int = _TOTAL_BYTES,
) -> dict:
    """One campaign cell: build, arm, drive, classify."""
    from repro.apps.workload import run_iperf

    config = BuildConfig(
        libraries=list(_LIBRARIES),
        compartments=[list(group) for group in _COMPARTMENTS],
        backend=backend,
        failure_policy=policy,
        name=f"resilience:{backend}:{site}",
    )
    image = build_image(config)
    injector = arm(image, plan)
    completed = False
    failures: list[str] = []
    first_failure_ns: float | None = None
    used_attempts = 0
    for attempt in range(attempts):
        used_attempts = attempt + 1
        if attempt:
            _revive(image)
        try:
            run_iperf(image, _BUFFER_SIZE, total_bytes)
            completed = True
            break
        except (MachineError, RuntimeError) as exc:
            if isinstance(exc, RuntimeError) and injector.fired == 0:
                # A stall with no injected fault is a harness bug, not
                # a containment result — surface it.
                raise
            failures.append(f"{type(exc).__name__}: {exc}")
            if first_failure_ns is None:
                first_failure_ns = image.clock_ns
    recovery_ns = (
        image.clock_ns - first_failure_ns
        if completed and first_failure_ns is not None
        else None
    )
    thread_failures = len(image.scheduler.thread_failures)
    verdict = _classify(injector, completed, failures, thread_failures)
    counters = image.machine.cpu.metrics.counter_values()
    cell = {
        "backend": backend,
        "site": site,
        "seed": plan.seed,
        "verdict": verdict,
        "completed": completed,
        "attempts": used_attempts,
        "injected": injector.fired,
        "events": [dataclasses.asdict(event) for event in injector.events],
        "failures": failures,
        "thread_failures": thread_failures,
        "contained": int(counters.get("resilience.contained", 0)),
        "restarts": int(counters.get("resilience.restarts", 0)),
        "vm_rpc_retries": int(counters.get("vm_rpc_retries", 0)),
        "recovery_ns": recovery_ns,
        "probes_intact": injector.probes_intact(),
    }
    injector.detach()
    try:
        image.shutdown()
    except MachineError:
        # Teardown of a deliberately-broken image may hit the same
        # failed compartment; the cell verdict is already recorded.
        pass
    return cell


def containment_rate(cells: list[dict], backend: str) -> float:
    """Fraction of triggered cells stopped (contained or recovered)."""
    triggered = [
        cell
        for cell in cells
        if cell["backend"] == backend and cell["verdict"] != "not-triggered"
    ]
    if not triggered:
        return 1.0
    stopped = [
        cell
        for cell in triggered
        if cell["verdict"] in ("contained", "recovered")
    ]
    return len(stopped) / len(triggered)


def recovery_latencies(cells: list[dict], backend: str) -> list[float]:
    """Recovery latencies (ns) of recovered cells with a retry."""
    return [
        cell["recovery_ns"]
        for cell in cells
        if cell["backend"] == backend and cell["recovery_ns"] is not None
    ]


def _containment_summary(result) -> dict:
    backends = sorted({cell["backend"] for cell in result.cells})
    return {
        "policy": result.options["policy"],
        "containment_rate": {
            backend: containment_rate(result.cells, backend)
            for backend in backends
        },
    }


CONTAINMENT = Scenario(
    name="containment",
    sites=DEFAULT_SITES,
    known_sites=tuple(_PLANS),
    backends=DEFAULT_BACKENDS,
    severity=_SEVERITY,
    passing=lambda site: ("contained", "recovered"),
    derive=lambda site, seed, k: default_plan(site, seed).schedules(k),
    cell=run_cell,
    options={"policy": "restart-with-backoff"},
    summary=_containment_summary,
)


# --- recovery scenario (durability under power failure) ---------------------

#: Severity order for aggregating recovery verdicts into a matrix cell.
_RECOVERY_SEVERITY = {
    "not-triggered": 0,
    "recovered-state": 1,
    "lost-acked-write": 2,
    "torn-surfaced": 3,
}

#: Workload shape: redis journaling into an isolated storage compartment.
_RECOVERY_LIBRARIES = ["libc", "netstack", "blk", "kv", "redis"]
_RECOVERY_COMPARTMENTS = [
    ["netstack"],
    ["blk", "kv"],
    ["sched", "alloc", "libc", "redis"],
]


#: Storage site → its canonical single-fault plan.
_RECOVERY_PLANS = {
    "blk-torn-write": lambda plan: plan.torn_blk_flush(nth=4),
    # Exactly one compaction runs per cell, so the trigger cannot
    # jitter past it.
    "crash-mid-compaction": lambda plan: plan.crash_compaction(nth=1, jitter=0),
    # The first recovery event is the initial open of the empty store;
    # crash the *post-power-cut* recovery scan instead.  A compacted
    # log may hold a single segment — one recovery event per reboot —
    # so the trigger cannot afford jitter.
    "crash-mid-recovery": lambda plan: plan.crash_recovery(nth=2, jitter=0),
}
#: Fault sites a recovery campaign arms by default: all of them.
DEFAULT_RECOVERY_SITES = tuple(_RECOVERY_PLANS)


def default_recovery_plan(site: str, seed: int) -> InjectionPlan:
    """The canonical single-fault plan for one storage site."""
    if site not in _RECOVERY_PLANS:
        raise ValueError(f"unknown recovery fault site {site!r}")
    return _RECOVERY_PLANS[site](InjectionPlan(seed=seed))


def _recovery_payloads(count: int) -> tuple[list[bytes], dict[bytes, bytes]]:
    """Deterministic SET requests plus the key → value ground truth."""
    requests: list[bytes] = []
    values: dict[bytes, bytes] = {}
    for index in range(count):
        key = b"rk%04d" % index
        value = (b"%04d" % (index % 10_000)) * 4
        values[key] = value
        requests.append(b"SET %s %d\n" % (key, len(value)) + value)
    return requests, values


def run_recovery_cell(
    backend: str,
    site: str,
    plan: InjectionPlan,
    sets: int = 40,
    attempts: int = 3,
) -> dict:
    """One recovery cell: run durable redis, crash, reboot, verify.

    The :class:`~repro.libos.blk.blkdev.DiskMedium` is the only state
    that survives: each reboot builds a fresh image around the same
    medium, re-attaches the same injector (its fire counters persist
    across reboots, so ``crash-mid-recovery`` can hit the scan *after*
    the crash), and replays recovery.
    """
    from repro.apps.workload import ClosedLoopSource, start_redis
    from repro.libos.blk.blkdev import DiskMedium

    medium = DiskMedium()
    injector = FaultInjector(plan)
    crash_rng = random.Random(plan.seed ^ 0x5EED)

    def build():
        config = BuildConfig(
            libraries=list(_RECOVERY_LIBRARIES),
            compartments=[list(group) for group in _RECOVERY_COMPARTMENTS],
            backend=backend,
            name=f"recovery:{backend}:{site}",
        )
        image = build_image(config)
        image.lib("blk").attach_medium(medium)
        injector.attach(image)
        return image

    def drop(image) -> None:
        """Tear an image down without simulating work (power is off)."""
        injector.detach()
        try:
            image.scheduler.kill_all()
        except MachineError:  # pragma: no cover - teardown best effort
            pass

    requests, values = _recovery_payloads(sets)
    failures: list[str] = []
    image = build()
    image.call("kv", "set_flush_policy", "every-write")
    app = start_redis(image)
    netstack = image.lib("netstack")
    source = ClosedLoopSource(
        app.PORT, requests, window=2, expect_prefix=b"+OK"
    )
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = source.sink
    crashed = False
    try:
        image.run(
            until=lambda: source.done,
            max_switches=400 * len(requests) + 40_000,
        )
        if not source.done:
            raise RuntimeError(
                f"redis workload stalled: {source.responses}/{source.total}"
            )
        # One explicit compaction per cell — the crash-mid-compaction
        # site's deterministic target.
        image.call("kv", "compact")
        image.call("kv", "sync")
    except PowerFailure as exc:
        failures.append(f"PowerFailure: {exc}")
        # Power is off: the write-back cache dies with the image; only
        # the medium (and whatever the injector tore onto it) remains.
        medium.generation += 1
        crashed = True
    #: Every SET acknowledged before the lights went out.  Responses
    #: are FIFO (closed loop), so the first N payloads were acked, and
    #: under flush policy ``every-write`` each ack implies a completed
    #: flush barrier.
    acked = dict(list(values.items())[: source.responses])
    drop(image)
    if not crashed:
        # The armed fault never cut power mid-run (e.g. the
        # crash-mid-recovery site): pull the plug ourselves so every
        # cell exercises reboot + recovery with a dirty cache.
        image.lib("blk").crash(crash_rng)

    recover_report = None
    torn_surfaced = False
    for _ in range(attempts):
        image = build()
        try:
            recover_report = image.call("redis", "recover")
            break
        except PowerFailure as exc:
            failures.append(f"PowerFailure: {exc}")
            medium.generation += 1
            drop(image)
        except MachineError as exc:
            # Anything other than a power cut during recovery means a
            # corrupt record escaped the CRC framing.
            failures.append(f"{type(exc).__name__}: {exc}")
            torn_surfaced = True
            drop(image)
            break

    lost: list[bytes] = []
    torn: list[bytes] = []
    kv_stats: dict = {}
    if recover_report is not None:
        app = image.lib("redis")
        for key, value in values.items():
            got = app.value_of(key)
            if key in acked:
                if got is None:
                    lost.append(key)
                elif got != value:
                    torn.append(key)
            elif got is not None and got != value:
                # An unacked write may legally persist (prefix
                # durability) — but only with the exact bytes sent.
                torn.append(key)
        kv_stats = image.call("kv", "kv_stats")
        drop(image)

    if torn_surfaced or torn:
        verdict = "torn-surfaced"
    elif recover_report is None or lost:
        verdict = "lost-acked-write"
    elif injector.fired == 0:
        verdict = "not-triggered"
    else:
        verdict = "recovered-state"
    return {
        "backend": backend,
        "site": site,
        "seed": plan.seed,
        "verdict": verdict,
        "acked": len(acked),
        "restored": (recover_report or {}).get("restored", 0),
        "recover_report": recover_report,
        "injected": injector.fired,
        "events": [dataclasses.asdict(event) for event in injector.events],
        "failures": failures,
        "lost_keys": [key.decode() for key in lost],
        "torn_keys": [key.decode() for key in torn],
        "generations": medium.generation,
        "torn_records_discarded": kv_stats.get("torn_records_discarded", 0),
    }


RECOVERY = Scenario(
    name="recovery",
    sites=DEFAULT_RECOVERY_SITES,
    known_sites=DEFAULT_RECOVERY_SITES,
    backends=DEFAULT_BACKENDS,
    severity=_RECOVERY_SEVERITY,
    passing=lambda site: ("recovered-state", "not-triggered"),
    derive=lambda site, seed, k: default_recovery_plan(site, seed).schedules(k),
    cell=run_recovery_cell,
    options={"sets": 40},
)
