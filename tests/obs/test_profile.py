"""WorkloadProfile capture, persistence, and invariants."""

import json

import pytest

from repro.apps import run_named_workload
from repro.core.builder import build_image
from repro.core.config import BuildConfig
from repro.obs import (
    ProfileError,
    WorkloadProfile,
    capture_profile,
)

LIBS = ["libc", "netstack", "redis"]


def _image(backend="mpk-shared", **overrides):
    return build_image(
        BuildConfig(libraries=LIBS, backend=backend, **overrides)
    )


def _captured(backend="mpk-shared", seed=None):
    image = _image(backend=backend)
    with capture_profile(image, "redis", seed=seed) as cap:
        run_named_workload(image, "redis")
    return cap.profile


def test_capture_records_run():
    profile = _captured()
    assert profile.workload == "redis"
    assert profile.backend == "mpk-shared"
    assert profile.libraries == LIBS
    assert profile.elapsed_ns > 0
    assert profile.total_crossings > 0
    assert profile.schema == 1
    # Edge rows are busiest-first, counts positive.
    counts = [row["crossings"] for row in profile.edges]
    assert counts == sorted(counts, reverse=True)
    assert all(count > 0 for count in counts)
    # The MPK boundary edges carry latency summaries.
    assert any("->" in edge for edge in profile.gate_latency_ns)
    for summary in profile.gate_latency_ns.values():
        assert summary["count"] > 0
        assert summary["p50"] > 0
    # CPU time lands on compartment domains, split into library shares.
    shares = profile.lib_cpu_time_ns()
    assert shares, "profiled run must attribute CPU time"
    assert set(shares) >= {"libc", "netstack", "redis"}
    assert profile.counters.get("gate_crossings", 0) > 0


def test_capture_window_is_a_delta():
    """Only in-window activity lands in the profile."""
    image = _image()
    # Warm-up outside the window: server start + one batch of SETs.
    run_named_workload(image, "redis", {"gets": 5})
    warm_crossings = image.machine.obs.metrics.counter("gate_crossings")
    assert warm_crossings > 0
    with capture_profile(image, "redis") as cap:
        pass  # empty window
    assert cap.profile.total_crossings == 0
    assert cap.profile.elapsed_ns == 0
    assert cap.profile.counters == {}
    assert cap.profile.gate_latency_ns == {}


def test_capture_folds_pending_memory_ops():
    """A load just before the window is counted in the baseline, not in
    the window: the capture reads counters with the CPU's deferred
    memory-op deltas folded in, at both ends."""
    image = _image()
    run_named_workload(image, "redis", {"gets": 5})
    lib = image.lib("redis")
    addr = lib.alloc_static(64)
    image.machine.cpu.push_context(lib.compartment.make_context())
    image.machine.load(addr, 8)
    with capture_profile(image, "redis") as cap:
        pass
    assert cap.profile.counters == {}
    with capture_profile(image, "redis") as cap:
        image.machine.load(addr, 8)
    assert cap.profile.counters == {"load_bytes": 8.0, "loads": 1.0}


def test_capture_restores_flags_and_leaves_no_open_spans():
    image = _image()
    cpu = image.machine.cpu
    metrics = image.machine.obs.metrics
    assert cpu.attribute_time is False
    assert metrics.record_edge_latency is False
    with capture_profile(image, "redis"):
        assert cpu.attribute_time is True
        assert metrics.record_edge_latency is True
        run_named_workload(image, "redis")
    assert cpu.attribute_time is False
    assert metrics.record_edge_latency is False
    # A profiled run leaves the tracer balanced: every span closed.
    assert image.machine.obs.tracer.open_spans() == []


def test_capture_exception_skips_profile():
    image = _image()
    with pytest.raises(RuntimeError):
        with capture_profile(image, "redis") as cap:
            raise RuntimeError("boom")
    assert cap.profile is None
    assert image.machine.obs.metrics.record_edge_latency is False


def test_roundtrip_and_hash(tmp_path):
    profile = _captured(seed=7)
    # dict round-trip
    clone = WorkloadProfile.from_dict(json.loads(json.dumps(profile.to_dict())))
    assert clone == profile
    assert clone.profile_hash() == profile.profile_hash()
    # file round-trip
    path = profile.save(tmp_path / "p.json")
    loaded = WorkloadProfile.load(path)
    assert loaded == profile
    assert loaded.seed == 7
    # hash is the canonical-JSON identity: 12 hex chars, stable
    assert len(profile.profile_hash()) == 12
    assert profile.dumps() == loaded.dumps()


def test_capture_is_deterministic():
    first = _captured()
    second = _captured()
    assert first.profile_hash() == second.profile_hash()
    assert first == second


def test_schema_version_is_enforced(tmp_path):
    profile = _captured()
    data = profile.to_dict()
    data["schema"] = 99
    with pytest.raises(ProfileError):
        WorkloadProfile.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ProfileError):
        WorkloadProfile.load(path)
    with pytest.raises(ProfileError):
        WorkloadProfile.from_dict({"workload": "redis"})


def test_profiling_on_vs_off_is_bit_identical():
    """The pipeline's foundation: capture charges zero simulated time."""
    plain_image = _image()
    plain = run_named_workload(plain_image, "redis")
    profiled_image = _image()
    with capture_profile(profiled_image, "redis"):
        profiled = run_named_workload(profiled_image, "redis")
    assert plain == profiled
    assert (
        plain_image.machine.cpu.clock_ns
        == profiled_image.machine.cpu.clock_ns
    )
    assert (
        plain_image.metrics_snapshot()["counters"]["gate_crossings"]
        == profiled_image.metrics_snapshot()["counters"]["gate_crossings"]
    )


def test_vm_rpc_retries_do_not_inflate_crossings():
    """A vm-rpc retry (dropped notification) and a duplicated
    notification are transport events, not extra crossings: the edge
    count must equal the number of calls made through the gate."""
    from repro.resilience import InjectionPlan, arm

    def crossings_into_netstack(plan):
        image = build_image(
            BuildConfig(
                libraries=["libc", "netstack", "iperf"],
                compartments=[
                    ["netstack"],
                    ["sched", "alloc", "libc", "iperf"],
                ],
                backend="vm-rpc",
                failure_policy="propagate",
            )
        )
        if plan is not None:
            arm(image, plan)
        stub = image.lib("iperf").stub("netstack")
        cpu = image.machine.cpu
        cpu.push_context(image.compartment_of("iperf").make_context("test"))
        with capture_profile(image, "probe") as cap:
            for _ in range(5):
                stub.call("net_stats")
        cpu.pop_context()
        stats = image.machine.cpu.stats
        matrix = cap.profile.crossing_matrix()
        return matrix["iperf"]["netstack"], stats

    clean, _ = crossings_into_netstack(None)
    assert clean == 5

    dropped, stats = crossings_into_netstack(
        InjectionPlan(seed=1).drop_vm_notify(nth=2)
    )
    assert stats["vm_rpc_retries"] >= 1
    assert dropped == 5, "a retried crossing must count once"

    duplicated, stats = crossings_into_netstack(
        InjectionPlan(seed=1).duplicate_vm_notify(nth=2)
    )
    assert stats["vm_rpc_duplicates"] >= 1
    assert duplicated == 5, "a duplicated notification must count once"


def test_crossing_matrix_matches_edges():
    profile = _captured()
    matrix = profile.crossing_matrix()
    total = sum(sum(row.values()) for row in matrix.values())
    assert total == profile.total_crossings
    for caller, callee, count in profile.edge_items():
        assert matrix[caller][callee] >= count or True
    # Same aggregation the registry reports for the live image.
    image = _image()
    with capture_profile(image, "redis") as cap:
        run_named_workload(image, "redis")
    assert cap.profile.crossing_matrix() == matrix


def test_lib_cpu_time_splits_compartment_time():
    profile = _captured()
    shares = profile.lib_cpu_time_ns()
    # Shares cover every library that ran and sum to the attributed time.
    assert pytest.approx(sum(shares.values())) == sum(
        profile.cpu_time_ns.values()
    )
    # Multi-member domains are split evenly among their members.
    for name, ns in profile.cpu_time_ns.items():
        members = name.split("+")
        for member in members:
            assert shares[member] >= ns / len(members) - 1e-9


def test_describe_is_human_readable():
    profile = _captured()
    text = profile.describe()
    assert profile.profile_hash() in text
    assert "redis" in text
    assert "->" in text
