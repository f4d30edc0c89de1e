"""The flexos-report CLI."""

import json

import pytest

from repro.core.config import BuildConfig
from repro.tools.report import config_from_args, main as report_main, report


def test_report_iperf_sections():
    config = BuildConfig(
        libraries=["libc", "netstack", "iperf"],
        compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
        backend="mpk-shared",
    )
    text = report(config, "iperf")
    assert "== Layout ==" in text
    assert "Mb/s simulated" in text
    assert "== Gate crossings" in text
    assert "mpk-shared" in text
    assert "== Simulated time by compartment ==" in text
    assert "== Memory ==" in text


def test_report_redis_latencies():
    config = BuildConfig(
        libraries=["libc", "netstack", "redis"],
        backend="none",
    )
    text = report(config, "redis")
    assert "Mreq/s" in text and "p99" in text


def test_report_unknown_workload():
    config = BuildConfig(libraries=["libc"])
    with pytest.raises(ValueError):
        report(config, "quake")


def test_cli_with_flags(capsys):
    assert (
        report_main(
            [
                "--libs",
                "libc,netstack,iperf",
                "--backend",
                "cheri",
                "--workload",
                "iperf",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "cheri" in out


def test_cli_with_json_config(tmp_path, capsys):
    config = BuildConfig(
        libraries=["libc", "netstack", "iperf"],
        compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
        backend="vm-rpc",
    )
    path = tmp_path / "build.json"
    path.write_text(json.dumps(config.to_dict()))
    assert report_main(["--config", str(path), "--workload", "iperf"]) == 0
    out = capsys.readouterr().out
    assert "vm-rpc" in out or "vm=" in out


def test_cli_json_output(capsys):
    assert (
        report_main(
            ["--libs", "libc,netstack,iperf", "--workload", "iperf", "--json"]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["workload"]["name"] == "iperf"
    assert data["workload"]["throughput_mbps"] > 0
    # The caller→callee crossing matrix comes straight from the
    # metrics registry.
    matrix = data["crossing_matrix"]
    assert matrix["iperf"]["netstack"] > 0
    assert data["metrics"]["counters"]["gate_crossings"] > 0
    assert data["time_by_compartment_ns"]


def test_cli_trace_output(tmp_path, capsys):
    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    assert (
        report_main(
            [
                "--libs",
                "libc,netstack,iperf",
                "--workload",
                "iperf",
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"trace written to {trace_path}" in out
    data = json.loads(trace_path.read_text())
    assert validate_chrome_trace(data) == []
    assert any(e.get("cat") == "gate" for e in data["traceEvents"])


def test_config_from_harden_flags():
    class Args:
        config = None
        libs = "libc,netstack,iperf"
        backend = "none"
        harden = ["netstack=asan+cfi"]

    config = config_from_args(Args())
    assert config.hardening == {"netstack": ("asan", "cfi")}


def test_render_text_campaign_matrices():
    from repro.tools.report import render_text

    data = {
        "layout": "flat",
        "workload": {"summary": "none"},
        "crossings": [],
        "time_by_compartment_ns": {},
        "memory": [],
        "resilience": {
            "matrix": {"wild-write": {"none": "propagated",
                                      "mpk-shared": "contained"}},
            "containment_rate": {"mpk-shared": 1.0, "none": 0.0},
        },
        "recovery": {
            "matrix": {"blk-torn-write": {"none": "recovered-state"}},
        },
        "cluster": {
            "snapshot": {
                "slots": {"s0": 32, "s1": 32},
                "epoch": 1,
                "shards": [],
                "replication_lag": {"samples": 0},
            },
            "matrix": {"stale-read": {"mpk-shared": "stale-read-window",
                                      "none": "not-triggered"}},
        },
    }
    lines = render_text(data).splitlines()
    for header, backends, row in (
        ("== Containment matrix (site x backend) ==",
         ["mpk-shared", "none"], ["wild-write", "contained", "propagated"]),
        ("== Recovery verdicts (site x backend) ==",
         ["none"], ["blk-torn-write", "recovered-state"]),
        ("== Cluster verdicts (site x backend) ==",
         ["mpk-shared", "none"],
         ["stale-read", "stale-read-window", "not-triggered"]),
    ):
        at = lines.index(header)
        assert lines[at + 1].split() == backends
        assert lines[at + 2].split() == row
    assert "  containment rate: mpk-shared=100%  none=0%" in lines
