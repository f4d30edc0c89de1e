"""Campaign driver: matrix shape, determinism, containment claims."""

import pytest

from repro.resilience import containment_rate, recovery_latencies
from repro.resilience.campaign import default_plan, run_cell
from repro.resilience.engine import main, run_campaign


def test_default_plans_cover_every_site():
    for site in ("gate-crash", "wild-write", "alloc-exhaustion",
                 "sched-kill", "vm-drop", "vm-dup"):
        plan = default_plan(site, seed=3)
        assert plan.specs, site
    with pytest.raises(ValueError):
        default_plan("meteor", seed=3)


def test_same_seed_same_matrix():
    def matrix():
        result = run_campaign(
            "containment",
            backends=("none", "mpk-shared"),
            sites=("gate-crash", "wild-write"),
            schedules=2,
            seed=42,
        )
        return result.matrix(), [
            (cell["verdict"], cell["injected"], cell["attempts"])
            for cell in result.cells
        ]

    assert matrix() == matrix()


def test_wild_write_contained_by_isolation_not_by_none():
    result = run_campaign(
        "containment",
        backends=("none", "mpk-shared", "vm-rpc"),
        sites=("wild-write",),
        schedules=1,
        seed=0,
    )
    row = result.matrix()["wild-write"]
    assert row["none"] == "propagated"
    assert row["mpk-shared"] in ("contained", "recovered")
    assert row["vm-rpc"] in ("contained", "recovered")
    assert containment_rate(result.cells, "none") == 0.0
    assert containment_rate(result.cells, "mpk-shared") == 1.0


def test_vm_transient_faults_recovered_by_retry():
    result = run_campaign(
        "containment",
        backends=("vm-rpc", "none"),
        sites=("vm-drop",),
        schedules=1,
        seed=0,
    )
    row = result.matrix()["vm-drop"]
    assert row["vm-rpc"] == "recovered"
    # The site simply cannot fire without a VM boundary.
    assert row["none"] == "not-triggered"


def test_cell_payload_is_json_ready():
    import json

    cell = run_cell("mpk-shared", "gate-crash", default_plan("gate-crash", 1))
    json.dumps(cell)  # must not raise
    assert cell["verdict"] in (
        "recovered", "contained", "propagated", "not-triggered"
    )
    assert cell["injected"] >= 1
    assert cell["events"]


def test_recovery_latency_recorded_when_retry_needed():
    result = run_campaign(
        "containment",
        backends=("mpk-shared",),
        sites=("gate-crash",),
        schedules=1,
        seed=0,
    )
    latencies = recovery_latencies(result.cells, "mpk-shared")
    assert latencies and all(value > 0 for value in latencies)


def test_cli_check_contained(capsys, tmp_path):
    out = tmp_path / "campaign.json"
    code = main([
        "--backends", "mpk-shared",
        "--sites", "wild-write",
        "--schedules", "1",
        "--check", "wild-write",
        "--json", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert "wild-write" in capsys.readouterr().out


def test_cli_check_contained_fails_for_none_backend(capsys):
    code = main([
        "--backends", "none",
        "--sites", "wild-write",
        "--schedules", "1",
        "--check", "wild-write",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "ERROR: none at wild-write: verdict 'propagated'" in err
    assert "expected contained or recovered" in err
