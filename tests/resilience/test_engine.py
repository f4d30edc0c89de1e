"""Campaign engine: pinned verdicts, site selection, CLI usage errors."""

import json
import pathlib

import pytest

from repro.resilience import DEFAULT_RECOVERY_SITES
from repro.resilience.engine import SCENARIOS, get_scenario, main

#: Matrix and per-cell (site, backend, seed, verdict, injected) of the
#: three CI campaign invocations, recorded before the campaigns shared
#: one engine.  Clocks and latencies are deliberately left out.
PINNED = json.loads(
    (pathlib.Path(__file__).parent / "campaign_verdicts.json").read_text()
)


def _run(argv, tmp_path) -> dict:
    out = tmp_path / "result.json"
    assert main(argv + ["--json", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_engine_reproduces_pinned_verdicts(scenario, tmp_path):
    pinned = PINNED[scenario]
    payload = _run(pinned["argv"].split(), tmp_path)
    assert payload["matrix"] == pinned["matrix"]
    cells = [
        [cell[key] for key in ("site", "backend", "seed", "verdict",
                               "injected")]
        for cell in payload["cells"]
    ]
    assert cells == pinned["cells"]


def test_scenarios_plug_in_consistently():
    for name in SCENARIOS:
        scenario = get_scenario(name)
        assert scenario.name == name
        assert set(scenario.sites) <= set(scenario.known_sites)
        for site in scenario.known_sites:
            assert set(scenario.passing(site)) <= set(scenario.severity)


def test_unknown_site_fails_before_any_build(monkeypatch, capsys):
    def no_build(config):
        raise AssertionError("an image was built")

    monkeypatch.setattr("repro.resilience.campaign.build_image", no_build)
    with pytest.raises(SystemExit) as exit_info:
        main(["--sites", "wild-write,meteor", "--schedules", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown containment site(s): meteor" in err
    for site in get_scenario("containment").known_sites:
        assert site in err


def test_unknown_check_site_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", "cluster", "--check", "wild-write"])
    assert exit_info.value.code == 2
    assert "unknown cluster site(s): wild-write" in capsys.readouterr().err


def test_option_of_another_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenario", "cluster", "--policy", "isolate"])
    assert exit_info.value.code == 2
    assert "--policy does not apply to scenario cluster" in (
        capsys.readouterr().err
    )


def test_sites_default_to_the_selected_scenario(tmp_path):
    payload = _run(
        ["--scenario", "recovery", "--backends", "none",
         "--schedules", "1", "--sets", "8"],
        tmp_path,
    )
    assert list(payload["matrix"]) == sorted(DEFAULT_RECOVERY_SITES)


def test_explicit_sites_are_the_ones_that_run(tmp_path):
    payload = _run(
        ["--scenario", "recovery", "--backends", "none",
         "--sites", "crash-mid-recovery,blk-torn-write",
         "--schedules", "1", "--sets", "8"],
        tmp_path,
    )
    assert [cell["site"] for cell in payload["cells"]] == [
        "crash-mid-recovery", "blk-torn-write"
    ]
