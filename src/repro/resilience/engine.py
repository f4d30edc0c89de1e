"""The campaign engine: seeded fault cells folded into a verdict matrix.

A *scenario* is one kind of fault campaign (``SCENARIOS``).  It plugs
in its default sites and backends, the severity order of its
verdicts, how each site's seeded schedules are derived, and a *cell*
function: one (site, backend, schedule) run returning a JSON-ready
dict whose ``verdict`` classifies what the fault did.  The engine owns
the loop, the site × backend matrix (most severe verdict across
schedules) and the CLI used by the CI smoke steps::

    python -m repro.resilience.engine --scenario containment \\
        --backends mpk-shared,vm-rpc --sites wild-write,vm-drop \\
        --schedules 1 --seed 7 --check wild-write
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
from typing import Any, Callable, Iterable

#: Scenario name → (module, attribute) defining it.  Imported on first
#: use, so a containment run never loads the cluster stack.
SCENARIOS = {
    "containment": ("repro.resilience.campaign", "CONTAINMENT"),
    "recovery": ("repro.resilience.campaign", "RECOVERY"),
    "cluster": ("repro.cluster.campaign", "SCENARIO"),
}


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One kind of campaign, as the engine sees it."""

    name: str
    #: Sites a campaign arms when none are named.
    sites: tuple[str, ...]
    #: Every site the scenario can arm (a superset of ``sites``).
    known_sites: tuple[str, ...]
    backends: tuple[str, ...]
    #: Verdict → rank; a matrix entry keeps its highest-ranked verdict.
    severity: dict[str, int]
    #: site → the verdicts that pass ``--check site``.
    passing: Callable[[str], Iterable[str]]
    #: (site, seed, k) → k schedules (seeds or plans) for ``cell``.
    derive: Callable[[str, int, int], Iterable[Any]]
    #: (backend, site, schedule, **options) → JSON-ready cell dict.
    cell: Callable[..., dict]
    #: Schedules per site when the caller names none.
    schedules: int = 2
    #: Cell options the scenario accepts, with their defaults.
    options: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Extra top-level fields for ``CampaignResult.to_dict``.
    summary: Callable[["CampaignResult"], dict] | None = None


def get_scenario(name: str) -> Scenario:
    module, attribute = SCENARIOS[name]
    return getattr(importlib.import_module(module), attribute)


@dataclasses.dataclass
class CampaignResult:
    """Every cell one campaign produced."""

    scenario: Scenario
    seed: int
    schedules: int
    cells: list[dict]
    #: The cell options the campaign ran with.
    options: dict[str, Any] = dataclasses.field(default_factory=dict)

    def matrix(self) -> dict[str, dict[str, str]]:
        """site → backend → worst verdict across schedules."""
        rank = self.scenario.severity
        table: dict[str, dict[str, str]] = {}
        for cell in self.cells:
            row = table.setdefault(cell["site"], {})
            previous = row.get(cell["backend"])
            if previous is None or rank[cell["verdict"]] > rank[previous]:
                row[cell["backend"]] = cell["verdict"]
        return table

    def to_dict(self) -> dict:
        summary = self.scenario.summary
        return {
            "seed": self.seed,
            "schedules": self.schedules,
            "matrix": self.matrix(),
            **(summary(self) if summary else {}),
            "cells": self.cells,
        }


def run_campaign(
    scenario: Scenario | str,
    backends: Iterable[str] | None = None,
    sites: Iterable[str] | None = None,
    schedules: int | None = None,
    seed: int = 0,
    **options,
) -> CampaignResult:
    """K seeded schedules per (site × backend) of one scenario.

    ``None`` selects the scenario's default backends, sites and
    schedule count; ``options`` override its cell options.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    options = {**scenario.options, **options}
    backends = scenario.backends if backends is None else tuple(backends)
    sites = scenario.sites if sites is None else tuple(sites)
    schedules = scenario.schedules if schedules is None else schedules
    cells = []
    for site in sites:
        for schedule in scenario.derive(site, seed, schedules):
            for backend in backends:
                cells.append(scenario.cell(backend, site, schedule, **options))
    return CampaignResult(scenario, seed, schedules, cells, options)


def _csv(text: str) -> tuple[str, ...]:
    return tuple(item for item in text.split(",") if item)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.engine",
        description="Run a seeded fault campaign; print its site x backend "
        "verdict matrix",
    )
    add = parser.add_argument
    add("--scenario", choices=tuple(SCENARIOS), default="containment")
    add("--backends", type=_csv, metavar="A,B", help="default: the scenario's")
    add("--sites", type=_csv, metavar="A,B", help="default: the scenario's")
    add("--schedules", type=int, help="seeded schedules per site")
    add("--seed", type=int, default=0)
    add("--json", metavar="FILE", help="write the result JSON ('-' = stdout)")
    add("--check", action="append", default=[], metavar="SITE",
        help="exit 1 unless every backend earns a passing verdict for SITE")
    add("--policy", choices=("propagate", "isolate", "restart-with-backoff"),
        help="containment: failure policy of every compartment")
    add("--sets", type=int, metavar="N",
        help="recovery, cluster: durable SETs per cell")
    add("--shards", type=int, metavar="N",
        help="cluster: shards in the initial cluster")
    args = parser.parse_args(argv)
    scenario = get_scenario(args.scenario)
    unknown = [
        site
        for site in (*(args.sites or ()), *args.check)
        if site not in scenario.known_sites
    ]
    if unknown:
        parser.error(
            f"unknown {scenario.name} site(s): {', '.join(unknown)} "
            f"(valid: {', '.join(scenario.known_sites)})"
        )
    options = {
        name: getattr(args, name)
        for name in ("policy", "sets", "shards")
        if getattr(args, name) is not None
    }
    for name in set(options) - set(scenario.options):
        parser.error(f"--{name} does not apply to scenario {scenario.name}")
    backends = args.backends or scenario.backends
    result = run_campaign(
        scenario, backends, args.sites, args.schedules, args.seed, **options
    )
    matrix = result.matrix()
    for site, row in matrix.items():
        for backend, verdict in row.items():
            print(f"{site:20s} x {backend:13s} -> {verdict}")
    if args.json:
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    failed = not result.cells
    if failed:
        print("ERROR: campaign produced no cells", file=sys.stderr)
    for site in args.check:
        passing = tuple(scenario.passing(site))
        for backend in backends:
            verdict = matrix.get(site, {}).get(backend)
            if verdict not in passing:
                print(
                    f"ERROR: {backend} at {site}: verdict {verdict!r}, "
                    f"expected {' or '.join(passing)}",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
