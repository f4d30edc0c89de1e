"""repro.resilience: seeded fault injection + containment campaigns.

The dependability half of the FlexOS story: the paper's isolation
backends differ not just in crossing cost but in *what happens when a
compartment misbehaves*.  This package makes that measurable:

- :mod:`repro.resilience.plan` — the :class:`InjectionPlan` DSL naming
  fault sites (gate crossings, heap exhaustion, wild writes, thread
  death, lost VM notifications) with seeded schedules;
- :mod:`repro.resilience.injector` — the :class:`FaultInjector` the
  machine consults at each hook site;
- :mod:`repro.resilience.engine` — the campaign engine: one loop,
  verdict matrix and CLI for every fault scenario;
- :mod:`repro.resilience.campaign` — the containment scenario (the
  site × backend containment matrix) and the recovery scenario, which
  crashes a durable redis deployment (power failures at the storage
  sites) and verifies that reboot + recovery restores every
  acknowledged write with no torn record surfacing.
"""

from repro.resilience.injector import FaultInjector, InjectionEvent, arm
from repro.resilience.plan import SITES, FaultSpec, InjectionPlan


def __getattr__(name: str):
    # Campaign names resolve lazily, so `python -m
    # repro.resilience.engine` does not import the engine twice (runpy
    # would warn).
    if name in __all__:
        from repro.resilience import campaign, engine

        return getattr(engine if hasattr(engine, name) else campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DEFAULT_BACKENDS",
    "DEFAULT_RECOVERY_SITES",
    "DEFAULT_SITES",
    "SITES",
    "CampaignResult",
    "FaultInjector",
    "FaultSpec",
    "InjectionEvent",
    "InjectionPlan",
    "Scenario",
    "arm",
    "containment_rate",
    "default_plan",
    "default_recovery_plan",
    "recovery_latencies",
    "run_campaign",
    "run_cell",
    "run_recovery_cell",
]
