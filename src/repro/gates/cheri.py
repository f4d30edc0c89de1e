"""The capability gate: CHERI-style domain crossings with delegation.

Figure 2's gate menu includes capability hardware ("e.g. protection
keys, capabilities [CHERI]").  This backend isolates compartments by
*reachability* rather than page tags: code can only dereference memory
covered by the capabilities its context holds.  A crossing is a sealed
capability invocation — cheaper than an MPK WRPKRU pair — and the gate
**delegates** bounded capabilities for the call's pointer arguments,
revoked automatically when the crossing returns (the callee context is
popped with its grants).

Libraries describe delegations in ``CAP_GRANTS``: export name → tuple
of ``(pointer_index, size_index_or_fixed)`` pairs, where the second
element is either the index of the length argument or, if negative,
``-fixed_size``.  Exports without grant metadata still work: the callee
can then only reach its own memory plus the shared area.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gates.base import Gate, GateOptions
from repro.machine.faults import GateError

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class CHERIGate(Gate):
    """Capability invocation with per-call pointer delegation."""

    KIND = "cheri"
    EXTRA_COUNTER = "cheri_crossings"

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        super().__init__(machine, caller_lib, callee_lib, options)
        if callee_lib.compartment.capabilities is None:
            raise GateError(
                f"CHERIGate to {callee_lib.NAME}: compartment has no "
                f"capability set (build with backend='cheri')"
            )

    def _plan_ctx_label(self, fn: str) -> str:
        return f"cap:{self.callee_lib.NAME}.{fn}"

    def _grant(self, specs, args: tuple, capabilities) -> None:
        """Charge and install one call's delegations on ``capabilities``."""
        cpu = self.machine.cpu
        grant_ns = self.machine.cost.cheri_grant_ns
        counters = self._counters
        nargs = len(args)
        for pointer_index, size_spec in specs:
            if pointer_index >= nargs:
                continue
            addr = args[pointer_index]
            if not isinstance(addr, int):
                continue
            if size_spec < 0:
                size = -size_spec
            elif size_spec < nargs and isinstance(args[size_spec], int):
                size = args[size_spec]
            else:
                continue
            cpu.charge(grant_ns)
            capabilities.grant(addr, size)
            counters["cap_grants"] = counters.get("cap_grants", 0.0) + 1.0

    def _compile_plan(self, plan) -> None:
        # Entry: the sealed invocation, then the callee context with
        # capabilities derived for this call.  Exit: popping that
        # context revokes every delegated capability, then the return.
        # Grant specs are class-level static metadata: stash them on
        # the plan entries so the hooks never re-read the class dict.
        cost = self.machine.cost
        grants = self.callee_lib.CAP_GRANTS
        for fn, entry in plan.entries.items():
            entry.extra = tuple(grants.get(fn, ()))
        plan.enter_pre = (cost.cheri_crossing_ns,)
        plan.exit_post = (cost.cheri_crossing_ns + cost.ret_ns,)
        plan.enter_hook = self._plan_derive
        plan.op_hook = self._plan_grant

    def _plan_derive(self, entry, args: tuple):
        """Plan enter hook: the callee context's derived capabilities."""
        capabilities = self.callee_lib.compartment.capabilities.derive()
        if entry.extra:
            self._grant(entry.extra, args, capabilities)
        return capabilities

    def _plan_grant(self, entry, args: tuple) -> None:
        """Plan per-op hook: one batched op's delegations.

        A batched crossing (queue channel doorbell) enters the callee
        domain once with no per-call pointers; each drained submission
        then delegates its own bounded capabilities on the live
        context.  Grants accumulate over the batch and are revoked
        together when the batch context pops — the price of amortising
        the crossing is a batch-wide (rather than per-call) revocation
        epoch.
        """
        if entry.extra:
            self._grant(entry.extra, args, self.machine.cpu.current.capabilities)
