"""The MPK shared-stack gate (ERIM-like).

Heap and static memory are per-compartment (isolated by pkey); thread
stacks live in a domain shared by all compartments, so no stack switch
or argument copy is needed — the crossing is essentially two WRPKRU
instructions plus trampoline bookkeeping (and optional register
clearing).  Cheapest hardware-isolated gate; the trade-off is that any
compartment can read/write any thread's stack frames (the attack
surface ERIM accepts).
"""

from __future__ import annotations

from repro.gates.base import Gate


class MPKSharedStackGate(Gate):
    """Domain switch via PKRU write; stacks stay in a shared domain."""

    KIND = "mpk-shared"
    EXTRA_COUNTER = "mpk_crossings"

    def _compile_plan(self, plan) -> None:
        # Entry: the trampoline dispatch (plus register clearing), the
        # push of the callee context, then the sealed WRPKRU into the
        # callee's domain — gates are the only code authorised to issue
        # it, so the gate-token check of cpu.wrpkru always passes and
        # is left out.  Each WRPKRU is its charge, its counter and (the
        # ``wrpkru`` flag) its trace instant.  Exit: the pop, the
        # WRPKRU back to the caller's PKRU (which the caller's context
        # already holds), then the return (plus register clearing).
        cost = self.machine.cost
        enter_ns = cost.gate_dispatch_ns
        exit_ns = cost.ret_ns
        if self.options.clear_registers:
            enter_ns += cost.reg_clear_ns
            exit_ns += cost.reg_clear_ns
        plan.enter_pre = (enter_ns,)
        plan.enter_post = (cost.wrpkru_ns,)
        plan.exit_post = (cost.wrpkru_ns,)
        plan.exit_tail = (exit_ns,)
        plan.bumps = ("wrpkru",)
        plan.wrpkru = True
