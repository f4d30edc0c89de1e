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

from typing import TYPE_CHECKING

from repro.gates.base import Gate, GateOptions

if TYPE_CHECKING:
    from repro.libos.compartment import Compartment
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class MPKSharedStackGate(Gate):
    """Domain switch via PKRU write; stacks stay in a shared domain."""

    KIND = "mpk-shared"
    EXTRA_COUNTER = "mpk_crossings"

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        super().__init__(machine, caller_lib, callee_lib, options)
        self.callee_comp: "Compartment" = callee_lib.compartment

    def _switch_cost(self) -> float:
        cost = self.machine.cost
        ns = cost.gate_dispatch_ns
        if self.options.clear_registers:
            ns += cost.reg_clear_ns
        return ns

    def _enter(self, fn: str, args: tuple) -> None:
        cpu = self.machine.cpu
        cpu.charge(self._switch_cost())
        # Enter the callee's domain: push its context carrying the
        # caller's PKRU, then perform the (sealed) WRPKRU — gates are
        # the only code authorised to issue it.
        context = self.callee_comp.make_context(
            label=f"{self.callee_lib.NAME}.{fn}"
        )
        context.pkru = cpu.current.pkru
        cpu.push_context(context)
        cpu.wrpkru(self.callee_comp.pkru_value, cpu.gate_token())

    def _exit(self) -> None:
        cpu = self.machine.cpu
        cpu.pop_context()
        cost = self.machine.cost
        # WRPKRU back to the caller's domain value.
        cpu.wrpkru(cpu.current.pkru, cpu.gate_token())
        ns = cost.ret_ns
        if self.options.clear_registers:
            ns += cost.reg_clear_ns
        cpu.charge(ns)

    def _compile_plan(self, plan) -> None:
        # The same sums _enter/_exit compute per call, with cpu.wrpkru
        # unrolled: its charge, its counter and (the ``wrpkru`` flag)
        # its trace instant.  The gate holds the token by construction,
        # so the token check is the only elided step; it touches no
        # simulated state.  The exit's re-write of the caller's own
        # PKRU is a semantic no-op.
        cost = self.machine.cost
        exit_ns = cost.ret_ns
        if self.options.clear_registers:
            exit_ns += cost.reg_clear_ns
        plan.enter_pre = (self._switch_cost(),)
        plan.enter_post = (cost.wrpkru_ns,)
        plan.exit_post = (cost.wrpkru_ns,)
        plan.exit_tail = (exit_ns,)
        plan.bumps = ("wrpkru",)
        plan.wrpkru = True
