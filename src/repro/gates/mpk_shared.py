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
from repro.machine.cpu import Context

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
        # Fast-path constants: the same sums the slow path computes per
        # call, from the same (immutable) cost-model fields.
        self._switch_ns = self._switch_cost()
        self._wrpkru_ns = machine.cost.wrpkru_ns
        ns = machine.cost.ret_ns
        if self.options.clear_registers:
            ns += machine.cost.reg_clear_ns
        self._mpk_exit_ns = ns

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

    # --- crossing-plan fast path --------------------------------------------
    # Same charge/bump sequence as _enter/_exit with the WRPKRU inlined.
    # Its trace instant is the plan's ``tracer`` hook (recorded at the
    # same point as cpu.wrpkru records it, with the same value), and
    # the gate holds the token by construction, so the token identity
    # check is the only elided step — it touches no simulated state.

    def _enter_fast(self, entry, args, cpu) -> None:
        cpu.charge(self._switch_ns)
        comp = self.callee_comp
        ctx = self._ctx_pool
        if ctx is None:
            ctx = Context(
                address_space=comp.address_space,
                pkru=cpu._contexts[-1].pkru,
                profile=comp.profile,
                label=entry.ctx_label,
                capabilities=comp.capabilities,
            )
        else:
            self._ctx_pool = None
            ctx.label = entry.ctx_label
            ctx.pkru = cpu._contexts[-1].pkru
        cpu.push_context(ctx)
        cpu.charge(self._wrpkru_ns)
        counters = self._counters
        counters["wrpkru"] = counters.get("wrpkru", 0.0) + 1.0
        tracer = self._plan.tracer
        if tracer is not None:
            tracer.wrpkru(comp.pkru_value)
        ctx.pkru = comp.pkru_value

    def _exit_fast(self, entry, cpu) -> None:
        ctx = cpu.pop_context()
        if self._ctx_pool is None:
            self._ctx_pool = ctx
        cpu.charge(self._wrpkru_ns)
        counters = self._counters
        counters["wrpkru"] = counters.get("wrpkru", 0.0) + 1.0
        tracer = self._plan.tracer
        if tracer is not None:
            tracer.wrpkru(cpu._contexts[-1].pkru)
        # The slow path re-writes the caller context's own PKRU value —
        # a semantic no-op, so nothing to assign here.
        cpu.charge(self._mpk_exit_ns)
