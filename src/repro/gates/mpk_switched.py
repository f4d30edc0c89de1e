"""The MPK switched-stack gate (HODOR-like).

Heap, static memory *and stacks* are per-compartment.  Each crossing
switches to a per-thread stack owned by the target compartment, copies
the call's parameters onto it, and copies the return value back; stack
data that must be visible across the boundary is placed on the shared
heap.  Stronger isolation than the shared-stack gate at a higher
per-crossing cost — exactly the 1.4× vs 2.25× spread the paper's
Figure 5 measures for Redis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gates.base import GateOptions
from repro.gates.mpk_shared import MPKSharedStackGate

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class MPKSwitchedStackGate(MPKSharedStackGate):
    """MPK gate with per-compartment stacks and parameter copying."""

    KIND = "mpk-switched"

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        # Distribution of the per-crossing parameter copies — the cost
        # component that separates this gate from the shared-stack one
        # (created first: the crossing plan samples into it).
        self._copy_hist = machine.cpu.metrics.histogram("gate.arg_copy_bytes")
        super().__init__(machine, caller_lib, callee_lib, options)

    def _enter(self, fn: str, args: tuple) -> None:
        cpu = self.machine.cpu
        cost = self.machine.cost
        # Stack switch plus copying each parameter word to the target
        # compartment's stack.
        arg_bytes = max(1, len(args)) * self.options.word_bytes
        self._copy_hist.observe(arg_bytes)
        cpu.charge(
            cost.stack_switch_ns
            + cost.mem_op_ns
            + arg_bytes * cost.mem_byte_ns * 2  # read caller stack, write callee
        )
        cpu.bump("stack_switches")
        super()._enter(fn, args)

    def _exit(self) -> None:
        cpu = self.machine.cpu
        cost = self.machine.cost
        # Switch back and copy the return value to the caller's stack.
        cpu.charge(
            cost.stack_switch_ns
            + cost.mem_op_ns
            + self.options.word_bytes * cost.mem_byte_ns * 2
        )
        cpu.bump("stack_switches")
        super()._exit()

    def _compile_plan(self, plan) -> None:
        super()._compile_plan(plan)
        cost = self.machine.cost
        plan.copies = {}
        plan.copy_sample = self._copy_hist.values.append
        plan.exit_pre = (
            cost.stack_switch_ns
            + cost.mem_op_ns
            + self.options.word_bytes * cost.mem_byte_ns * 2,
        )
        plan.bumps = ("stack_switches",) + plan.bumps

    def _copy_row(self, nargs: int) -> tuple:
        """``plan.copies`` row: the copy-size sample and the entry
        charges (_enter's stack switch and copy, then the MPK entry)."""
        cost = self.machine.cost
        arg_bytes = max(1, nargs) * self.options.word_bytes
        copy_ns = (
            cost.stack_switch_ns + cost.mem_op_ns + arg_bytes * cost.mem_byte_ns * 2
        )
        plan = self._plan
        plan.copies[nargs] = row = (float(arg_bytes), (copy_ns,) + plan.enter_pre)
        return row
