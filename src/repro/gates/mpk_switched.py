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

    def _compile_plan(self, plan) -> None:
        # The MPK crossing, plus a stack switch on each side: on entry
        # with the parameter copy (``_copy_row``), on exit with the
        # copy of the return value back to the caller's stack.
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
        charges (the stack switch and parameter copy, then the MPK
        entry)."""
        cost = self.machine.cost
        # Each parameter word is read from the caller's stack and
        # written to the callee's.
        arg_bytes = max(1, nargs) * self.options.word_bytes
        copy_ns = (
            cost.stack_switch_ns + cost.mem_op_ns + arg_bytes * cost.mem_byte_ns * 2
        )
        plan = self._plan
        plan.copies[nargs] = row = (float(arg_bytes), (copy_ns,) + plan.enter_pre)
        return row
