"""The VM RPC gate: compartments in separate virtual machines.

The paper's toolchain "generates one VM image per compartment", with a
thin RPC layer over inter-VM notifications and a shared memory area
mapped at identical addresses in every VM.  A crossing therefore costs
two one-way notifications (call + return: event-channel signal, VM
exit/entry, remote dispatch) plus marshalling the argument words into
the shared area — microseconds instead of nanoseconds, which is why
Figure 3's VM-backend iperf only catches the baseline at ~32 KiB
buffers.  Strongest isolation: the callee VM simply has no mapping of
the caller's private pages.

The notification line is where transient faults live: a dropped
event-channel signal would hang a naive RPC layer forever.  This gate
therefore resends after a watchdog timeout with exponential backoff
(``GateOptions.rpc_max_retries`` / ``rpc_backoff_factor``,
``CostModel.vm_rpc_timeout_ns``) and discards duplicated signals by
sequence number — transient losses degrade into latency instead of
crashing the image; sustained loss surfaces as a typed
:class:`~repro.machine.faults.RPCTimeout`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gates.base import Gate, GateOptions
from repro.machine.faults import GateError, RPCTimeout

if TYPE_CHECKING:
    from repro.libos.compartment import Compartment
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class VMRPCGate(Gate):
    """Synchronous RPC between per-compartment VMs."""

    KIND = "vm-rpc"
    EXTRA_COUNTER = "vm_rpcs"

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        super().__init__(machine, caller_lib, callee_lib, options)
        self.callee_comp: "Compartment" = callee_lib.compartment
        if self.callee_comp.vm_domain is None:
            raise GateError(
                f"VMRPCGate to {callee_lib.NAME}: compartment has no VM domain"
            )
        #: Resilience accounting for this channel.
        self.retries = 0
        self.duplicates_discarded = 0

    def _plan_ctx_label(self, fn: str) -> str:
        return f"rpc:{self.callee_lib.NAME}.{fn}"

    def _notify(self, payload_bytes: int) -> None:
        """Send one notification, resending on loss until delivered.

        Every attempt charges the notify + copy cost; a lost attempt
        additionally charges the watchdog timeout (scaled by the
        exponential backoff factor) before the resend.  Exhausting the
        retry budget raises :class:`RPCTimeout` — a channel fault, not
        a compartment failure (see :mod:`repro.machine.faults`).
        """
        cpu = self.machine.cpu
        cost = self.machine.cost
        domain = self.callee_comp.vm_domain
        attempts = 0
        while True:
            cpu.charge(cost.vm_notify_ns + payload_bytes * cost.vm_copy_byte_ns)
            attempts += 1
            verdict = domain.notify(self.machine.injector)
            if verdict == "duplicated":
                # The signal arrived twice; the receiver discards the
                # spurious copy by sequence number.  Charge the extra
                # dispatch it wasted.
                self.duplicates_discarded += 1
                cpu.bump("vm_rpc_duplicates")
                cpu.charge(cost.vm_notify_ns)
                return
            if verdict != "dropped":
                return
            # Lost in flight: wait out the watchdog, back off, resend.
            if attempts > self.options.rpc_max_retries:
                cpu.bump("vm_rpc_timeouts")
                raise RPCTimeout(
                    f"{self.caller_lib.NAME}->{self.callee_lib.NAME}", attempts
                )
            self.retries += 1
            cpu.bump("vm_rpc_retries")
            cpu.charge(
                cost.vm_rpc_timeout_ns
                * self.options.rpc_backoff_factor ** (attempts - 1)
            )

    def _compile_plan(self, plan) -> None:
        # Entry: the call notification carrying the argument words,
        # then the callee context.  Exit: the pop, the return
        # notification carrying one word, then the return.  The
        # notifications, with their retry/duplicate machinery, are
        # _notify, called from the plan's hooks.
        plan.enter_hook = self._plan_call
        plan.exit_hook = self._plan_return
        plan.exit_tail = (self.machine.cost.ret_ns,)

    def _plan_call(self, entry, args: tuple):
        self._notify(max(1, len(args)) * self.options.word_bytes)
        return self.callee_comp.capabilities

    def _plan_return(self) -> None:
        self._notify(self.options.word_bytes)
