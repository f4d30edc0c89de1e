"""No-hardware-isolation channels: plain function calls.

:class:`DirectChannel` serves edges whose endpoints share a compartment
— FlexOS's builder "will replace the call gates with direct function
calls" in that case.  It still enforces the export surface and
caller-side instrumentation, but performs no switch of any kind.

:class:`ProfileChannel` serves *cross-compartment* edges when the
isolation backend is "none": there is no protection-domain switch (and
no switch cost), but the callee's code was compiled with the callee
compartment's hardening, so the instrumentation profile must follow the
code — software hardening is a property of the compartment's binary,
not of the calling thread.
"""

from __future__ import annotations

from repro.gates.base import Gate


class DirectChannel(Gate):
    """Same-compartment call: entry checks, no protection switch."""

    KIND = "direct"
    #: Not a compartment boundary: counts as a direct call, never as a
    #: gate crossing.
    IS_BOUNDARY = False
    EXTRA_COUNTER = "direct_calls"

    def _compile_plan(self, plan) -> None:
        # The caller's context stays: only the return is charged.
        plan.push = False
        plan.exit_tail = (self._ret_ns,)


class ProfileChannel(Gate):
    """Cross-compartment call without hardware isolation.

    Costs the same as a direct call but carries the callee
    compartment's instrumentation profile (so e.g. an ASAN-hardened
    LibC pays ASAN costs for its own code even when called from an
    unhardened application compartment).
    """

    KIND = "profile"
    #: A compartment boundary (just without a hardware switch): counts
    #: toward ``gate_crossings`` like every other backend, keeping the
    #: historical ``direct_calls`` counter for its call cost class.
    EXTRA_COUNTER = "direct_calls"

    def _compile_plan(self, plan) -> None:
        # The callee compartment's context (carrying its profile) is
        # pushed and popped; only the return is charged.
        plan.exit_post = (self._ret_ns,)
