"""Gate base machinery: the Channel ABC and caller-side instrumentation.

Every gate (and the direct-call channel) enforces the micro-library API
surface: only exported functions can be invoked, so "code execution
starts only at well-defined entry points" regardless of backend.  The
caller side charges the caller profile's per-call instrumentation
(stack protector, SafeStack) and runs its call monitors (CFI target
checks) — hardening travels with the *calling* compartment's code, not
with the channel.

Boundary gates are also the containment line of the fault model (see
:mod:`repro.machine.faults`): a containable fault escaping the callee
is translated into :class:`CompartmentFailure` when the callee
compartment's failure policy asks for it, and crossings into a failed
compartment fail fast (``isolate``) or revive it after its backoff
deadline (``restart-with-backoff``).

:class:`Channel` is the interface every inter-library channel
implements — sync (``invoke``/``invoke_gen``) *and* async
(``submit``/``poll``/``flush``).  Sync-only channels inherit a default
``submit`` that degrades to one crossing per operation, so callers
written against the async surface run unchanged on every backend; the
queue channel (:mod:`repro.gates.queue`) overrides it to batch many
submissions into one doorbell crossing.

Construct channels through :func:`repro.gates.registry.make_channel`;
direct gate instantiation raises :class:`GateError`.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Generator

from repro.libos.sched.base import WaitFlush
from repro.machine.cpu import Context
from repro.machine.faults import (
    CONTAINABLE_FAULTS,
    CompartmentFailure,
    GateError,
    RPCTimeout,
)

if TYPE_CHECKING:
    from repro.libos.compartment import Compartment
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


@dataclasses.dataclass
class GateOptions:
    """Per-gate security/performance knobs (paper Fig. 2 menu)."""

    #: Clear scratch registers on domain switches (prevents data leaks
    #: through registers at a small per-crossing cost).
    clear_registers: bool = True
    #: Bytes charged for copying one argument/return value.
    word_bytes: int = 8
    #: Wrap boundary channels in API guards (paper §5 precondition +
    #: pointer checks).  Applied by :func:`make_channel`; guards are
    #: never generated for same-compartment direct channels.
    api_guards: bool = False
    #: (start, end) ranges pointer arguments may legitimately reference
    #: besides the caller's own memory (the shared heap); consulted by
    #: the API guards.
    shared_ranges: tuple[tuple[int, int], ...] = ()
    #: VM-RPC only: notifications sent before the gate gives up on a
    #: lossy event channel and raises ``RPCTimeout``.
    rpc_max_retries: int = 3
    #: VM-RPC only: multiplier on the timeout charged per retry
    #: (exponential backoff).
    rpc_backoff_factor: float = 2.0
    #: Queue channels only: submission/completion ring capacity
    #: (entries).  A full ring forces a flush.
    queue_depth: int = 64
    #: Queue channels only: auto-flush (ring the doorbell) once this
    #: many submissions are pending.
    queue_batch: int = 8
    #: Queue channels only: flush-latency bound — the oldest pending
    #: submission is never delayed past this many simulated ns (0
    #: disables the deadline; flushes happen on batch/explicit/sync
    #: boundaries only).
    queue_max_delay_ns: float = 0.0


#: Set while :func:`repro.gates.registry.make_channel` constructs a
#: gate; direct instantiation outside the factory raises GateError.
#: Thread-local because images are built concurrently (measure_many's
#: pool).
_FACTORY = threading.local()


def _require_factory(cls: type) -> None:
    """The factory guard: channels exist only via make_channel."""
    if not getattr(_FACTORY, "active", False):
        raise GateError(
            f"direct instantiation of {cls.__name__} is not supported; "
            "construct channels via repro.gates.make_channel(kind, ...)"
        )


class _PlanEntry:
    """One export's precompiled crossing state (see :class:`CrossingPlan`).

    ``extra`` is backend payload — e.g. the CHERI gate stashes the
    export's ``CAP_GRANTS`` specs so a crossing never re-reads the
    class dict.
    """

    __slots__ = ("fn", "handler", "blocking", "ctx_label", "span", "extra")

    def __init__(self, fn, handler, blocking, ctx_label, span):
        self.fn = fn
        self.handler = handler
        self.blocking = blocking
        self.ctx_label = ctx_label
        self.span = span
        self.extra = None


class CrossingPlan:
    """Per-edge precompiled crossing state, built once per channel.

    The one description of a gate's crossing, which every crossing
    (sync, batched and blocking) applies.  Compiled at channel
    construction: one :class:`_PlanEntry` per export (resolved handler,
    blocking flag, context label and span name), plus the backend's
    crossing as data, filled in by :meth:`Gate._compile_plan` — its
    charges in order, split where control leaves the plain sequence:

    - entry: ``enter_pre``, then ``enter_hook`` (if any), the push of
      the callee context, ``enter_post``;
    - exit: ``exit_pre``, the pop, ``exit_post``, then ``exit_hook``
      (if any), ``exit_tail``.

    ``push`` is False for a crossing that keeps the caller's context
    (only ``exit_tail`` applies).  ``bumps`` names the counters each
    side increments; ``enter_bumps`` adds the crossing's own counters.
    ``copies`` (None unless the entry charge depends on the argument
    count, as a switched-stack parameter copy does) maps an argument
    count to ``(sample, entry charges)``; rows are filled on first use
    by the gate's ``_copy_row`` and each sample goes to ``copy_sample``.
    What is not constant per edge stays a hook: ``enter_hook(entry,
    args)`` returns the callee context's capabilities (CHERI grants,
    VM-RPC call notification), ``exit_hook()`` (VM-RPC return
    notification) and ``op_hook(entry, args)`` (per-operation grants
    inside a batch).  Hooks charge through ``cpu.charge``.

    Observers are hooks the plan calls, never a different code path.
    Each is one attribute, ``None`` while its observer is off:

    - ``tracer`` — the machine's tracer while it records (boundary
      channels only): the gate's ``B``/``E`` span, plus, when
      ``wrpkru`` is set, a ``wrpkru`` instant after ``enter_post`` and
      after ``exit_post``;
    - ``latency`` — the edge-latency histogram name while
      ``record_edge_latency`` is on (boundary channels only).

    :class:`~repro.obs.Observability` calls :meth:`refresh` on every
    plan whenever an observer toggles, so the hooks are always current
    and a crossing checks no observer state of its own.  ``hits`` and
    ``refreshes`` are host-side telemetry, kept out of the metrics
    registry so snapshots hold simulated quantities only.
    """

    __slots__ = (
        "entries", "tracer", "latency", "hits", "refreshes", "_gate",
        "push", "enter_pre", "enter_post", "exit_pre", "exit_post",
        "exit_tail", "bumps", "enter_bumps", "wrpkru", "copies",
        "copy_sample", "enter_hook", "exit_hook", "op_hook",
    )  # fmt: skip

    def __init__(self, gate: "Gate") -> None:
        self._gate = gate
        callee = gate.callee_lib
        blocking = callee.blocking_exports
        prefix = gate._span_prefix
        self.entries = {
            fn: _PlanEntry(
                fn, handler, fn in blocking, gate._plan_ctx_label(fn), prefix + fn
            )
            for fn, handler in callee.exports.items()
        }
        self.push = True
        self.enter_pre = self.enter_post = self.exit_pre = self.exit_post = ()
        self.exit_tail = self.bumps = ()
        self.wrpkru = False
        self.copies = self.copy_sample = None
        self.enter_hook = self.exit_hook = self.op_hook = None
        gate._compile_plan(self)
        self.enter_bumps = gate._bump_names + self.bumps
        self.hits = 0
        self.refreshes = 0
        self.refresh()

    def refresh(self) -> None:
        """Re-resolve the observer hooks (called on every observer toggle)."""
        gate = self._gate
        boundary = gate.IS_BOUNDARY
        tracer = gate._tracer
        self.tracer = tracer if boundary and tracer.recording else None
        self.latency = (
            gate._latency_name
            if boundary and gate._metrics.record_edge_latency
            else None
        )
        self.refreshes += 1


@dataclasses.dataclass
class Completion:
    """One finished submission: its ticket and result (or error).

    ``error`` carries exactly the exception the equivalent sync
    ``invoke`` would have raised (already translated per the callee's
    failure policy), so error handling is uniform across delivery
    styles.
    """

    ticket: int
    fn: str
    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Channel:
    """Interface every inter-library channel implements.

    Sync surface: :meth:`invoke` / :meth:`invoke_gen`.  Async surface:
    :meth:`submit` / :meth:`poll` / :meth:`flush` / :meth:`close` plus
    the :meth:`capabilities` query.  The async defaults here degrade to
    one crossing per operation (``submit`` invokes immediately and the
    completion is ready at once), so callers written against the async
    surface never branch on channel kind — a queue channel just makes
    the same code pay one crossing per batch instead of per op.
    """

    #: Channel kind identifier ("direct", "mpk-shared", "queue:...").
    KIND = "abstract"
    #: True for channels that cross a compartment boundary.
    IS_BOUNDARY = True

    def __init__(self) -> None:
        #: Completions ready to be drained by :meth:`poll`.
        self._completed: list[Completion] = []
        self._next_ticket = 1

    # --- sync surface -------------------------------------------------------

    def invoke(self, fn: str, args: tuple) -> Any:
        raise NotImplementedError

    def invoke_gen(self, fn: str, args: tuple) -> Generator:
        raise NotImplementedError

    # --- async surface ------------------------------------------------------

    def capabilities(self) -> frozenset:
        """Feature tags of this channel ("sync", "async", ...)."""
        return frozenset({"sync"})

    @property
    def supports_async(self) -> bool:
        """True when submissions are actually deferred and batched."""
        return "async" in self.capabilities()

    def submit(self, fn: str, *args: Any) -> int:
        """Enqueue one operation; returns its completion ticket.

        Sync channels execute immediately (one crossing, completion
        available at once) and raise errors right here, exactly like
        :meth:`invoke`.  Async channels defer execution to the next
        flush and deliver errors through the completion instead.
        """
        ticket = self._take_ticket()
        value = self.invoke(fn, args)
        self._completed.append(Completion(ticket, fn, value=value))
        return ticket

    def poll(self, max_items: int | None = None) -> list[Completion]:
        """Drain (up to ``max_items``) ready completions, oldest first."""
        if max_items is None or max_items >= len(self._completed):
            drained = self._completed
            self._completed = []
            return drained
        drained = self._completed[:max_items]
        del self._completed[:max_items]
        return drained

    def flush(self) -> int:
        """Force pending submissions through; returns how many flushed.

        Always 0 for sync channels — nothing is ever pending.
        """
        return 0

    @property
    def pending(self) -> int:
        """Submissions accepted but not yet executed (sync: always 0)."""
        return 0

    @property
    def completions_ready(self) -> int:
        """Completions available to :meth:`poll` right now."""
        return len(self._completed)

    def flush_deadline_ns(self) -> float | None:
        """Simulated deadline of the oldest pending submission, if any."""
        return None

    def flush_if_due(self) -> int:
        """Flush when the max-delay deadline has passed; ops flushed."""
        deadline = self.flush_deadline_ns()
        if deadline is not None and self.machine.cpu.clock_ns >= deadline:
            return self.flush()
        return 0

    def bind_scheduler(self, scheduler) -> None:
        """Attach the scheduler that delivers completion wakeups."""

    def close(self) -> None:
        """Flush pending work and release channel resources."""
        self.flush()

    def wait_completions(self, min_count: int = 1) -> Generator:
        """Blocking helper: drive with ``yield from`` in a thread body.

        Suspends (via the :class:`~repro.libos.sched.base.WaitFlush`
        directive) until ``min_count`` completions are available, then
        drains and returns them.  On sync channels completions are
        ready at submit time, so this returns without suspending; on a
        queue channel with a max-delay policy the scheduler parks the
        thread with an ``IdleUntil``-style timer at the flush deadline.
        """
        while self.completions_ready < min_count:
            if not self.pending:
                raise GateError(
                    f"waiting for {min_count} completion(s) but only "
                    f"{self.completions_ready} submitted and none pending"
                )
            if self.flush_deadline_ns() is None:
                # No latency bound to wait out: flush on behalf of the
                # waiter instead of parking forever.
                self.flush()
                continue
            self.machine.cpu.bump("queue.wait_parks")
            yield WaitFlush(self)
            self.flush_if_due()
        return self.poll(min_count)

    def drain(self) -> list["Completion"]:
        """Flush pending submissions and drain *every* completion.

        The synchronous error-delivery helper: rings the doorbell,
        empties the completion ring, and re-raises the first deferred
        error — exactly what a sync call would have raised at the
        submission site.  On sync channels this is just a poll.
        """
        self.flush()
        completions = self.poll()
        for completion in completions:
            if completion.error is not None:
                raise completion.error
        return completions

    # --- internal -----------------------------------------------------------

    def _take_ticket(self) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        return ticket


class Gate(Channel):
    """Common behaviour for every gate-backed channel implementation.

    Crossing accounting is unified here: every invocation increments
    the channel's own ``crossings``, its caller→callee edge in the
    metrics registry, the shared ``gate_crossings`` counter (for every
    compartment-boundary channel, regardless of backend) and the
    backend's own counter — so counts agree across backends instead of
    each gate bumping an ad-hoc subset.
    """

    #: True for channels that cross a compartment boundary; only the
    #: same-compartment DirectChannel clears it.  Boundary channels
    #: count toward ``gate_crossings``, get trace spans, and act as
    #: containment boundaries for the fault model.
    IS_BOUNDARY = True
    #: Backend-specific counter bumped alongside the unified ones
    #: ("mpk_crossings", "vm_rpcs", ...); empty string disables it.
    EXTRA_COUNTER = ""

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        _require_factory(type(self))
        super().__init__()
        self.machine = machine
        self.caller_lib = caller_lib
        self.callee_lib = callee_lib
        self.options = options if options is not None else GateOptions()
        self.crossings = 0
        self._metrics = machine.cpu.metrics
        self._edge = self._metrics.edge(
            caller_lib.NAME, callee_lib.NAME, self.KIND
        )
        self._tracer = machine.obs.tracer
        # --- crossing plan ---------------------------------------------
        # Everything a crossing needs, flattened into attributes so it
        # does no cost-model / registry attribute chasing per call.
        self._cpu = machine.cpu
        self._caller_name = caller_lib.NAME
        self._callee_name = callee_lib.NAME
        self._counters = self._metrics.counters
        self._call_ns = machine.cost.call_ns
        self._ret_ns = machine.cost.ret_ns
        self._is_boundary = self.IS_BOUNDARY
        bumps = []
        if self._is_boundary:
            bumps.append("gate_crossings")
        if self.EXTRA_COUNTER:
            bumps.append(self.EXTRA_COUNTER)
        self._bump_names = tuple(bumps)
        # Observer-hook constants: span names are this prefix plus the
        # export (or ``batch[n]``); every span carries the same args.
        self._span_prefix = f"{caller_lib.NAME}->{callee_lib.NAME}."
        self._span_args = {"kind": self.KIND}
        self._latency_name = self._metrics.edge_latency_name(
            caller_lib.NAME, callee_lib.NAME
        )
        #: Pooled callee Context.  A crossing takes it (emptying the
        #: pool) and returns its context once popped — then no thread's
        #: context stack holds it.  A blocking crossing parked inside the
        #: callee keeps its context on its thread's saved stack until it
        #: exits, and a thread destroyed there never returns it.
        self._ctx_pool = None
        self._plan = CrossingPlan(self)
        machine.obs.plans.append(self._plan)

    # --- shared plumbing ----------------------------------------------------

    def _lookup(self, fn: str, blocking: bool) -> _PlanEntry:
        """Entry-point enforcement: only exports are callable, blocking
        ones only through ``invoke_gen`` and plain ones only through
        ``invoke``/``submit``.  Returns the export's plan entry."""
        entry = self._plan.entries.get(fn)
        callee = self.callee_lib.NAME
        if entry is None:
            raise GateError(
                f"{callee} has no export {fn!r} "
                f"(called from {self.caller_lib.NAME})"
            )
        if blocking and not entry.blocking:
            raise GateError(f"{callee}.{fn} is not a blocking export")
        if not blocking and entry.blocking:
            raise GateError(f"{callee}.{fn} is blocking; use call_gen / yield from")
        return entry

    # --- fault containment ---------------------------------------------------

    def _check_available(self) -> None:
        """Fail fast — or restart — crossings into a failed compartment."""
        if not self.IS_BOUNDARY:
            return
        comp: "Compartment | None" = self.callee_lib.compartment
        if comp is None or not comp.failed:
            return
        cpu = self.machine.cpu
        if comp.restart_due(cpu.clock_ns):
            cpu.charge(self.machine.cost.compartment_restart_ns)
            comp.restart()
            cpu.bump("resilience.restarts")
            if self._tracer.enabled:
                self._tracer.instant(
                    f"restart:{comp.name}", "resilience", restarts=comp.restarts
                )
            return
        raise CompartmentFailure(
            comp.name,
            cause=comp.last_failure.cause if comp.last_failure else None,
            detail="compartment unavailable after failure",
        )

    def _contain(self, exc: BaseException) -> CompartmentFailure | None:
        """Translate a callee fault per the callee's failure policy.

        Returns the :class:`CompartmentFailure` to raise instead, or
        ``None`` when the raw fault should propagate (non-boundary
        channel, or ``propagate`` policy — the paper's baseline
        whole-image crash).
        """
        comp: "Compartment | None" = self.callee_lib.compartment
        if (
            not self.IS_BOUNDARY
            or comp is None
            or comp.failure_policy == "propagate"
        ):
            return None
        cpu = self.machine.cpu
        failure = CompartmentFailure(comp.name, cause=exc)
        comp.mark_failed(cpu.clock_ns, failure)
        cpu.bump("resilience.contained")
        if self._tracer.enabled:
            self._tracer.instant(
                f"contained:{comp.name}",
                "resilience",
                cause=type(exc).__name__,
            )
        return failure

    # --- the crossing plan ----------------------------------------------------

    def _plan_ctx_label(self, fn: str) -> str:
        """The callee context's label for a crossing into ``fn``.

        Built once per export at plan compile time; backends override
        it to tag their contexts (``cap:``, ``rpc:``).
        """
        return f"{self.callee_lib.NAME}.{fn}"

    def _compile_plan(self, plan: CrossingPlan) -> None:
        """Fill in ``plan``'s crossing data (see :class:`CrossingPlan`).

        The default is a crossing that only pushes and pops the callee
        context; backends override to describe their charge sequence.
        """

    def _plan_enter(self, entry: _PlanEntry, args: tuple, span: str) -> tuple:
        """The plan's entry half: everything up to the handler call.

        The call charge and the caller profile's call monitors, the
        availability check (fail fast, or restart), the crossing's
        counters, the observers (edge-latency start time, the ``span``
        on the current track) and the domain switch: ``enter_pre``,
        ``enter_hook``, the push of the callee context, ``enter_post``.
        Returns ``(tracer, started)`` for :meth:`_plan_exit`: the
        tracer that opened the span and the latency start time, each
        None while its observer is off.

        Charges are added to the clock in line: each run of charges
        between two points where other code may look at the clock is
        one fold, pending memory-op time first — the float adds
        ``cpu.charge`` would make one term at a time — with time
        attribution (``cpu._attribute``) on the context each term lands
        on.
        """
        plan = self._plan
        plan.hits += 1
        cpu = self._cpu
        profile = cpu._contexts[-1].profile
        if cpu.charging:
            ns = self._call_ns + profile.call_extra_ns
            pending = cpu._pending_ns
            cpu._clock_ns = cpu._clock_ns + pending + ns
            cpu._pending_ns = 0.0
            if cpu.attribute_time:
                cpu._attribute(pending, (ns,))
        monitors = profile.call_monitors
        if monitors:
            for monitor in monitors:
                monitor(self._caller_name, self._callee_name, entry.fn)
        comp = self.callee_lib.compartment
        if self._is_boundary and comp is not None and comp.failed:
            # Restart may rebuild compartment state the pooled context
            # caches — drop the pool before reviving.
            self._ctx_pool = None
            self._check_available()
        self.crossings += 1
        self._edge.crossings += 1
        counters = self._counters
        for name in plan.enter_bumps:
            counters[name] = counters.get(name, 0.0) + 1.0
        started = cpu.clock_ns if plan.latency is not None else None
        tracer = plan.tracer
        if tracer is not None:
            tracer.span_begin(span, "gate", self._span_args)
        # --- entry: enter_pre, [enter_hook], push, enter_post ---------------
        pre = plan.enter_pre
        if plan.copies is not None:
            row = plan.copies.get(len(args)) or self._copy_row(len(args))
            plan.copy_sample(row[0])
            pre = row[1]
        capabilities = comp.capabilities
        if plan.enter_hook is not None:
            for ns in pre:
                cpu.charge(ns)
            pre = ()
            capabilities = plan.enter_hook(entry, args)
        if plan.push:
            ctx = self._ctx_pool
            if ctx is None:
                ctx = Context(
                    address_space=comp.address_space,
                    pkru=comp.pkru_value,
                    profile=comp.profile,
                    label=entry.ctx_label,
                    capabilities=capabilities,
                )
            else:
                self._ctx_pool = None
                ctx.label = entry.ctx_label
                ctx.pkru = comp.pkru_value
                ctx.capabilities = capabilities
            post = plan.enter_post
            if cpu.charging:
                pending = cpu._pending_ns
                clock = cpu._clock_ns + pending
                for ns in pre:
                    clock += ns
                for ns in post:
                    clock += ns
                cpu._clock_ns = clock
                cpu._pending_ns = 0.0
                if cpu.attribute_time:
                    cpu._attribute(pending, pre)
                    cpu._contexts.append(ctx)
                    cpu._attribute(0.0, post)
                else:
                    cpu._contexts.append(ctx)
            else:
                cpu.push_context(ctx)
            if tracer is not None and plan.wrpkru:
                tracer.wrpkru(comp.pkru_value)
        return tracer, started

    def _plan_exit(self, tracer, started: float | None) -> None:
        """The plan's exit half: ``exit_pre``, the pop of the callee
        context, ``exit_post``, ``exit_hook``, ``exit_tail`` and the
        exit counters, then the observers — the edge-latency sample
        (unless ``started`` is None) and the end of ``tracer``'s span.
        """
        plan = self._plan
        cpu = self._cpu
        if plan.push:
            pre = plan.exit_pre
            post = plan.exit_post
            if cpu.charging:
                pending = cpu._pending_ns
                clock = cpu._clock_ns + pending
                for ns in pre:
                    clock += ns
                for ns in post:
                    clock += ns
                cpu._clock_ns = clock
                cpu._pending_ns = 0.0
                if cpu.attribute_time:
                    cpu._attribute(pending, pre)
                    ctx = cpu._contexts.pop()
                    cpu._attribute(0.0, post)
                else:
                    ctx = cpu._contexts.pop()
            else:
                ctx = cpu.pop_context()
            if self._ctx_pool is None:
                self._ctx_pool = ctx
        if plan.exit_hook is not None:
            try:
                plan.exit_hook()
            except BaseException:
                # The return notification failed (VM-RPC ``RPCTimeout``):
                # close the span; like a faulting blocking crossing, the
                # crossing records no latency sample.
                if tracer is not None:
                    tracer.end()
                raise
        if plan.wrpkru and plan.tracer is not None:
            # The plan's current tracer: a handler may have toggled it,
            # and the exit's PKRU write is traced when it happens.
            plan.tracer.wrpkru(cpu._contexts[-1].pkru)
        tail = plan.exit_tail
        if tail and cpu.charging:
            pending = cpu._pending_ns
            clock = cpu._clock_ns + pending
            for ns in tail:
                clock += ns
            cpu._clock_ns = clock
            cpu._pending_ns = 0.0
            if cpu.attribute_time:
                cpu._attribute(pending, tail)
        counters = self._counters
        for name in plan.bumps:
            counters[name] = counters.get(name, 0.0) + 1.0
        if started is not None:
            self._metrics.histogram(self._latency_name).observe(
                cpu.clock_ns - started
            )
        if tracer is not None:
            tracer.end()

    def _run_batch(
        self, entries: list, ops: list[tuple[int, str, tuple]]
    ) -> list[Completion]:
        """A doorbell crossing's body: every op, inside the callee."""
        injector = self.machine.injector
        op_hook = self._plan.op_hook
        completions: list[Completion] = []
        failure: BaseException | None = None
        for (ticket, fn, args), entry in zip(ops, entries):
            if failure is not None:
                completions.append(Completion(ticket, fn, error=failure))
                continue
            try:
                if op_hook is not None:
                    op_hook(entry, args)
                if injector is not None:
                    injector.on_crossing(self, fn)
                completions.append(Completion(ticket, fn, value=entry.handler(*args)))
            except CONTAINABLE_FAULTS as exc:
                failure = self._contain(exc)
                if failure is None:
                    raise
                completions.append(Completion(ticket, fn, error=failure))
            except Exception as exc:
                completions.append(Completion(ticket, fn, error=exc))
        return completions

    # --- channel interface ---------------------------------------------------------

    def invoke_batch(
        self, ops: list[tuple[int, str, tuple]]
    ) -> list[Completion]:
        """Execute many queued operations under ONE crossing (doorbell).

        ``ops`` is ``[(ticket, fn, args), ...]``.  The gate pays one
        caller-side charge, one crossing record, and one enter/exit
        domain switch for the whole batch; each op then dispatches
        inside the callee's domain.  Crash-mid-batch semantics: an op
        failing with a containable fault gets the translated
        :class:`CompartmentFailure` in its completion, every *later* op
        in the batch is aborted with the same failure (the callee
        domain is gone), and ops that completed before it keep their
        results — exactly the state N sync calls would have left behind
        at the point of the crash.  Under the ``propagate`` policy the
        raw fault is raised instead (whole-image crash, as sync invoke
        would).  Ordinary (non-fault) exceptions fail only their own
        op, as N separate sync calls would.  A return notification that
        times out (VM-RPC ``RPCTimeout``) fails after every op ran, so
        it is not raised: each op's completion carries it, as each sync
        call would have raised it.
        """
        if not ops:
            return []
        entries = [self._lookup(fn, blocking=False) for _, fn, _ in ops]
        # The doorbell payload is one word: the ring tail index.
        tracer, started = self._plan_enter(
            entries[0], (len(ops),), f"{self._span_prefix}batch[{len(ops)}]"
        )
        try:
            completions = self._run_batch(entries, ops)
        except BaseException:
            self._plan_exit(tracer, started)
            raise
        try:
            self._plan_exit(tracer, started)
        except RPCTimeout as exc:
            # Every op already ran; only the way back failed.  Each op
            # gets the timeout its sync invoke would have raised.
            return [Completion(c.ticket, c.fn, error=exc) for c in completions]
        return completions

    def invoke(self, fn: str, args: tuple) -> Any:
        entry = self._plan.entries.get(fn)
        if entry is None or entry.blocking:
            self._lookup(fn, blocking=False)  # raises the enforcement error
        tracer, started = self._plan_enter(entry, args, entry.span)
        try:
            injector = self.machine.injector
            if injector is not None:
                injector.on_crossing(self, fn)
            return entry.handler(*args)
        except CONTAINABLE_FAULTS as exc:
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        finally:
            self._plan_exit(tracer, started)

    def invoke_gen(self, fn: str, args: tuple) -> Generator:
        entry = self._lookup(fn, blocking=True)
        tracer, started = self._plan_enter(entry, args, entry.span)
        if tracer is not None:
            # Spans ride the calling thread's track; a thread destroyed
            # while parked in the callee closes its span on this track
            # after the tracer has moved on to another.
            track = tracer.current_track
        try:
            injector = self.machine.injector
            if injector is not None:
                injector.on_crossing(self, fn)
            result = yield from entry.handler(*args)
        except GeneratorExit:
            # The thread was destroyed while parked inside the callee:
            # its entire saved protection-context stack (including the
            # context this gate pushed) is discarded with it, so there
            # is nothing to restore on the live CPU — but the trace
            # span must still be closed on the track it was opened on,
            # or exports carry a dangling span for the dead thread.
            if tracer is not None:
                tracer.end(track=track)
            raise
        except CONTAINABLE_FAULTS as exc:
            # Unwinding: leave the callee's domain before containing.
            self._plan_exit(tracer, None)
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        except BaseException:
            self._plan_exit(tracer, None)
            raise
        # Blocking crossings include time spent suspended inside the
        # callee; only completed crossings are sampled (a thread
        # destroyed mid-call or an unwinding fault records nothing).
        self._plan_exit(tracer, started)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.caller_lib.NAME}->"
            f"{self.callee_lib.NAME}>"
        )
