"""Host self time per simulator layer, from a ``cProfile`` run.

Each Python function's self time goes to the layer of the module that
defines it.  A builtin (C function, filename ``~``) has no module of
its own: its self time goes to the layer of the function that called
it, split per caller as cProfile records it.  Code outside ``repro``
(stdlib, the benchmark itself) and time cProfile could not attribute
land in ``host.other_s``.
"""

from __future__ import annotations

import cProfile
import os

import repro

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Layer name -> module path prefixes under ``src/repro``.  The first
#: matching row wins, so specific files precede their package.
LAYER_MODULES: list[tuple[str, tuple[str, ...]]] = [
    ("machine.cpu", ("machine/cpu.py", "machine/cycles.py")),
    ("machine.mem", ("machine/memory.py",)),
    ("machine.mmu", ("machine/",)),
    ("gates", ("gates/", "sh/")),
    ("sched", ("libos/sched/",)),
    ("net", ("libos/net/",)),
    ("alloc", ("libos/alloc/",)),
    ("kv", ("libos/kv/",)),
    ("blk", ("libos/blk/",)),
    ("libos.other", ("libos/",)),
    ("apps", ("apps/",)),
    ("obs", ("obs/", "perf/")),
    ("cluster.client", ("cluster/client.py", "cluster/shardmap.py")),
    ("cluster.repl", ("cluster/replication.py",)),
    ("cluster.fabric", ("cluster/",)),
    ("core", ("",)),
]
LAYERS = [name for name, _ in LAYER_MODULES]
OTHER = "host.other"


def layer_of(filename: str) -> str:
    """The layer that owns functions defined in ``filename``."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR):
        return OTHER
    relative = path[len(_REPRO_DIR) :].replace(os.sep, "/")
    for name, prefixes in LAYER_MODULES:
        if any(relative.startswith(prefix) for prefix in prefixes):
            return name
    return OTHER


def self_time_by_layer(profile: cProfile.Profile) -> dict[str, float]:
    """Seconds of self time per layer (``LAYERS`` plus ``host.other``)."""
    profile.create_stats()
    totals = dict.fromkeys(LAYERS + [OTHER], 0.0)
    for (filename, _, _), (_, _, self_s, _, callers) in profile.stats.items():
        if filename != "~":
            totals[layer_of(filename)] += self_s
            continue
        attributed = 0.0
        for (caller_file, _, _), caller_row in callers.items():
            share = caller_row[2]
            totals[layer_of(caller_file) if caller_file != "~" else OTHER] += share
            attributed += share
        totals[OTHER] += max(0.0, self_s - attributed)
    return totals
