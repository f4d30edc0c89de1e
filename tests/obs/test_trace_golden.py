"""Golden traces: observed runs must reproduce recorded events exactly.

``trace_golden.json`` holds, for two seeded runs with the tracer and
per-edge latency recording on from boot to finish, the event count,
the sha256 of the sorted-key Chrome-trace JSON and the sha256 of the
metrics snapshot.  Any change to which events are recorded, their
order, names, arguments, tracks or simulated timestamps — or to a
single latency sample — changes a digest.

Regenerate (only for an intended change of the trace format)::

    PYTHONPATH=src python tests/obs/test_trace_golden.py > tests/obs/trace_golden.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from repro import BuildConfig, build_image
from repro.apps import resp, run_iperf, run_redis_phase, start_redis
from repro.obs import chrome_trace

GOLDEN = pathlib.Path(__file__).with_name("trace_golden.json")


def _observed(config: dict):
    image = build_image(BuildConfig(**config))
    image.machine.obs.tracer.enable()
    image.machine.obs.metrics.record_edge_latency = True
    return image


def redis_fig5(seed: int):
    """Fig. 5 NW/Sched/Rest redis on mpk-switched: preload, then GETs."""
    image = _observed(
        dict(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched"], ["alloc", "libc", "redis"]],
            backend="mpk-switched",
        )
    )
    rng = random.Random(seed)
    keys = [b"key:%d" % index for index in rng.sample(range(10**6), 64)]
    start_redis(image)
    run_redis_phase(
        image,
        [resp.encode_command(b"SET", key, rng.randbytes(50)) for key in keys],
        window=8,
        expect_prefix=b"+OK",
    )
    run_redis_phase(
        image,
        [resp.encode_command(b"GET", rng.choice(keys)) for _ in range(500)],
        window=8,
    )
    return image


def iperf_fig3(seed: int):
    """Fig. 3 netstack-isolated iperf on mpk-shared."""
    image = _observed(
        dict(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
            backend="mpk-shared",
        )
    )
    rng = random.Random(seed)
    run_iperf(image, 16 * 1024, (1 << 18) + rng.randrange(1 << 16))
    return image


RUNS = {"redis-fig5-mpk-switched": redis_fig5, "iperf-fig3-mpk-shared": iperf_fig3}
SEED = 11


def _sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def digest(name: str) -> dict:
    image = RUNS[name](SEED)
    tracer = image.machine.obs.tracer
    return {
        "events": len(tracer.events),
        "chrome_trace_sha256": _sha256(chrome_trace(tracer)),
        "metrics_sha256": _sha256(image.metrics_snapshot()),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observed_run_matches_golden(name):
    assert digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: digest(name) for name in sorted(RUNS)}, indent=2))
