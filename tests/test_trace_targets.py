"""The end-to-end benchmark's per-layer tracer (``e2ebench/tracer.py``)
wraps ``ecuchain`` functions and methods by name. A name that stops
resolving does not fail the benchmark: its layer's metrics are left out
as missing. These tests catch that at test time instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import ecuchain.ecu

TRACER_PATH = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


_spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_wrap_target_resolves():
    spans = [target for targets in tracer.SPANS.values() for target in targets]
    missing = {}
    for target in [*spans, *tracer.WIRE_ENCODERS, tracer.LOOP_MARKER]:
        try:
            tracer._resolve(target)
        except tracer.MissingTarget as exc:
            missing[target] = str(exc)
    assert missing == {}


def test_merkle_target_is_the_kernel_the_state_root_calls():
    (target,) = tracer.SPANS["kernels.merkle_root"]
    owner, attr, original = tracer._resolve(target)
    assert owner is ecuchain.ecu._kernels
    assert original is ecuchain.ecu._kernels.merkle_root
