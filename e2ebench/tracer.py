"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of the ``ecuchain`` modules
while a traced repetition runs, and restores them afterwards. A function
is wrapped by identity in every ``ecuchain.*`` module namespace, because
``from .crypto import verify`` copies the binding into ``ledger`` and
patching only the defining module would miss those calls. Methods are
wrapped on their class.

Spans (name, start, end, parent, phase) are held in memory; self time is a
span's duration minus the time its child spans cover. The phase is set by
the harness (``setup``, ``loop``, ``audit``); the ``loop`` phase becomes
``report`` when the simulator's event loop finds its queue empty, which
the tracer sees through ``EventQueue.__len__``.

A target that cannot be found is reported as missing, and every metric
derived from it is left out of the result instead of reading zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

# Span name -> the targets it wraps, as "module:function" or "module:Class.method".
_TX_CLASSES = ("GenesisTx", "UpdateTx", "RequestTx", "ChallengeResponse", "ChallengeRecordTx")
SPANS: dict[str, tuple[str, ...]] = {
    "crypto.verify": ("ecuchain.crypto:verify",),
    "crypto.sign": ("ecuchain.crypto:KeyPair.sign",),
    "transactions.encode": tuple(
        f"ecuchain.transactions:{cls}.{method}"
        for cls in _TX_CLASSES
        for method in ("signing_bytes", "to_bytes")
    ),
    "transactions.decode": ("ecuchain.transactions:decode_transaction",),
    "ecu.state_root": ("ecuchain.ecu:compute_state_root",),
    "kernels.merkle_root": ("ecuchain._kernels:merkle_root",),
    "ledger.append_entry": ("ecuchain.ledger:append_entry",),
    "ledger.prune": ("ecuchain.ledger:prune_to_two",),
    "ledger.archive.append": (
        "ecuchain.ledger:MemoryArchive.append_many",
        "ecuchain.ledger:FileArchive.append_many",
    ),
    "ledger.archive.read": (
        "ecuchain.ledger:MemoryArchive.read",
        "ecuchain.ledger:FileArchive.read",
    ),
    "ledger.reconstruct": ("ecuchain.ledger:reconstruct_history",),
    "ledger.validate": ("ecuchain.ledger:Ledger.validate",),
    "ledger.serialize": ("ecuchain.ledger:Ledger.serialize",),
    "ledger.deserialize": ("ecuchain.ledger:deserialize_ledger",),
    "protocol.issue_challenge": ("ecuchain.protocol:issue_challenge",),
    "protocol.build_response": ("ecuchain.protocol:build_response",),
    "protocol.verify_response": ("ecuchain.protocol:verify_response",),
    "protocol.record_response": ("ecuchain.protocol:record_response",),
    "protocol.report_malicious": ("ecuchain.protocol:report_malicious",),
    "protocol.apply_upper_update": ("ecuchain.protocol:apply_upper_update",),
    "protocol.initialize_vehicle": ("ecuchain.protocol:initialize_vehicle",),
    "entities.respond": ("ecuchain.entities:VehicleNode.respond",),
    "entities.receive_report": ("ecuchain.entities:AuthorityNode.receive_report",),
    "entities.perform_maintenance": ("ecuchain.entities:perform_maintenance",),
    "adversary.inject": ("ecuchain.adversary:inject",),
    "sim.queue": ("ecuchain.sim:EventQueue.pop", "ecuchain.sim:EventQueue.schedule"),
    "sim.log": ("ecuchain.sim:World.log",),
}
WIRE_ENCODERS = (
    "ecuchain.wire:encode_bytes",
    "ecuchain.wire:encode_u64",
    "ecuchain.wire:encode_str",
)
# Marks the event loop's iterations and its end (see the module docstring).
LOOP_MARKER = "ecuchain.sim:EventQueue.__len__"
EVENT_POP = "ecuchain.sim:EventQueue.pop"

VERDICTS = (
    "Valid",
    "UnknownVehicle",
    "BadSignature",
    "StateMismatch",
    "SubsetMismatch",
    "StaleTimestamp",
)


class MissingTarget(LookupError):
    pass


def _resolve(target: str):
    """(owner, attribute, original) for a "module:name" or "module:Class.method"."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget(f"{module_name} does not import: {exc}") from None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            raise MissingTarget(f"{module_name}.{cls} does not exist")
    original = getattr(owner, attr, None)
    if not callable(original):
        raise MissingTarget(f"{target} does not exist")
    return owner, attr, original


def _ecuchain_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "ecuchain" or name.startswith("ecuchain."))
    ]


class Patches:
    """Installed wrappers and how to undo them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper: Callable) -> None:
        owner, attr, original = _resolve(target)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            return
        modules = _ecuchain_modules()
        if owner not in modules:
            modules.append(owner)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Tracer:
    """One traced repetition: spans, per-phase counters and loop markers.

    With ``spans=False`` only the wire encoders are counted (no timing), so
    their many small calls do not inflate the self time of their callers
    in the timed repetitions.
    """

    def __init__(self, spans: bool = True):
        self.spans = spans
        self.phase = "setup"
        self.names: list[str] = []
        self.phases: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter[tuple[str, str]] = Counter()
        self.pops: list[tuple[int, Optional[str]]] = []  # (span index, event kind name)
        self.loop_marks: list[int] = []
        self.missing: dict[str, str] = {}
        self._seen: dict[str, set] = {}
        self._patches = Patches()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        self._try("sim.loop_marker", LOOP_MARKER, self._loop_marker)
        if not self.spans:
            for target in WIRE_ENCODERS:
                self._try("wire.encode", target, self._counter("wire.encode"))
            return
        observers = {
            "crypto.verify": self._observe_verify,
            "transactions.encode": self._observe_encode,
            "kernels.merkle_root": self._observe_merkle,
            "ledger.archive.append": self._observe_archive_append,
            "ledger.archive.read": self._observe_archive_read,
            "protocol.verify_response": self._observe_verdict,
        }
        for name, targets in SPANS.items():
            for target in targets:
                observe = observers.get(name)
                if target == EVENT_POP:
                    observe = self._observe_pop
                prepare = _materialize_records if name == "ledger.archive.append" else None
                self._try(name, target, lambda fn, n=name, o=observe, p=prepare: self._span(n, fn, o, p))

    def uninstall(self) -> None:
        self._patches.undo()

    def _try(self, name: str, target: str, make_wrapper: Callable) -> None:
        try:
            self._patches.wrap(target, make_wrapper)
        except MissingTarget as exc:
            self.missing.setdefault(name, str(exc))

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, observe=None, prepare=None):
        names, phases, parents = self.names, self.phases, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            idx = len(starts)
            names.append(name)
            phases.append(tracer.phase)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            starts.append(0)
            ends.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(idx, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, name):
        counters = self.counters
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                counters[(name, tracer.phase)] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(wrapper, fn)

        return make

    def _loop_marker(self, fn):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(queue):
            t = clock()
            n = fn(queue)
            if tracer.phase == "loop":
                tracer.loop_marks.append(t)
                if n == 0:
                    tracer.phase = "report"
            return n

        return functools.update_wrapper(wrapper, fn)

    # -- observers (run after the span's end time is taken) ----------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[(key, self.phase)] += amount

    def _repeat(self, key: str, value) -> None:
        # Repeats count within the simulation; the audit passes repeat by design.
        if self.phase == "audit":
            return
        seen = self._seen.setdefault(key, set())
        if value in seen:
            self._count(key + ".repeats")
        else:
            seen.add(value)

    def _observe_verify(self, idx, args, result):
        self._repeat("crypto.verify", args)

    def _observe_encode(self, idx, args, result):
        self._repeat("transactions.encode", result)
        parent = self.parents[idx]
        if parent < 0 or self.names[parent] != "transactions.encode":
            self._count("transactions.encode.bytes", len(result))

    def _observe_merkle(self, idx, args, result):
        digests = args[0]
        self._count("kernels.merkle_root.leaves", len(digests))
        self._repeat("ecu.state_root", b"".join(digests))

    def _observe_archive_append(self, idx, args, result):
        self._count("ledger.archive.append.bytes", sum(8 + len(data) for _, data in args[2]))

    def _observe_archive_read(self, idx, args, result):
        self._count("ledger.archive.read.records", len(result))

    def _observe_verdict(self, idx, args, result):
        self._count("verdict." + str(getattr(result, "value", result)))

    def _observe_pop(self, idx, args, result):
        if self.phase == "loop":
            kind = getattr(result, "kind", None)
            self.pops.append((idx, getattr(kind, "name", None)))

    # -- results ---------------------------------------------------------------

    def totals(self) -> "Totals":
        """Calls, self time and counters summed by (name, phase), plus the
        event-loop split, for this repetition.
        """
        t = Totals()
        t.counters.update(self.counters)
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        for i, (name, phase) in enumerate(zip(self.names, self.phases)):
            t.calls[(name, phase)] += 1
            t.self_ns[(name, phase)] += ends[i] - starts[i] - covered[i]
        self._split_events(t)
        return t

    def _split_events(self, t: "Totals") -> None:
        """Each popped event spans from the end of its ``pop`` to the next
        loop check. Its dispatch time is that interval minus the top-level
        spans inside it.
        """
        if "sim.loop_marker" in self.missing or "sim.queue" in self.missing:
            return
        if not self.loop_marks:
            self.missing["sim.loop_marker"] = (
                "EventQueue.__len__ was not called by the run loop, "
                "so the report phase counts as loop"
            )
            return
        top = [
            i
            for i, (parent, phase) in enumerate(zip(self.parents, self.phases))
            if parent < 0 and phase == "loop"
        ]
        marks = self.loop_marks
        m = s = 0
        for pop_idx, kind in self.pops:
            begin = self.ends[pop_idx]
            while m < len(marks) and marks[m] < begin:
                m += 1
            if m == len(marks):
                break
            end = marks[m]
            inside = 0
            while s < len(top) and self.starts[top[s]] < begin:
                s += 1
            while s < len(top) and self.ends[top[s]] <= end:
                inside += self.ends[top[s]] - self.starts[top[s]]
                s += 1
            t.events += 1
            t.dispatch_ns += end - begin - inside
            if kind == "ARRIVAL":
                t.arrival_ns.append(end - begin)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tphase\tstart_ns\tend_ns\tparent\n")
            for i, (name, phase) in enumerate(zip(self.names, self.phases)):
                fh.write(f"{i}\t{name}\t{phase}\t{self.starts[i]}\t{self.ends[i]}\t{self.parents[i]}\n")


def _materialize_records(args):
    # append_many takes any iterable; a list lets the observer count its bytes.
    return (*args[:2], list(args[2]), *args[3:])


class Totals:
    """Sums over one or more traced repetitions."""

    def __init__(self):
        self.calls: Counter[tuple[str, str]] = Counter()
        self.self_ns: Counter[tuple[str, str]] = Counter()
        self.counters: Counter[tuple[str, str]] = Counter()
        self.events = 0
        self.dispatch_ns = 0
        self.arrival_ns: list[int] = []

    def add(self, other: "Totals") -> None:
        self.calls.update(other.calls)
        self.self_ns.update(other.self_ns)
        self.counters.update(other.counters)
        self.events += other.events
        self.dispatch_ns += other.dispatch_ns
        self.arrival_ns.extend(other.arrival_ns)

    def n(self, table: Counter, name: str, phase: Optional[str]) -> int:
        if phase is not None:
            return table[(name, phase)]
        return sum(v for (k, _), v in table.items() if k == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[int], q: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def layer_metrics(
    t: Totals,
    wire: Totals,
    reps: int,
    encounters: int,
    audit_entries: int,
    vehicles: int,
    wire_encounters: int,
    audit_rate: float,
    overhead_share: float,
    missing: dict[str, str],
) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics from summed totals. ``reps`` traced repetitions made
    ``encounters`` encounters and ``audit_entries`` audited entries in all;
    ``vehicles`` is the fleet size of one repetition. ``audit_rate`` and
    ``overhead_share`` come from untraced repetitions. Returns the metrics,
    name -> (value, unit), and the metrics left out as missing, with why.
    """
    calls, self_ns, ctr = t.calls, t.self_ns, t.counters

    def per_enc(table, name, phase="loop"):
        return _ratio(t.n(table, name, phase), encounters)

    def us_per_enc(name):
        return _ratio(t.n(self_ns, name, "loop") / 1e3, encounters)

    def per_rep(table, name, phase=None):
        return _ratio(t.n(table, name, phase), reps)

    def share(key, name):
        sim_calls = t.n(calls, name, None) - t.n(calls, name, "audit")
        return _ratio(t.n(ctr, key + ".repeats", None), sim_calls)

    def us_per_call(name, phase=None):
        return _ratio(t.n(self_ns, name, phase) / 1e3, t.n(calls, name, phase))

    arrivals = t.arrival_ns
    if not arrivals:
        missing = {**missing, "sim.arrival": "no ARRIVAL event was seen in the loop"}
    table: list[tuple[str, str, tuple[str, ...], Callable[[], float]]] = [
        ("crypto.verify.calls_per_encounter", "calls/enc", ("crypto.verify",), lambda: per_enc(calls, "crypto.verify")),
        ("crypto.verify.self_us_per_encounter", "us/enc", ("crypto.verify",), lambda: us_per_enc("crypto.verify")),
        ("crypto.verify.repeat_share", "ratio", ("crypto.verify",), lambda: share("crypto.verify", "crypto.verify")),
        ("crypto.sign.calls_per_encounter", "calls/enc", ("crypto.sign",), lambda: per_enc(calls, "crypto.sign")),
        ("crypto.sign.self_us_per_encounter", "us/enc", ("crypto.sign",), lambda: us_per_enc("crypto.sign")),
        ("transactions.encode.calls_per_encounter", "calls/enc", ("transactions.encode",), lambda: per_enc(calls, "transactions.encode")),
        ("transactions.encode.bytes_per_encounter", "B/enc", ("transactions.encode",), lambda: per_enc(ctr, "transactions.encode.bytes")),
        ("transactions.encode.self_us_per_encounter", "us/enc", ("transactions.encode",), lambda: us_per_enc("transactions.encode")),
        ("transactions.encode.repeat_share", "ratio", ("transactions.encode",), lambda: share("transactions.encode", "transactions.encode")),
        ("transactions.decode.self_us_per_entry", "us/entry", ("transactions.decode",), lambda: _ratio(t.n(self_ns, "transactions.decode", "audit") / 1e3, audit_entries)),
        ("wire.encode.calls_per_encounter", "calls/enc", ("wire.encode",), lambda: _ratio(wire.n(wire.counters, "wire.encode", "loop"), wire_encounters)),
        ("ecu.state_root.calls_per_encounter", "calls/enc", ("ecu.state_root",), lambda: per_enc(calls, "ecu.state_root")),
        ("ecu.state_root.self_us_per_encounter", "us/enc", ("ecu.state_root",), lambda: us_per_enc("ecu.state_root")),
        ("ecu.state_root.repeat_share", "ratio", ("kernels.merkle_root",), lambda: share("ecu.state_root", "kernels.merkle_root")),
        ("kernels.merkle_root.leaves_per_encounter", "leaves/enc", ("kernels.merkle_root",), lambda: per_enc(ctr, "kernels.merkle_root.leaves")),
        ("kernels.merkle_root.self_us_per_encounter", "us/enc", ("kernels.merkle_root",), lambda: us_per_enc("kernels.merkle_root")),
        ("ledger.append_entry.self_us_per_encounter", "us/enc", ("ledger.append_entry",), lambda: us_per_enc("ledger.append_entry")),
        ("ledger.prune.self_us_per_encounter", "us/enc", ("ledger.prune",), lambda: us_per_enc("ledger.prune")),
        ("ledger.archive.append.calls_per_encounter", "calls/enc", ("ledger.archive.append",), lambda: per_enc(calls, "ledger.archive.append")),
        ("ledger.archive.append.self_us_per_call", "us/call", ("ledger.archive.append",), lambda: us_per_call("ledger.archive.append", "loop")),
        ("ledger.archive.append.bytes_per_encounter", "B/enc", ("ledger.archive.append",), lambda: per_enc(ctr, "ledger.archive.append.bytes")),
        ("ledger.archive.read.self_us_per_record", "us/record", ("ledger.archive.read",), lambda: _ratio(t.n(self_ns, "ledger.archive.read", None) / 1e3, t.n(ctr, "ledger.archive.read.records", None))),
        ("ledger.reconstruct.self_us_per_entry", "us/entry", ("ledger.reconstruct",), lambda: _ratio(t.n(self_ns, "ledger.reconstruct", "audit") / 1e3, audit_entries)),
        ("ledger.validate.self_s", "s", ("ledger.validate",), lambda: per_rep(self_ns, "ledger.validate") / 1e9),
        ("ledger.serialize.self_s", "s", ("ledger.serialize",), lambda: per_rep(self_ns, "ledger.serialize") / 1e9),
        ("ledger.deserialize.self_s", "s", ("ledger.deserialize",), lambda: per_rep(self_ns, "ledger.deserialize") / 1e9),
        ("protocol.issue_challenge.self_us_per_encounter", "us/enc", ("protocol.issue_challenge",), lambda: us_per_enc("protocol.issue_challenge")),
        ("protocol.build_response.self_us_per_encounter", "us/enc", ("protocol.build_response",), lambda: us_per_enc("protocol.build_response")),
        ("protocol.verify_response.self_us_per_encounter", "us/enc", ("protocol.verify_response",), lambda: us_per_enc("protocol.verify_response")),
        ("protocol.record_response.self_us_per_encounter", "us/enc", ("protocol.record_response",), lambda: us_per_enc("protocol.record_response")),
        ("protocol.report_malicious.calls", "count", ("protocol.report_malicious",), lambda: per_rep(calls, "protocol.report_malicious")),
        ("protocol.apply_upper_update.calls", "count", ("protocol.apply_upper_update",), lambda: per_rep(calls, "protocol.apply_upper_update")),
        ("protocol.apply_upper_update.self_us_per_call", "us/call", ("protocol.apply_upper_update",), lambda: us_per_call("protocol.apply_upper_update")),
        ("protocol.initialize_vehicle.self_us_per_vehicle", "us/vehicle", ("protocol.initialize_vehicle",), lambda: _ratio(t.n(self_ns, "protocol.initialize_vehicle", "setup") / 1e3, vehicles * reps)),
    ]
    table += [
        (f"protocol.verdicts.{v}", "count", ("protocol.verify_response",), lambda v=v: per_rep(ctr, "verdict." + v, "loop"))
        for v in VERDICTS
    ]
    table += [
        ("entities.respond.self_us_per_encounter", "us/enc", ("entities.respond",), lambda: us_per_enc("entities.respond")),
        ("entities.receive_report.calls", "count", ("entities.receive_report",), lambda: per_rep(calls, "entities.receive_report")),
        ("entities.perform_maintenance.self_us_per_call", "us/call", ("entities.perform_maintenance",), lambda: us_per_call("entities.perform_maintenance")),
        ("adversary.inject.calls", "count", ("adversary.inject",), lambda: per_rep(calls, "adversary.inject")),
        ("sim.queue.self_us_per_event", "us/event", ("sim.queue", "sim.loop_marker"), lambda: _ratio(t.n(self_ns, "sim.queue", "loop") / 1e3, t.events)),
        ("sim.log.self_us_per_encounter", "us/enc", ("sim.log",), lambda: us_per_enc("sim.log")),
        ("sim.dispatch.self_us_per_encounter", "us/enc", ("sim.queue", "sim.loop_marker"), lambda: _ratio(t.dispatch_ns / 1e3, encounters)),
        ("sim.arrival.p50_us", "us", ("sim.queue", "sim.loop_marker", "sim.arrival"), lambda: _percentile(arrivals, 0.50) / 1e3),
        ("sim.arrival.p99_us", "us", ("sim.queue", "sim.loop_marker", "sim.arrival"), lambda: _percentile(arrivals, 0.99) / 1e3),
        ("sim.arrival.samples", "count", ("sim.queue", "sim.loop_marker", "sim.arrival"), lambda: float(len(arrivals))),
        ("audit.entries_per_s", "1/s", (), lambda: audit_rate),
        ("trace.encounters", "count", (), lambda: _ratio(encounters, reps)),
        ("trace.audit_entries", "count", (), lambda: _ratio(audit_entries, reps)),
        ("trace.overhead_share", "ratio", (), lambda: overhead_share),
    ]
    metrics: dict[str, tuple[float, str]] = {}
    left_out: dict[str, str] = {}
    for name, unit, needs, value in table:
        gone = [n for n in needs if n in missing]
        if gone:
            left_out[name] = "; ".join(missing[n] for n in gone)
        else:
            metrics[name] = (float(value()), unit)
    return metrics, left_out
