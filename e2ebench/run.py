"""End-to-end encounter benchmark for ecuchain.

Runs whole simulator scenarios (``sim.build_world``, then ``sim.run``),
followed by an audit of the roadside ledger, and prints every metric by
name and unit together with a correctness verdict. Run it from the root of
the repository:

    python3 e2ebench/run.py --workload fleet_honest --seed 1 --seconds 60 --trace 0

The load is a closed loop in one single-threaded process: each encounter
starts after the previous one finishes, and ``link_latency_ms`` is 0, so
latency is CPU and disk time only. A run repeats the scenario of one seed
until ``--seconds`` is used up and reports medians over the repetitions.
``--trace 1`` reports the per-layer split instead, from repetitions traced
by ``tracer.py``; end-to-end numbers always come from untraced repetitions.
The last line of standard output is the result as one JSON object.
NOTES.md says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

MIN_REPS = 3
# Each repetition audits its world this many times, and each pass is one
# sample for the audit median: one pass takes only a few tenths of a second.
AUDIT_PASSES = 3
# After its repetitions a run times extra set-ups, up to SETUP_SAMPLES in all,
# within SETUP_SHARE of --seconds: one set-up of a small fleet takes 15 ms.
SETUP_SAMPLES = 15
SETUP_SHARE = 0.05
OUT_DIR = Path(".e2ebench-out")
WORKLOAD_NAMES = ("fleet_honest", "fleet_adversarial_audit")
# Loop-phase counts on fleet_honest that any correct tracer must see: the
# vehicle and the RSU each sign once, and each encounter is verified once.
SIGNS_PER_ENCOUNTER = 2
# The seed commit verifies 2 signatures per encounter (the vehicle's, and
# the RSU's own again in append_entry); "verify once" would make it 1.
SEED_VERIFIES_PER_ENCOUNTER = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


@dataclass
class Rep:
    """One repetition of a workload: build, run, audit, then checks."""

    setup_s: float
    run_s: float
    audit_s: list[float]  # one per audit pass
    encounters: int
    audit_entries: int  # per audit pass
    attempted: int
    failed: int
    ledger_bytes: int
    archive_bytes: int
    digests: dict[str, str]
    totals: object = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + sum(self.audit_s)


@dataclass
class Outcome:
    """Everything a run measured, across its repetitions."""

    plain: list[Rep] = field(default_factory=list)
    traced: list[Rep] = field(default_factory=list)
    wire: Rep | None = None
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    missing: dict[str, str] = field(default_factory=dict)


class Harness:
    def __init__(self, workload_name: str, seed: int, workdir: Path):
        # Imported here: the source path is only set once the checkout is found.
        from ecuchain import ledger, sim
        from ecuchain.wire import WireError

        import workloads

        self.sim = sim
        self.ledger = ledger
        self.audit_errors = (ledger.LedgerError, ledger.ArchiveError, WireError)
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[workload_name]
        self.config = self.workload.make_config(seed)
        self.workdir = workdir
        self._archives = 0

    # -- one repetition --------------------------------------------------------

    def _archive(self):
        self._archives += 1
        path = self.workdir / f"archive-{self._archives}"
        return path, (self.ledger.FileArchive(path) if self.workload.file_archive else None)

    def setup_only(self) -> float:
        """One more timed ``build_world``, for the set-up median."""
        archive_dir, archive = self._archive()
        try:
            t0 = time.perf_counter()
            self.sim.build_world(self.config, archive=archive)
            return time.perf_counter() - t0
        finally:
            shutil.rmtree(archive_dir, ignore_errors=True)

    def rep(self, tracer=None) -> Rep:
        archive_dir, archive = self._archive()
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            world = self.sim.build_world(self.config, archive=archive)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.phase = "loop"
            result = self.sim.run(world)
            t2 = time.perf_counter()
            if tracer is not None:
                tracer.phase = "audit"
            audits, audit_s = [], []
            for _ in range(AUDIT_PASSES):
                t3 = time.perf_counter()
                audits.append(self._audit(world))
                audit_s.append(time.perf_counter() - t3)
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            rep = self._check(world, result, audits, t1 - t0, t2 - t1, audit_s)
        finally:
            shutil.rmtree(archive_dir, ignore_errors=True)
        return rep

    def _audit(self, world):
        """Replay every roadside block's full history from the archive, then
        round-trip the roadside ledger through its byte encoding. Timed.
        """
        roadside = world.roadside
        histories = {}
        for pk in roadside.ledger.creation_order:
            block = roadside.ledger.blocks[pk]
            try:
                histories[pk] = len(self.ledger.reconstruct_history(block, roadside.archive))
            except self.audit_errors:
                histories[pk] = None
        blob = roadside.ledger.serialize()
        try:
            round_trip = self.ledger.deserialize_ledger(blob).serialize()
        except self.audit_errors:
            round_trip = None
        return histories, blob, round_trip

    def _check(self, world, result, audits, setup_s, run_s, audit_s) -> Rep:
        """Untimed: the oracle, the audit's expected history lengths and the
        determinism digests.
        """
        attempted, failed = self.workloads.check_encounters(self.config, result.event_log)
        expected = self.workloads.expected_history(result.event_log)
        histories, blob, round_trip = audits[0]
        repeatable = all(audit == audits[0] for audit in audits)
        ledger_ok = result.report.ledgers_valid and round_trip == blob and repeatable
        for pk, length in histories.items():
            attempted += 1
            subject = world.subject_by_pk.get(pk)
            failed += not (ledger_ok and length is not None and length == expected[subject])
        archive_hash = hashlib.sha256()
        archive_bytes = 0
        roadside = world.roadside
        for pk in roadside.ledger.creation_order:
            address = roadside.ledger.blocks[pk].header.external_address
            encoded = address.encode("utf-8")
            archive_hash.update(struct.pack(">I", len(encoded)) + encoded)
            for seq, data in roadside.archive.read(address):
                archive_hash.update(struct.pack(">QI", seq, len(data)) + data)
                archive_bytes += 8 + len(data)
        digests = {
            "event_log": _sha256(self.sim.event_log_text(result.event_log).encode("utf-8")),
            "roadside_ledger": _sha256(blob),
            "authority_ledger": _sha256(world.authority_tier.ledger.serialize()),
            "archive": archive_hash.hexdigest(),
        }
        return Rep(
            setup_s=setup_s,
            run_s=run_s,
            audit_s=audit_s,
            encounters=result.report.encounters,
            audit_entries=sum(n for n in histories.values() if n is not None),
            attempted=attempted,
            failed=failed,
            ledger_bytes=len(blob),
            archive_bytes=archive_bytes,
            digests=digests,
        )

    def crash_ops(self) -> int:
        """Operations a repetition would have attempted: every planned
        encounter and every audited block.
        """
        return self.config.n_vehicles * (self.config.encounters_per_vehicle + 1)

    # -- whole runs ------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> Outcome:
        """Repeat until the next repetition would overrun ``seconds``, with at
        least MIN_REPS untraced repetitions (or, traced, one pair).
        """
        from tracer import Tracer

        out = Outcome()
        start = time.perf_counter()
        setup_budget = 0.0 if trace else SETUP_SHARE * seconds
        try:
            if trace:
                wire_tracer = Tracer(spans=False)
                out.wire = self._record(out, self.rep(wire_tracer))
                out.wire.totals = wire_tracer.totals()
                out.missing.update(wire_tracer.missing)
            while True:
                gc.collect()
                out.plain.append(self._record(out, self.rep()))
                out.setups.append(out.plain[-1].setup_s)
                if trace:
                    gc.collect()
                    tracer = Tracer()
                    rep = self._record(out, self.rep(tracer))
                    rep.totals = tracer.totals()
                    out.missing.update(tracer.missing)
                    out.traced.append(rep)
                done = len(out.plain)
                elapsed = time.perf_counter() - start
                if (trace or done >= MIN_REPS) and elapsed * (done + 1) / done > seconds - setup_budget:
                    break
            spent = 0.0
            while len(out.setups) < SETUP_SAMPLES and spent < setup_budget:
                gc.collect()
                out.setups.append(self.setup_only())
                spent += out.setups[-1]
            if trace:
                OUT_DIR.mkdir(exist_ok=True)
                tracer.write_spans(OUT_DIR / f"spans-{self.workload.name}-seed{self.config.seed}.tsv")
        except Exception:
            traceback.print_exc()
            out.problems.append("a repetition raised; see the traceback on stderr")
            out.attempted += self.crash_ops()
            out.failed += self.crash_ops()
        reps = out.plain + out.traced + ([out.wire] if out.wire else [])
        for rep in reps[1:]:
            if rep.digests != reps[0].digests:
                out.problems.append("repetitions of one seed differ in their digests")
                out.failed += rep.attempted - rep.failed
        return out

    def _record(self, out: Outcome, rep: Rep) -> Rep:
        out.attempted += rep.attempted
        out.failed += rep.failed
        if rep.failed:
            out.problems.append(f"{rep.failed} of {rep.attempted} operations failed")
        return rep


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def end_to_end_metrics(out: Outcome, n_vehicles: int) -> dict[str, tuple[float, str]]:
    reps = out.plain
    first = reps[0]
    return {
        "encounters_per_s": (statistics.median(r.encounters / r.run_s for r in reps), "1/s"),
        "setup_s": (statistics.median(out.setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ledger_bytes_per_vehicle": (first.ledger_bytes / n_vehicles, "B"),
        "archive_bytes_per_encounter": (first.archive_bytes / first.encounters, "B"),
        "passed_share": (1 - out.failed / out.attempted, "ratio"),
    }


def per_layer_metrics(out: Outcome, n_vehicles: int):
    from tracer import Totals, layer_metrics

    totals = Totals()
    for rep in out.traced:
        totals.add(rep.totals)
    overhead = (
        statistics.median(r.wall_s for r in out.traced)
        / statistics.median(r.wall_s for r in out.plain)
        - 1
    )
    metrics, left_out = layer_metrics(
        totals,
        out.wire.totals,
        reps=len(out.traced),
        encounters=sum(r.encounters for r in out.traced),
        audit_entries=sum(r.audit_entries * len(r.audit_s) for r in out.traced),
        vehicles=n_vehicles,
        wire_encounters=out.wire.encounters,
        audit_rate=statistics.median(r.audit_entries / s for r in out.plain for s in r.audit_s),
        overhead_share=overhead,
        missing=out.missing,
    )
    return metrics, left_out, totals


def self_check(totals, encounters: int, missing: dict[str, str]) -> tuple[list[str], bool]:
    """Loop-phase counts on fleet_honest that show the tracer sees every
    call. Returns report lines and whether the hard checks passed.
    """
    lines, ok = [], True

    def count(name):
        return totals.calls[(name, "loop")]

    def check(label, needs, passed, hard=True):
        nonlocal ok
        if needs in missing:
            lines.append(f"{label}: not checked, {needs} missing")
            return
        lines.append(f"{label}: {'ok' if passed else 'FAILED' if hard else 'differs'}")
        ok = ok and (passed or not hard)

    sign = count("crypto.sign")
    verify = count("crypto.verify")
    check(f"crypto.sign calls {sign} == {SIGNS_PER_ENCOUNTER} x {encounters} encounters", "crypto.sign",
          sign == SIGNS_PER_ENCOUNTER * encounters)
    check(f"protocol.verify_response calls {count('protocol.verify_response')} == {encounters} encounters",
          "protocol.verify_response", count("protocol.verify_response") == encounters)
    check(f"crypto.verify calls {verify} >= {encounters} encounters", "crypto.verify", verify >= encounters)
    check(f"crypto.verify calls {verify} == {SEED_VERIFIES_PER_ENCOUNTER} x {encounters} (seed commit)",
          "crypto.verify", verify == SEED_VERIFIES_PER_ENCOUNTER * encounters, hard=False)
    return lines, ok


# -- run metadata ---------------------------------------------------------------


def git_sha() -> str:
    head = Path(".git/HEAD")
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = Path(".git") / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in Path(".git/packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest(src: Path) -> str:
    """SHA-256 over the program's source files, which identifies the code
    when the checkout carries no git metadata.
    """
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            rel = path.relative_to(src).as_posix().encode("utf-8")
            h.update(struct.pack(">I", len(rel)) + rel)
            data = path.read_bytes()
            h.update(struct.pack(">Q", len(data)) + data)
    return h.hexdigest()


def filesystem(path: Path) -> str:
    target = str(path.resolve())
    best = ("", "unknown")
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best[0]):
                    best = (mount, fields[2])
    except OSError:
        pass
    return f"{best[1]} (mounted at {best[0] or '?'})"


def flush_policy(workdir: Path) -> str:
    """Count the fsync/fdatasync calls one FileArchive append makes."""
    from ecuchain.ledger import FileArchive

    from tracer import MissingTarget, Patches

    calls = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    patches = Patches()
    try:
        for target in ("os:fsync", "os:fdatasync"):
            try:
                patches.wrap(target, counting)
            except MissingTarget:
                pass
        FileArchive(workdir / "flush-probe").append_many("probe", [(0, b"probe")])
    finally:
        patches.undo()
        shutil.rmtree(workdir / "flush-probe", ignore_errors=True)
    return f"{calls[0]} fsync per FileArchive.append_many call"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(src: Path, workdir: Path) -> dict:
    kernels = importlib.import_module("ecuchain._kernels")
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(src),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "kernel_backend": getattr(kernels, "BACKEND", "missing (no _kernels.BACKEND)"),
        "archive_dir_fs": filesystem(workdir),
        "flush_policy": flush_policy(workdir),
    }


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src")
    if not (src / "ecuchain" / "__init__.py").is_file():
        print("e2ebench: src/ecuchain not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    import ecuchain

    if src.resolve() not in Path(ecuchain.__file__).resolve().parents:
        print(f"e2ebench: imported ecuchain from {ecuchain.__file__}, not src/", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(args.workload, args.seed, workdir)
        meta = metadata(src, workdir)
        out = harness.measure(args.seconds, trace=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n_vehicles = harness.config.n_vehicles
    print(f"e2ebench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(out.plain)} traced_reps={len(out.traced)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    reps = out.plain + out.traced
    if reps:
        print("digests " + json.dumps(reps[0].digests, sort_keys=True))
    share = out.failed / out.attempted if out.attempted else 1.0
    print(f"failed_share {share!r} ratio ({out.failed} of {out.attempted} operations failed)")
    correct = not out.problems and out.attempted > 0
    metrics: dict[str, tuple[float, str]] = {}
    if correct and not args.trace:
        metrics = end_to_end_metrics(out, n_vehicles)
    elif correct:
        metrics, left_out, totals = per_layer_metrics(out, n_vehicles)
        for name, why in sorted(left_out.items()):
            print(f"missing {name}: {why}")
        if args.workload == "fleet_honest":
            encounters = sum(r.encounters for r in out.traced)
            lines, passed = self_check(totals, encounters, out.missing)
            for line in lines:
                print("self-check " + line)
            if not passed:
                out.problems.append("the traced fleet_honest count self-check failed")
                correct = False
    for problem in out.problems:
        print("problem " + problem)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
