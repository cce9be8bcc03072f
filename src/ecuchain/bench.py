"""Benchmark harness: block creation, challenge validation, Merkle root
timing and ledger storage, each reported as mean and standard deviation
over ten runs.

Timing series measure the total wall-clock for one batch at each x value
(e.g. registering n vehicles); absolute numbers are hardware-bound, the
trends (linearity, monotone growth) are what the suite asserts. Every
sample runs on the calling thread, one after another, and a series
interleaves its x values (run i of each before run i + 1 of any).
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .crypto import KeyPair, derive_seed, generate_keypair, sha256
from .ecu import EcuState, compute_state_root, state_from_digests
from .ledger import Ledger
from .protocol import (
    AuthorityTier,
    RoadsideTier,
    initialize_vehicle,
    issue_challenge,
    make_genesis,
    new_authority_tier,
    record_response,
    build_response,
    register_rsu,
)
from .transactions import Verdict

RUNS = 10

DEFAULT_VEHICLE_COUNTS = (10, 50, 100, 150, 200)
DEFAULT_ECU_COUNTS = (10, 100, 250, 500, 750, 1000)
DEFAULT_STORAGE_COUNTS = (1_000, 10_000, 50_000, 100_000)
DEFAULT_EXTRAPOLATION = (5_600_000,)

ECUS_PER_VEHICLE = 8


@dataclass(frozen=True)
class SeriesPoint:
    x: int
    mean_ms: float
    stddev_ms: float


@dataclass(frozen=True)
class StoragePoint:
    blocks: int
    bytes: int
    kind: str  # "measured" | "extrapolated"


@dataclass
class MetricsReport:
    benchmark: str
    x_label: str
    runs: int = RUNS
    series: list[SeriesPoint] = field(default_factory=list)
    storage: list[StoragePoint] = field(default_factory=list)
    per_block_bytes: Optional[float] = None

    def to_csv(self) -> str:
        lines = []
        if self.series:
            lines.append(f"{self.x_label},mean_ms,stddev_ms")
            for p in self.series:
                lines.append(f"{p.x},{p.mean_ms:.6f},{p.stddev_ms:.6f}")
        else:
            lines.append("blocks,bytes,kind")
            for s in self.storage:
                lines.append(f"{s.blocks},{s.bytes},{s.kind}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload: dict = {"benchmark": self.benchmark, "runs": self.runs}
        if self.series:
            payload["series"] = [
                {self.x_label: p.x, "mean_ms": p.mean_ms, "stddev_ms": p.stddev_ms}
                for p in self.series
            ]
        if self.storage:
            payload["storage"] = [
                {"blocks": s.blocks, "bytes": s.bytes, "kind": s.kind}
                for s in self.storage
            ]
        if self.per_block_bytes is not None:
            payload["per_block_bytes"] = self.per_block_bytes
        return json.dumps(payload, indent=2) + "\n"


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (xs, ys): returns (slope, intercept, r2)."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate x values")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _check_counts(counts: Sequence[int]) -> None:
    if not counts or min(counts) < 1:
        raise ValueError("counts must be nonempty and each at least 1")


def _series(
    counts: Sequence[int], make_run: Callable[[int], Callable[[int], float]], runs: int
) -> list[SeriesPoint]:
    """Mean and standard deviation of ``runs`` timings at each x in
    ``counts``. ``make_run(x)`` returns ``one_run(run_index) -> ms``; each x
    gets one warm-up (run index -1, not recorded), then run i of every x is
    taken before run i + 1 of any, so a burst of load on the host spreads
    over all x instead of skewing one.
    """
    _check_counts(counts)
    if runs < 2:
        raise ValueError("runs must be at least 2: a stddev needs two samples")
    one_runs = [make_run(x) for x in counts]
    for one_run in one_runs:
        one_run(-1)
    samples: list[list[float]] = [[] for _ in counts]
    for i in range(runs):
        for one_run, out in zip(one_runs, samples):
            out.append(one_run(i))
    return [
        SeriesPoint(x=x, mean_ms=statistics.fmean(out), stddev_ms=statistics.stdev(out))
        for x, out in zip(counts, samples)
    ]


def _vehicle_material(seed: int, count: int, tag: bytes):
    """Deterministic keys, states and genesis transactions for a batch."""
    seed64 = seed.to_bytes(8, "big")
    maker = generate_keypair(derive_seed(b"bench-maker", seed64, tag))
    out = []
    for v in range(count):
        keys = generate_keypair(
            derive_seed(b"bench-vehicle", seed64, tag, v.to_bytes(8, "big"))
        )
        state = state_from_digests(
            sha256(derive_seed(b"bench-fw", seed64, tag, v.to_bytes(8, "big"), bytes([e])))
            for e in range(ECUS_PER_VEHICLE)
        )
        out.append((keys, state, make_genesis(maker, keys.public, state, ts=0)))
    return maker, out


def _tiers(maker: KeyPair, *validators: int) -> tuple[AuthorityTier, RoadsideTier]:
    """New authority and roadside tiers: the bench validator keys numbered
    ``validators``, and ``maker`` as the one maker.
    """
    authority = new_authority_tier(
        validators=[generate_keypair(derive_seed(b"bench-val", bytes([v]))) for v in validators],
        authorized_makers=(maker.public,),
        authorized_insurers=(),
    )
    return authority, RoadsideTier()


def bench_create(
    counts: Sequence[int] = DEFAULT_VEHICLE_COUNTS,
    seed: int = 0,
    runs: int = RUNS,
) -> MetricsReport:
    """Validator-side block creation: verify each genesis transaction,
    open the block. One batch of n registrations per sample.
    """

    def make_run(n: int) -> Callable[[int], float]:
        maker, material = _vehicle_material(seed, n, b"create%d" % n)

        def one_run(run_idx: int) -> float:
            authority, roadside = _tiers(maker, 1, 2)
            start = time.perf_counter_ns()
            for _, _, genesis in material:
                initialize_vehicle(authority, roadside, genesis)
            return (time.perf_counter_ns() - start) / 1e6

        return one_run

    return MetricsReport("block-creation", "vehicles", runs, _series(counts, make_run, runs))


def bench_challenge(
    counts: Sequence[int] = DEFAULT_VEHICLE_COUNTS,
    seed: int = 0,
    runs: int = RUNS,
) -> MetricsReport:
    """RSU-side challenge evaluation: ``record_response`` verifies and
    records each response, a batch of n per sample. The runs of a batch
    share ledger state, so their timestamps increase with the run index
    (the warm-up's, run index -1, come first).
    """

    def make_run(n: int) -> Callable[[int], float]:
        maker, material = _vehicle_material(seed, n, b"challenge%d" % n)
        rsu = generate_keypair(derive_seed(b"bench-rsu", seed.to_bytes(8, "big")))
        authority, roadside = _tiers(maker, 3)
        register_rsu(authority, rsu.public)
        for _, _, genesis in material:
            initialize_vehicle(authority, roadside, genesis)
        rng = random.Random(seed ^ 0xC4A11E)

        def one_run(run_idx: int) -> float:
            ts = (run_idx + 2) * 1_000  # strictly increasing across runs
            rounds = []
            for keys, state, _ in material:
                challenge = issue_challenge(rsu.public, keys.public, len(state), rng, ts=ts)
                rounds.append((challenge, build_response(keys, state, challenge, ts)))
            start = time.perf_counter_ns()
            for challenge, response in rounds:
                verdict = record_response(authority, roadside, rsu, challenge, response)
                if verdict is not Verdict.VALID:
                    raise RuntimeError(f"benchmark round not valid: {verdict}")
            return (time.perf_counter_ns() - start) / 1e6

        return one_run

    series = _series(counts, make_run, runs)
    return MetricsReport("challenge-validation", "vehicles", runs, series)


def bench_merkle(
    counts: Sequence[int] = DEFAULT_ECU_COUNTS,
    seed: int = 0,
    runs: int = RUNS,
) -> MetricsReport:
    """State-root computation time per ECU count (per-call milliseconds;
    each sample averages an inner repetition loop for timer resolution).
    """
    seed64 = seed.to_bytes(8, "big")

    def make_run(n: int) -> Callable[[int], float]:
        digests = [
            sha256(derive_seed(b"bench-merkle", seed64, i.to_bytes(8, "big")))
            for i in range(n)
        ]
        records = state_from_digests(digests).records
        reps = max(3, 3_000 // n)

        def one_run(run_idx: int) -> float:
            # A state caches its root, so each repetition gets a fresh one.
            states = [EcuState(records=records) for _ in range(reps)]
            start = time.perf_counter_ns()
            for state in states:
                compute_state_root(state)
            return (time.perf_counter_ns() - start) / 1e6 / reps

        return one_run

    return MetricsReport("merkle-root", "ecus", runs, _series(counts, make_run, runs))


def bench_storage(
    counts: Sequence[int] = DEFAULT_STORAGE_COUNTS,
    extrapolate_to: Sequence[int] = DEFAULT_EXTRAPOLATION,
    seed: int = 0,
) -> MetricsReport:
    """Exact serialized ledger size at each materialized block count, plus a
    linear extrapolation to the requested fleet sizes, fit through those
    points and the empty ledger, so one count extrapolates exactly. Blocks
    hold one registration entry each (freshly initialized vehicles).
    """
    _check_counts([*counts, *extrapolate_to])
    targets = sorted(set(counts))
    report = MetricsReport(benchmark="ledger-storage", x_label="blocks")
    seed64 = seed.to_bytes(8, "big")
    maker = generate_keypair(derive_seed(b"bench-storage-maker", seed64))
    state = state_from_digests(
        sha256(derive_seed(b"bench-storage-fw", seed64, bytes([e])))
        for e in range(ECUS_PER_VEHICLE)
    )
    ledger = Ledger()
    built = 0
    measured = [(0, len(ledger.serialize()))]
    for target in targets:
        while built < target:
            keys = generate_keypair(
                derive_seed(b"bench-storage-vehicle", seed64, built.to_bytes(8, "big"))
            )
            genesis = make_genesis(maker, keys.public, state, ts=0)
            ledger.create_block(keys.public, genesis)
            built += 1
        size = len(ledger.serialize())
        measured.append((target, size))
        report.storage.append(StoragePoint(blocks=target, bytes=size, kind="measured"))
    slope, intercept, _ = linear_fit([m[0] for m in measured], [m[1] for m in measured])
    report.per_block_bytes = slope
    for target in extrapolate_to:
        report.storage.append(
            StoragePoint(
                blocks=target,
                bytes=int(slope * target + intercept),
                kind="extrapolated",
            )
        )
    return report
