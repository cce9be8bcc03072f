"""Same-host A/B timing of two commits on one benchmark workload.

    python3 tools/ab.py BASE [HEAD] --workload fleet_honest --seed 1 --pairs 10 --reps 3

Both commits (HEAD defaults to ``HEAD``) are exported with ``git archive``
into a temporary directory. The tool then runs ``--pairs`` pairs of
processes, one per commit, and swaps which side runs first on every pair.
Each process imports ``ecuchain`` and ``e2ebench/workloads.py`` from its
own tree, builds the workload's config for ``--seed``, and times
``--reps`` repetitions of ``sim.build_world``, ``sim.run`` and one more
``roadside.ledger.validate()`` (the audit line). A workload its tree marks
as file-archived runs on a ``FileArchive`` in a temporary directory.

It prints each side's median and quartiles of the process times, each
pair's HEAD/BASE time ratio with their median and range, the wins per side
(the faster process of a pair wins; ties count for neither), and whether a
HEAD gain may be claimed: at least ten pairs ran, HEAD wins at least nine
pairs in ten, and BASE's median exceeds HEAD's by more than BASE's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
U64_MAX = (1 << 64) - 1


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly
    between order statistics (the "inclusive" method).
    """
    s = sorted(xs)

    def at(q: float) -> float:
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def summarize(base: list[float], head: list[float]) -> dict:
    """The A/B summary of paired process times (seconds, lower is better);
    ``base[i]`` and ``head[i]`` ran as one pair.
    """
    if len(base) != len(head) or not base:
        raise ValueError("need the same number of BASE and HEAD times, at least one")
    ratios = [h / b for b, h in zip(base, head)]
    head_wins = sum(h < b for b, h in zip(base, head))
    base_wins = sum(b < h for b, h in zip(base, head))
    base_q, head_q = quartiles(base), quartiles(head)
    base_iqr = base_q[2] - base_q[0]
    return {
        "pairs": len(base),
        "base": base_q,
        "head": head_q,
        "ratios": ratios,
        "ratio_median": quartiles(ratios)[1],
        "ratio_range": (min(ratios), max(ratios)),
        "head_wins": head_wins,
        "base_wins": base_wins,
        "claim_holds": len(base) >= 10
        and 10 * head_wins >= 9 * len(base)
        and base_q[1] - head_q[1] > base_iqr,
    }


def report(summary: dict, base_name: str, head_name: str, reps: int) -> str:
    lines = []
    for side, name in (("base", base_name), ("head", head_name)):
        q1, med, q3 = summary[side]
        lines.append(
            f"{side} {name}: median {med:.3f} s, quartiles {q1:.3f}-{q3:.3f} s"
            f" ({summary['pairs']} processes of {reps} reps)"
        )
    lo, hi = summary["ratio_range"]
    lines.append("head/base ratios: " + " ".join(f"{r:.3f}" for r in summary["ratios"]))
    lines.append(f"ratio median {summary['ratio_median']:.3f}, range {lo:.3f}-{hi:.3f}")
    ties = summary["pairs"] - summary["head_wins"] - summary["base_wins"]
    lines.append(
        f"wins: head {summary['head_wins']}, base {summary['base_wins']}, ties {ties}"
    )
    verdict = "holds" if summary["claim_holds"] else "does not hold"
    lines.append(
        f"head gain claim (10+ pairs, 9 wins in 10, median gap > base IQR): {verdict}"
    )
    return "\n".join(lines)


# -- one timed process ---------------------------------------------------------


def time_tree(tree: Path, workload: str, seed: int, reps: int) -> float:
    """Seconds for ``reps`` runs of build, run and audit, with the program
    and workloads imported from ``tree``. Runs in a process of its own.
    """
    sys.path[:0] = [str(tree / "src"), str(tree / "e2ebench")]
    import ecuchain
    from ecuchain import ledger, sim

    import workloads

    if not Path(ecuchain.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported ecuchain from {ecuchain.__file__}, not {tree}")
    spec = workloads.WORKLOADS[workload]
    config = spec.make_config(seed)
    total = 0.0
    for _ in range(reps):
        with tempfile.TemporaryDirectory(prefix="ab-archive-") as tmp:
            archive = ledger.FileArchive(Path(tmp) / "archive") if spec.file_archive else None
            t0 = time.perf_counter()
            world = sim.build_world(config, archive=archive)
            result = sim.run(world)
            valid = world.roadside.ledger.validate()
            total += time.perf_counter() - t0
        if not (valid and result.report.ledgers_valid):
            raise SystemExit(f"{tree}: a ledger failed validation")
    return total


# -- paired runs ---------------------------------------------------------------


def export(rev: str, dest: Path) -> str:
    """Extract commit ``rev`` into ``dest``; returns its short sha."""
    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--short", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    tar = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(REPO), "archive", "-o", str(tar), sha], check=True)
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    tar.unlink()
    return sha


def run_side(tree: Path, args: argparse.Namespace) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
        "--workload", args.workload, "--seed", str(args.seed), "--reps", str(args.reps),
    ]
    # The child must import nothing from an installed copy of the program.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, env=env)
    return json.loads(out.stdout)["seconds"]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", nargs="?", help="the commit the change is measured against")
    p.add_argument("head", nargs="?", default="HEAD", help="the changed commit (default HEAD)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is None and args.base is None:
        p.error("BASE is required")
    if args.pairs < 1 or args.reps < 1:
        p.error("--pairs and --reps must be at least 1")
    # A seed is a u64 (``SimConfig`` refuses any other): refuse it here,
    # before both commits are exported.
    if not 0 <= args.seed <= U64_MAX:
        p.error(f"--seed must be in [0, {U64_MAX}]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        seconds = time_tree(args.child, args.workload, args.seed, args.reps)
        print(json.dumps({"seconds": seconds}))
        return 0
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {"base": tmp / "base", "head": tmp / "head"}
        names = {side: export(rev, trees[side]) for side, rev in
                 (("base", args.base), ("head", args.head))}
        times: dict[str, list[float]] = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                times[side].append(run_side(trees[side], args))
            print(f"pair {i + 1}: base {times['base'][-1]:.3f} s, head {times['head'][-1]:.3f} s",
                  flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarize(times["base"], times["head"])
    print(report(summary, names["base"], names["head"], args.reps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
