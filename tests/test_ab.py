"""The A/B timing tool's summary (``tools/ab.py``) on fixed numbers: the
quartiles, the per-pair ratios and wins, and the gain-claim rule.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"

_spec = importlib.util.spec_from_file_location("tools_ab", AB_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]


def test_quartiles_interpolate_between_order_statistics():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_resolved_gain_holds():
    head = [b - 3.0 for b in BASE]
    s = ab.summarize(BASE, head)
    assert s["base"] == (11.0, 12.0, 13.0)
    assert s["head"] == (8.0, 9.0, 10.0)
    assert s["ratios"][0] == pytest.approx(0.7)
    assert s["ratio_range"] == pytest.approx((0.7, 11.0 / 14.0))
    assert (s["head_wins"], s["base_wins"]) == (10, 0)
    assert s["claim_holds"]


def test_eight_wins_in_ten_do_not_hold():
    head = [b - 3.0 for b in BASE[:8]] + [b + 1.0 for b in BASE[8:]]
    s = ab.summarize(BASE, head)
    assert (s["head_wins"], s["base_wins"]) == (8, 2)
    assert not s["claim_holds"]


def test_a_gap_within_the_base_spread_does_not_hold():
    head = [b - 1.0 for b in BASE]
    s = ab.summarize(BASE, head)
    assert s["head_wins"] == 10
    # The medians differ by 1.0, and BASE's quartiles are 2.0 apart.
    assert not s["claim_holds"]


def test_ties_count_for_neither_side():
    s = ab.summarize(BASE, list(BASE))
    assert (s["head_wins"], s["base_wins"]) == (0, 0)
    assert s["ratio_median"] == 1.0
    assert not s["claim_holds"]


def test_fewer_than_ten_pairs_never_hold():
    s = ab.summarize([10.0], [5.0])
    assert s["head_wins"] == 1
    assert not s["claim_holds"]


def test_unpaired_times_are_refused():
    with pytest.raises(ValueError):
        ab.summarize(BASE, BASE[:9])


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_u64_is_a_usage_error(seed):
    """Refused before both commits are exported, not in the child."""
    with pytest.raises(SystemExit) as exc:
        ab.parse_args(["HEAD", "--workload", "fleet_honest", "--seed", str(seed)])
    assert exc.value.code == 2
    args = ab.parse_args(["HEAD", "--workload", "fleet_honest", "--seed", str(2**64 - 1)])
    assert args.seed == 2**64 - 1
