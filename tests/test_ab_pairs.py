"""The pure functions of tools/ab_pairs.py, which judge every claimed gain:
quartiles, the claim rule and the digest comparison."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _run(**metrics):
    """A run's result line: ``name=(value, better)``."""
    return {"metrics": {name: {"value": value, "better": better}
                        for name, (value, better) in metrics.items()}}


def _pairs(name, better, parent, change):
    return [(_run(**{name: (a, better)}), _run(**{name: (b, better)}))
            for a, b in zip(parent, change)]


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
        assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)

    def test_one_run_is_its_own_spread(self):
        assert ab_pairs.quartiles([7.0]) == (7.0, 7.0)


class TestCompare:
    def test_nine_wins_of_ten_claim_a_gain(self):
        pairs = _pairs("ops_per_s", "higher", [10.0] * 10, [11.0] * 9 + [9.0])
        (row,) = ab_pairs.compare(pairs, {"ops_per_s": 0.25})
        assert row["wins"] == 9 and row["pairs"] == 10
        assert row["claim_holds"] and row["within_bound"]
        assert row["rel_change"] == pytest.approx(0.1)

    def test_ties_count_for_neither_side(self):
        # nine better and one equal is nine wins; eight better and two equal
        # is eight, below nine tenths
        (row,) = ab_pairs.compare(
            _pairs("ops_per_s", "higher", [10.0] * 10, [11.0] * 9 + [10.0]),
            {})
        assert row["wins"] == 9 and row["claim_holds"]
        (row,) = ab_pairs.compare(
            _pairs("ops_per_s", "higher", [10.0] * 10,
                   [11.0] * 8 + [10.0] * 2), {})
        assert row["wins"] == 8 and not row["claim_holds"]

    def test_lower_is_better_metrics(self):
        faster = _pairs("op_s_p50", "lower", [1.0] * 10, [0.8] * 10)
        (row,) = ab_pairs.compare(faster, {"op_s_p50": 0.25})
        assert row["wins"] == 10 and row["claim_holds"]
        assert row["rel_change"] == pytest.approx(-0.2)
        assert row["within_bound"]
        slower = _pairs("op_s_p50", "lower", [1.0] * 10, [1.3] * 10)
        (row,) = ab_pairs.compare(slower, {"op_s_p50": 0.25})
        assert row["wins"] == 0 and not row["claim_holds"]
        assert not row["within_bound"]
        (row,) = ab_pairs.compare(slower, {"op_s_p50": 0.35})
        assert row["within_bound"]

    def test_gain_must_exceed_the_parent_spread(self):
        # every pair won, but by less than the parent's quartile distance
        parent = [float(v) for v in range(1, 11)]
        change = [v + 0.5 for v in parent]
        (row,) = ab_pairs.compare(_pairs("ops_per_s", "higher", parent, change),
                                {})
        assert row["wins"] == 10
        assert row["parent_q3"] - row["parent_q1"] == pytest.approx(4.5)
        assert not row["claim_holds"]

    def test_a_metric_without_a_bound_is_within_it(self):
        (row,) = ab_pairs.compare(
            _pairs("peak_rss_mb", "lower", [80.0] * 4, [200.0] * 4), {})
        assert row["bound"] is None and row["within_bound"]


class TestCompareDigests:
    def test_failed_operations_never_match(self):
        parent = {"digests": {"warmup": ["w", "w"], "ops": ["a", "", "c"],
                              "objective_rel": [1.0, 0.0, 1.5]}}
        change = {"digests": {"warmup": ["w", "w"],
                              "ops": ["a", "", "x", "d"],
                              "objective_rel": [1.0, 0.0, 1.25, 1.0]}}
        (row,) = ab_pairs.compare_digests([(parent, change)])
        # the operations both sides ran; the empty digest of a failed
        # operation matches nothing, not even another failure
        assert row == {"warmup_match": True, "common_ops": 3, "same_ops": 1,
                       "completed_ops": 2, "max_objective_delta": 0.25,
                       "max_objective_decrease": 0.25}

    def test_warmup_mismatch(self):
        parent = {"digests": {"warmup": ["w"], "ops": [],
                              "objective_rel": []}}
        change = {"digests": {"warmup": ["v"], "ops": [],
                              "objective_rel": []}}
        (row,) = ab_pairs.compare_digests([(parent, change)])
        assert row == {"warmup_match": False, "common_ops": 0, "same_ops": 0,
                       "completed_ops": 0, "max_objective_delta": None,
                       "max_objective_decrease": None}

    def test_objective_change_of_completed_operations_only(self):
        # a failed operation's objective_rel (0.0) is no output to compare;
        # the largest change is taken over the operations both completed,
        # whether their digests match or not
        parent = {"digests": {"warmup": ["w"], "ops": ["a", "b", "c", "d"],
                              "objective_rel": [1.0, 1.0, 1.0, 1.0]}}
        change = {"digests": {"warmup": ["w"], "ops": ["a", "", "y", "z"],
                              "objective_rel": [1.0, 0.0, 1.0 + 2e-14,
                                                1.0 - 3e-14]}}
        (row,) = ab_pairs.compare_digests([(parent, change)])
        assert row["completed_ops"] == 3 and row["same_ops"] == 1
        assert row["max_objective_delta"] == pytest.approx(3e-14, rel=1e-3)

    def test_largest_decrease_is_signed(self):
        # parent minus change: the operation that fell most sets it, however
        # much another rose; when every operation rose it is negative
        parent = {"digests": {"warmup": ["w"], "ops": ["a", "b", "c"],
                              "objective_rel": [1.0, 1.0, 1.0]}}
        change = {"digests": {"warmup": ["w"], "ops": ["x", "y", "z"],
                              "objective_rel": [1.0 + 5e-8, 1.0 - 2e-9,
                                                1.0 - 1e-9]}}
        (row,) = ab_pairs.compare_digests([(parent, change)])
        assert row["max_objective_delta"] == pytest.approx(5e-8, rel=1e-6)
        assert row["max_objective_decrease"] == pytest.approx(2e-9, rel=1e-6)
        rose = {"digests": {"warmup": ["w"], "ops": ["x", "y", "z"],
                            "objective_rel": [1.0 + 3e-9, 1.0 + 1e-9,
                                              1.0 + 2e-9]}}
        (row,) = ab_pairs.compare_digests([(parent, rose)])
        assert row["max_objective_decrease"] == pytest.approx(-1e-9, rel=1e-6)
