"""File ingestion, composite scores, and the synthetic rate generator."""

from __future__ import annotations

import json
import random
import sys

import pytest

from qaiccc import (
    CrosstalkRate,
    InputFileError,
    composite_score,
    load_platform,
    load_rates,
    load_requests,
    save_rates,
    synth_rates,
)
import qaiccc.ingest as ingest_module
from qaiccc.cli import EXIT_INPUT, main
from qaiccc.ingest import MAX_QUBITS, save_platform, save_requests


class TestCompositeScore:
    def test_zero_stochastic_is_identity(self):
        assert composite_score(0.0, 0.42) == 0.42

    def test_commutative(self):
        assert composite_score(0.003, 0.001) == composite_score(0.001, 0.003)

    def test_published_example_sum(self):
        # Any decomposition summing to a published composite is acceptable.
        assert composite_score(0.001, 0.0017) == pytest.approx(0.0027, abs=1e-15)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            composite_score(-0.1, 0.2)
        with pytest.raises(ValueError):
            composite_score(0.1, -0.2)

    def test_monotone_in_each_argument(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b, eps = rng.random(), rng.random(), rng.random()
            assert composite_score(a + eps, b) >= composite_score(a, b)
            assert composite_score(a, b + eps) >= composite_score(a, b)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoadRates:
    def test_score_record(self, tmp_path, demo_graph):
        path = write(tmp_path, "r.json", [{"score": 0.0027, "impacting": [3, 4], "impacted": [2]}])
        (rate,) = load_rates(path, demo_graph)
        assert rate == CrosstalkRate(0.0027, frozenset({3, 4}), frozenset({2}))

    def test_stochastic_hamiltonian_record(self, tmp_path, demo_graph):
        path = write(
            tmp_path,
            "r.json",
            [{"stochastic": 0.001, "hamiltonian": 0.0014, "impacting": [2, 4], "impacted": [3]}],
        )
        (rate,) = load_rates(path, demo_graph)
        assert rate.score == pytest.approx(0.0024, abs=1e-15)
        assert rate.impacting == frozenset({2, 4})

    def test_file_order_is_preserved(self, tmp_path, demo_graph):
        path = write(
            tmp_path,
            "r.json",
            [
                {"score": 0.001, "impacting": [1], "impacted": [0]},
                {"score": 0.009, "impacting": [3], "impacted": [4]},
            ],
        )
        rates = load_rates(path, demo_graph)
        assert [r.score for r in rates] == [0.001, 0.009]

    @pytest.mark.parametrize(
        "record,fragment",
        [
            ({"score": 0.1, "impacting": [0], "impacted": [3]}, "not connected"),
            ({"score": 0.1, "impacting": [0, 1, 2], "impacted": [3]}, "shape"),
            ({"score": 0.1, "impacting": [9], "impacted": [2]}, "unknown qubits"),
            ({"score": 0.1, "impacting": [2], "impacted": [2]}, "overlap"),
            ({"impacting": [1], "impacted": [0]}, "needs 'score'"),
            ({"score": 0.1, "stochastic": 0.1, "hamiltonian": 0.0, "impacting": [1], "impacted": [0]}, "not both"),
            ({"score": -0.1, "impacting": [1], "impacted": [0]}, "non-negative"),
            ({"score": 0.1, "impacting": "x", "impacted": [0]}, "list of integers"),
            ({"score": float("nan"), "impacting": [1], "impacted": [0]}, "finite non-negative"),
            ({"stochastic": float("inf"), "hamiltonian": 0.0, "impacting": [1], "impacted": [0]}, "finite non-negative"),
            ({"stochastic": 0.0, "hamiltonian": float("nan"), "impacting": [1], "impacted": [0]}, "finite non-negative"),
            ({"stochastic": 1e308, "hamiltonian": 1e308, "impacting": [1], "impacted": [0]}, "finite non-negative"),
            # JSON integers past the largest float: not finite, and no OverflowError.
            ({"score": 10**400, "impacting": [1], "impacted": [0]}, "'score' must be a finite"),
            ({"stochastic": 10**400, "hamiltonian": 0, "impacting": [1], "impacted": [0]}, "'stochastic' must be a finite"),
            ({"stochastic": 0, "hamiltonian": 10**400, "impacting": [1], "impacted": [0]}, "'hamiltonian' must be a finite"),
        ],
    )
    def test_record_errors_carry_the_index(self, tmp_path, demo_graph, record, fragment):
        good = {"score": 0.2, "impacting": [1], "impacted": [2]}
        path = write(tmp_path, "r.json", [good, record])
        with pytest.raises(InputFileError) as err:
            load_rates(path, demo_graph)
        assert err.value.record == 1
        assert fragment in str(err.value)

    def test_duplicate_pair_rejected(self, tmp_path, demo_graph):
        path = write(
            tmp_path,
            "r.json",
            [
                {"score": 0.1, "impacting": [3, 4], "impacted": [2]},
                {"score": 0.2, "impacting": [4, 3], "impacted": [2]},
            ],
        )
        with pytest.raises(InputFileError) as err:
            load_rates(path, demo_graph)
        assert "duplicate" in str(err.value)
        assert err.value.record == 1

    def test_scores_summing_past_the_largest_float_are_refused(self, tmp_path, demo_graph):
        # Each score is finite, but 1e308 + 1e308 overflows to inf.
        pairs = (([3, 4], [2]), ([1, 2], [0]), ([2, 4], [0]))
        records = [{"score": 1e308, "impacting": a, "impacted": b} for a, b in pairs]
        path = write(tmp_path, "r.json", records)
        with pytest.raises(InputFileError, match="sum to inf") as err:
            load_rates(path, demo_graph)
        assert err.value.path == str(path) and err.value.record is None

    def test_scores_summing_below_the_largest_float_are_accepted(self, tmp_path, demo_graph):
        quarter = sys.float_info.max / 4
        records = [
            {"score": quarter, "impacting": [3, 4], "impacted": [2]},
            {"score": quarter, "impacting": [1, 2], "impacted": [0]},
        ]
        assert [r.score for r in load_rates(write(tmp_path, "r.json", records), demo_graph)] == [
            quarter, quarter,
        ]

    def test_non_array_file_rejected(self, tmp_path, demo_graph):
        path = write(tmp_path, "r.json", {"rates": []})
        with pytest.raises(InputFileError):
            load_rates(path, demo_graph)

    def test_round_trip(self, tmp_path, demo_graph, demo_rates):
        path = tmp_path / "out.json"
        save_rates(demo_rates, path)
        assert list(load_rates(path, demo_graph)) == list(demo_rates)


class TestPlatformAndRequests:
    def test_platform_round_trip(self, tmp_path, demo_graph):
        path = tmp_path / "p.json"
        save_platform(demo_graph, path)
        assert load_platform(path) == demo_graph

    def test_requests_round_trip(self, tmp_path):
        from qaiccc import SizeRequests

        sizes = SizeRequests(trusted=(2,), untrusted=(1, 3))
        path = tmp_path / "q.json"
        save_requests(sizes, path)
        assert load_requests(path) == sizes

    def test_platform_parse_errors(self, tmp_path):
        with pytest.raises(InputFileError):
            load_platform(write(tmp_path, "a.json", {"edges": []}))
        with pytest.raises(InputFileError):
            load_platform(write(tmp_path, "b.json", {"qubits": 2, "edges": [[0, 0]]}))
        with pytest.raises(InputFileError):
            load_platform(tmp_path / "missing.json")

    def test_platform_size_is_bounded_at_ingest(self, tmp_path, monkeypatch):
        at_limit = write(tmp_path, "limit.json", {"qubits": MAX_QUBITS, "edges": [[0, 1]]})
        assert load_platform(at_limit).vertex_count == MAX_QUBITS

        def no_graph(*args):
            raise AssertionError("the graph must not be built for a refused platform")

        above = write(tmp_path, "above.json", {"qubits": MAX_QUBITS + 1, "edges": [[0, 1]]})
        monkeypatch.setattr(ingest_module, "ConnectivityGraph", no_graph)
        with pytest.raises(InputFileError, match=f"above the limit of {MAX_QUBITS}"):
            load_platform(above)

    def test_oversized_platform_exits_1(self, tmp_path, capsys):
        platform = write(tmp_path, "above.json", {"qubits": MAX_QUBITS + 1, "edges": []})
        requests = write(tmp_path, "q.json", {"untrusted": [1]})
        rates = write(tmp_path, "r.json", [])
        code = main(
            ["allocate", "--platform", str(platform), "--rates", str(rates), "--requests", str(requests)]
        )
        assert code == EXIT_INPUT
        assert "above the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "load, payload, key",
        [
            (load_requests, {"untrused": [2]}, "untrused"),
            (load_requests, {"trusted": [1], "untrusted": [2], "idle": 1}, "idle"),
            (load_platform, {"qubits": 2, "edgez": [[0, 1]]}, "edgez"),
            (load_platform, {"qubits": 2, "edges": [[0, 1]], "name": "line"}, "name"),
        ],
    )
    def test_an_unknown_top_level_key_is_refused_and_named(self, tmp_path, load, payload, key):
        with pytest.raises(InputFileError, match=f"unknown key '{key}'"):
            load(write(tmp_path, "f.json", payload))

    def test_requests_parse_errors(self, tmp_path):
        with pytest.raises(InputFileError):
            load_requests(write(tmp_path, "a.json", {"untrusted": [0]}))
        with pytest.raises(InputFileError):
            load_requests(write(tmp_path, "b.json", [2, 3]))


class TestSynthRates:
    def test_deterministic_for_fixed_inputs(self, demo_graph):
        assert synth_rates(demo_graph, 7) == synth_rates(demo_graph, 7)
        assert synth_rates(demo_graph, 7) != synth_rates(demo_graph, 8)

    def test_groups_are_connected_and_valid(self, demo_graph):
        for rate in synth_rates(demo_graph, 5):
            assert demo_graph.is_connected(rate.involved)
            assert (len(rate.impacting), len(rate.impacted)) in {(1, 1), (2, 1), (2, 2)}
            assert 1e-4 <= rate.score <= 1e-2

    def test_one_to_one_groups_follow_adjacency(self, demo_graph):
        pairs = {
            frozenset(rate.involved)
            for rate in synth_rates(demo_graph, 5)
            if len(rate.involved) == 2
        }
        assert frozenset({2, 3}) in pairs
        assert frozenset({0, 3}) not in pairs
        # 1-to-1 groups are exactly the platform edges.
        assert pairs == {frozenset(e) for e in demo_graph.edges}

    def test_max_rates_cap(self, demo_graph):
        assert len(synth_rates(demo_graph, 5, max_rates=4)) == 4

    def test_negative_max_rates_is_refused(self, demo_graph):
        assert synth_rates(demo_graph, 5, max_rates=0) == ()
        with pytest.raises(ValueError, match="max_rates"):
            synth_rates(demo_graph, 5, max_rates=-1)

    def test_no_duplicate_pairs_and_loader_accepts(self, tmp_path, demo_graph):
        rates = synth_rates(demo_graph, 9)
        pairs = {(tuple(sorted(r.impacting)), tuple(sorted(r.impacted))) for r in rates}
        assert len(pairs) == len(rates)
        path = tmp_path / "synth.json"
        save_rates(rates, path)
        assert list(load_rates(path, demo_graph)) == list(rates)
