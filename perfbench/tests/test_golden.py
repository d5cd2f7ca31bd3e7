"""The fingerprint check: a pass whose virtual-time results move fails."""

import copy
import math
from types import SimpleNamespace

from perfbench import golden
from perfbench.workloads import WORKLOADS


def _outcome(fingerprint, problems=()):
    return SimpleNamespace(fingerprint=fingerprint, problems=list(problems))


FINGERPRINT = {
    "arms": {
        "orthrus": {"digest": 12345, "metrics": {"validation_latency": {"p95": 5.7e-7}}},
        "rbv": {"digest": 12345, "metrics": {"validation_latency": {"p95": 9.1e-5}}},
    },
}


def test_matching_fingerprint_passes():
    judge = golden.Judge(copy.deepcopy(FINGERPRINT))
    assert judge(_outcome(copy.deepcopy(FINGERPRINT))) == []


def test_perturbed_digest_fails_the_pass():
    judge = golden.Judge(copy.deepcopy(FINGERPRINT))
    moved = copy.deepcopy(FINGERPRINT)
    moved["arms"]["rbv"]["digest"] += 1
    problems = judge(_outcome(moved))
    assert len(problems) == 1
    assert "/arms/rbv/digest" in problems[0]


def test_last_digit_of_a_latency_counts():
    judge = golden.Judge(copy.deepcopy(FINGERPRINT))
    moved = copy.deepcopy(FINGERPRINT)
    moved["arms"]["orthrus"]["metrics"]["validation_latency"]["p95"] = math.nextafter(5.7e-7, 1.0)
    assert judge(_outcome(moved))


def test_without_golden_the_first_pass_is_the_reference():
    judge = golden.Judge()
    assert judge(_outcome(copy.deepcopy(FINGERPRINT))) == []
    moved = copy.deepcopy(FINGERPRINT)
    moved["arms"]["orthrus"]["digest"] = 0
    assert judge(_outcome(moved))
    assert judge(_outcome(copy.deepcopy(FINGERPRINT))) == []


def test_workload_problems_fail_the_pass_too():
    judge = golden.Judge(copy.deepcopy(FINGERPRINT))
    assert judge(_outcome(copy.deepcopy(FINGERPRINT), ["rbv arm crashed"])) == [
        "rbv arm crashed"
    ]


def test_golden_file_covers_every_workload_on_both_seeds():
    recorded = golden.load()
    assert set(recorded) == set(WORKLOADS)
    for seeds in recorded.values():
        assert {golden.DEFAULT_SEED, golden.HELD_OUT_SEED} <= set(seeds)


def test_golden_round_trips(tmp_path):
    path = tmp_path / "golden.json"
    golden.save({"kv-read": {1: FINGERPRINT}}, path)
    assert golden.load(path) == {"kv-read": {1: FINGERPRINT}}
