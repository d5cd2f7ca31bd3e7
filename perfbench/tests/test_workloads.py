"""Workload inputs come from the seed, and impossible responses are caught."""

from perfbench.workloads import WORKLOADS, _with_ops_hook, _no_wrap, bad_responses


def _ops(name, seed, n_ops=200):
    inputs = WORKLOADS[name].build(seed)
    scenario, streams = _with_ops_hook(inputs.scenario, inputs.seed, _no_wrap)
    # the driver's own seed is ignored: the benchmark's seed decides
    ops = scenario.make_ops(n_ops, 999)
    assert streams == [ops]
    return ops


def test_seed_changes_the_generated_op_streams():
    for name in ("kv-read", "kv-write", "kv-observed"):
        assert _ops(name, 1) == _ops(name, 1)
        assert _ops(name, 1) != _ops(name, 2)


def test_seed_changes_the_fault_plans():
    fleet = WORKLOADS["fleet-chaos"]
    assert fleet.build(1).faults.digest() == fleet.build(1).faults.digest()
    assert fleet.build(1).faults.digest() != fleet.build(2).faults.digest()
    observed = WORKLOADS["kv-observed"]
    plans = {repr(observed.build(seed).chaos) for seed in range(1, 6)}
    assert len(plans) > 1


def test_sizes_do_not_depend_on_the_seed():
    for name in ("kv-read", "kv-write", "kv-observed"):
        assert WORKLOADS[name].build(1).n_ops == WORKLOADS[name].build(2).n_ops


def test_bad_responses_accepts_any_interleaving_and_rejects_the_impossible():
    ops = _ops("kv-read", 1, n_ops=400)
    written = {op.key: op.value for op in ops if op.kind.value == "set"}
    acks = {"set": "STORED", "remove": "NOT_FOUND"}
    plausible = [
        written.get(op.key) if op.kind.value == "get" else acks[op.kind.value]
        for op in ops
    ]
    assert bad_responses(ops, plausible) == 0
    get = next(i for i, op in enumerate(ops) if op.kind.value == "get")
    wrong = list(plausible)
    wrong[get] = "key-99999999:forged"
    assert bad_responses(ops, wrong) == 1
    assert bad_responses(ops, plausible[:-1]) == 1
