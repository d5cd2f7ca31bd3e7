"""Virtual-time drivers for the Phoenix batch workload (§4.2 "Phoenix").

Phoenix is measured by *job time* rather than throughput.  The drivers
mirror the server drivers' structure: map tasks fan out over the
application worker cores, a barrier precedes the reduce phase, and the
deployment variant decides what runs beside them:

* vanilla — nothing;
* Orthrus — the closure logs (one per task, with large containers) feed
  the same validation plane as the server drivers (the shared store, or
  the fault-tolerant plane), exercising the big-payload comparison path;
  under safe mode the final merge waits for every outstanding verdict;
* RBV — each task's output container is serialized and forwarded to a
  replica that re-executes the whole job sequentially, which is where the
  paper's 51% throughput drop and ~513 ms validation latencies come from.
"""

from __future__ import annotations

from typing import Any

from repro.apps.phoenix.framework import map_task, reduce_task
from repro.closures.log import ClosureLog
from repro.machine.cpu import Machine
from repro.memory.version import approx_size
from repro.sim.events import Store
from repro.sim.metrics import RunMetrics
from repro.harness.pipeline import (
    OrthrusRun,
    PipelineConfig,
    RunResult,
    _finish,
    _orthrus_overhead_cycles,
    _profiled_environment,
    _runtime,
    _SENTINEL,
    _with_profiler,
    validation_plane,
)


def _run_tasks(run: OrthrusRun, tasks, first_index: int, on_task_done, crash,
               extra_cycles=None, plane=None):
    """Fan a list of thunks out over the app worker cores; returns the
    barrier event.  Each thunk returns ``(result, logs)``.  Under Orthrus
    (``plane`` set) a task pays the per-closure logging overhead and then
    submits its logs to the validation plane; ``extra_cycles`` lets a
    deployment charge additional per-task work (RBV serialization).  A
    task that raises records its exception into ``crash`` (fail-stop) and
    the workers drain the remaining tasks unrun."""
    env, config, runtime = run.env, run.config, run.runtime
    costs = config.costs
    store = Store(env)
    for index, task in enumerate(tasks, first_index):
        store.put((index, task))
    for _ in range(config.app_threads):
        store.put(_SENTINEL)

    def worker(thread_id: int):
        core = run.machine.core(thread_id)
        while True:
            item = yield store.get()
            if item is _SENTINEL:
                return
            if crash:
                continue  # job is crashing; drain remaining tasks unrun
            index, thunk = item
            before = core.total_cycles
            try:
                with runtime.bind_core(thread_id), runtime:
                    result, logs = thunk()
            except Exception as exc:
                crash.append(exc)
                continue
            cycles = core.total_cycles - before
            if plane is not None:
                cycles += sum(_orthrus_overhead_cycles(log, costs) for log in logs)
            if extra_cycles is not None:
                cycles += extra_cycles(result)
            yield env.timeout(costs.seconds(cycles))
            if plane is not None:
                for log in logs:
                    if run.safe_policy.enabled:
                        # the merge will wait for this log's verdict
                        run.done_events[log.seq] = env.event()
                    yield from plane.submit(log, core=thread_id)
            on_task_done(index, result)

    return env.all_of(
        [env.process(worker(i)) for i in range(config.app_threads)]
    )


def run_phoenix(
    scenario,
    n_words: int,
    config: PipelineConfig,
    variant: str = "orthrus",
) -> RunResult:
    """Run the Phoenix word-count job under one deployment variant.

    The Orthrus variant runs on the validation plane
    :func:`~repro.harness.pipeline.validation_plane` selects, exactly as
    the server drivers do.
    """
    if variant not in ("vanilla", "orthrus", "rbv"):
        raise ValueError(f"unknown variant {variant!r}")
    plane = validation_plane(config) if variant == "orthrus" else None
    return _with_profiler(
        config, "driver.phoenix",
        lambda: _run_phoenix_impl(scenario, n_words, config, variant, plane),
    )


def _run_phoenix_impl(scenario, n_words: int, config: PipelineConfig, variant: str,
                      plane_cls):
    env = _profiled_environment()
    machine = config.build_machine()
    orthrus = plane_cls is not None
    n_val = config.validation_cores if orthrus else 1
    val_cores = [config.app_threads + i for i in range(n_val)]
    runtime = _runtime(env, machine, config, orthrus, val_cores, 4)
    job = scenario.build(runtime)
    phx = job.job
    for core_id, fault in config.deferred_faults:
        machine.arm(core_id, fault)
    chunks = scenario.make_chunks(n_words, config.seed)
    metrics = RunMetrics()
    result = RunResult(metrics=metrics, runtime=runtime if orthrus else None)

    captured_logs: list[ClosureLog] = []
    runtime._on_log = captured_logs.append

    run = OrthrusRun(
        env, config, scenario, machine, runtime, job, config.make_sampler(),
        metrics, val_cores,
    )
    plane = None
    if orthrus:
        plane = plane_cls(run)
        plane.start()

    # RBV replica: an independent second job instance replaying tasks.
    replica_runtime = None
    replica_job = None
    repl_store = Store(env)
    rbv_detections = [0]
    if variant == "rbv":
        replica_machine = Machine(
            cores_per_node=config.app_threads + 1, numa_nodes=1, seed=config.seed + 31
        )
        replica_runtime = _runtime(
            env, replica_machine, config, False, [config.app_threads], 4
        )
        replica_job = scenario.build(replica_runtime)

    #: task index (maps first, then reduces) -> output container pointer
    outputs: dict[int, Any] = {}

    def on_task_done(index, result_ptr):
        outputs[index] = result_ptr
        if variant == "rbv" and result_ptr is not None:
            payload = runtime.heap.latest(result_ptr.obj_id).value
            repl_store.put((index, payload, approx_size(payload), env.now))
        run.track_memory()

    def captured(task, *args):
        """A thunk running ``task(*args)`` that returns its output and the
        closure logs it produced."""
        def thunk():
            before = len(captured_logs)
            out = task(*args)
            logs = captured_logs[before:]
            del captured_logs[before:]
            return out, logs

        return thunk

    def rbv_extra(result_ptr):
        # RBV primary: replication bookkeeping plus serializing the task's
        # (large) output container for the replica.
        cycles = config.costs.rbv_primary_overhead_cycles
        if result_ptr is not None:
            payload = runtime.heap.latest(result_ptr.obj_id).value
            cycles += config.costs.serialize_cycles_per_byte * approx_size(payload)
        return cycles

    extra = rbv_extra if variant == "rbv" else None

    crash: list[Exception] = []

    def driver():
        core = machine.core(0)
        # Split phase: control path, charged to core 0.
        before = core.total_cycles
        try:
            with runtime.bind_core(0), runtime:
                chunk_ptrs = phx.split(chunks)
        except Exception as exc:
            crash.append(exc)
        else:
            # (Under RBV the replica reads the same input dataset from shared
            # storage — only task outputs are forwarded for comparison.)
            yield env.timeout(config.costs.seconds(core.total_cycles - before))
            n_maps = len(chunk_ptrs)
            map_tasks = [
                captured(map_task, phx.map_fn, chunk_ptr, phx.n_partitions)
                for chunk_ptr in chunk_ptrs
            ]
            yield _run_tasks(run, map_tasks, 0, on_task_done, crash, extra, plane)
        if crash:
            result.fail(crash[0])
            metrics.duration = env.now
            return

        containers = tuple(outputs[i] for i in range(n_maps))
        reduce_tasks = [
            captured(reduce_task, phx.reduce_fn, containers, partition)
            for partition in range(phx.n_partitions)
        ]
        yield _run_tasks(run, reduce_tasks, n_maps, on_task_done, crash, extra, plane)
        if crash:
            result.fail(crash[0])
            metrics.duration = env.now
            return

        if run.done_events:
            # Phoenix reveals results only at the end: safe mode means the
            # merge waits for every outstanding validation (§3.5).
            yield env.all_of(list(run.done_events.values()))
        phx.reduce_outputs = [
            outputs[n_maps + i] for i in range(phx.n_partitions)
        ]
        job.result = phx.merge()
        metrics.operations = n_maps + len(reduce_tasks)
        metrics.duration = env.now

    def make_replica_workers():
        """Parallel re-execution on the replica server.

        Phoenix map tasks are independent, so — unlike the KV stores,
        where data dependencies force sequential replay — the replica
        parallelizes them across its cores.  Reduce replays still wait for
        every map replay (the same barrier the job itself has).
        """
        with replica_runtime.bind_core(0), replica_runtime:
            replica_ptrs = replica_job.job.split(chunks)
        maps_total = len(replica_ptrs)
        replica_maps: dict[int, Any] = {}
        maps_gate = env.event()

        def worker(worker_id: int):
            core = replica_runtime.machine.core(worker_id)
            while True:
                item = yield repl_store.get()
                if item is _SENTINEL:
                    return
                index, primary_payload, payload_bytes, completed_at = item
                yield env.timeout(config.costs.network_transfer_s(payload_bytes))
                if index >= maps_total and not maps_gate.triggered:
                    yield maps_gate
                before = core.total_cycles
                with replica_runtime.bind_core(worker_id), replica_runtime:
                    if index < maps_total:
                        out = map_task(
                            replica_job.job.map_fn,
                            replica_ptrs[index],
                            phx.n_partitions,
                        )
                    else:
                        containers = tuple(
                            replica_maps[i] for i in range(maps_total)
                        )
                        out = reduce_task(
                            replica_job.job.reduce_fn,
                            containers,
                            index - maps_total,
                        )
                cycles = core.total_cycles - before
                # Deep structural comparison of the big containers — the
                # expensive equivalence checks §4.2 attributes to RBV.
                cycles += config.costs.compare_cycles_per_byte * payload_bytes * 4
                yield env.timeout(config.costs.seconds(cycles))
                if index < maps_total:
                    replica_maps[index] = out
                    if len(replica_maps) == maps_total and not maps_gate.triggered:
                        maps_gate.succeed()
                replica_payload = replica_runtime.heap.latest(out.obj_id).value
                if replica_payload != primary_payload:
                    rbv_detections[0] += 1
                metrics.validation_latency.add(env.now - completed_at)
                metrics.validated += 1

        return [env.process(worker(i)) for i in range(config.app_threads)]

    driver_proc = env.process(driver())
    replica_procs = []
    if variant == "rbv":
        replica_procs = make_replica_workers()

    def finish_replication():
        yield driver_proc
        for _ in replica_procs:
            repl_store.put(_SENTINEL)

    processes = [driver_proc]
    if variant == "rbv":
        processes.extend(replica_procs)
        env.process(finish_replication())

    def coordinator():
        yield env.all_of(processes)
        run.apps_done = True
        run.deadline = env.now * (1 + config.drain_grace_fraction)
        if plane is not None:
            yield from plane.drain()

    env.run(until=env.process(coordinator()))
    machines = [machine]
    if plane is not None:
        metrics.detections = runtime.detections
        plane.finish(result)
    if replica_runtime is not None:
        machines.append(replica_runtime.machine)
    result.rbv_detections = rbv_detections[0]
    return _finish(result, env, [job.result], job, machines)
