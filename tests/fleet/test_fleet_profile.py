"""Fleet self-profiling: digest parity and the merged profile payload.

The fleet's determinism contract (DESIGN.md §12) is that the worker
fan-out is an implementation detail — and the profiler must be one too.
These tests pin (1) the four-way digest parity {w1, w4} × {profile off,
profile on}, (2) that the merged payload obeys the same associative-merge
discipline as the shard results (merging worker payloads == one stream),
and (3) the per-worker utilization / straggler section.
"""

from repro.faultinject.fleet_faults import FleetFaultPlan
from repro.fleet import FleetConfig, run_fleet
from repro.obs import NULL_PROFILER, PROFILE_FORMAT, active
from repro.obs.profiling import merge_profiles


def _small_config(**overrides) -> FleetConfig:
    defaults = dict(
        hosts=2,
        shards=4,
        cores_per_host=32,
        keys=4000,
        users=600,
        epochs=24,
        vnodes=32,
        ground_shards=0,
        seed=11,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _chaos_config() -> FleetConfig:
    """Host 1 crashes and restarts: one re-homing ring build."""
    return _small_config(
        hosts=4, shards=8, faults=FleetFaultPlan.parse(crashes=("1@6+8",))
    )


def _subsystem(payload: dict, name: str) -> dict:
    return next(s for s in payload["subsystems"] if s["name"] == name)


class TestFleetDigestParity:
    def test_profiler_and_workers_never_move_the_digest(self):
        config = _small_config()
        digests = {
            run_fleet(config, workers=workers, profile=profile).digest
            for workers in (1, 4)
            for profile in (None, True)
        }
        assert len(digests) == 1

    def test_chaos_plan_scopes_never_move_the_digest(self):
        config = _chaos_config()
        digests = {
            run_fleet(config, workers=workers, profile=profile).digest
            for workers in (1, 4)
            for profile in (None, True)
        }
        assert len(digests) == 1

    def test_events_identical_with_profile_on(self):
        config = _small_config()
        bare = run_fleet(config, workers=1)
        profiled = run_fleet(config, workers=4, profile=True)
        assert bare.events == profiled.events
        assert bare.rollup["ops"] == profiled.rollup["ops"]

    def test_ambient_profiler_restored(self):
        run_fleet(_small_config(), workers=1, profile=True)
        assert active() is NULL_PROFILER


class TestFleetProfilePayload:
    def test_unprofiled_report_has_no_payload(self):
        report = run_fleet(_small_config(), workers=1)
        assert report.profile is None
        assert "profile" not in report.to_json()

    def test_profiled_report_payload_shape(self):
        # one grounded shard so the DES event meter has something to count
        report = run_fleet(
            _small_config(ground_shards=1), workers=2, profile=True
        )
        payload = report.profile
        assert payload["format"] == PROFILE_FORMAT
        names = {s["name"] for s in payload["subsystems"]}
        assert {"fleet.plan", "fleet.worker", "fleet.shard",
                "fleet.merge"} <= names
        assert payload["events"] > 0
        assert report.to_json()["profile"] == payload

    def test_ring_builds_are_named_not_hidden_in_plan(self):
        # no fault plan: the one base ring build, and no chaos compile
        payload = run_fleet(_small_config(), workers=1, profile=True).profile
        assert _subsystem(payload, "fleet.plan.ring")["calls"] == 1
        assert "fleet.plan;fleet.plan.ring" in {n["path"] for n in payload["nodes"]}
        assert "fleet.plan.chaos" not in {s["name"] for s in payload["subsystems"]}

    def test_chaos_compile_and_rehoming_rings_are_named(self):
        payload = run_fleet(_chaos_config(), workers=2, profile=True).profile
        paths = {n["path"] for n in payload["nodes"]}
        assert "fleet.plan;fleet.plan.chaos" in paths
        # the crash's dead-host set re-homes via one ring.without() build
        assert "fleet.plan;fleet.plan.chaos;fleet.plan.ring" in paths
        assert _subsystem(payload, "fleet.plan.chaos")["calls"] == 1
        assert _subsystem(payload, "fleet.plan.ring")["calls"] == 2

    def test_worker_sections_and_straggler(self):
        report = run_fleet(_small_config(), workers=2, profile=True)
        workers = report.profile["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        for worker in workers:
            assert worker["wall_s"] > 0
            assert 0.0 <= worker["utilization"] <= 1.0 + 1e-9
        straggler = report.profile["straggler"]
        assert straggler["worker"] in (0, 1)
        walls = [w["wall_s"] for w in workers]
        assert straggler["wall_s"] == max(walls)

    def test_single_worker_profile_counts_all_shards(self):
        config = _small_config()
        report = run_fleet(config, workers=1, profile=True)
        shard_calls = sum(
            s["calls"]
            for s in report.profile["subsystems"]
            if s["name"] == "fleet.shard"
        )
        assert shard_calls == config.shards

    def test_render_includes_profile_lines(self):
        report = run_fleet(_small_config(), workers=2, profile=True)
        text = report.render()
        assert "self-profile" in text
        assert "worker 0:" in text
        assert "straggler: worker" in text


class TestMergeEqualsSingleStream:
    def test_worker_merge_matches_single_stream_accounting(self):
        """Merging the per-worker payloads is the same fold the shard
        results go through: the merged node tree must equal the sum of
        its parts regardless of grouping (PR 7's merge == single-stream
        discipline, applied to the profile plane)."""
        config = _small_config()
        report = run_fleet(config, workers=4, profile=True)
        payload = report.profile
        # Re-merge the whole payload with itself split out: summing the
        # same nodes twice must exactly double calls and totals —
        # associativity with no hidden per-merge state.
        doubled = merge_profiles([payload, payload])
        by_path = {n["path"]: n for n in payload["nodes"]}
        for node in doubled["nodes"]:
            assert node["calls"] == 2 * by_path[node["path"]]["calls"]
            assert node["total_ns"] == 2 * by_path[node["path"]]["total_ns"]
        assert doubled["events"] == 2 * payload["events"]

    def test_shard_work_independent_of_worker_count(self):
        """The per-shard simulation cost is pure: the number of
        fleet.shard activations (and the engine-event meter) must not
        depend on how many workers split the plans."""
        config = _small_config(ground_shards=1)
        one = run_fleet(config, workers=1, profile=True).profile
        four = run_fleet(config, workers=4, profile=True).profile

        def calls(payload, name):
            return sum(
                s["calls"] for s in payload["subsystems"] if s["name"] == name
            )

        assert calls(one, "fleet.shard") == calls(four, "fleet.shard")
        assert one["events"] == four["events"]
