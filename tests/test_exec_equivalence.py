"""Equivalence properties of the parallel sweep engine.

DESIGN.md §7 claims seeded simulations are deterministic; this file
enforces the claim *across process boundaries*: a sweep run with 4
worker processes is identical to the serial run, a cache hit replays
byte-identical results, and a checkpointed run resumes to the same
bytes.  These guarantees are what make ``repro.exec`` safe to use for
every paper figure — and the four-family section at the bottom pins
them for a representative cell of *every* cell family in the tree
(figure sweeps, churn stories, fleet host-epochs, fuzz cases).
"""

import pickle

import pytest

from repro.baselines import AqlPolicy, XenCredit
from repro.dynamics.events import ChurnTimeline
from repro.exec import (
    Cell,
    CellFinished,
    Engine,
    ResultCache,
    SweepRunner,
    resolve_jobs,
)
from repro.exec.queue import fork_available
from repro.exec.runner import aggregate_telemetry
from repro.experiments.churn import make_stories, run_churn_cell
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import AppPlacement, Scenario
from repro.fleet.catalog import HOST_CATALOG, VMSpec
from repro.fleet.model import run_host_epoch
from repro.fuzz.corpus import run_fuzz_case
from repro.sim.units import MS

#: a grid of small scenarios — one IO+CPU mix, one spin+CPU mix —
#: covering multi-vCPU VMs, per-unit VMs and both policy kinds
GRID_SCENARIOS = (
    Scenario(
        "tiny-io",
        (AppPlacement("specweb2009", 2), AppPlacement("bzip2", 2)),
        pcpus=2,
    ),
    Scenario(
        "tiny-spin",
        (AppPlacement("facesim", 4), AppPlacement("hmmer", 2)),
        pcpus=2,
    ),
)

WARMUP_NS = 50 * MS
MEASURE_NS = 150 * MS


def grid_cells():
    return [
        Cell(
            run_scenario,
            dict(
                scenario=scenario, policy=policy, warmup_ns=WARMUP_NS,
                measure_ns=MEASURE_NS, seed=5,
            ),
            label=f"{scenario.name}:{policy.name}",
        )
        for scenario in GRID_SCENARIOS
        for policy in (XenCredit(), AqlPolicy())
    ]


class TestParallelSerialEquivalence:
    def test_jobs4_identical_to_jobs1(self):
        serial = SweepRunner(jobs=1).run(grid_cells())
        parallel = SweepRunner(jobs=4).run(grid_cells())
        assert len(serial) == len(parallel) == 4
        for ours, theirs in zip(serial, parallel):
            assert ours.scenario == theirs.scenario
            assert ours.policy == theirs.policy
            # exact float equality: determinism, not tolerance
            assert ours.by_placement == theirs.by_placement
            assert ours.detected_types == theirs.detected_types
            assert ours.results == theirs.results
            assert ours.pool_layout == theirs.pool_layout

    def test_progress_reports_every_cell(self):
        events = []
        SweepRunner(jobs=4, sinks=[events.append]).run(grid_cells())
        reports = [e for e in events if isinstance(e, CellFinished)]
        assert sorted(r.index for r in reports) == [0, 1, 2, 3]
        assert {r.outcome for r in reports} == {"ran"}
        assert all(r.total == 4 for r in reports)


class TestCacheReplay:
    def test_cache_hit_replays_byte_identical(self, tmp_path):
        cold_cache = ResultCache(root=tmp_path)
        cold_runner = SweepRunner(jobs=1, cache=cold_cache)
        cold = cold_runner.run(grid_cells())
        assert cold_cache.stats.misses == 4
        assert cold_cache.stats.hits == 0

        warm_cache = ResultCache(root=tmp_path)
        warm_runner = SweepRunner(jobs=1, cache=warm_cache)
        warm = warm_runner.run(grid_cells())
        assert warm_cache.stats.hits == 4
        assert warm_cache.stats.misses == 0

        for cell, original, replayed in zip(grid_cells(), cold, warm):
            key = cell.cache_key(cold_runner.salt)
            payload = warm_cache.get(key).payload
            # the stored payload is exactly the original run's pickle
            assert payload == pickle.dumps(
                original, protocol=pickle.HIGHEST_PROTOCOL
            )
            assert replayed.by_placement == original.by_placement
            assert replayed.detected_types == original.detected_types
            assert replayed.results == original.results

    def test_mixed_warm_cold_sweep(self, tmp_path):
        cells = grid_cells()
        warm_half = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
        first_two = warm_half.run(cells[:2])

        cache = ResultCache(root=tmp_path)
        full = SweepRunner(jobs=4, cache=cache).run(cells)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        baseline = SweepRunner(jobs=1).run(cells)
        for ours, theirs in zip(full, baseline):
            assert ours.by_placement == theirs.by_placement
        for cached, live in zip(first_two, full[:2]):
            assert cached.by_placement == live.by_placement

    def test_hit_outcomes_reported(self, tmp_path):
        cells = grid_cells()[:2]
        SweepRunner(jobs=1, cache=ResultCache(root=tmp_path)).run(cells)
        events = []
        SweepRunner(
            jobs=1, cache=ResultCache(root=tmp_path),
            sinks=[events.append],
        ).run(cells)
        reports = [e for e in events if isinstance(e, CellFinished)]
        assert [r.outcome for r in reports] == ["hit", "hit"]
        assert all(r.key is not None for r in reports)


def telemetry_cells():
    """The grid again, with telemetry aggregation turned on."""
    return [
        Cell(
            run_scenario,
            dict(
                scenario=scenario, policy=policy, warmup_ns=WARMUP_NS,
                measure_ns=MEASURE_NS, seed=5, telemetry=True,
            ),
            label=f"tel:{scenario.name}:{policy.name}",
        )
        for scenario in GRID_SCENARIOS
        for policy in (XenCredit(), AqlPolicy())
    ]


class TestTelemetryEquivalence:
    """Telemetry is recorded off the virtual clock only, so turning it
    on changes no result, and the summaries themselves are part of the
    serial ≡ parallel ≡ cached contract."""

    def test_telemetry_never_changes_results(self):
        plain = SweepRunner(jobs=1).run(grid_cells())
        instrumented = SweepRunner(jobs=1).run(telemetry_cells())
        for bare, telemetered in zip(plain, instrumented):
            assert bare.by_placement == telemetered.by_placement
            assert bare.results == telemetered.results
            assert bare.detected_types == telemetered.detected_types
            assert not bare.telemetry_summary
            assert telemetered.telemetry_summary

    def test_summaries_identical_serial_parallel_cached(self, tmp_path):
        serial = SweepRunner(jobs=1).run(telemetry_cells())
        parallel = SweepRunner(jobs=4).run(telemetry_cells())
        SweepRunner(jobs=1, cache=ResultCache(root=tmp_path)).run(
            telemetry_cells()
        )
        cache = ResultCache(root=tmp_path)
        cached = SweepRunner(jobs=1, cache=cache).run(telemetry_cells())
        assert cache.stats.hits == 4
        for ours, theirs, replayed in zip(serial, parallel, cached):
            # exact float equality: determinism, not tolerance
            assert ours.telemetry_summary == theirs.telemetry_summary
            assert ours.telemetry_summary == replayed.telemetry_summary
        # ... and so is the sweep-level aggregate
        assert aggregate_telemetry(serial) == aggregate_telemetry(parallel)
        assert aggregate_telemetry(serial) == aggregate_telemetry(cached)

    def test_aggregate_telemetry_sums_and_counts(self):
        runs = SweepRunner(jobs=1).run(telemetry_cells())
        aggregate = aggregate_telemetry(runs)
        assert aggregate["telemetry_runs"] == 4.0
        assert list(k for k in aggregate if k != "telemetry_runs") == sorted(
            k for k in aggregate if k != "telemetry_runs"
        )
        total_flips = sum(
            run.telemetry_summary.get("audit_type_flips", 0.0) for run in runs
        )
        assert aggregate["audit_type_flips"] == total_flips
        # uninstrumented results contribute nothing
        assert aggregate_telemetry(SweepRunner(jobs=1).run(grid_cells())) == {}


class TestScenarioRunPickling:
    def test_keep_built_run_round_trips(self):
        run = run_scenario(
            GRID_SCENARIOS[0], XenCredit(),
            warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS, seed=5,
            keep_built=True,
        )
        assert run.built is not None  # the live machine is available...
        thawed = pickle.loads(pickle.dumps(run))
        assert thawed.built is None  # ...but never crosses serialization
        assert thawed.by_placement == run.by_placement
        assert thawed.results == run.results
        assert thawed.detected_types == run.detected_types
        assert thawed.pool_layout == run.pool_layout
        # the original object still holds its machine after pickling
        assert run.built is not None


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)
        with pytest.raises(ValueError):
            resolve_jobs(0)


# ---------------------------------------------------------------------
# Four-family equivalence: serial ≡ parallel ≡ cached ≡ resumed
# ---------------------------------------------------------------------

FAMILIES = ("fig", "churn", "fleet", "fuzz")


def family_cells() -> dict[str, Cell]:
    """One representative, deliberately cheap cell per cell family.

    Every sweep the repo plans — figure grids, churn stories, fleet
    host-epochs, fuzz corpus cases — reduces to one of these shapes,
    so pinning the execution-path contract here pins it everywhere.
    """
    faults = make_stories(fast=True)[2]  # pcpu offline/online, 2 events
    return {
        "fig": Cell(
            run_scenario,
            dict(
                scenario=GRID_SCENARIOS[0], policy=AqlPolicy(),
                warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS, seed=5,
            ),
            label="family:fig",
        ),
        "churn": Cell(
            run_churn_cell,
            dict(
                story=faults, policy_name="aql", warmup_ns=200 * MS,
                measure_ns=faults.timeline.duration_ns + 200 * MS, seed=3,
            ),
            label="family:churn",
        ),
        "fleet": Cell(
            run_host_epoch,
            dict(
                host_id="h000", host=HOST_CATALOG["small"],
                residents=(VMSpec("web0", "io"), VMSpec("lock0", "spin")),
                timeline=ChurnTimeline(()), warmup_ns=WARMUP_NS,
                measure_ns=MEASURE_NS, seed=7, scheduler="aql", clients=2,
            ),
            label="family:fleet",
        ),
        "fuzz": Cell(
            run_fuzz_case,
            dict(
                case_seed=11, policies=("aql", "xen"), max_events=2,
                inject=None,
            ),
            label="family:fuzz",
        ),
    }


def tallies(engine):
    """The engine's lifetime outcome counts, from its status fold."""
    status = engine.status
    return {
        "ran": status.ran,
        "hit": status.hit,
        "resumed": status.resumed,
        "sweeps": status.sweeps_finished,
    }


@pytest.fixture(scope="module")
def family_runs(tmp_path_factory):
    """Every execution path, once per family.

    The serial leg doubles as the cold cache fill; the resumed leg
    replays the run-dir journal with no cache attached, proving the
    checkpoint store alone reconstructs the fold.
    """
    runs = {}
    for name, cell in family_cells().items():
        base = tmp_path_factory.mktemp(f"family-{name}")
        legs: dict = {"stats": {}}

        cold = ResultCache(root=base / "cache")
        [legs["serial"]] = SweepRunner(jobs=1, cache=cold).run([cell])
        assert (cold.stats.misses, cold.stats.hits) == (1, 0)

        if fork_available():
            [legs["parallel"]] = SweepRunner(jobs=2).run([cell])
        else:
            legs["parallel"] = None

        warm = ResultCache(root=base / "cache")
        [legs["cached"]] = SweepRunner(jobs=1, cache=warm).run([cell])
        assert (warm.stats.misses, warm.stats.hits) == (0, 1)

        first = Engine(
            jobs=1, cache=ResultCache(root=base / "cache"),
            run_root=base / "runs",
        )
        first.run([cell], stage=f"{name}:checkpoint")
        second = Engine(jobs=1, run_root=base / "runs")
        [legs["resumed"]] = second.run([cell], stage=f"{name}:resume")
        legs["stats"]["checkpoint"] = tallies(first)
        legs["stats"]["resume"] = tallies(second)
        first.close()
        second.close()
        runs[name] = legs
    return runs


class TestFamilyEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_serial_parallel_cached_resumed_byte_identical(
        self, family, family_runs
    ):
        """The headline contract, per family, at pickle-payload level.

        The payload is the unit the cache and the checkpoint journal
        store, so byte equality here means every execution path would
        also *store* the identical artefact.
        """
        legs = family_runs[family]
        baseline = pickle.dumps(legs["serial"])
        assert pickle.dumps(legs["cached"]) == baseline
        assert pickle.dumps(legs["resumed"]) == baseline
        if legs["parallel"] is None:
            pytest.skip("parallel leg needs the fork start method")
        assert pickle.dumps(legs["parallel"]) == baseline

    @pytest.mark.parametrize("family", FAMILIES)
    def test_resume_leg_never_re_executes(self, family, family_runs):
        stats = family_runs[family]["stats"]
        # checkpoint engine folded the warm cache hit into its journal
        assert stats["checkpoint"] == {
            "ran": 0, "hit": 1, "resumed": 0, "sweeps": 1
        }
        # the fresh engine replayed the journal — cache detached
        assert stats["resume"] == {
            "ran": 0, "hit": 0, "resumed": 1, "sweeps": 1
        }

    def test_families_cover_distinct_cell_functions(self):
        cells = family_cells()
        assert set(cells) == set(FAMILIES)
        functions = {cell.fn.__module__ for cell in cells.values()}
        assert functions == {
            "repro.experiments.runner", "repro.experiments.churn",
            "repro.fleet.model", "repro.fuzz.corpus",
        }
