"""Corpus campaigns and the CLI: clean runs, artifacts, exit codes."""

import json
import signal
import threading
from collections import Counter

import pytest

from repro.exec import SweepRunner, read_event_log
from repro.exec.queue import fork_available
from repro.fuzz import CoverageMap, generate_scenario, run_campaign
from repro.fuzz.cli import main
from repro.fuzz.corpus import run_fuzz_case
from repro.ops.status import fold_log


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("corpus")
    return run_campaign(5, seed=100, out_dir=out_dir), out_dir


class TestCampaign:
    def test_clean_corpus_has_no_failures(self, campaign):
        result, _ = campaign
        assert len(result.cases) == 5
        assert result.failures == []

    def test_coverage_accumulates(self, campaign):
        result, _ = campaign
        assert result.coverage.runs == 5
        assert len(result.coverage) > 10
        # the very first case visits only fresh keys
        assert result.cases[0].new_coverage > 0

    def test_coverage_report_written(self, campaign):
        result, out_dir = campaign
        assert result.report_path is not None
        report = json.loads(result.report_path.read_text())
        assert report["runs"] == 5
        assert set(report) >= {
            "runs", "distinct_keys", "distinct_alg_branches", "groups",
        }

    def test_deterministic_given_seed(self, campaign):
        result, _ = campaign
        again = run_campaign(5, seed=100)
        assert [c.failed for c in again.cases] == [
            c.failed for c in result.cases
        ]
        assert again.coverage.counts == result.coverage.counts

    def test_coverage_merge(self):
        a, b = CoverageMap(), CoverageMap()
        a.hit("event:vm_boot", 2)
        b.hit("event:vm_boot")
        b.hit("ledger:plan", 4)
        b.runs = 3
        a.merge(b)
        assert a.counts == {"event:vm_boot": 3, "ledger:plan": 4}
        assert a.runs == 3
        assert a.novelty(["event:vm_boot", "alg2:spill"]) == 1


def scenario_keys(scenario):
    """The ``policy:``/``mode:``/``event:`` counts a scenario implies
    if every timeline event fires before the horizon."""
    keys = Counter({f"policy:{scenario.policy}": 1})
    keys.update(f"mode:{mode}" for _, mode in scenario.base)
    for event in scenario.timeline.events:
        keys[f"event:{event.kind}"] += 1
        mode = getattr(event, "mode", None)
        if mode is not None:
            keys[f"mode:{mode}"] += 1
    return dict(keys)


class TestCampaignContract:
    def test_engine_corpus_opens_unsteered(self):
        """The first eight cases generate with no coverage map, so the
        8-case ``fuzz_corpus`` benchmark keeps its pinned digests."""
        runner = SweepRunner(jobs=1)
        campaign = run_campaign(
            8, seed=0, shrink_failures=False, runner=runner
        )
        runner.engine.close()
        assert [case.scenario for case in campaign.cases] == [
            generate_scenario(i) for i in range(8)
        ]

    def test_steering_keys_follow_from_the_scenario(self):
        """Every timeline event fires, so a scenario alone fixes its
        steering keys: the parent can steer without running it."""
        kinds = set()
        # five cases that between them apply every churn event kind
        for seed in (1, 2, 3, 9, 10):
            scenario = generate_scenario(seed, max_events=4)
            summary = run_fuzz_case(scenario=scenario)
            kinds.update(e.kind for e in scenario.timeline.events)
            steering = {
                key: count
                for key, count in summary.coverage_counts.items()
                if key.split(":")[0] in ("policy", "mode", "event")
            }
            assert steering == scenario_keys(scenario)
        assert len(kinds) == 6

    @pytest.mark.skipif(
        not fork_available(),
        reason="parallel leg needs the fork start method",
    )
    def test_corpus_does_not_depend_on_jobs(self):
        """Ten cases cross the unsteered opening into steered
        generation; worker count must not change a single case."""
        def facts(campaign):
            return [
                (case.scenario, case.violations, case.new_coverage)
                for case in campaign.cases
            ], campaign.coverage.counts

        runner = SweepRunner(jobs=2)
        parallel = run_campaign(
            10, seed=300, shrink_failures=False, runner=runner
        )
        runner.engine.close()
        serial = run_campaign(10, seed=300, shrink_failures=False)
        assert facts(parallel) == facts(serial)


class TestCli:
    def test_run_and_gate_pass(self, tmp_path, capsys):
        # pinned to aql so the Algorithm 1/2 branch gate has substance
        status = main([
            "run", "--cases", "2", "--seed", "100", "--quiet",
            "--policies", "aql",
            "--out-dir", str(tmp_path), "--min-alg-branches", "3",
            "--require-invariant", "credit_fairness",
            "--require-invariant", "no_lost_io",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "coverage over 2 runs" in out
        assert (tmp_path / "coverage_report.json").exists()

    def test_gate_fails_on_impossible_branch_floor(self, capsys):
        status = main([
            "run", "--cases", "1", "--seed", "100", "--quiet",
            "--no-shrink", "--min-alg-branches", "10000",
        ])
        assert status == 1
        assert "GATE" in capsys.readouterr().out

    def test_expect_caught_fails_on_clean_corpus(self, capsys):
        status = main([
            "run", "--cases", "1", "--seed", "100", "--quiet",
            "--no-shrink", "--expect-caught",
        ])
        assert status == 1
        assert "NOT caught" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, named", [
        # a gate over zero cases would pass having checked nothing
        (["--cases", "0"], "--cases"),
        (["--cases", "-3"], "--cases"),
        # rejected up front, not mid-campaign
        (["--inject", "no_such_bug"], "no_such_bug"),
        (["--jobs", "0"], "jobs"),
        (["--serve", "bogus:x"], "bogus:x"),
        # numpy's generators reject these only mid-campaign
        (["--seed", "-1"], "--seed"),
        (["--max-events", "-1"], "--max-events"),
    ])
    def test_bad_run_arguments_are_usage_errors(self, argv, named, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--cases", "1", "--quiet",
                "--require-invariant", "credit_fairness", *argv,
            ])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_campaign_error_closes_the_ops_plane(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("campaign died")

        monkeypatch.setattr("repro.fuzz.cli.run_campaign", crash)
        handlers = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGUSR1)
        }
        threads = {t.ident for t in threading.enumerate()}
        with pytest.raises(RuntimeError, match="campaign died"):
            main([
                "run", "--cases", "1", "--quiet",
                "--serve", "127.0.0.1:0",
            ])
        leaked = [
            t for t in threading.enumerate()
            if t.name == "repro-ops-http" and t.ident not in threads
        ]
        assert leaked == []
        # the plane only serves: it installs no signal handler
        assert {sig: signal.getsignal(sig) for sig in handlers} == handlers

    def test_run_dir_without_serve_attaches_no_ops_plane(
        self, monkeypatch, tmp_path, capsys
    ):
        def no_plane(*args, **kwargs):
            raise AssertionError("ops plane attached without --serve")

        monkeypatch.delenv("REPRO_SERVE", raising=False)
        monkeypatch.setattr("repro.ops.server.attach_ops", no_plane)
        runs = tmp_path / "runs"
        assert main([
            "run", "--cases", "1", "--quiet", "--run-dir", str(runs),
        ]) == 0
        [run_dir] = [d for d in runs.iterdir() if d.is_dir()]
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "events.jsonl", "manifest.json", "results",
        ]
        status = fold_log(read_event_log(run_dir / "events.jsonl"))
        doc = status.document()
        assert doc["phase"] == "fold" and doc["interrupted"] is None
        assert doc["sweeps_finished"] >= 1
        assert doc["cells"]["checkpointed"] >= doc["cells"]["done"] >= 1
        assert doc["cells"]["fold_lag"] == 0

    def test_negative_gen_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("content, named", [
        (None, "cannot read"),
        ("not json", "not a fuzz case"),
        ('{"seed": 1}', "missing field 'pcpus'"),
        ("[1]", "not a fuzz case"),
        ("policy", "unknown policy 'nope'"),
        ("inject", "unknown injection 'nope'"),
    ])
    def test_bad_replay_case_is_a_usage_error(
        self, tmp_path, capsys, content, named
    ):
        case = tmp_path / "case.json"
        if content in ("policy", "inject"):
            data = generate_scenario(3).to_json()
            data[content] = "nope"
            case.write_text(json.dumps(data))
        elif content is not None:
            case.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(case)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    def test_injected_case_that_does_not_reproduce_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        case = tmp_path / "case.json"
        generate_scenario(100, inject="skip_credit_refill").save(case)
        monkeypatch.setattr(
            "repro.fuzz.cli.check_invariants", lambda outcome: []
        )
        assert main(["replay", str(case)]) == 1
        assert "did NOT reproduce" in capsys.readouterr().out

    def test_gen_then_replay_round_trip(self, tmp_path, capsys):
        case = tmp_path / "case.json"
        assert main(["gen", "--seed", "100", "--out", str(case)]) == 0
        assert case.exists()
        assert main(["replay", str(case)]) == 0
        assert "replayed seed 100" in capsys.readouterr().out


class TestCliExitPath:
    """``fuzz run`` ends a run it cannot finish the way ``python -m
    repro.experiments`` does: one stderr line, exit 2 or 130, and the
    engine closed exactly once."""

    @pytest.fixture
    def closes(self, monkeypatch):
        from repro.exec.engine import Engine

        calls = []
        real_close = Engine.close

        def counting_close(engine):
            calls.append(engine)
            real_close(engine)

        monkeypatch.setattr(Engine, "close", counting_close)
        return calls

    @pytest.mark.parametrize("damage", ["events.jsonl", "manifest.json"])
    def test_damaged_run_dir_exits_2_and_closes_once(
        self, closes, tmp_path, capsys, damage
    ):
        argv = [
            "run", "--cases", "1", "--seed", "100", "--quiet",
            "--no-shrink", "--run-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        [path] = (tmp_path / "runs").glob(f"run-*/{damage}")
        if damage == "events.jsonl":
            # not the last line: a torn tail is a kill, not damage
            lines = path.read_text(encoding="utf-8").splitlines(True)
            lines[1] = "garbage\n"
            path.write_text("".join(lines), encoding="utf-8")
        else:
            path.write_text("{bad", encoding="utf-8")
        capsys.readouterr()
        closes.clear()
        assert main(argv) == 2
        assert len(closes) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"[engine] {path}: malformed ")
        assert err.count("\n") == 1

    def test_interrupt_exits_130_and_closes_once(
        self, closes, monkeypatch, capsys
    ):
        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.fuzz.cli.run_campaign", interrupted)
        try:
            code = main(["run", "--cases", "1", "--quiet"])
        except KeyboardInterrupt:  # escaped the CLI: a traceback
            code = None
        assert code == 130
        assert len(closes) == 1
        assert "[engine] interrupted" in capsys.readouterr().err
