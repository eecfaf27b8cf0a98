"""Tests for the CLI experiment runner and the ablation module."""

import dataclasses
import signal
import threading

import pytest

from repro.exec import Cell, read_event_log
from repro.experiments.__main__ import main
from repro.experiments.registry import REGISTRY, run
from repro.experiments.ablations import (
    render_boost_ablation,
    render_reuse_ablation,
)
from repro.ops.status import fold_log
from repro.sim.units import MS


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_fig3_runs(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "clustering" in out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure-nine"])

    def test_fast_fig4(self, capsys):
        assert main(["fig4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "specweb2009" in out


class TestCliEngineSummary:
    def test_interrupt_message_counts_journalled_cells(
        self, monkeypatch, tmp_path, capsys
    ):
        """Ctrl-C on the 4th of 6 cells: the three cells already
        journalled are reported, not the zero a fold-time tally saw."""
        from tests import engine_cells

        def interrupted_sweep(**_params):
            return [
                Cell(
                    engine_cells.interrupting_cell,
                    dict(n=n, interrupt_at=3),
                    label=f"square:{n}",
                )
                for n in range(6)
            ]

        monkeypatch.setitem(
            REGISTRY, "fig3",
            dataclasses.replace(REGISTRY["fig3"], plan=interrupted_sweep),
        )
        code = main([
            "fig3", "--no-cache", "--run-dir", str(tmp_path / "runs"),
        ])
        assert code == 130
        assert "interrupted after 3 cell(s)" in capsys.readouterr().err

    def test_run_dir_without_serve_attaches_no_ops_plane(
        self, monkeypatch, tmp_path
    ):
        """The plane exists only to serve: a durable run keeps its own
        record, its events.jsonl, without it, and that log folds to
        a finished run."""
        def no_plane(*args, **kwargs):
            raise AssertionError("ops plane attached without --serve")

        monkeypatch.delenv("REPRO_SERVE", raising=False)
        monkeypatch.setattr("repro.ops.server.attach_ops", no_plane)
        runs = tmp_path / "runs"
        assert main(["fig3", "--no-cache", "--run-dir", str(runs)]) == 0
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

    def test_artifact_flag_error_starts_no_ops_plane(self, tmp_path):
        """A rejected --telemetry-out exits before the ops plane
        starts: no HTTP thread left behind, SIGTERM handler intact."""
        before = signal.getsignal(signal.SIGTERM)
        threads = {t.ident for t in threading.enumerate()}
        with pytest.raises(SystemExit) as exc:
            main([
                "fig3", "--serve", "127.0.0.1:0",
                "--telemetry-out", str(tmp_path / "t.jsonl"),
            ])
        assert exc.value.code == 2
        leaked = [
            t for t in threading.enumerate()
            if t.name == "repro-ops-http" and t.ident not in threads
        ]
        assert leaked == []
        assert signal.getsignal(signal.SIGTERM) is before


class TestCliExitPath:
    """Every way out of a run closes the engine (run-dir log,
    --events-out handle) exactly once."""

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

    def test_missing_resume_run_exits_2_and_closes_once(
        self, closes, tmp_path
    ):
        code = main([
            "fig3", "--fast", "--no-cache", "--quiet",
            "--run-dir", str(tmp_path / "runs"), "--resume", "nope",
        ])
        assert code == 2
        assert len(closes) == 1

    @pytest.mark.parametrize("damage", ["events.jsonl", "manifest.json"])
    def test_damaged_run_dir_on_resume_exits_2_and_closes_once(
        self, closes, tmp_path, capsys, damage
    ):
        """A resume against a damaged log or manifest ends in one
        ``[engine]`` line naming the file, not a traceback."""
        argv = [
            "fig3", "--fast", "--no-cache", "--quiet",
            "--run-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        [path] = (tmp_path / "runs").glob(f"run-*/{damage}")
        if damage == "events.jsonl":
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
        self, closes, monkeypatch
    ):
        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.experiments.__main__.run", interrupted)
        assert main(["fig3", "--fast", "--no-cache", "--quiet"]) == 130
        assert len(closes) == 1

    def test_rejected_jobs_leaves_events_out_untouched(self, tmp_path):
        """--events-out opens (mode "w") only after the engine accepted
        the flags: a rejected --jobs exits 2 with the file unchanged."""
        events = tmp_path / "ev.jsonl"
        events.write_bytes(b'{"kind": "finished"}\n')
        with pytest.raises(SystemExit) as exc:
            main([
                "fig3", "--fast", "--no-cache", "--jobs", "0",
                "--events-out", str(events),
            ])
        assert exc.value.code == 2
        assert events.read_bytes() == b'{"kind": "finished"}\n'


class TestArtifactFlagsFromRegistry:
    """Artifact flags are validated from the registry, up front."""

    def test_trace_out_without_traced_run_exits_2_before_running(
        self, monkeypatch, tmp_path
    ):
        def never(**_params):
            raise AssertionError("the family ran before validation")

        monkeypatch.setitem(
            REGISTRY, "fleet",
            dataclasses.replace(REGISTRY["fleet"], steer=never, plan=never),
        )
        with pytest.raises(SystemExit) as exc:
            main([
                "fleet", "--fast", "--no-cache",
                "--trace-out", str(tmp_path / "t.json"),
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "t.json").exists()

    def test_telemetry_out_needs_a_telemetry_family(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--telemetry-out", str(tmp_path / "t.jsonl")])
        assert exc.value.code == 2

    def test_every_traced_family_accepts_trace_out(self):
        traced = {name for name, exp in REGISTRY.items() if exp.traced}
        assert traced == set(REGISTRY) - {"fleet"}
        carriers = {name for name, exp in REGISTRY.items() if exp.telemetry}
        assert carriers == {"telemetry", "fleet"}


class TestPlanSubcommand:
    def test_plan_prints_labels_without_simulating(self, capsys):
        assert main(["plan", "fig5", "--fast"]) == 0
        lines = capsys.readouterr().out.splitlines()
        exp = REGISTRY["fig5"]
        assert lines == [cell.display for cell in exp.plan(**exp.fast)]
        assert lines[0] == "fig5:hmmer:1ms" and len(lines) == 30

    def test_plan_builds_no_runner(self, monkeypatch, capsys):
        """Planning reads no runner setting: a bad REPRO_JOBS only
        matters once something runs (the fleet plans through its
        simulations, which build their runner in ``run``)."""
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert main(["plan", "fleet", "--fast"]) == 0
        assert capsys.readouterr().out.startswith("fleet:")

    def test_plan_needs_a_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan"])
        assert exc.value.code == 2

    def test_family_only_goes_with_plan(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "fig4"])
        assert exc.value.code == 2


class TestAblationModules:
    def test_boost_ablation_small(self):
        result = run(REGISTRY["ablations"], dict(
            parts=("boost",),
            quanta_ms=(1, 30),
            warmup_ns=200 * MS,
            measure_ns=500 * MS,
        )).boost
        # BOOST keeps exclusive IO fast at the default quantum; without
        # it the latency is at least an order of magnitude higher
        assert (
            result.latency[(False, 30)] > 10 * result.latency[(True, 30)]
        )
        text = render_boost_ablation(result)
        assert "BOOST" in text

    def test_reuse_ablation_small(self):
        result = run(REGISTRY["ablations"], dict(
            parts=("reuse",),
            exponents=(0.5, 1.0),
            warmup_ns=200 * MS,
            measure_ns=500 * MS,
        )).reuse
        assert result.quantum_sensitivity[1.0] > 1.0
        text = render_reuse_ablation(result)
        assert "exponent" in text
