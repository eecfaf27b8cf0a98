"""Decision-audit tests: every recorded type flip must be independently
re-derivable from its own window snapshot, and the ``telemetry`` report
for the fig6 cell is pinned by a golden snapshot."""

import json
from pathlib import Path

import pytest

from repro.baselines import AqlPolicy
from repro.experiments.registry import REGISTRY, run
from repro.experiments.scenarios import SCENARIOS, build_scenario
from repro.experiments.telemetry_report import (
    render_telemetry_report,
    report_jsonable,
)
from repro.fuzz.invariants import rederive_flip
from repro.sim.units import MS
from repro.telemetry import (
    ClusterDecision,
    DecisionAudit,
    PoolChange,
    Telemetry,
    TypeFlip,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "telemetry_report.json"

#: short windows — past the AQL cold start (240 ms), across several
#: vTRS windows, small enough for a unit-test budget
WARMUP_NS = 400 * MS
MEASURE_NS = 600 * MS


@pytest.fixture(scope="module")
def report():
    return run(REGISTRY["telemetry"], dict(
        warmup_ns=WARMUP_NS, measure_ns=MEASURE_NS
    ))


class TestFlipReproducibility:
    """The fig4-style property: the snapshot justifies the verdict.

    The re-derivation itself lives in ``repro.fuzz.invariants`` —
    the fuzzer's ``vtrs_rederivation`` invariant and this suite hold
    the audit trail to the same contract with the same code.
    """

    def test_scenario_produces_flips(self, report):
        audit = report.telemetry.audit
        assert len(audit.flips) >= 10  # all 16 vCPUs get typed
        # S2 contains an IO server, CPU burners and an LLC streamer, so
        # at least three distinct verdicts must appear
        assert len({flip.new_type for flip in audit.flips}) >= 3

    def test_every_flip_rederivable_from_its_window(self, report):
        for flip in report.telemetry.audit.flips:
            assert rederive_flip(flip) == flip.new_type, (
                f"{flip.vcpu_name}@{flip.time_ns}: recorded window does "
                f"not reproduce the {flip.new_type} verdict"
            )

    def test_recorded_averages_match_window(self, report):
        for flip in report.telemetry.audit.flips:
            recorded = dict(flip.averages)
            assert recorded[flip.new_type] == pytest.approx(
                flip.winning_average
            )
            # the winner's recorded average is the max (ties allowed)
            assert flip.winning_average == pytest.approx(
                max(recorded.values())
            )

    def test_flip_chain_consistent_per_vcpu(self, report):
        audit = report.telemetry.audit
        for vcpu_id in {flip.vcpu_id for flip in audit.flips}:
            chain = audit.flips_of(vcpu_id)
            assert chain[0].old_type is None  # first verdict ever
            for previous, current in zip(chain, chain[1:]):
                assert current.old_type == previous.new_type
                assert current.time_ns >= previous.time_ns
                assert current.new_type != current.old_type


class TestDecisionsAndLedger:
    def test_cold_start_then_real_decisions(self, report):
        decisions = report.telemetry.audit.decisions
        assert decisions, "AQL never ran"
        assert decisions[0].skipped  # initial-delay windows sit out
        real = [d for d in decisions if not d.skipped]
        assert real, "no decision past the cold start"
        for decision in real:
            assert decision.input_types  # census recorded
            assert decision.pools  # cluster assignments recorded

    def test_plan_lands_in_ledger_with_migrations(self, report):
        audit = report.telemetry.audit
        changed = [d for d in audit.decisions if d.changed]
        plans = [c for c in audit.ledger if c.kind == "plan"]
        assert len(plans) == len(changed)
        assert all(p.migrations_total > 0 for p in plans)
        assert report.summary["audit_pool_ledger"] == float(len(audit.ledger))

    def test_audit_unit_summary(self):
        audit = DecisionAudit()
        audit.record_flip(TypeFlip(
            time_ns=1, vcpu_id=0, vcpu_name="v", old_type=None,
            new_type="LLCF", window=(), averages=(("LLCF", 1.0),),
        ))
        audit.record_decision(ClusterDecision(
            time_ns=2, decision_index=1, input_types=((0, "LLCF"),),
            changed=True, pools=(), spills=(),
        ))
        audit.record_pool_change(PoolChange(
            time_ns=3, kind="plan", detail="d", migrations_total=4, pools=(),
        ))
        assert audit.summary() == {
            "audit_type_flips": 1.0,
            "audit_decisions": 1.0,
            "audit_plan_changes": 1.0,
            "audit_pool_ledger": 1.0,
        }
        assert len(audit) == 3


def _aql_run(telemetry_enabled: bool):
    """S2 under AQL for the unit-test windows; (manager, telemetry)."""
    telemetry = Telemetry(enabled=telemetry_enabled)
    built = build_scenario(SCENARIOS["S2"], seed=1, telemetry=telemetry)
    policy = AqlPolicy()
    policy.setup(built.machine, built.ctx)
    built.machine.run(WARMUP_NS + MEASURE_NS)
    return policy.manager, telemetry


class TestOneDecisionRecord:
    """AQL keeps one record per decide(); the audit shares it."""

    def test_audit_holds_the_decision_log_instances(self):
        manager, telemetry = _aql_run(telemetry_enabled=True)
        log = manager.decision_log
        audit = telemetry.audit.decisions
        assert len(log) == len(audit) == manager.decisions
        assert any(d.skipped for d in log) and any(d.changed for d in log)
        assert all(ours is theirs for ours, theirs in zip(log, audit))

        quiet, off = _aql_run(telemetry_enabled=False)
        assert off.audit.decisions == []
        assert quiet.decision_log == log


class TestGoldenReport:
    """The CLI report for the fig6 cell, pinned exactly.

    The simulator is deterministic, so the report's JSON form must
    reproduce byte-for-byte; regenerate intentionally with

        pytest tests/test_telemetry_audit.py --update-golden
    """

    def test_report_matches_golden(self, report, update_golden):
        computed = json.loads(json.dumps(report_jsonable(report)))
        if update_golden:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(computed, indent=2, sort_keys=True) + "\n"
            )
            return
        if not GOLDEN_PATH.exists():
            pytest.fail(
                f"golden snapshot {GOLDEN_PATH} missing — run "
                "`pytest tests/test_telemetry_audit.py --update-golden`"
            )
        golden = json.loads(GOLDEN_PATH.read_text())
        assert computed == golden, (
            "telemetry report drifted from the golden snapshot — if "
            "intentional, rerun with --update-golden"
        )

    def test_render_mentions_every_flip(self, report):
        text = render_telemetry_report(report)
        for flip in report.telemetry.audit.flips:
            assert flip.vcpu_name in text
        assert "Pool-change ledger" in text
        assert "AQL decision log" in text


class TestFuzzScaleRederivation:
    """Audit re-derivation at fuzz scale: every type flip across a
    generated churn corpus (boots, phase changes, faults mid-window)
    re-derives from its recorded cursor window — not just the static
    fig6 scenario above."""

    def test_corpus_flips_all_rederive(self):
        from repro.fuzz import generate_scenario, run_scenario_fuzz

        flips_seen = 0
        for seed in (11, 12, 13):
            scenario = generate_scenario(seed, policies=("aql",))
            outcome = run_scenario_fuzz(scenario)
            audit = outcome.telemetry.audit
            for flip in audit.flips:
                assert rederive_flip(flip) == flip.new_type, (
                    f"seed {seed}, {flip.vcpu_name}@{flip.time_ns}: "
                    f"window does not reproduce {flip.new_type}"
                )
            flips_seen += len(audit.flips)
        assert flips_seen >= 10, "corpus produced too few flips to matter"
