"""Bench: the churn stories — online adaptation, AQL vs fixed Xen.

The quantitative claims behind the dynamics subsystem:

* AQL notices every churn event within a few decide intervals and the
  pool layout re-converges within a bounded number of decisions;
* after the dust settles, AQL has recovered the static-mix win — the
  heterogeneous-IO VMs do strictly better than under fixed 30 ms Xen,
  and no workload class is badly harmed by the re-clustering churn;
* the fixed-quantum baseline, by construction, never adapts (its
  scheduler-side metrics are all None).
"""

from repro.experiments.churn import make_stories, render_churn
from repro.experiments.registry import REGISTRY, run

FULL = REGISTRY["churn"].full

#: AQL decides every window(4) x period(30 ms) = 120 ms; three decide
#: intervals is a generous "noticed promptly" bound
DETECTION_BOUND_MS = 360.0
#: decisions until the plan signature stops changing within the window
CONVERGENCE_BOUND = 5
#: pool moves chargeable to a single event (machine has <= 7 vCPUs)
MIGRATION_BOUND = 8


def test_churn_adaptation(once, sweep_runner):
    result = once(lambda: run(REGISTRY["churn"], runner=sweep_runner))
    print()
    print(render_churn(result))

    stories = {story.name: story for story in make_stories(**FULL)}
    for story_name, runs in result.items():
        timeline = stories[story_name].timeline
        xen, aql = runs["xen"], runs["aql"]
        label = f"story {story_name}"

        # every scripted event actually fired, under both policies
        assert xen.events_applied == len(timeline), label
        assert aql.events_applied == len(timeline), label

        # a fixed quantum has no adaptation machinery
        assert xen.decisions == 0 and xen.reconfigurations == 0, label
        for record in xen.records:
            assert record.detection_ms is None, label
            assert record.convergence_periods is None, label
            assert record.stable is None, label

        # AQL reconverges within bounded monitoring periods
        for record in aql.records:
            where = f"{label}: {record.event}"
            if record.detection_ms is not None:
                assert record.detection_ms <= DETECTION_BOUND_MS, where
            assert record.convergence_periods is not None, where
            assert record.convergence_periods <= CONVERGENCE_BOUND, where
            assert record.migrations <= MIGRATION_BOUND, where
        # by the end of the tail window the layout has settled
        assert aql.records[-1].stable is True, label

        # post-churn, AQL has recovered the static-mix win: the
        # quantum-sensitive (heterogeneous IO) VMs beat fixed Xen and
        # the compute classes are not badly harmed by re-clustering
        assert aql.final.keys() == xen.final.keys(), label
        for name, mode in aql.final_modes.items():
            ratio = aql.final[name] / xen.final[name]
            where = f"{label}: {name} ({mode})"
            if mode == "io":
                assert ratio < 0.95, f"{where}: AQL should win ({ratio:.3f})"
            else:
                assert ratio < 1.35, f"{where}: harmed by churn ({ratio:.3f})"
