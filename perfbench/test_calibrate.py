"""The committed calibration study supports the child's exponent."""

import json

from perfbench.calibrate import EXPONENTS, load_studies, report
from perfbench.child import CAL_EXPONENT
from perfbench.harness import ARTIFACT_KIND


def rows(text, label):
    return [line.split() for line in text.splitlines() if line.startswith(label + " ")]


def test_child_exponent_has_the_lowest_mean_and_worst_spread():
    text = report(load_studies([]))
    for label in ("mean", "worst"):
        [row] = rows(text, label)
        spreads = dict(zip(EXPONENTS, map(float, row[1:])))
        assert min(spreads, key=spreads.get) == CAL_EXPONENT, (label, spreads)


def test_artifacts_replay_like_the_study(tmp_path):
    """Ten artifacts holding the recorded ``seeds`` invocations give the
    same spreads as the study itself."""
    invocations = load_studies([])["seeds"]["open_churn"]
    paths = []
    for i, raw in enumerate(invocations):
        paths.append(tmp_path / f"measure-{i}.json")
        paths[-1].write_text(json.dumps({
            "kind": ARTIFACT_KIND, "workloads": {"open_churn": {"raw": raw}},
        }))
    study = report({"seeds": {"open_churn": invocations}})
    assert rows(report(load_studies(paths)), "open_churn") == rows(study, "open_churn")
