"""The benchmark's tracer must find every entry point it wraps.

``perfbench/spans.py`` replaces named module-level functions of each layer
by timing wrappers; a rename or removal there breaks traced benchmark runs
long after the change.  This test installs the tracer against ``src/``,
poses one query per traced decision path, and uninstalls it again.
"""

import importlib.util
import pathlib

from ordcalc import calculus, certio, cli, membership, rightorder

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(capsys, tmp_path):
    originals = (
        rightorder.decide_lg_hm,
        calculus.derive_grgstar,
        certio.verify_refutation_tree,
        membership.WordAutomaton.saturate,
    )
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert rightorder.decide_lg_hm is not originals[0]
        path = str(tmp_path / "certificate.json")
        for argv in (
            ["--variety", "lgroup", "--procedure", "hm", "xx | yy | x'y'"],
            ["--variety", "representable", "--bound-L", "1", "x y x' | y'"],
            ["--variety", "abelian", "x | x'"],
        ):
            assert cli.main(["decide", *argv, "--proof", path]) == 0
            assert cli.main(["check-proof", path]) == 0
    finally:
        tracer.uninstall()
    assert (
        rightorder.decide_lg_hm,
        calculus.derive_grgstar,
        certio.verify_refutation_tree,
        membership.WordAutomaton.saturate,
    ) == originals
    names = {span[0] for span in tracer.spans}
    for name in (
        "rightorder.decide_lg_hm",
        "rightorder.rg_refute_bounded",
        "membership.saturate",
        "calculus.derive.derive_glgstar",
        "calculus.derive.derive_grgstar",
        "calculus.derive.derive_ga",
        "certio.dump.dumps",
        "certio.load.load_proof",
        "witnesses.verify.verify_refutation_tree",
    ):
        assert name in names, name
    assert tracer.counts["rightorder.tree_nodes"] > 0
    assert tracer.counts["calculus.derive.nodes"] > 0
