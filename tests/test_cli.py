import json
import sys

import pytest

from ordcalc import certio, cli


def run(*argv):
    return cli.main(list(argv))


def test_decide_lgroup_valid_example(capsys, tmp_path):
    proof = tmp_path / "proof.json"
    code = run(
        "decide", "--variety", "lgroup", "xx | yy | x'y'", "--proof", str(proof)
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "VALID" in out
    assert proof.exists()
    assert run("check-proof", str(proof)) == 0


def test_decide_lgroup_invalid_example(capsys, tmp_path):
    witness = tmp_path / "witness.json"
    code = run(
        "decide",
        "--variety",
        "lgroup",
        "xx | xy | yx'",
        "--witness",
        str(witness),
        "--verify-witness",
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID" in out
    doc = json.loads(witness.read_text())
    assert doc["kind"] == "truncated_right_order"
    assert doc["level"] == 2


def test_decide_abelian_example(capsys):
    assert run("decide", "--variety", "abelian", "x | x'") == 0
    assert "VALID" in capsys.readouterr().out


def test_decide_term_input_conjunctwise(capsys):
    code = run("decide", "--variety", "abelian", "e <= (x \\/ x') /\\ e")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("conjunct") == 2


def test_decide_representable_three_values(capsys, tmp_path):
    assert run("decide", "--variety", "representable", "x | x'", "--bound-L", "0") == 0
    assert run("decide", "--variety", "representable", "x") == 1
    assert run("decide", "--variety", "representable", "x' y' x y") == 2
    witness = tmp_path / "bounds.json"
    run(
        "decide", "--variety", "representable", "x' y' x y",
        "--witness", str(witness),
    )
    assert json.loads(witness.read_text())["kind"] == "bounds_exhausted"


def test_decide_hm_procedure(capsys):
    assert run("decide", "--variety", "lgroup", "--procedure", "hm", "xx | yy | x'y'") == 0
    assert run("decide", "--variety", "lgroup", "--procedure", "hm", "xx | xy | yx'") == 1


def test_prove_requires_proof_path():
    with pytest.raises(cli.UsageError):
        cli.build_parser().parse_args(["prove", "--variety", "lgroup", "x | x'"])


def test_order_extend_right(capsys, tmp_path):
    assert run("order-extend", "--kind", "right", "xx, yy, x'y'") == 1
    assert run("order-extend", "--kind", "right", "xx, xy, yx'") == 0
    witness = tmp_path / "order.json"
    code = run(
        "order-extend", "--kind", "right", "xx, xy, yx'",
        "--witness", str(witness), "--verify-witness",
    )
    assert code == 0
    assert json.loads(witness.read_text())["kind"] == "truncated_right_order"


def test_order_extend_total(capsys, tmp_path):
    witness = tmp_path / "total.json"
    code = run(
        "order-extend", "--kind", "total", "x",
        "--witness", str(witness), "--verify-witness",
    )
    assert code == 0
    assert json.loads(witness.read_text())["kind"] == "abelian_order_witness"
    assert run("order-extend", "--kind", "total", "x, x'", "--bound-L", "0") == 1
    assert run("order-extend", "--kind", "total", "x'y'xy") == 2


def test_check_proof_detects_mutation(tmp_path):
    proof = tmp_path / "proof.json"
    assert run("prove", "--variety", "lgroup", "x | x'", "--proof", str(proof)) == 0
    doc = json.loads(proof.read_text())

    def first_cert_node(node):
        if node["certificates"].get("gamma"):
            return node
        return first_cert_node(node["premises"][0])

    node = first_cert_node(doc["conjuncts"][0]["derivation"])
    node["certificates"]["gamma"] = "y" + node["certificates"]["gamma"][1:]
    proof.write_text(json.dumps(doc))
    assert run("check-proof", str(proof)) == 1


def test_check_proof_calculus_override(tmp_path):
    proof = tmp_path / "proof.json"
    assert run(
        "prove", "--variety", "lgroup", "xx | yy | x'y'", "--proof", str(proof)
    ) == 0
    assert run("check-proof", str(proof), "--calculus", "GA") == 1
    assert run("check-proof", str(proof), "--calculus", "GLGstar") == 0


def test_deep_cs_proof_writes_and_checks(capsys, tmp_path):
    # The cs proof of this set is hundreds of nodes deep: deeper than a
    # writer or reader that recurses once per node gets under the
    # interpreter's default recursion limit.
    proof = tmp_path / "proof.json"
    code = run(
        "prove", "--variety", "lgroup", "--procedure", "cs",
        "x'y'xy'x' | x'yy | xy'x", "--proof", str(proof),
    )
    assert code == 0
    assert run("check-proof", str(proof)) == 0
    doc = certio.loads(proof.read_text())
    node, depth = doc["conjuncts"][0]["derivation"], 0
    while node["premises"]:
        node, depth = node["premises"][0], depth + 1
    assert depth > sys.getrecursionlimit() / 2


def test_usage_errors_exit_three(capsys):
    assert run("decide", "--variety", "lgroup", "x |! y") == 3
    assert run("decide", "--variety", "abelian", "x", "--procedure", "hm") == 3
    assert run("decide", "--variety", "lgroup", "x", "--bound-L", "1") == 3
    assert run("decide", "--variety", "lgroup", "x", "--verify-witness") == 3
    assert run("order-extend", "--kind", "right", "e") == 3
    assert run("check-proof", "/nonexistent/path.json") == 3


def test_term_input_chains_decide_and_deep_nesting_exits_three(capsys):
    for op in (" * ", " \\/ ", " /\\ "):
        text = "e <= " + op.join(["x"] * 1000)
        assert run("decide", "--variety", "abelian", text) == 1, op
    capsys.readouterr()
    nested = "e <= " + "(" * 300 + "x" + ")" * 300
    assert run("decide", "--variety", "abelian", nested) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err and "100 levels" in err


def test_crosscheck_small(capsys):
    assert run("crosscheck", "--max-length", "1", "--max-size", "2") == 0
    out = capsys.readouterr().out
    assert "disagreements" in out and "instances" in out


def test_crosscheck_singletons_all_invalid(capsys):
    assert run("crosscheck", "--max-length", "2", "--max-size", "1") == 0
    out = capsys.readouterr().out
    assert "valid" in out
    lines = dict(
        line.rsplit(None, 1) for line in out.strip().splitlines() if line.strip()
    )
    assert lines["valid"] == "0"
    assert lines["invalid"] == "16"


def test_crosscheck_empty_corpus(capsys):
    assert run("crosscheck", "--max-size", "0") == 0


def test_crosscheck_parallel_workers(capsys):
    assert run("crosscheck", "--max-length", "1", "--max-size", "2", "--jobs", "2") == 0
    out = capsys.readouterr().out
    assert "instances" in out
