import json
import pathlib
import sys

import pytest

from conftest import product_leaf, words
from ordcalc import calculus, certio, cli
from ordcalc.calculus import CalculusId


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
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID" in out
    assert run("check", str(witness)) == 0
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
        "--witness", str(witness),
    )
    assert code == 0
    assert json.loads(witness.read_text())["kind"] == "truncated_right_order"
    assert run("check", str(witness)) == 0


def test_order_extend_total(capsys, tmp_path):
    witness = tmp_path / "total.json"
    code = run(
        "order-extend", "--kind", "total", "x",
        "--witness", str(witness),
    )
    assert code == 0
    assert json.loads(witness.read_text())["kind"] == "abelian_order_witness"
    assert run("check", str(witness)) == 0
    assert run("order-extend", "--kind", "total", "x, x'", "--bound-L", "0") == 1
    assert run("order-extend", "--kind", "total", "x'y'xy") == 2


def test_check_proof_detects_mutation(tmp_path):
    proof = tmp_path / "proof.json"
    assert run("prove", "--variety", "lgroup", "x | x'", "--proof", str(proof)) == 0
    doc = json.loads(proof.read_text())
    # the first node with a gamma certificate on the way up from the root
    nodes = doc["conjuncts"][0]["nodes"]
    node = nodes[-1]
    while not node["certificates"].get("gamma"):
        node = nodes[node["premises"][0]]
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


def test_long_abelian_proof_is_small(capsys, tmp_path):
    # 400 literals, 200 of them out of place: an axiom on the literal
    # multiset needs no exchange steps, so the proof stays a few nodes
    proof = tmp_path / "proof.json"
    text = " ".join(["x y"] * 100 + ["x' y'"] * 100)
    assert run("prove", "--variety", "abelian", text, "--proof", str(proof)) == 0
    assert proof.stat().st_size < 10_000
    assert run("check-proof", str(proof)) == 0


def test_deep_cs_proof_writes_and_checks(capsys, tmp_path):
    # A leaf of 1,200 factors over x | x' derives as a chain of splits more
    # than a thousand nodes deep: deeper than a pass that recurses once per
    # node gets under the interpreter's default recursion limit.  It is
    # written and checked without nesting calls.
    joins = words("x", "x'")
    leaf = product_leaf((0,) * 600 + (1,) * 600)
    goal = calculus.hypersequent_of_words(joins)
    derivation = calculus.derive_glgstar(joins, leaf)
    proof = tmp_path / "proof.json"
    doc = certio.proof_doc(CalculusId.GLGSTAR, [(goal, derivation)])
    proof.write_text(certio.dumps(doc))
    assert run("check-proof", str(proof)) == 0
    doc = certio.loads(proof.read_text())
    nodes = doc["conjuncts"][0]["nodes"]
    node, depth = nodes[-1], 0
    while node["premises"]:
        node, depth = nodes[node["premises"][0]], depth + 1
    assert depth > sys.getrecursionlimit() / 2


@pytest.mark.parametrize(
    "text",
    [
        "x'y'xy'x' | x'yy | xy'x",
        "x'y'xy' | yxyyx | x'y'x'x'",
        "yyxy | xxy'xx | x'x'y'",
        "y'xy'y'y' | x'y'y'x'y | yyyx",
    ],
)
def test_cs_proofs_of_failing_rows_are_small(capsys, tmp_path, text):
    # the benchmark's cs VALID rows with the longest cone leaves: each leaf's
    # factorization is short, not the cone's product history flattened into
    # hundreds of splits
    proof = tmp_path / "proof.json"
    code = run(
        "prove", "--variety", "lgroup", "--procedure", "cs", text, "--proof", str(proof)
    )
    assert code == 0
    assert proof.stat().st_size < 16_000
    assert run("check-proof", str(proof)) == 0


# one query for each kind of witness file the command line writes: the
# fields its file holds, the code it exits with and its arguments
WITNESS_QUERIES = [
    (
        {"kind": "truncated_right_order"},
        1,
        ("decide", "--variety", "lgroup", "xx | xy | yx'"),
    ),
    ({"kind": "separator"}, 1, ("decide", "--variety", "abelian", "x | y")),
    ({"kind": "abelian_order_witness"}, 0, ("order-extend", "--kind", "total", "x")),
    (
        {"kind": "sign_assignment"},
        1,
        ("decide", "--variety", "lgroup", "--procedure", "hm", "xx | xy | yx'"),
    ),
    (
        {"kind": "refutation", "flavor": "right_order"},
        1,
        ("order-extend", "--kind", "right", "xx, yy, x'y'"),
    ),
    (
        {"kind": "refutation", "flavor": "order"},
        1,
        ("order-extend", "--kind", "total", "x, x'", "--bound-L", "0"),
    ),
    (
        {"kind": "bounds_exhausted"},
        2,
        ("decide", "--variety", "representable", "x' y' x y"),
    ),
]


def _write_witness(tmp_path, query) -> pathlib.Path:
    fields, code, argv = query
    path = tmp_path / f"{fields['kind']}.json"
    assert run(*argv, "--witness", str(path)) == code
    assert json.loads(path.read_text()).items() >= fields.items()
    return path


@pytest.mark.parametrize(
    "query", WITNESS_QUERIES, ids=lambda query: "-".join(query[0].values())
)
def test_check_accepts_every_witness_kind_the_cli_writes(capsys, tmp_path, query):
    path = _write_witness(tmp_path, query)
    capsys.readouterr()
    assert run("check", str(path)) == 0
    assert capsys.readouterr().out == f"accepted: {query[0]['kind']}\n"


def test_check_rejects_forged_witnesses_with_exit_one(capsys, tmp_path):
    # a separator that is zero, not negative, on the word x
    separator = _write_witness(tmp_path, WITNESS_QUERIES[1])
    doc = json.loads(separator.read_text())
    doc["functional"][0] = 0
    separator.write_text(certio.dumps(doc))
    # signing the pivot x negative lets x' x' x x reach the identity
    signs = _write_witness(tmp_path, WITNESS_QUERIES[3])
    doc = json.loads(signs.read_text())
    assert doc["signs"][0] == {"pivot": "x", "sign": 1} and "x x" in doc["words"]
    doc["signs"][0]["sign"] = -1
    signs.write_text(certio.dumps(doc))
    capsys.readouterr()
    for path, issue in (
        (separator, "functional is not negative on 'x'"),
        (signs, "signed generators reach the identity"),
    ):
        assert run("check", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == f"REJECTED: {issue}\n"
        assert "internal error" not in captured.err


def test_check_rejects_conjugators_in_right_order_refutations(capsys, tmp_path):
    # conjugating every factor of a leaf by y keeps its product e, so only
    # the rule that right-order leaves take no conjugators rejects it
    path = _write_witness(tmp_path, WITNESS_QUERIES[4])
    doc = json.loads(path.read_text())
    leaf = next(node for node in doc["tree"] if node["kind"] == "leaf")
    leaf["factors"] = [{"base": b, "conjugator": "y"} for b in leaf["factors"]]
    path.write_text(certio.dumps(doc))
    capsys.readouterr()
    assert run("check", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == "REJECTED: right-order leaves take no conjugators\n"
    assert "internal error" not in captured.err


def test_check_rejects_malformed_leaf_factors_with_exit_three(capsys, tmp_path):
    # both flavors write refutation.json: read each before the next
    order = json.loads(_write_witness(tmp_path, WITNESS_QUERIES[5]).read_text())
    right = json.loads(_write_witness(tmp_path, WITNESS_QUERIES[4]).read_text())
    old_layout = {"base": 0, "conjugator": "e", "sign": 1}  # a sign, as files had
    path = tmp_path / "mutant.json"
    for genuine, factor in (
        (order, old_layout),
        (order, True),
        (order, "0"),
        (right, True),
        (right, "0"),
    ):
        doc = json.loads(json.dumps(genuine))
        leaf = next(node for node in doc["tree"] if node["kind"] == "leaf")
        leaf["factors"][0] = factor
        path.write_text(certio.dumps(doc))
        capsys.readouterr()
        assert run("check", str(path)) == 3, factor
        err = capsys.readouterr().err
        assert "certificate file rejected" in err and "internal error" not in err


def test_check_calculus_override_on_a_witness_exits_three(capsys, tmp_path):
    path = _write_witness(tmp_path, WITNESS_QUERIES[0])
    capsys.readouterr()
    assert run("check", str(path), "--calculus", "GA") == 3
    assert "--calculus applies to proof files only" in capsys.readouterr().err


def test_check_proof_is_another_name_for_check():
    parser = cli.build_parser()
    check = parser.parse_args(["check", "p.json"])
    alias = parser.parse_args(["check-proof", "p.json"])
    assert check.handler is alias.handler


def test_hostile_nesting_is_rejected(capsys, tmp_path):
    for name, text in (("lists", "[" * 100_000), ("objects", '{"a":' * 100_000)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert run("check-proof", str(path)) == 3
        err = capsys.readouterr().err
        assert "certificate file rejected" in err and "internal error" not in err


def test_usage_errors_exit_three(capsys, monkeypatch, tmp_path):
    assert run("decide", "--variety", "lgroup", "x |! y") == 3
    assert run("decide", "--variety", "abelian", "x", "--procedure", "hm") == 3
    assert run("decide", "--variety", "lgroup", "x", "--bound-L", "1") == 3
    assert run("decide", "--variety", "lgroup", "x", "--verify-witness") == 3
    assert run("order-extend", "--kind", "right", "e") == 3
    assert run("check-proof", "/nonexistent/path.json") == 3
    assert run("decide", "--variety", "representable", "x", "--bound-L", "-1") == 3
    assert run("order-extend", "--kind", "total", "x", "--bound-L", "-2") == 3
    assert run("crosscheck", "--arity", "0") == 3
    assert run("crosscheck", "--max-length", "-1") == 3
    assert run("crosscheck", "--max-size", "-1") == 3
    assert run("crosscheck", "--samples", "-5") == 3
    # a superscript two is a digit to str.isdigit but not to int
    assert run("decide", "--variety", "abelian", "x\u00b2") == 3
    assert run("decide", "--variety", "abelian", "e <= x\u00b2") == 3
    monkeypatch.setenv("ORDCALC_SEED", "abc")
    assert run("crosscheck") == 3
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"kind": "proof\u00e9"}'.encode("latin-1"))
    assert run("check-proof", str(latin1)) == 3
    assert "internal error" not in capsys.readouterr().err
    # a schema-1 file: the goldens are kept in that layout
    golden = pathlib.Path(__file__).parent / "golden" / "ga_example_valid.proof.json"
    assert run("check-proof", str(golden)) == 3
    assert "rejected: unsupported schema version" in capsys.readouterr().err


def test_blank_sequents_exit_three(capsys, tmp_path):
    # a blank part of a hypersequent is not read as e, which would make
    # e <= x \/ e VALID; the identity is written e
    proof = tmp_path / "proof.json"
    for text in ("x |", "x | | y", "| x", "x |  "):
        for verb in ("decide", "prove"):
            assert run(verb, "--variety", "lgroup", text, "--proof", str(proof)) == 3
            assert "write e" in capsys.readouterr().err, (verb, text)
    assert not proof.exists()
    assert run("decide", "--variety", "lgroup", "x | e") == 0
    assert run("decide", "--variety", "lgroup", "x") == 1


def test_internal_value_error_exits_four(capsys, monkeypatch):
    def broken(words, arity):
        raise ValueError("a fault inside the decider")

    monkeypatch.setattr("ordcalc.rightorder.decide_lg_cs", broken)
    assert run("decide", "--variety", "lgroup", "x | x'") == 4
    assert "internal error" in capsys.readouterr().err


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


def test_bound_l_applies_only_where_a_conjugator_bound_is_searched():
    # rejected at any value, the default 3 included, where no search takes it
    assert run("decide", "--variety", "lgroup", "x", "--bound-L", "3") == 3
    assert run("decide", "--variety", "abelian", "x", "--bound-L", "3") == 3
    assert run("order-extend", "--kind", "right", "xx, xy", "--bound-L", "2") == 3


def test_order_extend_reads_back_the_words_of_its_witness_files(tmp_path):
    # one query per kind of file order-extend writes
    queries = (
        ("right", "xx, xy, yx'", "truncated_right_order"),
        ("right", "xx, yy, x'y'", "refutation"),
        ("total", "xy | xx", "abelian_order_witness"),
        ("total", "xyx', y'", "refutation"),
        ("total", "x'y'xy", "bounds_exhausted"),
    )
    for kind_option, text, kind in queries:
        options = ("--kind", kind_option)
        if kind_option == "total":
            options += ("--bound-L", "1")
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        code = run("order-extend", *options, text, "--witness", str(first))
        doc = json.loads(first.read_text())
        assert doc["kind"] == kind and any(" " in w for w in doc["words"]), text
        posed = ", ".join(doc["words"])
        assert run("order-extend", *options, posed, "--witness", str(again)) == code
        assert again.read_bytes() == first.read_bytes(), text
