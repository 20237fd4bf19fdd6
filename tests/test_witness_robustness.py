"""Witness files that are forged or mutated are rejected cleanly: with a
list of issues or a CertificateFormatError, never another exception, and
within a fixed address-space cap."""

import json
import os
import pathlib
import random
import resource
import subprocess
import sys

from conftest import words
from ordcalc import certio
from ordcalc import rightorder as ro
from ordcalc.witnesses import BoundsReport

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
ADDRESS_CAP = 512 << 20
FUZZ_SEED = 20000
FUZZ_MUTANTS = 20000


def _run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter under ADDRESS_CAP of address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))

    path = [str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=cap,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_tiny_witness_with_a_deep_level_is_rejected_under_a_cap():
    doc = {
        "schema_version": 1,
        "kind": "truncated_right_order",
        "arity": 2,
        "level": 40,
        "elements": ["x"],
    }
    code = (
        "import json\n"
        "from ordcalc import certio\n"
        f"print(json.dumps(certio.verify_witness_doc({doc!r})))\n"
    )
    result = _run_capped(code)
    assert result.returncode == 0, result.stderr[-2000:]
    issues = json.loads(result.stdout)
    assert any("below the level" in issue for issue in issues)


def genuine_documents() -> list[dict]:
    """One genuine document of every witness kind."""
    s_words, t_words = words("xx", "yy", "x'y'"), words("xx", "xy", "yx'")
    conj = words("x y x'", "y'")
    return [
        certio.truncated_order_doc(ro.decide_lg_cs(t_words, 2).certificate),
        certio.separator_doc(words("x", "xy"), 2, (-1, -1)),
        certio.abelian_order_doc(words("x", "xy"), 2, (1, 1)),
        certio.sign_assignment_doc(
            t_words, 2, ro.decide_lg_hm(t_words, 2).certificate
        ),
        certio.refutation_doc(
            s_words, 2, ro.extend_right_order(s_words, 2), "right_order"
        ),
        certio.refutation_doc(conj, 2, ro.rg_refute_bounded(conj, 2, 1), "order"),
        certio.bounds_doc(BoundsReport(1, ro.sign_pivots(t_words))),
    ]


_WORD_TEXTS = ("x", "x'", "y", "xy", "y'x'", "xxy'", "z", "xzy'", "", "q", "x''")
_INTEGERS = (0, 1, -1, 2, 3, 40, -7, 10**6, -(10**6))


def _random_value(rng: random.Random):
    choice = rng.randrange(7)
    if choice == 0:
        return rng.choice(_INTEGERS)
    if choice == 1:
        return rng.choice(_WORD_TEXTS)
    if choice == 2:
        return [rng.choice(_WORD_TEXTS) for _ in range(rng.randint(0, 3))]
    if choice == 3:
        return [rng.choice(_INTEGERS) for _ in range(rng.randint(0, 3))]
    return rng.choice((None, True, {}, {"kind": "leaf"}))


def _containers(value, out):
    """Every dict and list inside value, value included."""
    if isinstance(value, (dict, list)):
        out.append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, out)
    return out


def mutate(doc: dict, rng: random.Random) -> dict:
    """A copy of doc with one to three fields replaced, removed or added."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        target = rng.choice(_containers(doc, []))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        if keys and rng.random() < 0.15:
            del target[rng.choice(keys)]
        elif keys:
            target[rng.choice(keys)] = _random_value(rng)
        elif isinstance(target, list):
            target.append(_random_value(rng))
    return doc


def fuzz(seed: int, count: int) -> list[str]:
    """Verify ``count`` mutants of the genuine documents; the faults found."""
    rng = random.Random(seed)
    genuine = genuine_documents()
    faults = []
    for _ in range(count):
        doc = mutate(rng.choice(genuine), rng)
        try:
            issues = certio.verify_witness_doc(doc)
        except certio.CertificateFormatError:
            continue
        except Exception as exc:  # any other class is a fault
            faults.append(f"{type(exc).__name__}: {exc} on {json.dumps(doc)}")
            continue
        if not isinstance(issues, list):
            faults.append(f"returned {issues!r} on {json.dumps(doc)}")
    return faults


def test_genuine_documents_verify():
    for doc in genuine_documents():
        assert certio.verify_witness_doc(doc) == [], doc["kind"]


def test_mutated_witness_documents_fail_only_as_format_errors():
    code = (
        "import json, test_witness_robustness as t\n"
        f"print(json.dumps(t.fuzz({FUZZ_SEED}, {FUZZ_MUTANTS})))\n"
    )
    result = _run_capped(code)
    assert result.returncode == 0, result.stderr[-2000:]
    faults = json.loads(result.stdout)
    assert faults == [], "\n".join(sorted(set(faults))[:20])

