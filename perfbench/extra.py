"""Opt-in cases outside the timed workloads, each posed once.

    python3 perfbench/extra.py [slow] [failing]

Poses the rows of ``data/slow.tsv`` (too slow for a timed run) and
``data/failing.tsv`` (failing at this commit) through the benchmark's
client, with a limit of an hour instead of the per-query limit.  Exits 1
when any query fails: a verdict that differs from its expected answer, a
rejected certificate, an error, or a run over the limit.
"""

import sys
import tempfile

import run
import workloads


def main(tables: list[str]) -> int:
    run.import_program()
    from client import Client

    failed = 0
    run.OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as workdir:
        client = Client(workdir, run.SLOW_LIMIT_S, digest=False)
        for table in tables or ["slow", "failing"]:
            for query in workloads.table_queries(table):
                outcome = client.run(query)
                status = "over the limit" if outcome.over_limit else outcome.verdict
                line = f"{table} {query.procedure:4s} {status} {outcome.decide_s:9.2f} s  {query.text}"
                if not outcome.completed:
                    failed += 1
                    line += f"  FAILED: {outcome.error or 'over the limit'}"
                print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
