"""Set-up as a fresh process pays it: import ordcalc, then build one
workload's queries and load their expected answers.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds it spent sampling the machine's speed and the kernel
times it sampled (see ``pace``), as JSON.
"""

import json
import sys

from pace import Pacer

pacer = Pacer()
pacer.install()

import run  # noqa: E402
import workloads  # noqa: E402

run.import_program()
workloads.load(sys.argv[1], int(sys.argv[2]), run.BIG_COUNT)
pacer.uninstall()
print(json.dumps({
    "sampling_s": pacer.spent,
    "kernel_s": pacer.kernel_s,
}))
