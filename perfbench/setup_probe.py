"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing modtalg and building, relabeling and validating the
workload's schemes:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from time import perf_counter

START = perf_counter()  # before any import that belongs to the set-up

import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    workloads.import_modtalg()
    workloads.build_cases(workload, seed)
    print(perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
