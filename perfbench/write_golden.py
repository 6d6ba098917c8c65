"""Rewrite the golden reports from the current code at seed 0.

    python3 perfbench/write_golden.py

Run it only when a change to the report is intended; the benchmark treats
any other difference from these files as a failed analysis.
"""

import sys

import workloads


def main() -> int:
    modtalg = workloads.import_modtalg()
    for workload in workloads.WORKLOADS:
        for case in workloads.build_cases(workload, seed=0):
            report = modtalg.analysis.analyze(case.scheme, modtalg.ffmat.field_ctx(case.prime),
                                              case.base_points, case.name)
            path = case.golden_path(workload)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(modtalg.analysis.report_to_json(report))
            print(path.relative_to(workloads.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
