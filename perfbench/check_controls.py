"""Controls for the benchmark's output checks.

    python3 perfbench/check_controls.py

For each workload, the deck of genuine operations must pass its checks,
and the same deck with the known-bad expectations of
``workloads.control_ops`` added (a flipped reference digest, a Serre
alternator with classical binomials, a pole sum with classical binomials
expected to vanish, a window report with a wrong ``rhs_scale``) must count
exactly those operations as failed, so the failed share rises.  Exits 1
when a control is not caught.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402


def failed_share(ops):
    runner = run.Runner()
    for op in ops:
        runner.timed(op)
    return runner.failed, runner.failed / runner.attempted


def main() -> int:
    lib = workloads.load_library()
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(lib, 1)
        genuine = workload.deck()
        controls = workloads.control_ops(lib, workload)
        base_failed, base_share = failed_share(genuine)
        failed, share = failed_share(genuine + controls)
        print(
            f"{name}: genuine {base_failed}/{len(genuine)} failed; with "
            f"{len(controls)} controls {failed}/{len(genuine) + len(controls)} "
            f"failed (share {base_share:.3f} -> {share:.3f})"
        )
        if base_failed or failed != len(controls) or not share > base_share:
            problems.append(name)
    if problems:
        print(f"controls not caught on: {', '.join(problems)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
