#!/usr/bin/env python3
"""Run the tracked grids of ``benchmarks/grids.py`` and write their artifacts.

    REPRO_BENCH_PROFILE=quick python3 benchmarks/tracked.py        # make tracked
    python3 benchmarks/tracked.py                                  # make bench (paper profile)
    REPRO_BENCH_PROFILE=quick python3 benchmarks/tracked.py fig4a  # one artifact

Positional arguments are artifact ids; none means every row. A selected
row runs its whole sweep and writes the selected artifacts. The points of
every selected row are simulated in one ``SweepRunner.run``
(``REPRO_BENCH_JOBS`` workers, default all cores). The records run here,
after the pool has joined, so that nothing a record installs for its own
in-process run (``maxmin_fabric()``) is active in a forked worker. Each
artifact lands in ``benchmarks/results/<id>.json``, its rendered text is
printed, and the exit status is 1 on any ``[FAIL]`` check, 2 on an unknown id.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from grids import GRIDS

from repro.runner import SweepRunner, active_profile, resolve_profile

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def main(ids) -> int:
    known = [record.__name__ for row in GRIDS for record in row.records]
    unknown = sorted(set(ids) - set(known))
    if unknown:
        print(f"tracked.py: unknown artifact id(s) {', '.join(unknown)}; "
              f"known: {', '.join(known)}", file=sys.stderr)
        return 2
    wanted = set(ids or known)
    active = active_profile()
    plan = []
    for row in GRIDS:
        selected = [record for record in row.records if record.__name__ in wanted]
        if selected:
            profile = resolve_profile(row.profile) if row.profile else active
            plan.append((selected, profile, row.specs(profile)))

    # one sweep over every distinct point of the selected rows
    unique = list(dict.fromkeys(s for *_, specs in plan for s in specs.values()))
    jobs = os.environ.get("REPRO_BENCH_JOBS")
    results = dict(zip(unique, SweepRunner(jobs=int(jobs) if jobs else None).run(unique)))

    failed = []
    for selected, profile, specs in plan:
        points = {label: results[spec] for label, spec in specs.items()}
        for record in selected:
            aid = record.__name__
            text, data = record(points, profile)
            (RESULTS_DIR / f"{aid}.json").write_text(
                json.dumps({"figure_id": aid, **data}, indent=2, sort_keys=True) + "\n"
            )
            print("\n" + text)
            failed += [f"{aid}: {c}" for c in data["checks"] if not c.startswith("[PASS]")]
    if failed:
        print("\n" + "\n".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
