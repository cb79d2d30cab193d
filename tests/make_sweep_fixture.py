"""Freeze the old max-delta search's answers for ``TestSweep``.

``sequential_reference.sweep_max_delta`` replays the search that
``region.sweep_max_delta`` replaced: the seed channels and ``restarts``
soft-channel solves per budget.  Replaying it on every acceptance law takes
seconds, so this script runs it once, over the laws, budgets and restarts
of ``test_region.py::TestSweep::test_matches_the_per_budget_loop``, and
writes, for each case, every budget's ``delta.hex()``, the witness's
``w_cardinality`` and the SHA-256 of its rows' bytes to ``FIXTURE``.

    PYTHONPATH=src python tests/make_sweep_fixture.py           # write
    PYTHONPATH=src python tests/make_sweep_fixture.py --check   # compare

``--check`` replays example 1, example 2 and the first ``CHECK_LAWS``
acceptance laws and exits 1 if any record differs from the file.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import sequential_reference as ref
from conftest import acceptance_joints, example1, example2

FIXTURE = Path(__file__).parent / "golden" / "sweep_max_delta.json"
BUDGETS = (0.0, 0.3, 0.8, 1.5, np.inf)
RESTARTS = (0, 2, 4)
SEED = 4
CHECK_LAWS = 10


def laws(acceptance_count=100) -> dict:
    """The laws of each case name, in the test's order."""
    return {
        "example1": [example1()],
        "example2": [example2()],
        "acceptance": acceptance_joints(acceptance_count),
    }


def witness_digest(w) -> str:
    return hashlib.sha256(w.rows.tobytes()).hexdigest()


def replay(pmf, restarts: int) -> list:
    """[delta.hex(), w_cardinality, witness SHA-256] of every budget."""
    return [
        [delta.hex(), witness.w_cardinality, witness_digest(witness)]
        for _, delta, witness in ref.sweep_max_delta(pmf, BUDGETS, restarts=restarts, seed=SEED)
    ]


def records(cases: dict) -> list:
    return [
        {"law": name, "index": i, "restarts": restarts, "points": replay(pmf, restarts)}
        for name, pmfs in cases.items()
        for i, pmf in enumerate(pmfs)
        for restarts in RESTARTS
    ]


def load() -> dict:
    """The fixture: ``budgets`` as floats and ``cases``, keyed by (law,
    index, restarts), each a list of [delta, w_cardinality, digest]."""
    doc = json.loads(FIXTURE.read_text())
    cases = {}
    for rec in doc["records"]:
        points = [[float.fromhex(d), m, digest] for d, m, digest in rec["points"]]
        cases[rec["law"], rec["index"], rec["restarts"]] = points
    return {"budgets": [float.fromhex(b) for b in doc["budgets"]], "cases": cases}


def write() -> None:
    lines = ",\n".join(json.dumps(rec) for rec in records(laws()))
    budgets = json.dumps([float(b).hex() for b in BUDGETS])
    FIXTURE.write_text(
        f'{{\n"seed": {SEED},\n"budgets": {budgets},\n"records": [\n{lines}\n]\n}}\n'
    )


def check() -> int:
    stored = json.loads(FIXTURE.read_text())["records"]
    stored = {(r["law"], r["index"], r["restarts"]): r["points"] for r in stored}
    cases = laws(CHECK_LAWS)
    bad = [
        rec for rec in records(cases)
        if stored.get((rec["law"], rec["index"], rec["restarts"])) != rec["points"]
    ]
    for rec in bad:
        print(f"differs: {rec['law']} {rec['index']} restarts={rec['restarts']}")
    print(f"{len(bad)} of {sum(map(len, cases.values())) * len(RESTARTS)} cases differ")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="replay a subset and compare it with the file")
    if parser.parse_args(argv).check:
        return check()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
