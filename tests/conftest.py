"""Shared helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

import json
import os
from pathlib import Path

import hypothesis.strategies as st

import flipsense
from flipsense.history import BuildRecord

# Tests that run `python -m flipsense.cli` in a subprocess get the package
# this process imported, also when only pytest's `pythonpath` found it.
_SRC = str(Path(flipsense.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def rec(seq: int, changes=(), results=None, build_id=None) -> BuildRecord:
    return BuildRecord(
        build_id=build_id or f"b{seq}",
        seq=seq,
        changed_files=frozenset(changes),
        verdicts=dict(results or {}),
    )


def sum_left_to_right(values) -> float:
    """A plain running sum from 0, the order the program adds its floats
    in on every Python version (sum() is compensated from 3.12)."""
    total = 0
    for v in values:
        total += v
    return total


def history_lines(builds) -> list[str]:
    """builds: list of (build_id, changes, results) triples."""
    return [
        json.dumps({"build": b, "changes": list(c), "results": dict(r)})
        for b, c, r in builds
    ]


_ids = st.text(alphabet="abcdefgh", min_size=1, max_size=4)

verdicts = st.sampled_from(["pass", "fail"])


@st.composite
def histories(draw, max_builds=8, max_files=6, max_tests=5):
    """Small random histories with optional missing verdicts."""
    files = sorted(draw(st.sets(_ids.map(lambda s: "f_" + s), min_size=1, max_size=max_files)))
    tests = sorted(draw(st.sets(_ids.map(lambda s: "t_" + s), min_size=1, max_size=max_tests)))
    n_builds = draw(st.integers(min_value=1, max_value=max_builds))
    records = []
    for seq in range(n_builds):
        changed = draw(st.sets(st.sampled_from(files), max_size=len(files)))
        ran = draw(st.sets(st.sampled_from(tests), max_size=len(tests)))
        results = {t: draw(verdicts) for t in sorted(ran)}
        records.append(rec(seq, changed, results, build_id=f"b{seq:03d}"))
    return records
