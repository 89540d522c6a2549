"""Build-history ingestion, validation, and flip bookkeeping.

A history is a chronological sequence of builds, one JSON object per line:

    {"build": "b17", "changes": ["src/io.c", "src/net.c"], "results": {"tc_a": "pass", "tc_b": "fail"}}

A test *flips* at a build when its verdict differs from the most recent
build in which it was run (carry-forward for tests absent from a build).
A flipped test is *predictable* when it has also flipped at least once
earlier in the history; predictable tests are the target class every
selection method is scored against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

from .errors import HistoryParseError, ValidationError

VERDICTS = ("pass", "fail")

# each verdict to itself: indexing it checks a verdict in C and hands back
# the one shared string, where an unknown verdict raises KeyError and an
# unhashable one TypeError
_VERDICT = {v: v for v in VERDICTS}


@dataclass(frozen=True)
class BuildRecord:
    """One build: identifier, change set, and the verdicts observed in it."""

    build_id: str
    seq: int
    changed_files: frozenset[str]
    verdicts: dict[str, str]  # test id -> "pass" | "fail"; absent = not run


@dataclass(frozen=True)
class FlipLedger:
    """The flipped and the predictable tests of each build (a build with
    none is absent), every test that has a verdict, and each test's last
    verdict, against which its next one is judged. A test flips at most
    once a build, so the flips number the sum of the flipped_at sizes."""

    flipped_at: dict[int, frozenset[str]]
    predictable_at: dict[int, frozenset[str]]
    universe: frozenset[str]
    last_verdict: dict[str, str]  # test -> its verdict at the last build that ran it

    def flipped(self, seq: int) -> frozenset[str]:
        return self.flipped_at.get(seq, frozenset())

    def predictable(self, seq: int) -> frozenset[str]:
        return self.predictable_at.get(seq, frozenset())


def _parse_line(
    line_no: int, line: str, ids: dict[str, str]
) -> tuple[str, frozenset[str], dict[str, str]]:
    """One line's build id, change set and verdicts. Each test id is the
    object ``ids`` holds for its text, and each verdict one of VERDICTS,
    so a history holds one copy of each id and verdict however many
    builds name it."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise HistoryParseError(line_no, f"invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise HistoryParseError(line_no, "invalid JSON (nested too deeply)") from exc
    if not isinstance(obj, dict):
        raise HistoryParseError(line_no, "record is not an object")
    missing = {"build", "changes", "results"} - obj.keys()
    if missing:
        raise HistoryParseError(line_no, f"missing fields: {', '.join(sorted(missing))}")

    build_id = obj["build"]
    if not isinstance(build_id, str) or not build_id:
        raise HistoryParseError(line_no, "'build' must be a non-empty string")

    changes = obj["changes"]
    if not isinstance(changes, list):
        raise HistoryParseError(line_no, "'changes' must be an array of strings")
    for f in changes:
        if not isinstance(f, str) or not f:
            raise HistoryParseError(line_no, f"file id {f!r} is not a non-empty string")

    results = obj["results"]
    if not isinstance(results, dict):
        raise HistoryParseError(line_no, "'results' must be an object")
    try:
        verdicts = dict(zip(map(ids.setdefault, results, results),
                            map(_VERDICT.__getitem__, results.values())))
    except (KeyError, TypeError):
        verdicts = None
    if verdicts is None or "" in verdicts:  # a bad entry: name the first one
        for test_id, verdict in results.items():
            if not test_id:  # a JSON key is always a string
                raise HistoryParseError(line_no, f"test id {test_id!r} is not a non-empty string")
            if verdict not in VERDICTS:
                raise HistoryParseError(
                    line_no, f"test {test_id!r} has verdict {verdict!r}; expected 'pass' or 'fail'"
                )
    return build_id, frozenset(changes), verdicts


def ingest_history(lines: Iterable[str]) -> list[BuildRecord]:
    """Parse and validate a line-delimited history, assigning seq by line order.

    Raises HistoryParseError for malformed lines (with the offending line
    number) and ValidationError for duplicate build ids or an empty history.
    """
    records: list[BuildRecord] = []
    seen_ids: set[str] = set()
    test_ids: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        build_id, changed, verdicts = _parse_line(line_no, line, test_ids)
        if build_id in seen_ids:
            raise ValidationError(f"duplicate build id {build_id!r} at line {line_no}")
        seen_ids.add(build_id)
        records.append(BuildRecord(build_id, len(records), changed, verdicts))
    if not records:
        raise ValidationError("history is empty")
    return records


def read_history(path_or_fp) -> list[BuildRecord]:
    if hasattr(path_or_fp, "read"):
        return ingest_history(path_or_fp)
    with open(path_or_fp, encoding="utf-8") as fp:
        return ingest_history(fp)


def record_to_line(record: BuildRecord) -> str:
    """Canonical single-line form: sorted changes, sorted result keys."""
    return json.dumps(
        {
            "build": record.build_id,
            "changes": sorted(record.changed_files),
            "results": {t: record.verdicts[t] for t in sorted(record.verdicts)},
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def write_history(records: Iterable[BuildRecord], fp: IO[str]) -> None:
    for record in records:
        fp.write(record_to_line(record))
        fp.write("\n")


def flipped_tests(last_verdict: Mapping[str, str], verdicts: Mapping[str, str]) -> list[str]:
    """The tests whose verdict differs from their last known one, in
    ``verdicts``' order; a test seen for the first time never flips."""
    return [t for t, v in verdicts.items() if last_verdict.get(t, v) != v]


def extract_flips(records: list[BuildRecord]) -> FlipLedger:
    """Derive the flipped and predictable sets from a validated history.

    A test's verdict at build k is compared against its most recent known
    verdict (carry-forward); the first verdict ever seen for a test never
    counts as a flip, so flipped(0) is always empty.
    """
    last_verdict: dict[str, str] = {}
    flipped_before: set[str] = set()
    flipped_at: dict[int, frozenset[str]] = {}
    predictable_at: dict[int, frozenset[str]] = {}

    for record in records:
        flipped_now = flipped_tests(last_verdict, record.verdicts)
        last_verdict.update(record.verdicts)
        if flipped_now:
            flipped_at[record.seq] = frozenset(flipped_now)
            predictable = frozenset(t for t in flipped_now if t in flipped_before)
            if predictable:
                predictable_at[record.seq] = predictable
            flipped_before.update(flipped_now)

    return FlipLedger(flipped_at, predictable_at, frozenset(last_verdict), last_verdict)


def summarise(records: list[BuildRecord]) -> dict:
    """The counts `ingest` reports: builds, distinct files and tests, flips,
    and the builds with predictable tests, bucketed by how many they have."""
    ledger = extract_flips(records)
    sizes = [len(tests) for tests in ledger.predictable_at.values()]
    return {
        "builds": len(records),
        "files": len(frozenset().union(*(r.changed_files for r in records))),
        "tests": len(ledger.universe),
        "flip_events": sum(map(len, ledger.flipped_at.values())),
        "predictable_builds": len(sizes),
        "predictable_buckets": {
            "le_5": sum(size <= 5 for size in sizes),
            "6_to_25": sum(5 < size <= 25 for size in sizes),
            "gt_25": sum(size > 25 for size in sizes),
        },
    }
