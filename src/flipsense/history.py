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
from typing import IO, Iterable

from .errors import HistoryParseError, ValidationError

VERDICTS = ("pass", "fail")

BROKEN = "broken"  # pass -> fail
FIXED = "fixed"    # fail -> pass


@dataclass(frozen=True)
class BuildRecord:
    """One build: identifier, change set, and the verdicts observed in it."""

    build_id: str
    seq: int
    changed_files: frozenset[str]
    verdicts: dict[str, str]  # test id -> "pass" | "fail"; absent = not run


@dataclass(frozen=True)
class FlipEvent:
    seq: int
    test_id: str
    direction: str  # BROKEN or FIXED


@dataclass(frozen=True)
class FlipLedger:
    """All flip events of a history plus the derived per-build sets."""

    events: tuple[FlipEvent, ...]
    flipped_at: dict[int, frozenset[str]]
    predictable_at: dict[int, frozenset[str]]
    universe: frozenset[str]
    n_builds: int

    def flipped(self, seq: int) -> frozenset[str]:
        return self.flipped_at.get(seq, frozenset())

    def predictable(self, seq: int) -> frozenset[str]:
        return self.predictable_at.get(seq, frozenset())

    def ever_flipped(self) -> frozenset[str]:
        return frozenset(e.test_id for e in self.events)


@dataclass(frozen=True)
class HistoryStats:
    n_builds: int
    n_files: int
    n_tests: int


@dataclass(frozen=True)
class PredictableStats:
    """How many builds have predictable tests, bucketed by how many."""

    qualifying_builds: int
    bucket_le_5: int
    bucket_6_to_25: int
    bucket_gt_25: int


def _parse_line(line_no: int, line: str) -> tuple[str, frozenset[str], dict[str, str]]:
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
    for test_id, verdict in results.items():
        if not isinstance(test_id, str) or not test_id:
            raise HistoryParseError(line_no, f"test id {test_id!r} is not a non-empty string")
        if verdict not in VERDICTS:
            raise HistoryParseError(
                line_no, f"test {test_id!r} has verdict {verdict!r}; expected 'pass' or 'fail'"
            )
    return build_id, frozenset(changes), dict(results)


def ingest_history(lines: Iterable[str]) -> list[BuildRecord]:
    """Parse and validate a line-delimited history, assigning seq by line order.

    Raises HistoryParseError for malformed lines (with the offending line
    number) and ValidationError for duplicate build ids or an empty history.
    """
    records: list[BuildRecord] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        build_id, changed, verdicts = _parse_line(line_no, line)
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


def history_stats(records: list[BuildRecord]) -> HistoryStats:
    files: set[str] = set()
    tests: set[str] = set()
    for record in records:
        files.update(record.changed_files)
        tests.update(record.verdicts)
    return HistoryStats(n_builds=len(records), n_files=len(files), n_tests=len(tests))


def extract_flips(records: list[BuildRecord]) -> FlipLedger:
    """Derive flip events and predictable sets from a validated history.

    A test's verdict at build k is compared against its most recent known
    verdict (carry-forward); the first verdict ever seen for a test never
    counts as a flip, so flipped_at[0] is always empty.
    """
    last_verdict: dict[str, str] = {}
    flipped_before: set[str] = set()
    events: list[FlipEvent] = []
    flipped_at: dict[int, frozenset[str]] = {}
    predictable_at: dict[int, frozenset[str]] = {}
    universe: set[str] = set()

    for record in records:
        flipped_now: list[str] = []
        for test_id in sorted(record.verdicts):
            verdict = record.verdicts[test_id]
            universe.add(test_id)
            prev = last_verdict.get(test_id)
            if prev is not None and prev != verdict:
                direction = BROKEN if verdict == "fail" else FIXED
                events.append(FlipEvent(record.seq, test_id, direction))
                flipped_now.append(test_id)
            last_verdict[test_id] = verdict
        if flipped_now:
            flipped_at[record.seq] = frozenset(flipped_now)
            predictable = frozenset(t for t in flipped_now if t in flipped_before)
            if predictable:
                predictable_at[record.seq] = predictable
            flipped_before.update(flipped_now)

    return FlipLedger(
        events=tuple(events),
        flipped_at=flipped_at,
        predictable_at=predictable_at,
        universe=frozenset(universe),
        n_builds=len(records),
    )


def predictable_build_stats(ledger: FlipLedger) -> PredictableStats:
    """Bucket the builds that have at least one predictable test by set size."""
    le_5 = mid = gt_25 = 0
    for tests in ledger.predictable_at.values():
        size = len(tests)
        if size <= 5:
            le_5 += 1
        elif size <= 25:
            mid += 1
        else:
            gt_25 += 1
    return PredictableStats(
        qualifying_builds=len(ledger.predictable_at),
        bucket_le_5=le_5,
        bucket_6_to_25=mid,
        bucket_gt_25=gt_25,
    )
