"""History ingestion, flip extraction, and predictable bookkeeping."""

import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from flipsense.errors import HistoryParseError, ValidationError
from flipsense.history import (
    VERDICTS,
    BuildRecord,
    extract_flips,
    ingest_history,
    record_to_line,
    summarise,
    write_history,
)
from flipsense.synth import SynthConfig, generate

from conftest import histories, history_lines, rec


class TestIngest:
    def test_order_preserving(self):
        lines = history_lines(
            [
                ("b1", ["f1"], {"t1": "pass"}),
                ("b2", ["f2"], {"t1": "fail"}),
                ("b3", [], {"t1": "fail"}),
            ]
        )
        records = ingest_history(lines)
        assert [r.seq for r in records] == [0, 1, 2]
        assert [r.build_id for r in records] == ["b1", "b2", "b3"]

    def test_unknown_verdict_names_test(self):
        lines = history_lines([("b1", [], {"t_good": "pass", "t_bad": "skip"})])
        with pytest.raises(HistoryParseError, match="t_bad"):
            ingest_history(lines)

    def test_malformed_line_number(self):
        lines = history_lines([("b1", [], {"t1": "pass"})]) + ["{not json"]
        with pytest.raises(HistoryParseError, match="line 2"):
            ingest_history(lines)

    def test_duplicate_build_id(self):
        lines = history_lines([("b1", [], {"t1": "pass"}), ("b1", [], {"t1": "pass"})])
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_history(lines)

    def test_empty_history(self):
        with pytest.raises(ValidationError, match="empty"):
            ingest_history([])

    def test_empty_file_id_rejected(self):
        lines = [json.dumps({"build": "b1", "changes": [""], "results": {}})]
        with pytest.raises(HistoryParseError):
            ingest_history(lines)

    def test_missing_field(self):
        with pytest.raises(HistoryParseError, match="results"):
            ingest_history(['{"build": "b1", "changes": []}'])

    def test_blank_lines_skipped(self):
        lines = ["", history_lines([("b1", [], {"t1": "pass"})])[0], "   "]
        assert len(ingest_history(lines)) == 1

    def test_industrial_scale_counts(self):
        # same shape as the use case this targets: 176 builds touching 6720
        # distinct files, 1254 tests running in each build
        n_builds, n_files, n_tests = 176, 6720, 1254
        tests = {f"t{i:04d}": "pass" for i in range(n_tests)}
        per_build = n_files // n_builds  # 38 files, remainder on the last build
        lines = []
        for k in range(n_builds):
            lo = k * per_build
            hi = n_files if k == n_builds - 1 else lo + per_build
            files = [f"f{i:05d}" for i in range(lo, hi)]
            lines.append(json.dumps({"build": f"b{k}", "changes": files, "results": tests}))
        doc = summarise(ingest_history(lines))
        assert (doc["builds"], doc["files"], doc["tests"]) == (176, 6720, 1254)


@st.composite
def history_texts(draw):
    """The lines of a synth history, or of a small drawn one whose lines
    list their results in drawn orders, with blank lines between."""
    if draw(st.booleans()):
        config = SynthConfig(seed=draw(st.integers(0, 10**6)),
                             n_builds=draw(st.integers(1, 30)), n_tests=draw(st.integers(1, 40)))
        return [record_to_line(r) for r in generate(config)[0]]
    lines = []
    for r in draw(histories()):
        results = list(r.verdicts.items())
        order = draw(st.permutations(range(len(results))))
        lines.append(json.dumps({"results": dict(results[i] for i in order),
                                 "changes": sorted(r.changed_files), "build": r.build_id}))
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\n"]), max_size=1)))
    return lines


def plain_parse(lines) -> list[BuildRecord]:
    """One json.loads a line, with no check and no sharing."""
    docs = [json.loads(line) for line in lines if line.strip()]
    return [BuildRecord(d["build"], seq, frozenset(d["changes"]), d["results"])
            for seq, d in enumerate(docs)]


class TestSharedStrings:
    @given(history_texts())
    @settings(max_examples=60, deadline=None)
    def test_records_are_a_plain_parse_with_shared_strings(self, lines):
        records = ingest_history(lines)
        plain = plain_parse(lines)
        assert records == plain
        assert [list(r.verdicts) for r in records] == [list(r.verdicts) for r in plain]
        first: dict[str, str] = {}
        for r in records:
            for test_id, verdict in r.verdicts.items():
                assert verdict is VERDICTS[0] or verdict is VERDICTS[1]
                assert first.setdefault(test_id, test_id) is test_id

    # each line's first bad entry in key order, word for word as the
    # per-entry check words it
    @pytest.mark.parametrize("results, message", [
        ({"t_ok": "pass", "t_bad": ["pass"], "t_after": "fail"},
         "test 't_bad' has verdict ['pass']; expected 'pass' or 'fail'"),
        ({"t_ok": "pass", "t_bad": {}, "t_after": "fail"},
         "test 't_bad' has verdict {}; expected 'pass' or 'fail'"),
        ({"t_ok": "pass", "t_bad": 1, "t_after": "fail"},
         "test 't_bad' has verdict 1; expected 'pass' or 'fail'"),
        ({"t_ok": "pass", "t_bad": True, "t_after": "fail"},
         "test 't_bad' has verdict True; expected 'pass' or 'fail'"),
        ({"t_ok": "pass", "t_bad": None, "t_after": "fail"},
         "test 't_bad' has verdict None; expected 'pass' or 'fail'"),
        ({"t_ok": "pass", "t_bad": "PASS", "t_after": "fail"},
         "test 't_bad' has verdict 'PASS'; expected 'pass' or 'fail'"),
        ({"t_ok": "pass", "": "fail", "t_bad": "skip"}, "test id '' is not a non-empty string"),
        ({"t_ok": "pass", "t_bad": "skip", "": "fail"},
         "test 't_bad' has verdict 'skip'; expected 'pass' or 'fail'"),
        ({"t_ok": "pass", "": "pass"}, "test id '' is not a non-empty string"),
    ], ids=["list", "object", "number", "true", "null", "upper-case", "empty-id-first",
            "empty-id-last", "empty-id-only"])
    def test_error_line_of_a_bad_entry(self, results, message):
        lines = ['{"build":"b1","changes":[],"results":{"t_ok":"fail"}}',
                 json.dumps({"build": "b2", "changes": ["f1"], "results": results})]
        with pytest.raises(HistoryParseError) as info:
            ingest_history(lines)
        assert str(info.value) == f"line 2: {message}"


class TestExtractFlips:
    def test_flip_and_predictable_sequence(self):
        # verdicts p,f,f,p -> flips at 1 and 3; only the second is predictable
        records = [rec(i, [], {"tc": v}) for i, v in enumerate(["pass", "fail", "fail", "pass"])]
        ledger = extract_flips(records)
        assert dict(ledger.flipped_at) == {1: frozenset({"tc"}), 3: frozenset({"tc"})}
        assert dict(ledger.predictable_at) == {3: frozenset({"tc"})}

    def test_carry_forward_over_missing_verdict(self):
        records = [
            rec(0, [], {"tc": "pass"}),
            rec(1, [], {}),
            rec(2, [], {"tc": "fail"}),
        ]
        ledger = extract_flips(records)
        assert dict(ledger.flipped_at) == {2: frozenset({"tc"})}

    def test_constant_verdict_never_flips(self):
        records = [rec(i, [], {"tc": "fail"}) for i in range(3)]
        ledger = extract_flips(records)
        assert not ledger.flipped_at
        assert not ledger.predictable_at

    def test_first_verdict_is_not_a_flip(self):
        records = [rec(0, [], {}), rec(1, [], {"tc": "fail"})]
        assert not extract_flips(records).flipped_at

    def test_universe_includes_never_flipping_tests(self):
        records = [rec(0, [], {"a": "pass", "b": "pass"}), rec(1, [], {"a": "fail"})]
        assert extract_flips(records).universe == {"a", "b"}

    @given(histories())
    @settings(max_examples=60)
    def test_flip_count_matches_naive_sign_changes(self, records):
        ledger = extract_flips(records)
        for t in ledger.universe:
            seen = [r.verdicts[t] for r in records if t in r.verdicts]
            sign_changes = sum(1 for a, b in zip(seen, seen[1:]) if a != b)
            assert sum(t in tests for tests in ledger.flipped_at.values()) == sign_changes
        carried: dict[str, str] = {}
        for r in records:
            carried.update(r.verdicts)
        assert ledger.last_verdict == carried

    @given(histories())
    @settings(max_examples=60)
    def test_subset_chain(self, records):
        ledger = extract_flips(records)
        for seq in range(len(records)):
            assert ledger.predictable(seq) <= ledger.flipped(seq) <= ledger.universe
        assert ledger.flipped(0) == frozenset()

    def test_key_order_independence(self):
        base = [("b0", [], {"a": "pass", "b": "fail"}), ("b1", [], {"b": "pass", "a": "fail"})]
        flipped_order = [
            ("b0", [], {"b": "fail", "a": "pass"}),
            ("b1", [], {"a": "fail", "b": "pass"}),
        ]
        ledger_a = extract_flips(ingest_history(history_lines(base)))
        ledger_b = extract_flips(ingest_history(history_lines(flipped_order)))
        assert ledger_a == ledger_b


class TestRoundTrip:
    @given(histories())
    @settings(max_examples=60)
    def test_emitted_history_round_trips(self, records):
        buf = io.StringIO()
        write_history(records, buf)
        re_records = ingest_history(io.StringIO(buf.getvalue()))
        assert re_records == records
        buf2 = io.StringIO()
        write_history(re_records, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_canonical_line_is_sorted(self):
        r = rec(0, ["z", "a"], {"t2": "pass", "t1": "fail"})
        line = record_to_line(r)
        assert line.index('"a"') < line.index('"z"')
        assert line.index("t1") < line.index("t2")


class TestPredictableStats:
    def test_small_buckets(self):
        records = [
            rec(0, [], {"a": "pass", "b": "pass"}),
            rec(1, [], {"a": "fail", "b": "fail"}),
            rec(2, [], {"a": "pass", "b": "pass"}),
        ]
        doc = summarise(records)
        assert doc["predictable_builds"] == 1
        assert doc["predictable_buckets"] == {"le_5": 1, "6_to_25": 0, "gt_25": 0}

    def test_no_predictable_tests(self):
        records = [rec(0, [], {"a": "pass"}), rec(1, [], {"a": "fail"})]
        assert summarise(records)["predictable_builds"] == 0

    def test_industrial_scale_predictable_builds(self):
        # one test alternating through builds 1..133 makes builds 2..133
        # predictable: 132 qualifying builds out of 176
        records = []
        verdict = "pass"
        for seq in range(176):
            if 1 <= seq <= 133:
                verdict = "fail" if verdict == "pass" else "pass"
            records.append(rec(seq, [], {"tc": verdict, "anchor": "pass"}))
        doc = summarise(records)
        assert doc["predictable_builds"] == 132
        assert sum(doc["predictable_buckets"].values()) == 132
