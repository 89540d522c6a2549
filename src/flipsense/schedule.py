"""Resource-managed scheduling for tests the sensitivity signal cannot rank.

During office hours a small selection is run over and over: a blend of the
change-sensitivity slice with the failure-recency score. Tests that never
flipped ("stable") carry no such signal and are scheduled after hours
instead, either by making every test run within a time window (round
robin) or by greedily minimising the staleness cost sum(s_i^2), where s_i
counts the days since test i last ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

from .baselines import dissimilarity_order
from .errors import ValidationError
from .history import CANONICAL, VERDICTS, BuildRecord, FlipLedger
from .sensitivity import (
    PendingChanges,
    ScoreVector,
    SensitivityMatrix,
    check_ids,
    new_pending,
    read_document,
    select_top_n,
    slice_scores,
)

STRATEGIES = ("cost_min", "round_robin")


@dataclass
class ScheduleState:
    staleness: dict[str, int] = field(default_factory=dict)  # test -> days since last run
    stable: dict[str, bool] = field(default_factory=dict)    # test -> never flipped
    pending: PendingChanges = field(default_factory=new_pending)
    failed_at: dict[str, int] = field(default_factory=dict)  # test -> clock of its last fail

    def stable_tests(self) -> list[str]:
        return sorted(t for t, s in self.stable.items() if s)


def state_from_history(records: Sequence[BuildRecord], ledger: FlipLedger) -> ScheduleState:
    """Every test at staleness 0, stable if it never flipped, with its last
    failure at seq s stamped s - (builds - 1), so that the last build stands
    at clock 0, and with no last verdict, so a caller that replays the
    history's own builds through incremental_apply judges each verdict once.
    `schedule init` goes on from the history's end, so it seeds
    pending.last_verdict from the ledger."""
    stable = ledger.universe.difference(*ledger.flipped_at.values())
    tests, last = sorted(ledger.universe), len(records) - 1
    return ScheduleState(
        staleness={t: 0 for t in tests},
        stable={t: t in stable for t in tests},
        pending=new_pending(tests),
        failed_at={t: r.seq - last for r in records for t, v in r.verdicts.items() if v == "fail"},
    )


def cost(state: ScheduleState) -> int:
    """Quadratic staleness cost: sum of s_i^2 over all tracked tests."""
    return sum(s * s for s in state.staleness.values())


def day_tick(state: ScheduleState, executed: Iterable[str]) -> ScheduleState:
    """Advance one day: executed tests reset to 0, everything else ages."""
    executed_set = set(executed)
    staleness = {
        t: 0 if t in executed_set else s + 1 for t, s in state.staleness.items()
    }
    for t in executed_set - staleness.keys():
        staleness[t] = 0
    return ScheduleState(staleness=staleness, stable=dict(state.stable), pending=state.pending,
                         failed_at=dict(state.failed_at))


def select_stable(
    state: ScheduleState,
    budget: int,
    strategy: str = "cost_min",
    window_days: int = 7,
) -> list[str]:
    """Pick up to `budget` stable tests for the after-hours pass.

    Equally stale tests form a tier. Tiers are taken stalest first until
    the budget is spent: a tier with s_i >= overdue in id order, any other
    tier in dissimilarity order against the tests already picked. overdue
    is window_days for round_robin when the budget cannot cover every
    candidate, and 0 otherwise, so cost_min executes the stalest tests,
    which greedily minimises the post-execution cost over all budget-sized
    subsets. Overflow beyond the budget carries to the next day.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if window_days < 1:
        raise ValueError(f"window must be >= 1 day, got {window_days}")
    candidates = state.stable_tests()
    overdue = window_days if strategy == "round_robin" and budget < len(candidates) else 0
    tiers: dict[int, list[str]] = {}
    for t in candidates:
        tiers.setdefault(state.staleness.get(t, 0), []).append(t)
    picked: list[str] = []
    for s in sorted(tiers, reverse=True):
        room = budget - len(picked)
        tier = tiers[s] if s >= overdue else dissimilarity_order(tiers[s], picked, limit=room)
        picked.extend(tier[:room])
        if len(picked) == budget:
            break
    return picked


def _normalise(positive: Mapping[str, float]) -> dict[str, float]:
    top = max(positive.values(), default=1.0)
    return {t: v / top for t, v in positive.items()}


def office_hours_tick(
    matrix: SensitivityMatrix,
    pending: PendingChanges,
    changed_files: Iterable[str],
    hbtp: ScoreVector,
    k: int,
    w: float = 0.5,
    score_mode: str = "sum",
) -> list[str]:
    """One office-hours selection: blend sensitivity with failure recency.

    combined = w * sensitivity / max(sensitivity) + (1-w) * hbtp / max(hbtp)
    over the positive scores of either vector, then the top k under the
    usual (score desc, id asc) rule from the matrix's tests, hbtp's known
    tests and the pending tests. Read-only: pending only widens the
    candidate pool, bookkeeping stays with incremental_observe/apply.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"blend weight must be in [0, 1], got {w}")
    sens = _normalise(slice_scores(matrix, changed_files, score_mode).positive)
    recency = _normalise(hbtp.positive)
    universe = matrix.tests | hbtp.known | pending.tests()
    combined = {
        t: w * sens.get(t, 0.0) + (1.0 - w) * recency.get(t, 0.0)
        for t in sens.keys() | recency.keys()
    }
    positive = {t: v for t, v in combined.items() if v > 0.0}
    return select_top_n(ScoreVector(positive, universe), k, universe)


def save_state(state: ScheduleState, fp: IO[str]) -> None:
    """Persist as one JSON document: the clock, the change and failure
    stamps, and one object per per-test field, keyed by test id.

    staleness, stable and last_run map every tracked test, with defaults 0,
    false and the clock; last_verdict maps the tests with a known verdict.
    The bytes are ``history.CANONICAL``'s and a newline.
    """
    pending = state.pending
    clock, staleness, stable, last_run = pending.clock, state.staleness, state.stable, pending.last_run
    tests = sorted(staleness.keys() | stable.keys() | pending.tests())
    doc = {"kind": "schedule-state", "clock": clock, "changed_at": pending.changed_at,
           "failed_at": state.failed_at, "staleness": {t: staleness.get(t, 0) for t in tests},
           "stable": {t: stable.get(t, False) for t in tests},
           "last_run": {t: last_run.get(t, clock) for t in tests},
           "last_verdict": pending.last_verdict}
    fp.write(CANONICAL.encode(doc) + "\n")


def load_state(fp: IO[str]) -> ScheduleState:
    """Read a save_state document, checking each field in one pass; a
    malformed one, or one that holds the older per-test records, raises
    ValidationError."""
    doc = read_document(fp, "schedule-state", {"clock": int, "changed_at": dict, "failed_at": dict,
                        **dict.fromkeys(("staleness", "stable", "last_run", "last_verdict"), dict)})
    clock, changed_at, failed_at = doc["clock"], doc["changed_at"], doc["failed_at"]
    staleness, stable, last_run, last_verdict = (
        doc["staleness"], doc["stable"], doc["last_run"], doc["last_verdict"])
    if clock < 0:
        raise ValidationError(f"schedule-state: negative clock {clock}")
    check_ids([*changed_at, *failed_at, *staleness], "schedule-state")
    if not all(type(s) is int and 0 < s <= clock for s in changed_at.values()):
        raise ValidationError(f"schedule-state: changed_at stamps must be integers in 1..{clock}")
    if not all(type(s) is int and s <= clock for s in failed_at.values()):
        raise ValidationError(f"schedule-state: failed_at stamps must be integers up to {clock}")
    if not (staleness.keys() == stable.keys() == last_run.keys()
            and last_verdict.keys() <= staleness.keys()):
        raise ValidationError("schedule-state: staleness, stable and last_run must map the same "
                              "tests, and last_verdict only those")
    if not all(type(s) is int and s >= 0 for s in staleness.values()):
        raise ValidationError("schedule-state: staleness values must be integers >= 0")
    if not all(type(s) is bool for s in stable.values()):
        raise ValidationError("schedule-state: stable values must be true or false")
    if not all(type(s) is int and 0 <= s <= clock for s in last_run.values()):
        raise ValidationError(f"schedule-state: last_run stamps must be integers in 0..{clock}")
    if not all(v in VERDICTS for v in last_verdict.values()):
        raise ValidationError("schedule-state: last_verdict values must be pass or fail")
    return ScheduleState(
        staleness=staleness,
        stable=stable,
        pending=PendingChanges(clock, changed_at, last_run, last_verdict),
        failed_at=failed_at,
    )
