"""The three workloads: inputs, set-up, one round of the timed pass, and
the checks of its outputs.

A workload runs whole rounds of the same operations. ``round`` times each
operation and hands its output to a hook between operations, outside the
timed spans. The first round's outputs are kept and later rounds must
reproduce them exactly; after the pass ``check`` tests the kept outputs
against ``reference`` and returns how many operations of a round failed.

Every call into the program goes through a module attribute
(``sensitivity.advance(...)``) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import reference

from flipsense import baselines, evaluate, history, schedule, sensitivity

SIZES = list(range(5, 26))


def synth(root, work, seed, builds, files, tests, split):
    """Run ``flipsense synth`` as its own process and split its output
    into history.jsonl (first ``split`` builds) and tail.jsonl (the rest)."""
    raw = os.path.join(work, "synth.jsonl")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "flipsense.cli", "synth", "--seed", str(seed),
           "--builds", str(builds), "--files", str(files), "--tests", str(tests),
           "--out", raw]
    subprocess.run(cmd, env=env, check=True, timeout=120)
    head, tail = os.path.join(work, "history.jsonl"), os.path.join(work, "tail.jsonl")
    with open(raw, encoding="utf-8") as src, open(head, "w", encoding="utf-8") as h, \
            open(tail, "w", encoding="utf-8") as t:
        for i, line in enumerate(src):
            (h if i < split else t).write(line)
    os.remove(raw)
    return head, tail


def timed(clock, fn, *args, **kwargs):
    t0 = clock()
    result = fn(*args, **kwargs)
    return result, clock() - t0


class Workload:
    """``setup`` is timed in ``setup_repeats`` samples of ``setup_batch``
    calls, enough for a sample to outlast the machine's short stalls. A
    later round must reproduce ``digest`` of each first-round output;
    ``first_round`` may also check an output as it comes."""

    def first_round(self, i, out):
        return self.digest(i, out)

    def digest(self, i, out):
        return out

    def check(self, ctx, first):
        """Check the kept first-round outputs; return the failed
        operations of one round."""
        return 0


class Replay(Workload):
    """The paper's offline experiment: sweep alpha, then replay EMA at the
    chosen alpha, the counting baseline and seeded random, sizes 5..25."""

    name = "replay"
    setup_repeats, setup_batch = 11, 10
    SYNTH_SEED = 7
    BUILDS, FILES, TESTS = 50, 2000, 1000
    GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
    RANDOM_RUNS = 100

    def __init__(self, root, work, seed):
        self.seed = seed
        self.path, _ = synth(root, work, self.SYNTH_SEED, self.BUILDS, self.FILES,
                             self.TESTS, self.BUILDS)
        self.per_request = self.BUILDS - 1
        self.figures = {}

    def setup(self):
        records = history.read_history(self.path)
        return records, history.extract_flips(records)

    def round(self, ctx, hook, clock):
        records, ledger = ctx
        times = []
        (best, table), t = timed(clock, evaluate.sweep_alpha, records, ledger, self.GRID, SIZES)
        times.append(t)
        hook(0, (best, table))
        configs = (
            evaluate.MethodConfig(method="ema", alpha=best),
            evaluate.MethodConfig(method="cumulative"),
            evaluate.MethodConfig(method="random",
                                  policy=baselines.RandomPolicy(seed=self.seed, runs=self.RANDOM_RUNS)),
        )
        for i, config in enumerate(configs, start=1):
            reports, t = timed(clock, evaluate.replay_sizes, records, ledger, config, SIZES)
            times.append(t)
            hook(i, reports)
        builds = (len(self.GRID) + len(configs)) * self.per_request
        return builds, times

    # ------------------------------------------------------------ checks

    def _ranges(self, k, scores, n):
        pred = self.ref_pred[k]
        return reference.intersection_range(scores, len(self.ref_universe), n, pred)

    def _matrix_rows(self, reports, score_fn):
        """Failed builds of a matrix-method replay; raises on a wrong shape."""
        dicts = {n: reports[n].to_dict() for n in SIZES}
        seqs = [k for k in range(1, self.BUILDS) if self.ref_pred[k]]
        bad = set()
        for n in SIZES:
            rows = dicts[n]["per_build"]
            if [r["seq"] for r in rows] != seqs:
                raise AssertionError(f"n={n}: evaluated builds differ from the reference")
            if not reference.aggregates_match(dicts[n], rows):
                raise AssertionError(f"n={n}: aggregates differ from the per-build rows")
        for i, k in enumerate(seqs):
            scores = score_fn(self.changes[k], k - 1)
            for n in SIZES:
                lo, hi = self._ranges(k, scores, n)
                n_eff = min(n, len(self.ref_universe))
                if not reference.row_matches(dicts[n]["per_build"][i], k, n_eff,
                                             self.ref_pred[k], lo, hi):
                    bad.add(k)
        return len(bad)

    def _sweep(self, best, table):
        """Properties of the sweep table."""
        if [p.alpha for p in table] != sorted(self.GRID):
            raise AssertionError("sweep table does not cover the grid")
        if best != min(table, key=lambda p: (p.total_zero, p.alpha)).alpha:
            raise AssertionError("sweep did not pick the alpha with fewest zero results")
        for point in table:
            if point.total_zero != sum(point.zero_counts.values()):
                raise AssertionError("sweep total differs from its per-size counts")

    def _random(self, reports):
        pred_sizes = [len(p) for p in self.ref_pred if p]
        for n in SIZES:
            d = reports[n].to_dict()
            rows = d["per_build"]
            if not reference.aggregates_match(d, rows):
                raise AssertionError(f"random n={n}: aggregates differ from rows")
            n_eff = min(n, len(self.ref_universe))
            for r in rows:
                m = len(self.ref_pred[r["seq"]])
                if r["n_predictable"] != m or not 0 <= r["intersection"] <= min(n_eff, m):
                    raise AssertionError(f"random n={n}: row {r['seq']} out of range")
                if not (reference.close(r["precision"], r["intersection"] / n_eff)
                        and reference.close(r["recall"], r["intersection"] / m)):
                    raise AssertionError(f"random n={n}: row {r['seq']} inconsistent")
            expected = n_eff / len(self.ref_universe)
            tol = reference.random_recall_tolerance(len(self.ref_universe), n, pred_sizes,
                                                    self.RANDOM_RUNS)
            if abs(d["aggregates"]["mean_recall"] - expected) > tol:
                raise AssertionError(f"random n={n}: mean recall {d['aggregates']['mean_recall']}"
                                     f" is not within {tol} of {expected}")

    def _sweep_rows(self, table):
        """Failed builds of the sweep's replays, re-run outside the pass."""
        failed = 0
        for point in table:
            config = evaluate.MethodConfig(method="ema", alpha=point.alpha)
            reports = evaluate.replay_sizes(self.records, self.ledger, config, SIZES)
            if {n: reports[n].zero_count() for n in SIZES} != point.zero_counts:
                raise AssertionError(f"sweep zero counts at alpha {point.alpha} differ "
                                     "from a replay at that alpha")
            failed += self._matrix_rows(reports, lambda c, upto, a=point.alpha:
                                        self.index.ema(c, upto, a))
        return failed

    def check(self, ctx, first):
        self.records, self.ledger = ctx
        builds = reference.read_history(self.path)
        self.ref_flipped, self.ref_pred, self.ref_universe = reference.flips(builds)
        self.index = reference.CreditIndex(builds, self.ref_flipped)
        self.changes = [c for c, _ in builds]
        self._sweep(*first[0])
        failed = self._sweep_rows(first[0][1])
        alpha = first[1][SIZES[0]].alpha
        failed += self._matrix_rows(first[1], lambda c, upto: self.index.ema(c, upto, alpha))
        failed += self._matrix_rows(first[2], self.index.counts)
        self._random(first[3])
        for n in SIZES:
            ema, rnd = first[1][n].mean_recall, first[3][n].mean_recall
            if not ema > rnd:
                raise AssertionError(f"n={n}: EMA recall {ema} does not beat random {rnd}")
        self.figures = {"alpha": first[0][0]}
        for i, method in enumerate(("ema", "cumulative", "random"), start=1):
            self.figures[method] = {
                n: {"recall": first[i][n].mean_recall, "zero_pct": first[i][n].zero_pct}
                for n in SIZES
            }
        return failed


class Query(Workload):
    """Per-commit selection: fold a long history once, then answer change
    sets with slice_scores and select_top_n(n=25)."""

    name = "query"
    setup_repeats, setup_batch = 5, 1
    SYNTH_SEED = 7
    HISTORY, QUERIES, FILES, TESTS = 400, 1000, 2000, 1000
    ALPHA, N = 0.8, 25
    MERGE_EVERY, MERGE_WIDTH = 100, 15
    UNSEEN_EVERY = 10

    def __init__(self, root, work, seed):
        self.path, tail = synth(root, work, self.SYNTH_SEED, self.HISTORY + self.QUERIES,
                                self.FILES, self.TESTS, self.HISTORY)
        tail_changes = reference.read_changes(tail)
        self.changesets = []
        for i, changes in enumerate(tail_changes):
            if i % self.MERGE_EVERY == self.MERGE_EVERY // 2:
                changes = frozenset().union(*tail_changes[i:i + self.MERGE_WIDTH])
            if i % self.UNSEEN_EVERY == 3:
                changes = changes | {f"new/{i:04d}.c", f"new/{i:04d}.h"}
            self.changesets.append(frozenset(changes))
        self.order = list(range(len(self.changesets)))
        random.Random(seed).shuffle(self.order)

    def setup(self):
        records = history.read_history(self.path)
        ledger = history.extract_flips(records)
        matrix = sensitivity.empty_matrix(alpha=self.ALPHA)
        for record in records[1:]:
            delta = sensitivity.build_delta(record.changed_files, ledger.flipped(record.seq))
            matrix = sensitivity.advance(matrix, delta)
        return matrix, set(ledger.universe)

    def round(self, ctx, hook, clock):
        matrix, universe = ctx
        times = []
        for i in self.order:
            t0 = clock()
            scores = sensitivity.slice_scores(matrix, self.changesets[i])
            selected = sensitivity.select_top_n(scores, self.N, universe)
            times.append(clock() - t0)
            hook(i, selected)
        return len(self.order), times

    def check(self, ctx, first):
        builds = reference.read_history(self.path)
        flipped, _, universe = reference.flips(builds)
        index = reference.CreditIndex(builds, flipped)
        failed = 0
        for i, selected in first.items():
            scores = index.ema(self.changesets[i], len(builds) - 1, self.ALPHA)
            failed += not reference.selection_ok(selected, scores, universe, self.N)
        return failed


class DayLoop(Workload):
    """The resource-managed day loop, driven through the library, over
    PROJECTS seeded projects a round. The round-robin pass costs about the
    cube of the stable tier, so one project's cost swings with its draw of
    stable tests; summing several projects steadies the round."""

    name = "dayloop"
    setup_repeats, setup_batch = 11, 10
    PROJECTS, PREFIX, DAYS, FILES, TESTS = 16, 2, 12, 400, 120
    ALPHA = 0.8
    OFFICE_K, WEIGHTS = 10, (0.3, 0.5, 0.7)
    BUDGET, WINDOW = 15, 7

    def __init__(self, root, work, seed):
        self.projects = []
        for j in range(self.PROJECTS):
            pwork = os.path.join(work, f"p{j}")
            os.makedirs(pwork, exist_ok=True)
            path, tail = synth(root, pwork, seed * self.PROJECTS + j, self.PREFIX + self.DAYS,
                               self.FILES, self.TESTS, self.PREFIX)
            days = [
                history.BuildRecord(f"day{d}", self.PREFIX + d, changes, verdicts)
                for d, (changes, verdicts) in enumerate(reference.read_history(tail))
            ]
            self.projects.append((pwork, path, days))
        self.ref = {}

    def setup(self):
        return [self._setup(path) for _, path, _ in self.projects]

    def _setup(self, path):
        records = history.read_history(path)
        ledger = history.extract_flips(records)
        state = schedule.state_from_history(records, ledger)
        matrix = sensitivity.empty_matrix(alpha=self.ALPHA)
        pending = state.pending
        for r in records:
            pending = sensitivity.incremental_observe(pending, r.changed_files)
            matrix, pending = sensitivity.incremental_apply(matrix, pending, sorted(r.verdicts),
                                                            r.verdicts)
        state = schedule.ScheduleState(staleness=state.staleness, stable=state.stable,
                                       pending=pending)
        return records, ledger, matrix, state

    def _day(self, work, records, ledger, matrix, state, day):
        pending = sensitivity.incremental_observe(state.pending, day.changed_files)
        recency = baselines.hbtp_scores(records, ledger, day.seq)
        changed = sorted(day.changed_files)
        office = []
        for i, w in enumerate(self.WEIGHTS, start=1):
            part = changed[: math.ceil(len(changed) * i / len(self.WEIGHTS))]
            for t in schedule.office_hours_tick(matrix, pending, part, recency, self.OFFICE_K, w=w):
                if t not in office:
                    office.append(t)
        matrix, pending = sensitivity.incremental_apply(
            matrix, pending, office, {t: day.verdicts[t] for t in office})
        state = schedule.ScheduleState(staleness=state.staleness, stable=state.stable,
                                       pending=pending)
        picked = schedule.select_stable(state, self.BUDGET, "round_robin", self.WINDOW)
        matrix, pending = sensitivity.incremental_apply(
            matrix, pending, picked, {t: day.verdicts[t] for t in picked})
        before = schedule.ScheduleState(staleness=state.staleness, stable=state.stable,
                                        pending=pending)
        after = schedule.day_tick(before, office + picked)
        mpath = os.path.join(work, "matrix.jsonl")
        spath = os.path.join(work, "state.json")
        with open(mpath, "w", encoding="utf-8") as fp:
            sensitivity.save_matrix(matrix, fp)
        with open(spath, "w", encoding="utf-8") as fp:
            schedule.save_state(after, fp)
        with open(mpath, encoding="utf-8") as fp:
            loaded_matrix = sensitivity.load_matrix(fp)
        with open(spath, encoding="utf-8") as fp:
            loaded_state = schedule.load_state(fp)
        return office, picked, state, matrix, after, loaded_matrix, loaded_state

    def round(self, ctx, hook, clock):
        times = []
        for p, ((work, _, days), (records0, ledger, matrix, state)) in enumerate(
                zip(self.projects, ctx)):
            records = list(records0)
            for d, day in enumerate(days):
                t0 = clock()
                out = self._day(work, records, ledger, matrix, state, day)
                times.append(clock() - t0)
                matrix, state = out[5], out[6]
                records.append(day)
                hook(p * self.DAYS + d, out)
        return len(times), times

    def first_round(self, i, out):
        """Check day i of the first round as it happens, so that no day's
        matrix and state need be kept, and return its digest."""
        p, d = divmod(i, self.DAYS)
        _, path, days = self.projects[p]
        office, picked, selecting, matrix, after, loaded_matrix, loaded_state = out
        if d == 0:
            prefix = reference.read_history(path)
            flipped, _, universe = reference.flips(prefix)
            ever = frozenset().union(*flipped)
            stable = {t: t not in ever for t in universe}
            model = reference.ColumnModel(self.ALPHA, universe)
            for changes, verdicts in prefix:
                model.observe(changes)
                model.apply(sorted(verdicts), verdicts)
            self.ref[p] = (stable, model, dict.fromkeys(stable, 0))
            if selecting.stable != stable:
                raise AssertionError(f"project {p}: stable flags differ from the never-flipped tests")
        stable, model, stale = self.ref[p]
        where = f"project {p} day {d}"
        day = days[d]
        if selecting.staleness != stale:
            raise AssertionError(f"{where}: staleness differs from the benchmark's record")
        if not reference.stable_pass_ok(picked, stale, stable, self.BUDGET, self.WINDOW):
            raise AssertionError(f"{where}: stable pass breaks budget or overdue order")
        model.observe(day.changed_files)
        model.apply(office, day.verdicts)
        model.apply(picked, day.verdicts)
        error = model.max_error(matrix.cols)
        if error > 1e-12:
            raise AssertionError(f"{where}: matrix is {error} off the column-wise model")
        if after.pending.accumulated != model.acc:
            raise AssertionError(f"{where}: accumulated changes differ from the model")
        ran = set(office) | set(picked)
        stale = {t: 0 if t in ran else s + 1 for t, s in stale.items()}
        self.ref[p] = (stable, model, stale)
        if after.staleness != stale:
            raise AssertionError(f"{where}: day_tick staleness differs")
        if schedule.cost(after) != sum(s * s for s in stale.values()):
            raise AssertionError(f"{where}: cost differs from sum of squared staleness")
        self._round_trip(where, matrix, after, loaded_matrix, loaded_state)
        return self.digest(i, out)

    def digest(self, i, out):
        """What a later round must reproduce: the day's selections and
        staleness, and the matrix a project's last day leaves."""
        office, picked, _, _, after, loaded_matrix, _ = out
        final = loaded_matrix.cols if i % self.DAYS == self.DAYS - 1 else None
        return office, picked, after.staleness, final

    @staticmethod
    def _round_trip(where, matrix, state, m2, s2):
        same_matrix = (
            m2.cols == matrix.cols and m2.files == matrix.files and m2.tests == matrix.tests
            and (m2.d_mode, m2.update_mode, m2.alpha, m2.last_seq, m2.drop_threshold)
            == (matrix.d_mode, matrix.update_mode, matrix.alpha, matrix.last_seq,
                matrix.drop_threshold)
        )
        if not same_matrix:
            raise AssertionError(f"{where}: matrix snapshot round trip is not exact")
        if (s2.staleness, s2.stable, s2.pending.accumulated, s2.pending.last_verdict) != (
                state.staleness, state.stable, state.pending.accumulated,
                state.pending.last_verdict):
            raise AssertionError(f"{where}: state round trip is not exact")


WORKLOADS = {w.name: w for w in (Replay, Query, DayLoop)}
