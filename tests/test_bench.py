"""Benchmark harness: per-run accounting, grid determinism and CSV."""

from __future__ import annotations

import pytest

from treeprobe import bench
from treeprobe import (
    AdditiveOracle,
    ExactOracle,
    InvalidTreeError,
    NoisyOracle,
    bench_run,
    from_edges,
    parallel_chain,
    random_tree,
    records_to_csv,
    run_single,
    shaped_tree,
    uniform_weights,
    vote_size,
)
from treeprobe.bench import CSV_HEADER, RunOutcome, derive_seed


class TestDeriveSeed:
    def test_frozen_values(self):
        # sha256("100:3:0") and sha256("2000:10:9"), first eight bytes.
        assert derive_seed(0, 100, 3, 0) == 3656565477855333098
        assert derive_seed(7, 2000, 10, 9) == 3050474946401698505

    def test_stays_in_63_bits(self):
        for base in (0, 1, 2**62, 2**63 - 1):
            seed = derive_seed(base, 1000, 5, 3)
            assert 0 <= seed < 2**63

    def test_sensitive_to_every_coordinate(self):
        base = derive_seed(1, 100, 3, 0)
        assert derive_seed(2, 100, 3, 0) != base
        assert derive_seed(1, 101, 3, 0) != base
        assert derive_seed(1, 100, 4, 0) != base
        assert derive_seed(1, 100, 3, 1) != base


class TestRunSingle:
    def test_exact_run_succeeds_and_counts_one_for_one(self):
        tree = random_tree(30, 3, seed=100)
        outcome = run_single("exact", tree, 3, seed=9)
        assert outcome.success
        assert outcome.edges == set(tree.edges())
        assert outcome.raw_queries == outcome.logical_queries > 0
        assert outcome.votes is None
        assert outcome.stats.rounds_total > 0  # a round may keep several path edges

    def test_noisy_run_multiplies_raw_by_votes(self):
        # Each logical query asks between its lead and its cap of votes.
        tree = random_tree(20, 3, seed=101)
        outcome = run_single("noisy", tree, 3, seed=5, eps=0.1, delta=0.1)
        assert outcome.votes is not None and outcome.votes % 2 == 1
        assert (outcome.votes, outcome.lead) == vote_size(0.1, 0.1, 20, 3)
        logical = outcome.logical_queries
        assert outcome.lead * logical <= outcome.raw_queries < outcome.votes * logical
        assert run_single("noisy", tree, 3, seed=5, eps=0.1, delta=0.1) == outcome

    def test_failed_noisy_run_keeps_its_counters(self, monkeypatch):
        class LateLiar(NoisyOracle):
            """Honest for a while, then denies every path."""

            def query(self, i, j):
                bit = super().query(i, j)
                return bit if self.raw <= 2_000 else 0

        monkeypatch.setattr(bench, "NoisyOracle", LateLiar)
        # The liar must start before the run ends; an honest run on these 60
        # nodes asks about 3,400 raw queries.
        tree = random_tree(60, 3, seed=101)
        outcome = run_single("noisy", tree, 3, seed=5, eps=0.1, delta=0.1)
        assert not outcome.success
        assert outcome.edges == set()
        assert outcome.stats.rounds_total >= 2
        assert outcome.stats.recursion_depth_max >= 2
        logical = outcome.logical_queries
        assert outcome.lead * logical <= outcome.raw_queries <= outcome.votes * logical
        assert outcome.raw_queries > 2_000

    def test_noisy_run_on_a_single_node_asks_nothing(self):
        outcome = run_single("noisy", from_edges(1, set()), 1, seed=0, eps=0.1, delta=0.1)
        assert outcome.success
        assert outcome.edges == set()
        assert outcome.votes == outcome.lead == 1
        assert outcome.raw_queries == outcome.logical_queries == 0

    @pytest.mark.parametrize("regime, base", [("exact", ExactOracle), ("weighted", AdditiveOracle)])
    def test_inconsistent_answers_fail_the_run_in_every_regime(self, monkeypatch, regime, base):
        class LateLiar(base):
            """Honest for a while, then denies every path."""

            def query(self, i, j):
                answer = super().query(i, j)
                return answer if self.calls <= 60 else 0

        monkeypatch.setattr(bench, base.__name__, LateLiar)
        tree = random_tree(20, 3, seed=101)
        hidden = uniform_weights(tree, seed=7) if regime == "weighted" else tree
        outcome = run_single(regime, hidden, 3, seed=5)
        assert not outcome.success
        assert outcome.edges == set() and outcome.weights is None
        assert (outcome.stats.rounds_total >= 1) == (regime == "exact")
        assert outcome.stats.audit_queries >= 1
        assert outcome.raw_queries == outcome.logical_queries > 60

    def test_a_denial_in_the_audit_keeps_the_run_counters(self, monkeypatch):
        # The liar answers truly through every round, then denies the first
        # edge the audit asks.
        tree = random_tree(40, 3, seed=11)
        honest = run_single("exact", tree, 3, seed=2)
        assert honest.success and honest.stats.audit_queries > 0
        rounds_asked = honest.logical_queries - honest.stats.audit_queries

        class AuditLiar(ExactOracle):
            def query(self, i, j):
                bit = super().query(i, j)
                return bit if self.calls <= rounds_asked else 0

        monkeypatch.setattr(bench, "ExactOracle", AuditLiar)
        outcome = run_single("exact", tree, 3, seed=2)
        assert not outcome.success and outcome.edges == set()
        assert outcome.logical_queries == rounds_asked + 1
        assert outcome.stats.audit_queries == 1
        assert outcome.stats.rounds_total == honest.stats.rounds_total

    @pytest.mark.parametrize(
        "bound, message",
        [(0, "degree bound must be >= 1, got 0"), (1, "no tree on 5 nodes fits degree bound 1")],
    )
    @pytest.mark.parametrize("regime", ["exact", "noisy", "weighted"])
    def test_infeasible_degree_bound_raises_at_once(self, monkeypatch, regime, bound, message):
        cls = {"exact": ExactOracle, "noisy": NoisyOracle, "weighted": AdditiveOracle}[regime]
        made = []

        class Seen(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(bench, cls.__name__, Seen)
        chain = shaped_tree("chain", 5)
        hidden = uniform_weights(chain, seed=0) if regime == "weighted" else chain
        noise = {"eps": 0.1, "delta": 0.1} if regime == "noisy" else {}
        with pytest.raises(InvalidTreeError, match=message):
            run_single(regime, hidden, bound, 1, **noise)
        assert sum(oracle.calls for oracle in made) == 0

    # The chain 0 -> 1 -> 2 -> 3 and edge sets the driver might return.
    @pytest.mark.parametrize(
        "returned, success",
        [
            ({(0, 1), (1, 2), (2, 3)}, True),
            # The root's ROOT parent, read as a pair.
            ({(-1, 0), (0, 1), (1, 2)}, False),
            # A child below 0 or past the last node.
            ({(0, 1), (1, 2), (2, -1)}, False),
            ({(0, 1), (1, 2), (2, 4)}, False),
            # One edge missing, with a wrong one in its place or without.
            ({(0, 1), (1, 2), (1, 3)}, False),
            ({(0, 1), (1, 2)}, False),
        ],
    )
    def test_success_means_exactly_the_hidden_edges(self, monkeypatch, returned, success):
        def driver(oracle, n, degree_bound, rng):
            return set(returned), bench.ReconstructionStats()

        monkeypatch.setattr(bench, "reconstruct_tree", driver)
        outcome = run_single("exact", shaped_tree("chain", 4), 2, seed=0)
        assert outcome.success is success

    def test_weighted_run_checks_weights_too(self):
        hidden = uniform_weights(random_tree(25, 4, seed=102), seed=103)
        outcome = run_single("weighted", hidden, 4, seed=6)
        assert outcome.success
        assert outcome.weights == dict(hidden.weights)

    def test_weighted_regime_requires_weights(self):
        tree = random_tree(10, 3, seed=104)
        with pytest.raises(ValueError):
            run_single("weighted", tree, 3, seed=0)

    def test_noisy_regime_requires_noise_parameters(self):
        tree = random_tree(10, 3, seed=105)
        with pytest.raises(ValueError):
            run_single("noisy", tree, 3, seed=0)

    def test_unknown_regime(self):
        tree = random_tree(10, 3, seed=106)
        with pytest.raises(ValueError):
            run_single("telepathic", tree, 3, seed=0)

    @pytest.mark.parametrize("regime", ["exact", "weighted"])
    @pytest.mark.parametrize("noise", [{"eps": 0.3}, {"delta": 0.2}])
    def test_noise_parameters_outside_the_noisy_regime_are_refused(
        self, monkeypatch, regime, noise
    ):
        # A noise rate the run never used must not reach its output, so the
        # run refuses it before it builds an oracle.
        cls = {"exact": ExactOracle, "weighted": AdditiveOracle}[regime]
        made = []

        class Seen(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(bench, cls.__name__, Seen)
        tree = random_tree(10, 3, seed=107)
        hidden = uniform_weights(tree, seed=0) if regime == "weighted" else tree
        with pytest.raises(ValueError, match="noisy"):
            run_single(regime, hidden, 3, seed=0, **noise)
        assert made == []
        with pytest.raises(ValueError, match="noisy"):
            bench_run(regime, [10], [3], 1, 0, **noise)

    @pytest.mark.parametrize(
        "regime, noise, message",
        [
            ("telepathic", {}, "unknown regime"),
            ("exact", {"eps": 0.1}, "only to the noisy regime"),
            ("weighted", {"delta": 0.1}, "only to the noisy regime"),
            ("noisy", {"eps": 0.1}, "needs eps and delta"),
            ("noisy", {"delta": 0.1}, "needs eps and delta"),
            ("noisy", {"eps": 0.0, "delta": 0.1}, "eps must lie"),
            ("noisy", {"eps": 0.5, "delta": 0.1}, "eps must lie"),
            ("noisy", {"eps": 0.1, "delta": 0.0}, "delta must lie"),
            ("noisy", {"eps": 0.1, "delta": 1.5}, "delta must lie"),
        ],
    )
    def test_bad_arguments_are_refused_on_a_single_node(self, regime, noise, message):
        # A 1-node tree asks no query and never sizes a vote, so only the
        # argument check can refuse it.
        with pytest.raises(ValueError, match=message):
            run_single(regime, from_edges(1, set()), 1, seed=0, **noise)
        with pytest.raises(ValueError, match=message):
            bench_run(regime, [10], [3], 0, 0, **noise)

    def test_weighted_regime_takes_an_unweighted_single_node(self):
        outcome = run_single("weighted", from_edges(1, set()), 1, seed=0)
        assert outcome.success
        assert outcome.edges == set() and outcome.weights == {}
        assert outcome.logical_queries == 0

    # (logical_queries, raw_queries, rounds_total, audit_queries,
    # recursion_depth_max) per cell. Any change to what the driver asks, in
    # what order, or to what the rng draws moves at least one of them.
    PINNED = [
        ("exact", lambda: random_tree(300, 3, seed=1), 3, 1, (3524, 3524, 80, 2, 6)),
        ("exact", lambda: shaped_tree("chain", 200), 2, 2, (1035, 1035, 7, 0, 5)),
        ("exact", lambda: shaped_tree("star", 60), 59, 3, (3481, 3481, 57, 58, 58)),
        ("exact", lambda: parallel_chain(4, 30), 4, 4, (1056, 1056, 10, 3, 7)),
        ("noisy", lambda: random_tree(60, 3, seed=5), 3, 5, (430, 3218, 11, 2, 5)),
        (
            "weighted",
            lambda: uniform_weights(random_tree(300, 5, seed=6), seed=7),
            5,
            6,
            (2911, 2911, 0, 4, 1),
        ),
    ]

    @pytest.mark.parametrize("regime, hidden, bound, seed, counts", PINNED)
    def test_counts_are_pinned(self, regime, hidden, bound, seed, counts):
        noise = {"eps": 0.1, "delta": 0.1} if regime == "noisy" else {}
        outcome = run_single(regime, hidden(), bound, seed, **noise)
        assert outcome.success
        stats = outcome.stats
        assert (
            outcome.logical_queries,
            outcome.raw_queries,
            stats.rounds_total,
            stats.audit_queries,
            stats.recursion_depth_max,
        ) == counts


class TestEveryQueryIsOneQueryCall:
    """A tracer counts logical queries by wrapping the oracle class's
    ``query`` method, as ``perfbench/tracer.py`` does, and checks that
    count against the run's own. ``ExactOracle.reaching`` asks a scan as
    one batch, but a class-level wrapper on ``query`` turns that batch back
    into one ``query`` call per pair, so under the wrapper each regime's
    runs still ask every query through one ``query`` call."""

    CELLS = [
        pytest.param("exact", ExactOracle, lambda: random_tree(150, 3, seed=2), 3, id="random"),
        pytest.param("exact", ExactOracle, lambda: shaped_tree("star", 40), 39, id="star"),
        pytest.param("exact", ExactOracle, lambda: shaped_tree("chain", 120), 2, id="chain"),
        pytest.param("exact", ExactOracle, lambda: parallel_chain(3, 20), 3, id="parallel"),
        pytest.param("noisy", NoisyOracle, lambda: random_tree(60, 3, seed=4), 3, id="noisy"),
        pytest.param(
            "weighted",
            AdditiveOracle,
            lambda: uniform_weights(random_tree(150, 5, seed=3), seed=5),
            5,
            id="weighted",
        ),
    ]

    @pytest.mark.parametrize("regime, cls, hidden, bound", CELLS)
    def test_class_level_wrapper_sees_every_query(self, monkeypatch, regime, cls, hidden, bound):
        seen = []
        real = cls.query

        def counted(self, i, j):
            seen.append(self)
            return real(self, i, j)

        monkeypatch.setattr(cls, "query", counted)
        noise = {"eps": 0.1, "delta": 0.1} if regime == "noisy" else {}
        outcome = run_single(regime, hidden(), bound, 7, **noise)
        assert outcome.success
        assert len(seen) == outcome.logical_queries > 0
        assert len(set(map(id, seen))) == 1 and seen[0].calls == len(seen)


class TestBenchRun:
    GRID = ("exact", [12, 18], [3], 2, 77)

    def test_grid_size_and_record_fields(self):
        records = bench_run(*self.GRID)
        assert len(records) == 2 * 1 * 2
        assert [(r.n, r.d) for r in records] == [(12, 3), (12, 3), (18, 3), (18, 3)]
        for r in records:
            assert r.regime == "exact"
            assert r.eps is None and r.delta is None
            assert r.success
            assert r.raw_queries == r.logical_queries > 0
            assert r.wall_ms >= 0.0

    def test_rerun_matches_except_wall_time(self):
        def key(r: RunOutcome):
            return (
                r.regime, r.n, r.d, r.eps, r.delta, r.seed,
                r.raw_queries, r.logical_queries, r.rounds, r.success,
            )

        assert list(map(key, bench_run(*self.GRID))) == list(map(key, bench_run(*self.GRID)))

    @pytest.mark.parametrize("regime", ["exact", "noisy", "weighted"])
    def test_each_record_is_run_single_on_its_cell(self, regime):
        # A grid row is the run itself, not a copy of some of its fields.
        noise = {"eps": 0.1, "delta": 0.1} if regime == "noisy" else {}
        (record,) = bench_run(regime, [15], [3], 1, 4, **noise)
        seed = derive_seed(4, 15, 3, 0)
        hidden = random_tree(15, 3, seed=seed * 4)
        if regime == "weighted":
            hidden = uniform_weights(hidden, seed=seed * 4 + 3)
        alone = run_single(regime, hidden, 3, seed, **noise)
        assert alone.success
        # Inputs, edges, weights, stats, counts, votes and lead: all but wall_ms.
        assert record == alone

    def test_record_seeds_do_not_depend_on_grid_position(self):
        wide_by_n = {r.n: r for r in bench_run("exact", [12, 18], [3], 1, 77)}
        narrow_record = bench_run("exact", [18], [3], 1, 77)[0]
        assert wide_by_n[18].seed == narrow_record.seed
        assert wide_by_n[18].raw_queries == narrow_record.raw_queries

    def test_negative_reps_rejected(self):
        with pytest.raises(ValueError):
            bench_run("exact", [10], [3], reps=-1, base_seed=0)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            bench_run("psychic", [10], [3], reps=1, base_seed=0)


class TestCsv:
    def test_header_is_the_documented_contract(self):
        assert CSV_HEADER == (
            "regime,n,d,eps,delta,seed,raw_queries,logical_queries,rounds,success,wall_ms"
        )

    def test_zero_reps_writes_header_only(self):
        records = bench_run("exact", [10], [3], reps=0, base_seed=0)
        assert records == []
        assert records_to_csv(records) == CSV_HEADER + "\n"

    def test_row_shape_and_empty_noise_columns(self):
        records = bench_run("exact", [12], [3], reps=1, base_seed=3)
        lines = records_to_csv(records).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 11
        assert fields[0] == "exact"
        assert fields[1] == "12" and fields[2] == "3"
        assert fields[3] == "" and fields[4] == ""  # eps/delta stay blank
        assert fields[9] == "true"
        float(fields[10])  # wall_ms parses

    def test_noise_columns_round_trip_through_repr(self):
        record = RunOutcome(
            regime="noisy", n=10, d=3, eps=0.1, delta=0.05, seed=1,
            edges=set(), weights=None, stats=bench.ReconstructionStats(rounds_total=9),
            raw_queries=100, logical_queries=10, success=False, votes=11, lead=6, wall_ms=1.5,
        )
        line = records_to_csv([record]).splitlines()[1]
        fields = line.split(",")
        assert float(fields[3]) == 0.1
        assert float(fields[4]) == 0.05
        assert fields[8] == "9"
        assert fields[9] == "false"
        assert fields[10] == "1.500"
