import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab import (
    ANALYTIC,
    ExperimentCase,
    LdimComputer,
    LearnerConfig,
    PermutationStream,
    Sampled,
    Sequence,
    UnknownInstance,
    WrongPhase,
    emit_report,
    eta_for,
    evaluate_many,
    make_case_inputs,
    mistake_profile,
    restrict,
    run,
)
from regretlab import learners, sequences
from regretlab.learners import ETA_VARIANTS, HYBRID_KINDS, LEARNER_KINDS, TIE_BREAKS

from . import oracles
from .conftest import make_class, seq_of
from .oracles import wm_weights


def last_round(kind, cls, prefix, x, **config):
    """The final round record of `kind` run over `prefix` and then one query at x."""
    return run(LearnerConfig(kind, **config), cls, seq_of([*prefix, (x, 0)])).rounds[-1]


def survivors(cls, prefix):
    """Indices of the hypotheses consistent with every example of the prefix."""
    return np.flatnonzero(mistake_profile(cls, seq_of(prefix)) == 0).tolist()


# --- realizable-phase engines -----------------------------------------------


def test_consistent_all_agree(threshold8):
    assert last_round("consistent", threshold8, [], -3).p_one == 0


def test_consistent_min_index_rule(threshold8):
    # the lowest-indexed member is h_0, which labels 1 past the origin
    assert last_round("consistent", threshold8, [], 1).p_one == 1


def test_consistent_singleton(threshold8):
    prefix = [(3, 0), (4, 1)]
    assert survivors(threshold8, prefix) == [3]
    for x in threshold8.domain:
        assert last_round("consistent", threshold8, prefix, x).p_one == threshold8.evaluate(3, x)


def test_halving_majority(threshold8):
    ones = int(threshold8.column(1).sum())
    assert (threshold8.d - ones, ones) == (4, 1)  # votes for 0 and for 1
    record = last_round("halving", threshold8, [], 1)
    assert (record.p_one, record.randomized) == (0, False)


def test_halving_tie_goes_to_one():
    cls = make_class([[0, 1], [1, 0]])
    record = last_round("halving", cls, [], 0)
    assert (record.p_one, record.randomized) == (1, False)


def test_halving_tie_variants():
    cls = make_class([[0, 1], [1, 0]])
    zero = last_round("halving", cls, [], 0, tie_break="zero")
    coin = last_round("halving", cls, [], 0, tie_break="random")
    assert (zero.p_one, zero.randomized) == (0, False)
    assert (coin.p_one, coin.randomized) == (0.5, True)


@pytest.mark.parametrize("d", [(1 << 16) - 1, 1 << 16])
@pytest.mark.parametrize("kind", ["halving", "soa"])
def test_vote_counts_that_reach_2_to_the_16(d, kind):
    # every expert votes 1; a uint16 count of 2^16 votes would wrap to 0 of 0, a tie
    record = last_round(kind, make_class(np.ones((d, 1))), [], 0, tie_break="zero")
    assert (record.p_one, record.randomized) == (1, False)


def test_halving_singleton(threshold8):
    prefix = [(2, 0), (3, 1)]
    assert survivors(threshold8, prefix) == [2]
    assert last_round("halving", threshold8, prefix, 3).p_one == threshold8.evaluate(2, 3)


def test_soa_tie_goes_to_one(quad_class):
    # both restriction sides at the splitting point have dimension 1
    record = last_round("soa", quad_class, [], 0)
    assert (record.p_one, record.randomized) == (1, False)


def test_soa_prefers_larger_dimension(threshold8):
    assert last_round("soa", threshold8, [], 1).p_one == 0


def test_soa_singleton(threshold8):
    prefix = [(1, 0), (2, 1)]
    assert survivors(threshold8, prefix) == [1]
    assert last_round("soa", threshold8, prefix, 2).p_one == 1


def test_soa_consults_ldim_only_where_the_instance_splits_the_space(monkeypatch):
    # the points x <= 0 open the sequence, and every threshold labels them 0;
    # once x = 1 is seen, only h_0 survives
    cls, base = make_case_inputs(ExperimentCase("realizable", 32, 16))
    rng = np.random.default_rng(4)
    low = [e for e in base.examples if e[0] <= 0]
    high = [e for e in base.examples if e[0] > 0]
    pairs = [low[i] for i in rng.permutation(len(low))] + [high[i] for i in rng.permutation(len(high))]
    calls = []
    value = LdimComputer.value

    def counting_value(computer, mask):
        calls.append(mask)
        return value(computer, mask)

    monkeypatch.setattr(LdimComputer, "value", counting_value)
    totals, splits = [], []  # calls of a run over the first t + 1 rounds; whether round t splits
    for t, (x, _) in enumerate(pairs):
        calls.clear()
        run(LearnerConfig("soa"), cls, seq_of(pairs[: t + 1]))
        totals.append(len(calls))
        space = survivors(cls, pairs[:t])
        ones = sum(cls.evaluate(i, x) for i in space)
        splits.append(0 < ones < len(space))
    assert not any(splits[: len(low)]) and any(splits)
    assert len(survivors(cls, pairs)) == 1
    # each split round compares the Ldim of its two sides; no other round asks
    assert np.diff([0, *totals]).tolist() == [2 if split else 0 for split in splits]


# --- weighted majority ---------------------------------------------------------


def test_wm_fresh_all_ones_advice():
    assert wm_weights(np.zeros(4), 0.5)[np.array([1, 1, 1, 1]) == 1].sum() == pytest.approx(1.0)
    cls = make_class([[1], [1], [1], [1]], domain=[0])
    assert last_round("wm", cls, [], 0).p_one == pytest.approx(1.0)


def test_wm_fresh_uniform_split():
    assert wm_weights(np.zeros(2), 0.7)[np.array([1, 0]) == 1].sum() == pytest.approx(0.5)
    cls = make_class([[1], [0]], domain=[0])
    assert last_round("wm", cls, [], 0).p_one == pytest.approx(0.5)


def test_wm_weighted_prediction_exact():
    w = wm_weights(np.array([1, 0]), math.log(2))
    assert w[np.array([1, 0]) == 1].sum() == pytest.approx(1 / 3, abs=1e-12)
    # expert 0 errs at x=0; at x=1 the mass on its vote is its weight at the run's eta
    cls = make_class([[1, 1], [0, 0]])
    record = last_round("wm", cls, [(0, 0)], 1)
    eta = eta_for(2, 2)
    assert record.p_one == pytest.approx(math.exp(-eta) / (1 + math.exp(-eta)), abs=1e-12)
    assert record.randomized


def test_wm_update_counts(threshold8):
    # columns: threshold8's advice at 1, all experts right, all wrong, then a probe
    probe = np.array([1, 1, 0, 0, 0])
    table = np.column_stack([threshold8.column(1), np.ones(5), np.zeros(5), probe])
    cls = make_class(table)
    for rounds, mistakes in (
        (1, [0, 1, 1, 1, 1]),
        (2, [0, 1, 1, 1, 1]),  # all correct
        (3, [1, 2, 2, 2, 2]),  # all wrong
    ):
        prefix = [(0, 1), (1, 1), (2, 1)][:rounds]
        w = wm_weights(np.array(mistakes), eta_for(5, rounds + 1))
        assert last_round("wm", cls, prefix, 3).p_one == pytest.approx(w[probe == 1].sum(), abs=1e-12)


def test_wm_is_certain_on_columns_all_experts_label_alike():
    # column 0 is all 1 and column 1 all 0; the random labels spread the experts'
    # weights, and on this seed a total summed in another order than the mass on 1
    # would read P(predict 1) a few ulp below 1.0 on column 0
    rng = np.random.default_rng(0)
    table = rng.integers(0, 2, (40, 12))
    table[:, 0], table[:, 1] = 1, 0
    cls = make_class(table)
    seq = seq_of(zip(rng.integers(0, 12, 120).tolist(), rng.integers(0, 2, 120).tolist()))
    trace = run(LearnerConfig("wm"), cls, seq)
    ones = [r for r in trace.rounds if r.x == 0]
    zeros = [r for r in trace.rounds if r.x == 1]
    assert len(ones) == 10 and len(zeros) > 0
    assert [(r.p_one, r.randomized) for r in ones] == [(1.0, False)] * len(ones)
    assert [(r.p_one, r.randomized) for r in zeros] == [(0.0, False)] * len(zeros)
    assert trace.randomized_rounds == seq.T - len(ones) - len(zeros)


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=12),
    st.floats(0.0, 5.0, allow_nan=False),
)
def test_weights_always_normalized(mistakes, eta):
    w = wm_weights(np.array(mistakes), eta)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert (w >= 0).all()


def test_eta_values():
    assert eta_for(4, 8, "sqrt8") == pytest.approx(math.sqrt(8 * math.log(4) / 8))
    assert eta_for(4, 8, "sqrt2") == pytest.approx(math.sqrt(2 * math.log(4) / 8))
    assert eta_for(1, 8) == 0.0
    assert eta_for(4, 0) == 0.0
    with pytest.raises(ValueError):
        eta_for(4, 8, "sqrt3")


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig("perceptron")
    with pytest.raises(ValueError):
        LearnerConfig("wm", eta_variant="sqrt5")
    with pytest.raises(ValueError):
        LearnerConfig("halving", tie_break="alternate")


# --- hybrids ------------------------------------------------------------------


def test_hybrid_never_switches_when_realizable(threshold8, realizable8):
    trace = run(LearnerConfig("wm_halving"), threshold8, realizable8)
    assert trace.switch_round is None
    assert trace.deterministic_mistakes <= 2
    assert trace.expected_mistakes == trace.deterministic_mistakes


def test_hybrid_consistent_zero_mistakes_on_min_index_target(threshold8):
    seq = Sequence(tuple((x, threshold8.evaluate(0, x)) for x in threshold8.domain))
    trace = run(LearnerConfig("wm_consistent"), threshold8, seq)
    assert trace.expected_mistakes == 0.0
    assert trace.switch_round is None


def test_hybrid_switch_on_all_ones(threshold8, all_ones8):
    trace = run(LearnerConfig("wm_halving"), threshold8, all_ones8)
    assert trace.switch_round is not None
    assert trace.switch_round <= len(all_ones8)
    # the expert consistent through round s - 1 errs once at round s; none is error-free
    assert mistake_profile(threshold8, seq_of(all_ones8.examples[: trace.switch_round])).min() == 1


def test_baseline_raises_after_space_empties(threshold8, all_ones8):
    with pytest.raises(WrongPhase):
        run(LearnerConfig("halving"), threshold8, all_ones8)


# --- run protocol --------------------------------------------------------------


def test_run_halving_within_log2_bound(threshold8, realizable8):
    trace = run(LearnerConfig("halving"), threshold8, realizable8)
    assert trace.deterministic_mistakes <= math.floor(math.log2(5))


def test_run_consistent_singleton_class(realizable8):
    cls = make_class([[1 if x > 0 else 0 for x in range(-3, 5)]], domain=range(-3, 5))
    trace = run(LearnerConfig("consistent"), cls, realizable8)
    assert trace.expected_mistakes == 0.0


def test_run_wm_single_round_uniform():
    cls = make_class([[1], [0]], domain=[0])
    trace = run(LearnerConfig("wm"), cls, seq_of([(0, 1)]))
    assert trace.expected_mistakes == pytest.approx(0.5)


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_run_empty_sequence(threshold8, kind):
    trace = run(LearnerConfig(kind), threshold8, Sequence(()))
    assert trace.expected_mistakes == 0.0
    assert trace.rounds == []
    assert trace.to_jsonl() == ""
    expected, exact, realized, randomized = learners.run_batch_many(
        (LearnerConfig(kind),), threshold8, Sequence(()), [np.empty((1, 0), dtype=np.intp)]
    )
    assert expected.tolist() == exact.tolist() == [[0.0]]
    assert realized.shape == (1, 0) and randomized.tolist() == [False]


def test_run_single_expert_class():
    cls = make_class([[0, 1]])
    trace = run(LearnerConfig("wm"), cls, seq_of([(0, 1), (1, 1)]))
    # one expert carries all the weight; its error is the learner's error
    assert trace.expected_mistakes == pytest.approx(1.0)


def test_trace_jsonl_round_records(threshold8, realizable8):
    trace = run(LearnerConfig("wm"), threshold8, realizable8)
    lines = trace.to_jsonl().strip().splitlines()
    assert len(lines) == 8
    import json

    first = json.loads(lines[0])
    assert set(first) == {"x", "y", "p_one", "randomized", "mistake_prob"}
    # a record holds the domain's int, so numpy instances of a plain iterable write too
    pairs = [(np.int64(x), np.int64(y)) for x, y in realizable8]
    assert run(LearnerConfig("wm"), threshold8, pairs).to_jsonl() == trace.to_jsonl()


def test_deterministic_learner_same_trace_both_modes(threshold8, realizable8):
    analytic = run(LearnerConfig("halving"), threshold8, realizable8)
    sampled = run(LearnerConfig("halving"), threshold8, realizable8, Sampled(seed=123, trials=5))
    assert analytic.expected_mistakes == sampled.expected_mistakes
    assert [r.mistake_prob for r in analytic.rounds] == [r.mistake_prob for r in sampled.rounds]


def test_sampled_mode_reproducible(threshold8, all_ones8):
    a = run(LearnerConfig("wm"), threshold8, all_ones8, Sampled(seed=5, trials=50))
    b = run(LearnerConfig("wm"), threshold8, all_ones8, Sampled(seed=5, trials=50))
    assert a.max_mistakes_sampled == b.max_mistakes_sampled
    assert [r.mistake_prob for r in a.rounds] == [r.mistake_prob for r in b.rounds]


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5,), "seed must be an integer, got 1.5"),
        ((-1,), "seed must be a non-negative integer or a non-empty tuple of them, got -1"),
        ((1, 0), "trials must be >= 1, got 0"),
        ((1, 1.5), "trials must be an integer, got 1.5"),
    ],
    ids=["float-seed", "negative-seed", "zero-trials", "float-trials"],
)
def test_sampled_refuses_a_bad_seed_or_trials_when_built(args, message):
    with pytest.raises(ValueError) as info:
        Sampled(*args)
    assert str(info.value) == message


def test_an_int_seed_draws_as_its_one_tuple():
    # ordering k of a report draws from seed + (k,), so the mode holds (5,) for 5
    modes = [Sampled(5, 3), Sampled((5,), 3), Sampled(np.int64(5), 3)]
    assert {mode.seed for mode in modes} == {(5,)}
    cls, base = make_case_inputs(ExperimentCase("unrealizable", 12, 6))
    stream = PermutationStream(base, exhaustive=False, count=40, seed=(3, 0))
    configs = [LearnerConfig(kind) for kind in ("wm", "wm_halving", "wm_soa")]
    csvs = {emit_report(evaluate_many(configs, cls, stream, mode), "csv") for mode in modes}
    traces = {repr(run(LearnerConfig("wm_halving"), cls, base, mode)) for mode in modes}
    assert len(csvs) == len(traces) == 1


def test_sampled_mean_tracks_analytic(threshold8, all_ones8):
    analytic = run(LearnerConfig("wm"), threshold8, all_ones8)
    sampled = run(LearnerConfig("wm"), threshold8, all_ones8, Sampled(seed=11, trials=4000))
    # the rounds are independent Bernoulli draws, so a pass's variance is sum q (1 - q)
    se = math.sqrt(sum(r.mistake_prob * (1 - r.mistake_prob) for r in analytic.rounds) / 4000)
    assert abs(sampled.expected_mistakes - analytic.expected_mistakes) <= 3 * se + 1e-9


# --- structural invariants ------------------------------------------------------


def tables(max_d, max_n):
    """Random 0/1 tables of d <= max_d hypotheses over n <= max_n points."""
    return st.integers(1, max_d).flatmap(
        lambda d: st.integers(1, max_n).flatmap(
            lambda n: st.lists(
                st.integers(0, 1), min_size=d * n, max_size=d * n
            ).map(lambda bits: np.array(bits).reshape(d, n))
        )
    )


small_tables = tables(6, 6)


@st.composite
def class_with_labels(draw, max_len=12):
    table = draw(small_tables)
    cls = make_class(table)
    length = draw(st.integers(1, max_len))
    pairs = [
        (draw(st.integers(0, cls.n - 1)), draw(st.integers(0, 1))) for _ in range(length)
    ]
    return cls, pairs


def engine_rounds(trace, pairs):
    """Rounds in which a hybrid's version-space engine predicted."""
    return len(pairs) if trace.switch_round is None else trace.switch_round


@given(class_with_labels())
@settings(max_examples=100, deadline=None)
def test_halving_mistake_halves_space(case):
    cls, pairs = case
    trace = run(LearnerConfig("wm_halving"), cls, seq_of(pairs))
    space = cls.full_space()
    for (x, y), record in zip(pairs, trace.rounds[: engine_rounds(trace, pairs)]):
        new_space = restrict(space, cls, x, y)
        if record.p_one != y:
            assert len(new_space) <= len(space) // 2
        space = new_space


@given(class_with_labels())
@settings(max_examples=60, deadline=None)
def test_soa_mistake_drops_dimension(case):
    cls, pairs = case
    trace = run(LearnerConfig("wm_soa"), cls, seq_of(pairs))
    computer = LdimComputer(cls)
    space = cls.full_space()
    for (x, y), record in zip(pairs, trace.rounds[: engine_rounds(trace, pairs)]):
        new_space = restrict(space, cls, x, y)
        if record.p_one != y and new_space:
            assert computer.value(new_space.mask) <= computer.value(space.mask) - 1
        space = new_space


@given(class_with_labels())
@settings(max_examples=100, deadline=None)
def test_hybrid_switch_requires_all_experts_wrong(case):
    cls, pairs = case
    trace = run(LearnerConfig("wm_halving"), cls, seq_of(pairs))
    if trace.switch_round is not None:
        # the expert consistent through round s - 1 errs once at round s; none is error-free
        assert mistake_profile(cls, seq_of(pairs[: trace.switch_round - 1])).min() == 0
        assert mistake_profile(cls, seq_of(pairs[: trace.switch_round])).min() == 1


@given(class_with_labels())
@settings(max_examples=100, deadline=None)
def test_expected_mistakes_within_horizon(case):
    cls, pairs = case
    trace = run(LearnerConfig("wm"), cls, seq_of(pairs))
    assert 0.0 <= trace.expected_mistakes <= len(pairs)


def test_sampled_trials_drawn_in_blocks_match_one_draw(monkeypatch, threshold8, all_ones8):
    monkeypatch.setattr(learners, "DRAW_BLOCK", 5 * len(all_ones8))  # 5 passes a block
    trace = run(LearnerConfig("wm"), threshold8, all_ones8, Sampled(seed=3, trials=23))
    p_one = np.array([r.p_one for r in trace.rounds])
    truth = np.array([r.y == 1 for r in trace.rounds])
    wrong = (np.random.default_rng(3).random((23, len(all_ones8))) < p_one) != truth
    assert trace.max_mistakes_sampled == wrong.sum(axis=1).max()
    assert [r.mistake_prob for r in trace.rounds] == wrong.mean(axis=0).tolist()
    most, round_probs = learners.sample_mistakes([3], 23, p_one[None, None], truth[None])
    assert most.tolist() == [[wrong.sum(axis=1).max()]]
    assert round_probs.tolist() == [[wrong.mean(axis=0).tolist()]]


@st.composite
def sampler_inputs(draw):
    """(seeds, trials, p_one (L, B, T), truth (B, T), DRAW_BLOCK) with L <= 4, B <= 6, T <= 12.

    Each cell's P(1) is 0, 1, a random value or learner 0's, so a learner
    shares anything from none to all of learner 0's cells.
    The draw block holds several orderings, exactly one, or part of one
    ordering's passes.
    """
    L, B, T = draw(st.integers(0, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    trials = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_one = rng.random((L, B, T))
    for l in range(L):
        kinds = np.array(draw(st.lists(st.sampled_from("01sr"), min_size=B * T, max_size=B * T))).reshape(B, T)
        p_one[l][kinds == "0"], p_one[l][kinds == "1"] = 0.0, 1.0
        p_one[l][kinds == "s"] = p_one[0][kinds == "s"]
    truth = np.array(draw(st.lists(st.booleans(), min_size=B * T, max_size=B * T))).reshape(B, T)
    layout = draw(st.sampled_from(("several", "one", "part")))
    if layout == "several":
        draw_block = draw(st.integers(2, B + 1)) * trials * T
    elif layout == "one":
        draw_block = trials * T
    else:
        draw_block = draw(st.integers(1, max(1, trials - 1))) * T
    seeds = [(draw(st.integers(0, 99)), k) for k in range(B)]
    return seeds, trials, p_one, truth, draw_block


@given(inputs=sampler_inputs())
@settings(max_examples=150, deadline=None)
def test_shared_tally_matches_comparing_every_learner_with_every_draw(inputs):
    seeds, trials, p_one, truth, draw_block = inputs
    want_most, want_freq = oracles.sample_mistakes_reference(seeds, trials, p_one, truth)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(learners, "DRAW_BLOCK", draw_block)
        most, freq = learners.sample_mistakes(seeds, trials, p_one, truth)
        totals = learners.sample_mistakes(seeds, trials, p_one, truth, totals=True)
    assert most.dtype == want_most.dtype and np.array_equal(most, want_most)
    assert freq.dtype == want_freq.dtype and np.array_equal(freq, want_freq)
    # what `_totals` summed from the per-round frequencies before
    assert np.array_equal(totals[0], want_most) and np.array_equal(totals[1], want_freq.sum(axis=2))


@pytest.mark.parametrize("T, trials", [(1, 70_000), (1 << 16, 2)])
def test_counts_that_reach_2_to_the_16_match_the_reference(T, trials):
    # T = 1: a block holds 65,536 passes of one round; T = 2^16: one pass a block
    p_one = np.stack([np.zeros(T), np.random.default_rng(0).random(T), np.ones(T)])[:, None]
    truth = np.ones((1, T), dtype=bool)
    most, freq = learners.sample_mistakes([9], trials, p_one, truth)
    want_most, want_freq = oracles.sample_mistakes_reference([9], trials, p_one, truth)
    assert np.array_equal(most, want_most) and np.array_equal(freq, want_freq)
    # P(1) = 0 errs on every draw of a 1: a uint16 sum would wrap these counts
    assert most[0, 0] == T and (freq[0] == 1.0).all()


# --- batched kernel ---------------------------------------------------------------


@st.composite
def class_and_sequence(draw, max_len=6, table=small_tables):
    """A random class (by default d, n <= 6) and a sequence (1 <= T <= max_len), realizable or not."""
    cls = make_class(draw(table))
    T = draw(st.integers(1, max_len))
    xs = [draw(st.integers(0, cls.n - 1)) for _ in range(T)]
    if draw(st.booleans()):  # realizable: labeled by one member of the class
        target = draw(st.integers(0, cls.d - 1))
        ys = [int(cls.table[target, x]) for x in xs]
    else:
        ys = [draw(st.integers(0, 1)) for _ in range(T)]
    return cls, seq_of(zip(xs, ys))


@st.composite
def batch_inputs(draw):
    """A random class and sequence (T <= 6) and a few orderings of it."""
    cls, seq = draw(class_and_sequence())
    orders = draw(st.lists(st.permutations(range(seq.T)), min_size=1, max_size=8))
    return cls, seq, orders


modes = st.one_of(
    st.just(ANALYTIC),
    st.builds(
        Sampled,
        seed=st.one_of(st.integers(0, 99), st.tuples(st.integers(0, 99), st.integers(0, 1))),
        trials=st.integers(1, 4),
    ),
)


def assert_kernel_matches_reference(config, cls, base, orders, mode):
    try:
        want_expected, want_realized, want_randomized = oracles.per_ordering_values(
            config, cls, base, orders, mode
        )
    except WrongPhase:
        with pytest.raises(WrongPhase):
            oracles.batch_totals(config, cls, base, orders, mode)
        return
    expected, realized, randomized = oracles.batch_totals(config, cls, base, orders, mode)
    assert np.abs(expected - np.array(want_expected)).max() <= 1e-12
    assert realized.tolist() == want_realized
    assert randomized == want_randomized


@pytest.mark.parametrize("kind", LEARNER_KINDS)
@given(
    inputs=batch_inputs(),
    tie_break=st.sampled_from(TIE_BREAKS),
    eta_variant=st.sampled_from(("sqrt8", "sqrt2")),
    mode=modes,
)
@settings(max_examples=40, deadline=None)
def test_batch_kernel_matches_per_ordering_run(kind, inputs, tie_break, eta_variant, mode):
    cls, base, orders = inputs
    config = LearnerConfig(kind, eta_variant=eta_variant, tie_break=tie_break)
    assert_kernel_matches_reference(config, cls, base, orders, mode)


@st.composite
def gap_inputs(draw):
    """A random class (d <= 8, n <= 6), a sequence (T <= 8) and a few orderings of it, as kernel rows."""
    cls, base = draw(class_and_sequence(max_len=8, table=tables(8, 6)))
    orders = np.array(draw(st.lists(st.permutations(range(base.T)), min_size=1, max_size=6)))
    cols, truth = cls.resolve(base)
    return cls, cols[orders], truth[orders]


learner_configs = st.builds(
    LearnerConfig, st.sampled_from(LEARNER_KINDS), st.sampled_from(ETA_VARIANTS), st.sampled_from(TIE_BREAKS)
)


def assert_kernel_is_bit_identical_to_renormalizing(configs, cls, cols, truth):
    try:
        want_p, want_switch = oracles.batch_p_one_reference(configs, cls, cols, truth)
    except WrongPhase:
        with pytest.raises(WrongPhase):
            learners._batch_p_one(configs, cls, cols, truth)
        return
    p, switch = learners._batch_p_one(configs, cls, cols, truth)
    assert np.array_equal(p, want_p)
    assert np.array_equal(switch, want_switch)


@pytest.mark.parametrize("kind", LEARNER_KINDS)
@given(
    inputs=gap_inputs(),
    tie_break=st.sampled_from(TIE_BREAKS),
    eta_variant=st.sampled_from(ETA_VARIANTS),
    others=st.lists(learner_configs, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_carried_gaps_match_renormalizing_every_round(kind, inputs, tie_break, eta_variant, others):
    # the same decay-table entries reach the same einsum calls, so P(1) agrees to the bit
    cls, cols, truth = inputs
    configs = (LearnerConfig(kind, eta_variant=eta_variant, tie_break=tie_break), *others)
    assert_kernel_is_bit_identical_to_renormalizing(configs, cls, cols, truth)


def test_gaps_of_a_row_whose_fewest_moves_twice_beside_one_whose_never_moves():
    # h0 labels both points 1, h1 only point 0; no column is blank, so every round runs
    cls = make_class([[1, 1], [1, 0]])
    cols = np.array([[0, 1, 0, 1], [0, 1, 0, 1]])
    truth = np.array([[0, 1, 0, 1], [1, 1, 1, 1]], dtype=bool)
    counts = (cls.advice_of[cols] != truth[..., None]).cumsum(axis=1)  # (B, T, d) mistakes after each round
    fewest = counts.min(axis=2)
    # row 0: both experts err in rounds 1 and 3, the second time above gaps (0, 1); row 1: h0 never errs
    assert np.count_nonzero(np.diff(fewest, axis=1, prepend=0), axis=1).tolist() == [2, 0]
    configs = tuple(LearnerConfig(k, eta_variant=v, tie_break=b)
                    for k in ("wm", *HYBRID_KINDS) for v in ETA_VARIANTS for b in TIE_BREAKS)
    assert_kernel_is_bit_identical_to_renormalizing(configs, cls, cols, truth)
    assert learners._batch_p_one(configs, cls, cols, truth)[1].tolist() == [1, 0]
    with pytest.raises(WrongPhase):
        learners._batch_p_one((LearnerConfig("halving"),), cls, cols, truth)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("kind", LEARNER_KINDS)
@given(
    inputs=class_and_sequence(max_len=8),
    eta_variant=st.sampled_from(("sqrt8", "sqrt2")),
    mode=modes,
)
@settings(max_examples=30, deadline=None)
def test_run_matches_scalar_reference(kind, tie_break, inputs, eta_variant, mode):
    cls, seq = inputs
    config = LearnerConfig(kind, eta_variant=eta_variant, tie_break=tie_break)
    assert_run_matches_reference(config, cls, seq, mode)


@pytest.mark.parametrize("kind", LEARNER_KINDS)
@given(
    inputs=class_and_sequence(max_len=5),
    tie_break=st.sampled_from(TIE_BREAKS),
    eta_variant=st.sampled_from(("sqrt8", "sqrt2")),
)
@settings(max_examples=25, deadline=None)
def test_kernels_flag_a_learner_iff_some_reference_p_is_strictly_between_0_and_1(
    kind, inputs, tie_break, eta_variant
):
    # over every ordering; a class of one expert, or of columns all experts
    # label alike, has wm and hybrid rounds with P(predict 1) exactly 0 or 1
    cls, base = inputs
    config = LearnerConfig(kind, eta_variant=eta_variant, tie_break=tie_break)
    stream = PermutationStream(base, exhaustive=True)
    try:
        rounds = [
            r
            for order in stream.orders()
            for r in oracles.reference_run(config, cls, [base.examples[i] for i in order]).rounds
        ]
    except WrongPhase:
        return
    want = any(0.0 < r.p_one < 1.0 for r in rounds)
    assert learners.run_batch_many((config,), cls, base, stream.blocks())[3].tolist() == [want]
    assert learners.run_exhaustive_many((config,), cls, stream)[3].tolist() == [want]


def assert_run_matches_reference(config, cls, seq, mode):
    try:
        want = oracles.reference_run(config, cls, seq, mode)
    except WrongPhase:
        with pytest.raises(WrongPhase):
            run(config, cls, seq, mode)
        return
    got = run(config, cls, seq, mode)
    for g, w in zip(got.rounds, want.rounds, strict=True):
        assert (g.x, g.y, g.randomized) == (w.x, w.y, w.randomized)
        assert abs(g.p_one - w.p_one) <= 1e-12
        assert abs(g.mistake_prob - w.mistake_prob) <= 1e-12
    assert abs(got.expected_mistakes - want.expected_mistakes) <= 1e-12
    for field in ("switch_round", "randomized_rounds", "deterministic_mistakes", "max_mistakes_sampled"):
        assert getattr(got, field) == getattr(want, field), field


# --- blank columns: instances that no hypothesis labels 1 -------------------------


@st.composite
def blank_column_inputs(draw):
    """A class (d, n <= 6) with blank and all-1 columns, a sequence that visits a blank one, and orderings.

    Realizable or random labels, and then each blank instance may be labeled
    1, which every hypothesis gets wrong.
    """
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    table = np.array(draw(st.lists(st.integers(0, 1), min_size=d * n, max_size=d * n))).reshape(d, n)
    forced = draw(st.lists(st.sampled_from(("blank", "ones", None)), min_size=n, max_size=n))
    forced[draw(st.integers(0, n - 1))] = "blank"
    for j, kind in enumerate(forced):
        if kind is not None:
            table[:, j] = kind == "ones"
    cls = make_class(table)
    T = draw(st.integers(1, 7))
    xs = [draw(st.integers(0, n - 1)) for _ in range(T)]
    xs[draw(st.integers(0, T - 1))] = forced.index("blank")
    if draw(st.booleans()):
        target = draw(st.integers(0, d - 1))
        ys = [int(table[target, x]) for x in xs]
    else:
        ys = [draw(st.integers(0, 1)) for _ in range(T)]
    ys = [1 if forced[x] == "blank" and draw(st.booleans()) else y for x, y in zip(xs, ys)]
    orders = draw(st.lists(st.permutations(range(T)), min_size=1, max_size=4))
    return cls, seq_of(zip(xs, ys)), orders


def assert_rounds_match_reference(config, cls, base, orders, mode):
    """`run` of each ordering, `oracles.batch_totals` and the kernel's per-row switch rounds against `oracles.reference_run`."""
    seqs = [seq_of(base.examples[i] for i in order) for order in orders]
    for seq in seqs:
        assert_run_matches_reference(config, cls, seq, mode)
    assert_kernel_matches_reference(config, cls, base, orders, mode)
    cols, truth = cls.resolve(base)
    positions = np.array(orders)
    try:
        for seq in seqs:
            oracles.reference_run(config, cls, seq)
    except WrongPhase:
        with pytest.raises(WrongPhase):
            learners._batch_p_one((config,), cls, cols[positions], truth[positions])
        return
    _, switch = learners._batch_p_one((config,), cls, cols[positions], truth[positions])
    # every learner shares the space, so a row's switch is a hybrid's switch round, else 0
    wants = [oracles.reference_run(LearnerConfig("wm_consistent"), cls, seq) for seq in seqs]
    assert switch.tolist() == [w.switch_round or 0 for w in wants]


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("kind", LEARNER_KINDS)
@given(inputs=blank_column_inputs(), eta_variant=st.sampled_from(("sqrt8", "sqrt2")), mode=modes)
@settings(max_examples=25, deadline=None)
def test_blank_column_rounds_match_reference(kind, tie_break, inputs, eta_variant, mode):
    cls, base, orders = inputs
    config = LearnerConfig(kind, eta_variant=eta_variant, tie_break=tie_break)
    assert_rounds_match_reference(config, cls, base, orders, mode)


# threshold8 labels x <= 0 with 0 under every hypothesis
BLANK_ROUND_SEQUENCES = {
    "only_a_blank_one_empties": [(1, 1), (-2, 1), (2, 1), (-1, 0)],
    "blank_one_is_the_final_round": [(1, 1), (3, 0), (-2, 1)],
    "only_blank_rounds_follow_a_kept_emptying": [(1, 1), (1, 0), (-3, 0), (-1, 1)],
    "only_blank_rounds_follow_a_blank_emptying": [(1, 1), (-2, 1), (-1, 0), (-3, 1)],
}


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@pytest.mark.parametrize("kind", LEARNER_KINDS)
@pytest.mark.parametrize("name", BLANK_ROUND_SEQUENCES)
def test_blank_rounds_that_empty_the_space(threshold8, name, kind, tie_break):
    base = seq_of(BLANK_ROUND_SEQUENCES[name])
    orders = list(itertools.permutations(range(base.T)))
    config = LearnerConfig(kind, tie_break=tie_break)
    for mode in (ANALYTIC, Sampled((6, 1), trials=2)):
        assert_rounds_match_reference(config, threshold8, base, orders, mode)


@pytest.mark.parametrize("case_kind", ["realizable", "unrealizable"])
def test_row_rule_runs_only_on_kept_rounds(monkeypatch, case_kind):
    # T=128, d=64 thresholds: no hypothesis labels any of the 64 instances x <= 0 with 1.
    # The kept rounds are the 64 off those blank columns plus, in the unrealizable case,
    # which labels them 1, each ordering's first blank 1, the round that empties its space
    cls, base = make_case_inputs(ExperimentCase(case_kind, 128, 64))
    calls, row_rule = [], learners._row_rule

    def counting_row_rule(*args):
        p_rows = row_rule(*args)

        def counted(*rows):
            calls.append(len(rows[0]))
            return p_rows(*rows)

        return counted

    monkeypatch.setattr(learners, "_row_rule", counting_row_rule)
    rng = np.random.default_rng(1)
    orders = [rng.permutation(base.T).tolist() for _ in range(5)]
    configs = (LearnerConfig("wm"), LearnerConfig("wm_halving"))
    learners.run_batch_many(configs, cls, base, [np.array(orders)])
    assert calls == [5] * (65 if case_kind == "unrealizable" else 64)


def test_batch_refuses_orderings_that_are_not_permutations(monkeypatch, threshold8):
    base = seq_of([(-3, 0), (1, 1), (2, 1), (0, 0)])
    monkeypatch.setattr(learners, "_batch_p_one", lambda *args: pytest.fail("a round ran"))
    for order in ([0, 0, 0, 0], [-1, 0, 1, 2], [0, 1, 2, 9]):
        with pytest.raises(ValueError, match="permutation"):
            oracles.batch_totals(LearnerConfig("wm"), threshold8, base, [order])
        block = np.array([range(4), order])
        with pytest.raises(ValueError, match="permutation"):
            learners.run_batch_many((LearnerConfig("wm_halving"),), threshold8, base, [block])


def test_sampled_orderings_share_draw_blocks(monkeypatch, threshold8, all_ones8):
    # draw blocks of every ordering of a kernel slice, of four and of one, and single
    # orderings whose passes split into blocks of one; kernel slices of 4 orderings, so a
    # slice's first ordering is not ordering 0
    monkeypatch.setattr(sequences, "BATCH_ORDERINGS", 8)
    rng = np.random.default_rng(2)
    orders = [rng.permutation(8).tolist() for _ in range(9)]
    configs = (LearnerConfig("wm"), LearnerConfig("wm_halving", tie_break="random"))
    mode = Sampled((4, 1), trials=3)
    events, default_rng = [], np.random.default_rng

    class RecordingGenerator:
        """A generator that logs its creation and the passes of each fill."""

        def __init__(self, seed):
            self.rng = default_rng(seed)
            events.append("new")

        def random(self, out):
            events.append(len(out))
            return self.rng.random(out=out)

    four_one = (["new"] * 4 + [3] * 4) * 2 + ["new", 3]
    for draw_block, fills in (
        (1 << 16, four_one), (4 * 3 * 8, four_one), (3 * 8, ["new", 3] * 9), (8, ["new", 1, 1, 1] * 9)
    ):
        monkeypatch.setattr(learners, "DRAW_BLOCK", draw_block)
        events.clear()
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", RecordingGenerator)
            expected, _, realized, _ = learners.run_batch_many(
                configs, threshold8, all_ones8, [np.array(orders)], mode
            )
        assert events == fills
        for k, order in enumerate(orders):
            seq = seq_of(all_ones8.examples[i] for i in order)
            for l, config in enumerate(configs):
                trace = run(config, threshold8, seq, Sampled((4, 1, k), trials=3))
                assert expected[l, k] == trace.expected_mistakes
                assert realized[l, k] == trace.max_mistakes_sampled


@pytest.mark.parametrize("kind", HYBRID_KINDS)
@given(inputs=batch_inputs())
@settings(max_examples=40, deadline=None)
def test_kernel_engine_rounds_per_ordering(kind, inputs):
    cls, base, orders = inputs
    config = LearnerConfig(kind)
    cols, truth = cls.resolve(base)
    positions = np.array(orders)
    _, switch = learners._batch_p_one((config,), cls, cols[positions], truth[positions])
    emptied = mistake_profile(cls, base).min() > 0  # the final counts of every ordering
    for k, order in enumerate(orders):
        want = oracles.reference_run(config, cls, [base.examples[i] for i in order])
        assert (want.switch_round is not None) == emptied
        assert switch[k] == (want.switch_round if emptied else 0)


@pytest.mark.parametrize("kind", ["wm_soa", "wm_halving", "soa"])
def test_batch_kernel_across_batches(monkeypatch, threshold8, realizable8, all_ones8, kind):
    monkeypatch.setattr(sequences, "BATCH_ORDERINGS", 7)
    rng = np.random.default_rng(0)
    orders = [tuple(int(i) for i in rng.permutation(8)) for _ in range(30)]
    for base in (realizable8, all_ones8):
        for mode in (ANALYTIC, Sampled((5, 1), trials=3)):
            config = LearnerConfig(kind, tie_break="random")
            assert_kernel_matches_reference(config, threshold8, base, orders, mode)


def test_multi_learner_batches_hold_batch_orderings_over_learner_count(monkeypatch, threshold8, all_ones8):
    # L learners hold L (B, T) arrays, so a kernel slice of a block takes
    # max(1, BATCH_ORDERINGS // L) orderings
    monkeypatch.setattr(sequences, "BATCH_ORDERINGS", 7)
    rows, batch_p_one = [], learners._batch_p_one

    def spy(configs, cls, cols, truth):
        rows.append(len(cols))
        return batch_p_one(configs, cls, cols, truth)

    monkeypatch.setattr(learners, "_batch_p_one", spy)
    orders = [tuple(range(8))] * 9
    configs = tuple(LearnerConfig(kind) for kind in ("wm", "wm_halving", "wm_soa"))
    learners.run_batch_many(configs, threshold8, all_ones8, [np.array(orders)])
    learners.run_batch_many(configs * 3, threshold8, all_ones8, [np.array(orders)])
    assert rows == [2, 2, 2, 2, 1] + [1] * 9


LAST_ROUND_EMPTIES = [(1, 1), (-3, 0), (0, 1)]


def test_space_that_empties_on_the_final_round(threshold8):
    seq = seq_of(LAST_ROUND_EMPTIES)
    assert mistake_profile(threshold8, seq).tolist() == [1, 2, 2, 2, 2]
    for kind in HYBRID_KINDS:
        trace = run(LearnerConfig(kind), threshold8, seq)
        assert (trace.switch_round, trace.randomized_rounds) == (3, 0)
    for kind in ("consistent", "halving", "soa"):
        assert run(LearnerConfig(kind), threshold8, seq).switch_round is None


@pytest.mark.parametrize("kind", LEARNER_KINDS)
def test_batch_of_a_space_that_empties_on_the_final_round(threshold8, kind):
    orders = list(itertools.permutations(range(3)))
    for mode in (ANALYTIC, Sampled((2, 1), trials=3)):
        for tie_break in TIE_BREAKS:
            config = LearnerConfig(kind, tie_break=tie_break)
            assert_kernel_matches_reference(config, threshold8, seq_of(LAST_ROUND_EMPTIES), orders, mode)


def test_batch_kernel_validates_inputs_before_any_round(threshold8):
    with pytest.raises(UnknownInstance):
        oracles.batch_totals(LearnerConfig("wm"), threshold8, seq_of([(0, 1), (99, 0)]), [])
    with pytest.raises(ValueError):
        oracles.batch_totals(LearnerConfig("wm"), threshold8, ((0, 1), (1, 2)), [])


# --- long horizons: weight-table gaps well above 7 -------------------------------


def random_class_and_sequence(seed, d=40, n=60, T=400):
    """A random d x n class and a length-T sequence over it with random labels."""
    rng = np.random.default_rng(seed)
    cls = make_class(rng.integers(0, 2, (d, n)))
    return cls, seq_of(zip(rng.integers(0, n, T), rng.integers(0, 2, T)))


@pytest.mark.parametrize("eta_variant", ["sqrt8", "sqrt2"])
@pytest.mark.parametrize("kind", ["wm", "wm_consistent", "wm_halving"])
def test_long_run_matches_scalar_reference(kind, eta_variant):
    cls, seq = random_class_and_sequence(1)
    config = LearnerConfig(kind, eta_variant=eta_variant)
    got, want = run(config, cls, seq), oracles.reference_run(config, cls, seq)
    profile = mistake_profile(cls, seq)
    assert profile.max() - profile.min() > 30  # the table is read far past the gaps of T <= 8
    for g, w in zip(got.rounds, want.rounds, strict=True):
        assert abs(g.p_one - w.p_one) <= 1e-12
    assert abs(got.expected_mistakes - want.expected_mistakes) <= 1e-12
    assert got.switch_round == want.switch_round


@pytest.mark.parametrize(
    ("case_kind", "kind"), [("realizable", "soa"), ("realizable", "wm_soa"), ("unrealizable", "wm_soa")]
)
def test_soa_at_depth_matches_scalar_reference(case_kind, kind):
    # a T=128, d=64 threshold class: Ldim 6, so the recursion runs deep and
    # its children read their parents' narrowed candidates
    cls, base = make_case_inputs(ExperimentCase(case_kind, 128, 64))
    config = LearnerConfig(kind, eta_variant="sqrt2")
    rng = np.random.default_rng(7)
    for _ in range(3):
        seq = Sequence(tuple(base.examples[i] for i in rng.permutation(base.T)))
        got, want = run(config, cls, seq), oracles.reference_run(config, cls, seq)
        assert got.switch_round == want.switch_round
        engine_rounds = base.T if want.switch_round is None else want.switch_round
        assert [r.p_one for r in got.rounds[:engine_rounds]] == [r.p_one for r in want.rounds[:engine_rounds]]
        for g, w in zip(got.rounds[engine_rounds:], want.rounds[engine_rounds:], strict=True):
            assert abs(g.p_one - w.p_one) <= 1e-12


@pytest.mark.parametrize("kind", ["wm_consistent", "wm_halving"])
def test_batch_after_every_space_empties_matches_reference(kind):
    cls, base = random_class_and_sequence(2, T=120)
    rng = np.random.default_rng(3)
    orders = [tuple(rng.permutation(base.T).tolist()) for _ in range(5)]
    config = LearnerConfig(kind, eta_variant="sqrt2")
    cols, truth = cls.resolve(base)
    positions = np.array(orders)
    _, engine_rounds = learners._batch_p_one((config,), cls, cols[positions], truth[positions])
    # every space empties, and many rounds follow the last one to empty
    assert mistake_profile(cls, base).min() > 0 and engine_rounds.max() < base.T - 10
    for mode in (ANALYTIC, Sampled(4, trials=3)):
        assert_kernel_matches_reference(config, cls, base, orders, mode)


@pytest.mark.parametrize("T", [50, 400])
def test_wm_batch_calls_exp_once(monkeypatch, T):
    cls, base = random_class_and_sequence(5, T=T)
    calls = []
    exp = np.exp

    def counting_exp(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(learners.np, "exp", counting_exp)
    oracles.batch_totals(LearnerConfig("wm"), cls, base, [range(T), range(T - 1, -1, -1)])
    assert len(calls) == 1


# --- memory: a single-sequence run holds no per-pass array and does not rescan the class


def traced_run(*args, **kwargs):
    """run(*args, **kwargs) and the peak Python allocation, in bytes, of the call."""
    tracemalloc.start()
    try:
        return run(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_trials_or_rescan_the_class():
    cls, base = make_case_inputs(ExperimentCase("unrealizable", 8, 4))
    config = LearnerConfig("wm_halving")
    assert traced_run(config, cls, base, Sampled(1, trials=10**6))[1] < 2 << 20
    # a hybrid whose space empties: its switch is read off the kernel, not a (d, T) rescan
    cls, base = make_case_inputs(ExperimentCase("unrealizable", 4000, 2000))
    trace, peak = traced_run(config, cls, base, collect_rounds=False)
    assert trace.switch_round is not None and peak < 1.5 * cls.table.nbytes


def test_kernel_reads_the_class_table_without_copying_it():
    cls, base = make_case_inputs(ExperimentCase("unrealizable", 1000, 500))
    config = LearnerConfig("wm_halving")
    peaks = [traced_run(config, cls, base, collect_rounds=False)[1] for _ in range(2)]
    assert max(peaks) < cls.table.nbytes / 4
