import numpy as np
import pytest
from conftest import chain_adjacency, max_prob_deviation, reference_chain_distribution

from qcollapse import (
    BudgetExceededError,
    CapacityError,
    ConflictError,
    ContentInstance,
    ContractError,
    Pattern,
    RandomSource,
    RestartsExhaustedError,
    Rule,
    Ruleset,
    SelectorContractError,
    exact_distribution_oracle,
    fixed_order_selector,
    generate,
    ruleset_value_selector,
    validate_selectors,
    with_restarts,
)
from qcollapse import framework


def test_random_source_determinism():
    a = [RandomSource(5).categorical(np.array([0.3, 0.3, 0.4])) for _ in range(20)]
    b = [RandomSource(5).categorical(np.array([0.3, 0.3, 0.4])) for _ in range(20)]
    assert a == b
    five, six = (RandomSource(seed).categorical(np.ones(1000), 8).tolist() for seed in (5, 6))
    assert five != six


def test_categorical_respects_support():
    rng = RandomSource(0)
    draws = {rng.categorical(np.array([0.0, 1.0, 0.0])) for _ in range(50)}
    assert draws == {1}
    # unnormalized weights are fine
    draws = {rng.categorical(np.array([0.0, 2.0, 6.0])) for _ in range(200)}
    assert draws == {1, 2}


@pytest.mark.parametrize(
    "probs",
    [[], [0.0, 0.0], [0.5, -1.0], [0.5, float("nan")], [0.5, float("inf")]],
    ids=["empty", "zero", "negative", "nan", "inf"],
)
def test_categorical_rejects_tables_without_finite_positive_mass(probs):
    rng = RandomSource(0)
    with pytest.raises(ContractError):
        rng.categorical(np.array(probs))
    with pytest.raises(ContractError):
        rng.categorical(np.array(probs), 3)


def test_categorical_draw_count_matches_single_draws():
    probs = np.array([0.1, 0.0, 0.6, 2.3])
    batch = RandomSource(3).categorical(probs, 500)
    rng = RandomSource(3)
    assert batch.tolist() == [rng.categorical(probs) for _ in range(500)]
    assert set(batch.tolist()) == {0, 2, 3}


def test_draw_from_a_cumulative_table_is_categorical_draw_for_draw():
    # one stream each, alternating single and batched draws over several tables
    tables = [np.array(p) for p in ([1.0], [0.1, 0.0, 0.6, 2.3], [0.0, 0.0, 5.0], np.full(300, 1 / 300))]
    by_probs, by_cum = RandomSource(11), RandomSource(11)
    for _ in range(20):
        for probs in tables:
            for draws in (None, 1, 37):
                want = by_probs.categorical(probs, draws)
                got = by_cum.draw(np.cumsum(probs), draws)
                assert type(got) is type(want)
                assert np.array_equal(got, want)
    assert by_probs._rng.random() == by_cum._rng.random()


@pytest.mark.parametrize("probs", [[], [0.0, 0.0], [0.5, -1.0], [0.5, float("nan")]])
def test_draw_checks_its_table_as_categorical_does(probs):
    with pytest.raises(ContractError):
        RandomSource(0).draw(np.cumsum(probs), 3)


def test_fixed_order_selector():
    sel = fixed_order_selector((3, 1, 2), 3)
    np.testing.assert_array_equal(sel(1, ContentInstance()), [0, 0, 1])
    np.testing.assert_array_equal(sel(2, ContentInstance(((3, 1),))), [1, 0, 0])


def test_generate_walks_order():
    adj = chain_adjacency(3)
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of())))
    out = generate(
        3,
        fixed_order_selector((2, 3, 1), 3),
        ruleset_value_selector(adj, rs, 2),
        RandomSource(1),
    )
    assert tuple(s for s, _ in out.entries) == (2, 3, 1)
    assert len(out) == 3


def test_generate_enforces_no_mass_on_placed():
    def bad_id_selector(k, content):
        return np.array([1.0, 0.0])  # keeps pointing at id 1

    def value_selector(k, segment, content):
        return np.array([1.0])

    with pytest.raises(SelectorContractError):
        generate(2, bad_id_selector, value_selector, RandomSource(0))


def test_generate_names_first_placed_id_with_mass():
    """The S1 error names the first offending id in placement order, not the
    lowest one."""
    walk = fixed_order_selector((3, 1, 2, 4), 4)

    def id_selector(k, content):
        return walk(k, content) if k < 3 else np.array([1.0, 0.0, 1.0, 1.0])

    def value_selector(k, segment, content):
        return np.array([1.0])

    with pytest.raises(SelectorContractError, match=r"placed id 3 at k=3$"):
        generate(4, id_selector, value_selector, RandomSource(0))


def test_generate_propagates_conflicts():
    adj = chain_adjacency(2)
    # value 1 demands its successor already carry value 2, which never holds
    rs = Ruleset((Rule(1, 1.0, Pattern.of((1, 2))),))
    with pytest.raises(ConflictError):
        generate(
            2,
            fixed_order_selector((2, 1), 2),
            ruleset_value_selector(adj, rs, 1),
            RandomSource(0),
        )


def test_oracle_matches_reference_enumeration():
    adj = chain_adjacency(3)
    rs = Ruleset(
        (
            Rule(1, 2.0, Pattern.of()),
            Rule(2, 1.0, Pattern.of()),
            Rule(2, 3.0, Pattern.of((2, 1))),  # boosted after a 1
        )
    )
    order = (1, 2, 3)
    dist = exact_distribution_oracle(
        3, 2, fixed_order_selector(order, 3), ruleset_value_selector(adj, rs, 2)
    )
    ref = reference_chain_distribution(adj, rs, 2, order)
    assert max_prob_deviation(dist.probs, ref) < 1e-12
    assert abs(dist.total_mass() - 1.0) < 1e-12


def test_oracle_merges_orders():
    # A uniform identifier selector over unplaced ids with independent values
    # must yield the uniform product distribution regardless of path.
    n, w = 3, 2

    def id_sel(k, content):
        placed = set(content.mapping)
        probs = np.array([0.0 if i in placed else 1.0 for i in range(1, n + 1)])
        return probs / probs.sum()

    def val_sel(k, segment, content):
        return np.full(w, 1.0 / w)

    dist = exact_distribution_oracle(n, w, id_sel, val_sel)
    assert len(dist.probs) == w**n
    for p in dist.probs.values():
        assert abs(p - 1.0 / w**n) < 1e-12


def test_oracle_budget(monkeypatch):
    monkeypatch.setattr(framework, "EXACT_BUDGET", 1e6)
    with pytest.raises(BudgetExceededError):
        exact_distribution_oracle(30, 4, None, None)


def test_validate_selectors_flags_violations():
    def bad_id(k, content):
        return np.array([1.0, 0.0])  # mass stays on id 1 forever

    def ok_val(k, segment, content):
        return np.array([1.0, 0.0])

    found = validate_selectors(2, 2, bad_id, ok_val)
    assert {v.condition for v in found} >= {"S1"}

    adj = chain_adjacency(2)
    rs = Ruleset((Rule(1, 1.0, Pattern.of((1, 2))),))
    found = validate_selectors(
        2, 1, fixed_order_selector((2, 1), 2), ruleset_value_selector(adj, rs, 1)
    )
    assert any(v.condition == "V2" for v in found)


def test_validate_selectors_clean_case():
    adj = chain_adjacency(2)
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of())))
    assert (
        validate_selectors(
            2, 2, fixed_order_selector((1, 2), 2), ruleset_value_selector(adj, rs, 2)
        )
        == []
    )


def _uniform(*_):
    return np.full(2, 0.5)


def _second_bad_third_negative(k, segment, content):
    if segment == 2 and content.mapping[1] == 1:
        return np.ones(3)  # one entry past the alphabet
    if segment == 3 and content.mapping[2] == 1:
        return np.array([-0.1, 1.1])
    return _uniform()


def _second_conflicts_third_empty(k, segment, content):
    if segment == 2 and content.mapping[1] == 1:
        raise ConflictError(segment, content, "no rule fits")
    if segment == 3 and content.mapping[2] == 1:
        return np.zeros(2)
    return _uniform()


# One setup per contract condition; expected lists recorded with the
# validator's previous, separate walk.  A violating branch ends there and
# the others walk on.
VIOLATION_SETUPS = {
    "S1": (
        2,
        _uniform,
        _uniform,
        [("S1", 2, ((1, 1),)), ("S1", 2, ((1, 2),)), ("S1", 2, ((2, 1),)), ("S1", 2, ((2, 2),))],
    ),
    "S2": (
        2,
        lambda k, content: np.array([1.0, 0.0]) if k == 1 else np.zeros(2),
        _uniform,
        [("S2", 2, ((1, 1),)), ("S2", 2, ((1, 2),))],
    ),
    "V1": (
        3,
        fixed_order_selector((1, 2, 3), 3),
        _second_bad_third_negative,
        [("V1", 2, ((1, 1),)), ("V1", 3, ((1, 2), (2, 1)))],
    ),
    "V2": (
        3,
        fixed_order_selector((1, 2, 3), 3),
        _second_conflicts_third_empty,
        [("V2", 2, ((1, 1),)), ("V2", 3, ((1, 2), (2, 1)))],
    ),
}


@pytest.mark.parametrize("condition", sorted(VIOLATION_SETUPS))
def test_validate_selectors_pins_each_condition(condition):
    n, id_sel, val_sel, expected = VIOLATION_SETUPS[condition]
    found = validate_selectors(n, 2, id_sel, val_sel)
    assert sorted((v.condition, v.iteration, v.content.entries) for v in found) == expected


# --------------------------------------------------------------------------
# restart on conflict
# --------------------------------------------------------------------------


def _scripted(*outcomes):
    """An attempt that raises or returns each outcome in turn, and its calls."""
    calls = []

    def attempt():
        outcome = outcomes[len(calls)]
        calls.append(outcome)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return attempt, calls


def _conflict(segment):
    return ConflictError(segment, ContentInstance())


def _no_restart():
    raise AssertionError("no restart expected")


def test_with_restarts_reports_each_restart_taken():
    attempt, calls = _scripted(_conflict(1), _conflict(2), "done")
    restarts = []
    assert with_restarts(attempt, 5, lambda: restarts.append(len(calls))) == "done"
    assert restarts == [1, 2] and len(calls) == 3


def test_with_restarts_zero_restarts_is_one_attempt():
    attempt, calls = _scripted("done")
    assert with_restarts(attempt, 0, _no_restart) == "done"
    attempt, calls = _scripted(_conflict(4), "never")
    with pytest.raises(RestartsExhaustedError, match="after 0 restarts") as info:
        with_restarts(attempt, 0, _no_restart)
    assert len(calls) == 1 and info.value.restarts == 0


def test_with_restarts_exhaustion_names_the_last_conflict():
    attempt, calls = _scripted(_conflict(1), _conflict(2), _conflict(7), "never")
    with pytest.raises(RestartsExhaustedError) as info:
        with_restarts(attempt, 2)
    assert str(info.value) == "still conflicting after 2 restarts: no admissible value for segment 7"
    assert info.value.__cause__ is calls[-1] and len(calls) == 3


def test_with_restarts_does_not_retry_other_errors():
    attempt, calls = _scripted(CapacityError("over the cap"), "never")
    with pytest.raises(CapacityError, match="over the cap"):
        with_restarts(attempt, 5, _no_restart)
    assert len(calls) == 1
