"""Time budgets: each budgeted entry point takes one deadline, and only errors reads the clock."""

import math

import pytest

import pcsplab.properties as properties_module
from pcsplab import errors, homs, polymorphisms
from pcsplab.errors import TimeBudgetExceeded, deadline_after, expired
from pcsplab.homs import hom_lattice
from pcsplab.properties import SELECTOR_CATALOG, check_properties, properties_for_template, verify_selector
from pcsplab.structures import named_template, template_names_3
from pcsplab.symmetric import search_block_symmetric, search_symmetric


BUDGETED = {
    "hom_lattice": lambda deadline: hom_lattice([named_template(name) for name in template_names_3()], deadline=deadline),
    "search_symmetric": lambda deadline: search_symmetric(named_template("T2"), 300, deadline=deadline),
    "search_block_symmetric": lambda deadline: search_block_symmetric(named_template("T2"), 31, 30, deadline=deadline),
    "check_properties": lambda deadline: check_properties(
        named_template("T1"), properties_for_template("T1"), 3, deadline=deadline
    ),
    "verify_selector": lambda deadline: verify_selector(named_template("T1"), SELECTOR_CATALOG["SEL_T1"], 3, deadline=deadline),
}


@pytest.mark.parametrize("budget", [math.nan, -1.0], ids=["nan", "-1"])
def test_deadline_after_refuses_a_budget_below_zero_or_nan(budget):
    with pytest.raises(ValueError, match="time budget must be seconds >= 0"):
        deadline_after(budget)


def test_a_nan_deadline_has_passed_and_none_or_inf_never_does():
    assert expired(math.nan)
    assert not expired(None) and not expired(math.inf)


@pytest.mark.parametrize("deadline", [math.nan, -1.0], ids=["nan", "-1"])
@pytest.mark.parametrize("entry", list(BUDGETED))
def test_a_budget_below_zero_or_nan_is_refused_before_any_work(monkeypatch, entry, deadline):
    # a NaN deadline counts as passed, as one below zero has, so no deadline value turns the budget off
    def refuse(*args, **kwargs):
        raise AssertionError("work started under a refused time budget")

    monkeypatch.setattr(polymorphisms, "Network", refuse)
    monkeypatch.setattr(homs, "hom_exists", refuse)
    with pytest.raises(TimeBudgetExceeded):
        BUDGETED[entry](deadline)


SUITES = {  # suite -> (the enumerator it calls per arity, a run of it up to arity 3 under a 60 s budget)
    "check_properties": ("enumerate_orbits", lambda: BUDGETED["check_properties"](deadline_after(60))),
    "verify_selector": ("enumerate_polymorphisms", lambda: BUDGETED["verify_selector"](deadline_after(60))),
}


def spy_on(monkeypatch, enumerator, after=lambda n: None):
    """Record (arity, deadline) of each call the suites make to the enumerator; after(arity) runs once its stream ends."""
    real = getattr(properties_module, enumerator)
    calls = []

    def spy(target, n, **kwargs):
        calls.append((n, kwargs["deadline"]))
        yield from real(target, n, **kwargs)
        after(n)

    monkeypatch.setattr(properties_module, enumerator, spy)
    return calls


@pytest.mark.parametrize("suite", list(SUITES))
def test_one_deadline_covers_every_arity(monkeypatch, suite):
    enumerator, run = SUITES[suite]
    calls = spy_on(monkeypatch, enumerator)
    run()
    assert [n for n, _ in calls] == [1, 2, 3]
    deadlines = {deadline for _, deadline in calls}
    assert len(deadlines) == 1 and None not in deadlines


@pytest.mark.parametrize("suite", list(SUITES))
def test_a_deadline_that_passes_between_arities_stops_the_next_build(monkeypatch, suite):
    # a suite that turned what is left of its budget back into a budget would pass a negative one
    now = 0.0
    monkeypatch.setattr(errors.time, "monotonic", lambda: now)

    def pass_the_deadline(n):
        nonlocal now
        if n == 1:
            now = 61.0

    enumerator, run = SUITES[suite]
    spy_on(monkeypatch, enumerator, pass_the_deadline)
    with pytest.raises(TimeBudgetExceeded, match="after 0 nodes, while building its network"):
        run()
