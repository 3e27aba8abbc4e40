"""The two routes agree on every forced value that both can compute.

The forced route reads P(bag(base) + {fill}) off the closed form
``forced_payment``; the elimination route reads the same variable off
the assignment ``solve_or_refute`` gives a feasible balance system.  A
constant rule makes every system below feasible and keeps each adequate
set flat-invariant, and the value of a variable that balance pins is the
same in every solution, so the canonical assignment must hold it.

The cases are the stock witness sets, and each adequate set of the
stock instance on its own and with its stock vector added.  Each set with
its stock vector added leaves a column that holds an entry without a
pivot, so those systems also check the values of the solver's
lowest-column pass against the forced closed form.  The
fractional constants give rows whose scale is not 1.
"""

import pytest

from imbalance import (
    BidMultiset,
    Feasible,
    build_adequate_set,
    build_balance_system,
    default_selector,
    forced_payment,
    get_rule,
    remove,
    solve_or_refute,
    vickrey_vectors,
    vickrey_witness_set,
)

NS = range(1, 6)
RULES = ["constant:0", "constant:7/3", "constant:-2/5"]


def forced_cases(n: int):
    """(vector, bidder, partner, base, fill) for each bidder of both stock vectors."""
    for vector in vickrey_vectors(n):
        for i, j in default_selector(vector).items():
            yield vector, i, j, remove(vector, {i, j}), vector[j]


def solved_values(vectors, rule) -> dict:
    """Each variable of the balance system over ``vectors``, mapped to its assigned value."""
    system = build_balance_system(vectors, rule)
    result = solve_or_refute(system)
    assert isinstance(result, Feasible)
    return dict(zip(system.variables, result.assignment))


def target(base, fill) -> BidMultiset:
    """The variable an adequate set forces: P(bag(base) + {fill})."""
    return BidMultiset.of([*base.values(), fill])


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("n", NS)
def test_witness_assignment_holds_every_forced_payment(n, rule):
    rule = get_rule(rule)
    values = solved_values(vickrey_witness_set(n), rule)
    checked = 0
    for _, i, j, base, fill in forced_cases(n):
        assert values[target(base, fill)] == forced_payment(base, fill, rule, i, j)
        checked += 1
    assert checked == 2 * (n + 2)


@pytest.mark.parametrize("with_vector", [False, True], ids=["members", "members+vector"])
@pytest.mark.parametrize("n", NS)
def test_adequate_set_assignment_holds_its_forced_payment(n, with_vector):
    rule = get_rule("constant:7/3")
    for vector, i, j, base, fill in forced_cases(n):
        members = build_adequate_set(base, fill, rule, i, j).members
        values = solved_values(members | {vector} if with_vector else members, rule)
        assert values[target(base, fill)] == forced_payment(base, fill, rule, i, j)
