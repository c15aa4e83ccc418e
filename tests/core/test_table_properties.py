"""Property-based tests for ``MatchActionTable``.

The table memoizes lookups per class-name tuple and clears the memo on
every ``add``/``remove``.  The property under test: a table driven
through a random interleaving of add/remove/lookup operations answers
every lookup exactly like a *fresh, never-memoized* table holding the
same rules.  Seeded ``random`` only — no external property-testing
dependency.
"""

import random

import pytest

from repro.core import MatchActionTable, MatchRule
from repro.core.enclave import _LOOKUP_CACHE_LIMIT

PATTERN_POOL = [
    "*",
    "app.*",
    "app.r1.*",
    "app.r1.get",
    "app.r1.set",
    "app.r2.*",
    "db.*",
    "db.scan",
    "other.exact",
]

CLASS_POOL = [
    "app.r1.get",
    "app.r1.set",
    "app.r2.get",
    "db.scan",
    "db.write",
    "other.exact",
    "unmatched.thing",
]


def _fresh_reference(rules):
    """A brand-new table holding the same rules: no memo state."""
    ref = MatchActionTable(table_id=99)
    for rule in rules:
        ref.add(rule)
    return ref


def _random_key(rng):
    n = rng.randint(0, 3)
    return tuple(rng.choice(CLASS_POOL) for _ in range(n))


@pytest.mark.parametrize("seed", range(30))
def test_interleaved_ops_agree_with_fresh_table(seed):
    rng = random.Random(seed)
    table = MatchActionTable(table_id=0)
    live = {}          # rule_id -> MatchRule
    next_id = 0

    for _ in range(120):
        op = rng.random()
        if op < 0.25:
            rule = MatchRule(rule_id=next_id,
                             pattern=rng.choice(PATTERN_POOL),
                             function=f"fn{next_id}",
                             priority=rng.randint(0, 3))
            next_id += 1
            table.add(rule)
            live[rule.rule_id] = rule
        elif op < 0.40 and live:
            victim = rng.choice(sorted(live))
            table.remove(victim)
            del live[victim]
        else:
            key = _random_key(rng)
            got = table.lookup(key)
            want = _fresh_reference(live.values()).lookup(key)
            assert got == want, (seed, key, sorted(live))
            # A second lookup hits the memo and must not change the
            # answer.
            assert table.lookup(key) == want


def test_cache_eviction_keeps_answers_correct():
    """Overflow the memo past ``_LOOKUP_CACHE_LIMIT``; answers after
    the wholesale eviction must still match a fresh table."""
    table = MatchActionTable(table_id=0)
    rules = [MatchRule(rule_id=0, pattern="app.*", function="a"),
             MatchRule(rule_id=1, pattern="*", function="b",
                       priority=-1)]
    for r in rules:
        table.add(r)

    distinct = [(f"app.c{i}",) for i in range(_LOOKUP_CACHE_LIMIT + 5)]
    for key in distinct:
        table.lookup(key)
    assert len(table.memo) <= _LOOKUP_CACHE_LIMIT

    ref = _fresh_reference(rules)
    for key in distinct[:10] + distinct[-10:] + [("db.x",), ()]:
        assert table.lookup(key) == ref.lookup(key)


def test_add_remove_invalidate_memo():
    table = MatchActionTable(table_id=0)
    table.add(MatchRule(rule_id=0, pattern="app.*", function="old"))
    assert table.lookup(("app.x",))[0].function == "old"

    table.add(MatchRule(rule_id=1, pattern="app.x", function="new",
                        priority=5))
    assert table.lookup(("app.x",))[0].function == "new"

    table.remove(1)
    assert table.lookup(("app.x",))[0].function == "old"
    table.remove(0)
    assert table.lookup(("app.x",)) is None
