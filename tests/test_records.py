"""The contract of each public record class: constructor, repr, hash,
immutability, ``len``, ``_replace``, and pickle and deep-copy round trips.

Every record but ``Diagram`` is a named tuple; the reprs are pinned to the
text the records printed when they were frozen data classes, and each hash
is the hash of the tuple of the fields, so the order of a set of records,
and the output that depends on it, stays what it was.
"""

import copy
import pickle

import pytest

from freelinks import (
    Basepoint,
    Bracket,
    ComponentCode,
    CrossingType,
    Diagram,
    GroupContext,
    MoveSite,
    SearchVerdict,
    Verdict,
    Violation,
    WalkTrace,
    Word,
    WordError,
)

KNOT = Diagram("link", (ComponentCode(True, ("a", "a")),))
KNOT_REPR = "Diagram(kind='link', components=(ComponentCode(closed=True, passes=('a', 'a')),))"
SITE = MoveSite("R1_delete", ("a",), ((1, 0),))
SITE_REPR = (
    "MoveSite(kind='R1_delete', names=('a',), pairs=((1, 0),), slots=(), same_order=True)"
)
CONTEXT = GroupContext(3, 1, 2)

# class -> (positional arguments, the fields they give, in order, pinned repr)
CASES = {
    ComponentCode: (
        (True, ("a", "a")),
        {"closed": True, "passes": ("a", "a")},
        "ComponentCode(closed=True, passes=('a', 'a'))",
    ),
    Basepoint: ((1, 0), {"component": 1, "offset": 0}, "Basepoint(component=1, offset=0)"),
    CrossingType: ((1, 2), {"i": 1, "j": 2}, "CrossingType(i=1, j=2)"),
    Violation: (
        ("kind", "header", "unknown kind 'x'"),
        {"rule": "kind", "where": "header", "detail": "unknown kind 'x'"},
        "Violation(rule='kind', where='header', detail=\"unknown kind 'x'\")",
    ),
    MoveSite: (
        ("R2_insert", ("v", "w"), (), ((1, 0, True), (1, 2, False)), False),
        {
            "kind": "R2_insert",
            "names": ("v", "w"),
            "pairs": (),
            "slots": ((1, 0, True), (1, 2, False)),
            "same_order": False,
        },
        "MoveSite(kind='R2_insert', names=('v', 'w'), pairs=(), "
        "slots=((1, 0, True), (1, 2, False)), same_order=False)",
    ),
    WalkTrace: (
        (KNOT, (SITE,), KNOT),
        {"initial": KNOT, "moves": (SITE,), "final": KNOT},
        f"WalkTrace(initial={KNOT_REPR}, moves=({SITE_REPR},), final={KNOT_REPR})",
    ),
    SearchVerdict: (
        (True, WalkTrace(KNOT, (), KNOT)),
        {"equivalent": True, "trace": WalkTrace(KNOT, (), KNOT), "reason": "found"},
        f"SearchVerdict(equivalent=True, trace=WalkTrace(initial={KNOT_REPR}, moves=(), "
        f"final={KNOT_REPR}), reason='found')",
    ),
    Bracket: (
        ("link", 1, frozenset({KNOT})),
        {"kind": "link", "n": 1, "summands": frozenset({KNOT})},
        f"Bracket(kind='link', n=1, summands=frozenset({{{KNOT_REPR}}}))",
    ),
    Verdict: (
        ("distinct", "odd keys differ"),
        {"status": "distinct", "certificate": "odd keys differ"},
        "Verdict(status='distinct', certificate='odd keys differ')",
    ),
    GroupContext: ((4, 3, 1), {"n": 4, "i": 1, "j": 3}, "GroupContext(n=4, i=1, j=3)"),
    Word: (
        (CONTEXT, ((1,), (0,))),
        {"context": CONTEXT, "letters": ((1,), (0,))},
        "Word(context=GroupContext(n=3, i=1, j=2), letters=((1,), (0,)))",
    ),
    Diagram: (
        ("link", (ComponentCode(True, ("a", "a")),)),
        {"kind": "link", "components": (ComponentCode(True, ("a", "a")),)},
        KNOT_REPR,
    ),
}
# keywords that a constructor requires
KEYWORDS = {SearchVerdict: {"reason": "found"}}


def build(cls):
    args, _, _ = CASES[cls]
    return cls(*args, **KEYWORDS.get(cls, {}))


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_positional_order_and_repr(self, cls):
        _, fields, text = CASES[cls]
        x = build(cls)
        assert {name: getattr(x, name) for name in fields} == fields
        assert repr(x) == text
        if cls is not Diagram:
            assert x._fields == tuple(fields)
            assert tuple(x) == tuple(fields.values())

    def test_hash_is_the_hash_of_the_fields(self, cls):
        _, fields, _ = CASES[cls]
        x = build(cls)
        assert hash(x) == hash(tuple(fields.values()))
        assert hash(x) == hash(build(cls)) and x == build(cls)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        _, fields, _ = CASES[cls]
        x = build(cls)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.other = 1
        assert repr(x) == CASES[cls][2]

    def test_pickle_and_deepcopy_round_trip(self, cls):
        x = build(cls)
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert type(y) is cls and y == x and repr(y) == repr(x)


@pytest.mark.parametrize(
    "cls", [cls for cls in CASES if cls is not Diagram], ids=lambda cls: cls.__name__
)
def test_replace(cls):
    _, fields, _ = CASES[cls]
    x = build(cls)
    for name, value in fields.items():
        y = x._replace(**{name: value})
        assert type(y) is cls and y == x


def test_defaults():
    assert MoveSite("R3", ("x", "y", "z")) == MoveSite("R3", ("x", "y", "z"), (), (), True)
    assert SearchVerdict(False, reason="depth").trace is None
    assert Verdict("equal").certificate is None


def test_search_verdict_reason_is_a_required_keyword():
    with pytest.raises(TypeError):
        SearchVerdict(False)
    with pytest.raises(TypeError):
        SearchVerdict(False, None, "depth")
    assert SearchVerdict(False, reason="cap") == (False, None, "cap")


@pytest.mark.parametrize("n, i, j", [(3, 2, 1), (3, 1, 2), (5, 4, 2)])
def test_group_context_orders_its_pair(n, i, j):
    context = GroupContext(n, i, j)
    assert (context.i, context.j) == (min(i, j), max(i, j))
    assert context._replace(i=max(i, j), j=min(i, j)) == context


@pytest.mark.parametrize("n, i, j", [(3, 1, 1), (3, 0, 2), (3, 1, 4), (2, 3, 1)])
def test_group_context_refuses_pair(n, i, j):
    with pytest.raises(WordError):
        GroupContext(n, i, j)
    with pytest.raises(WordError):
        GroupContext(4, 1, 2)._replace(n=n, i=i, j=j)


def test_word_checks_its_letters():
    for letters in [((1, 0),), ((2,),)]:
        with pytest.raises(WordError):
            Word(CONTEXT, letters)
        with pytest.raises(WordError):
            Word(CONTEXT, ())._replace(letters=letters)


def test_len_counts_passes_and_letters():
    code = ComponentCode(True, ("a", "b", "a", "b"))
    assert len(code) == 4 and not ComponentCode(True, ())
    assert code._replace(closed=False) == ComponentCode(False, ("a", "b", "a", "b"))
    word = Word(CONTEXT, ((1,), (0,), (1,)))
    assert len(word) == 3 and not Word(CONTEXT, ())
    assert word._replace(letters=()) == Word(CONTEXT, ())


def test_diagram_equals_no_tuple_and_not_its_key():
    d = build(Diagram)
    assert d != ("link", d.components) and ("link", d.components) != d
    assert d != d.key and d.key != d
    assert d == Diagram("link", d.components)
    assert d != Diagram("tangle", d.components)
    # a copy keeps no cached field, and computes each again on demand
    assert "key" in vars(d) and "key" not in vars(copy.deepcopy(d))
    assert copy.deepcopy(d).key == d.key
