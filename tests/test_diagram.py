import copy
import importlib
import pickle
import pydoc
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelinks.bracket import BracketError, apply_splices, bracket
from freelinks.diagram import (
    Basepoint,
    ComponentCode,
    CrossingType,
    Diagram,
    DiagramError,
    ParseError,
    canonical_form,
    canonical_key,
    crossing_type,
    cut_link,
    parse_diagram,
    require_valid,
    serialize_diagram,
)
from freelinks.diagram import _diagram_from_key, _isomorphic
from freelinks.invariant import InvariantError, lk
from freelinks.moves import _expand, apply_move

from genutil import (
    SPLITLINES_ONLY_BREAKS,
    fuzz_walk_diagrams,
    naive_canonical_key,
    random_any_diagram,
    random_good_diagram,
    random_mixed_diagram,
    random_pure_diagram,
    random_sparse_link,
    reference_canonical_key,
    reference_crossing_occurrences,
    reference_is_good_condition,
    reference_letters,
    reference_name_error,
    reference_pair_counts,
    reference_partners,
    reference_pure_crossings,
    reference_validate,
    scramble,
    whole_slate,
)


class TestParse:
    def test_trivial_one_strand(self):
        d = parse_diagram("tangle n=1\ncomponent 1 open:")
        assert d.kind == "tangle"
        assert d.n == 1
        assert d.crossing_count == 0

    def test_roundtrip_sample(self, sample_tangle):
        assert sample_tangle.n == 3
        assert sample_tangle.crossing_count == 6
        assert parse_diagram(serialize_diagram(sample_tangle)) == sample_tangle

    def test_minimal_kink(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x x")
        assert d.components[0].closed
        assert d.pure == {"x"}

    def test_comments_and_blanks(self):
        d = parse_diagram("# heading\n\ntangle n=1  # trailing\ncomponent 1 open: a a\n")
        assert d.crossing_count == 1

    def test_accepts_bytes(self):
        d = parse_diagram(b"link n=1\ncomponent 1 closed: x x\n")
        assert d.crossing_count == 1

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_diagram("knot n=1\ncomponent 1 open:")
        assert err.value.line == 1

    def test_arity_violation(self):
        with pytest.raises(ParseError, match="exactly twice"):
            parse_diagram("tangle n=1\ncomponent 1 open: x")

    def test_duplicate_component_index(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_diagram("tangle n=2\ncomponent 1 open: x\ncomponent 1 open: x")

    def test_component_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_diagram("tangle n=2\ncomponent 1 open:")

    def test_bad_token_reports_column(self):
        with pytest.raises(ParseError) as err:
            parse_diagram("tangle n=1\ncomponent 1 open: a,b a,b")
        assert err.value.line == 2
        assert err.value.column is not None

    @pytest.mark.parametrize(
        "line, column",
        [
            # counted in the raw line, not from its first non-blank
            ("    component 1 open: a a b!", 27),
            # the token's own place, not an earlier one with the same text
            ("component 1 open: a a :", 23),
        ],
    )
    def test_bad_token_column_is_its_own_in_the_raw_line(self, line, column):
        with pytest.raises(ParseError) as err:
            parse_diagram("tangle n=1\n" + line)
        assert (err.value.line, err.value.column) == (2, column)

    def test_name_check_matches_the_per_token_scan(self):
        # names that only look like word characters, and separators that
        # str.split splits at too
        pool = ["a", "b_1", "_", "Z9", "é", "٣", "a-b", ":", "b!", "x\u200by"]
        blanks = [" ", "\t", "\u00a0", "  ", " \t\u00a0"]
        rng = random.Random(31)
        outcomes = set()
        for _ in range(400):
            names = rng.sample(pool, rng.randint(1, 4))
            tokens = names * 2
            rng.shuffle(tokens)
            line = (
                rng.choice(["", " ", "\t", "\u00a0 "])
                + "component 1 open:"
                + "".join(rng.choice(blanks) + tok for tok in tokens)
                + rng.choice(["", " ", " # a: b!"])
            )
            expected = reference_name_error(line)
            outcomes.add(expected is None)
            if expected is None:
                assert parse_diagram("tangle n=1\n" + line).components[0].passes == tuple(tokens)
                continue
            with pytest.raises(ParseError) as err:
                parse_diagram("tangle n=1\n" + line)
            name, column = expected
            assert str(err.value) == f"invalid crossing name {name!r} (line 2, column {column})"
        assert outcomes == {True, False}

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(40):
            d = random_any_diagram(rng, 8)
            assert parse_diagram(serialize_diagram(d)) == d

    def test_refuses_non_utf8_bytes(self):
        with pytest.raises(ParseError) as err:
            parse_diagram(b"link n=1\n\n\xff")
        assert str(err.value) == "input is not UTF-8 (invalid start byte at byte 10) (line 3)"
        assert (err.value.line, err.value.column) == (3, None)

    def test_byte_order_mark_is_dropped(self):
        text = "link n=1\ncomponent 1 closed: a a\n"
        plain = parse_diagram(text)
        assert parse_diagram("\ufeff" + text) == plain
        assert parse_diagram(b"\xef\xbb\xbf" + text.encode()) == plain
        # the offset counts the mark's three bytes; the line is the file's
        with pytest.raises(ParseError) as err:
            parse_diagram(b"\xef\xbb\xbflink n=1\n\n\xff")
        assert str(err.value) == "input is not UTF-8 (invalid start byte at byte 13) (line 3)"
        # only a leading mark is dropped
        with pytest.raises(ParseError, match="expected 'tangle n=<N>'"):
            parse_diagram("\ufeff\ufeff" + text)

    @pytest.mark.parametrize("mark", SPLITLINES_ONLY_BREAKS)
    def test_only_cr_and_lf_end_lines(self, mark):
        text = f"link n=1  # head{mark}note\ncomponent 1 closed: a a  # {mark}x{mark}\n"
        assert parse_diagram(text) == parse_diagram("link n=1\ncomponent 1 closed: a a\n")
        assert parse_diagram(text.encode()) == parse_diagram(text)
        # line numbers count \n, \r\n and \r alone
        with pytest.raises(ParseError) as err:
            parse_diagram(f"# {mark}\r\nlink n=1 {mark}\rcomponent 1 closed: a-b a-b\n")
        assert (err.value.line, err.value.column) == (3, 21)

    @pytest.mark.parametrize("text", ["", b"", "# a comment\n\n   \n"])
    def test_refuses_empty_input(self, text):
        with pytest.raises(ParseError) as err:
            parse_diagram(text)
        assert str(err.value) == (
            "empty input: expected 'tangle n=<N>' or 'link n=<N>' header (line 1, column 1)"
        )

    def test_refuses_component_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_diagram("tangle n=1\ncomponent 2 open:")
        assert str(err.value) == "component index 2 out of range 1..1 (line 2, column 1)"


class TestValidate:
    def test_sample_valid(self, sample_tangle):
        assert sample_tangle.violations == ()

    def test_odd_occurrence(self):
        d = Diagram("tangle", (ComponentCode(False, ("x",)),))
        rules = [v.rule for v in d.violations]
        assert rules == ["arity"]

    def test_closed_component_in_tangle(self):
        d = Diagram("tangle", (ComponentCode(True, ("x", "x")),))
        assert any(v.rule == "kind" for v in d.violations)

    def test_pass_count_is_twice_crossings(self):
        rng = random.Random(11)
        for _ in range(30):
            d = random_any_diagram(rng, 9)
            assert sum(len(c) for c in d.components) == 2 * d.crossing_count


class TestParsedViolations:
    """The diagram that ``parse_diagram`` returns already holds its
    violations, and they are those the reference computes."""

    def test_stored_on_valid_texts(self):
        rng = random.Random(29)
        for _ in range(200):
            d = parse_diagram(serialize_diagram(random_any_diagram(rng, 10)))
            assert "violations" in vars(d)
            assert d.violations == () and reference_validate(d) == []

    def test_stored_on_texts_of_the_wrong_openness(self):
        # a closed component in a tangle, or an open one in a link
        rng = random.Random(37)
        for _ in range(100):
            lines = serialize_diagram(random_any_diagram(rng, 10)).splitlines()
            for k in rng.sample(range(1, len(lines)), rng.randint(1, len(lines) - 1)):
                old, new = (" open:", " closed:") if " open:" in lines[k] else (" closed:", " open:")
                lines[k] = lines[k].replace(old, new)
            d = parse_diagram("\n".join(lines))
            assert "violations" in vars(d)
            assert d.violations and list(d.violations) == reference_validate(d)
            assert d.violations == Diagram(d.kind, d.components).violations
            with pytest.raises(DiagramError, match="invalid diagram"):
                require_valid(d)

    @pytest.mark.parametrize("bad", ["", "a b", "x\n", "é", "٣", "a-b"])
    def test_name_check_of_built_diagrams(self, bad):
        for names in ((bad,), (bad, "a"), ("_", bad, "b9")):
            d = Diagram("link", (ComponentCode(True, names * 2),))
            assert list(d.violations) == reference_validate(d)
            assert [v.rule for v in d.violations] == ["token"] * 2
        assert Diagram("tangle", (ComponentCode(False, ("_", "a", "_", "a")),)).violations == ()


class TestCrossingQueries:
    def test_types_on_sample(self, sample_tangle):
        assert crossing_type(sample_tangle, "a") == CrossingType(1, 2)
        assert crossing_type(sample_tangle, "f") == CrossingType(2, 3)
        assert not crossing_type(sample_tangle, "a").is_pure

    def test_pure_type(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x x")
        assert crossing_type(d, "x") == CrossingType(1, 1)
        assert crossing_type(d, "x").is_pure

    def test_unknown_crossing(self, sample_tangle):
        with pytest.raises(DiagramError, match="unknown"):
            crossing_type(sample_tangle, "zz")

    def test_pure_crossings(self, sample_tangle):
        assert sample_tangle.pure == set()
        knot = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
        assert knot.pure == {"x", "y"}
        bigon = parse_diagram("tangle n=2\ncomponent 1 open: p q\ncomponent 2 open: p q")
        assert bigon.pure == set()


class TestGoodCondition:
    def test_sample(self, sample_tangle):
        assert sample_tangle.parity == {(1, 2): 0, (1, 3): 0, (2, 3): 0}

    def test_single_crossing_pair(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: a\ncomponent 2 open: a")
        assert d.parity == {(1, 2): 1}

    def test_empty_diagram(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open:\ncomponent 2 open:")
        assert d.parity == {(1, 2): 0}

    def test_pure_crossings_not_constrained(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x x")
        assert d.parity == {}


# invalid diagrams built by hand: odd arity, a crossing on three passes, a
# closed component in a tangle, an open one in a link, a bad token and an
# unknown kind
INVALID = [
    Diagram("tangle", (ComponentCode(False, ("x",)),)),
    Diagram("tangle", (ComponentCode(False, ("x", "a", "x")), ComponentCode(False, ("x", "a")))),
    Diagram("tangle", (ComponentCode(True, ("x", "x")),)),
    Diagram("link", (ComponentCode(True, ("a", "b")), ComponentCode(False, ("b", "a")))),
    Diagram("tangle", (ComponentCode(False, ("x-y", "a", "x-y")), ComponentCode(False, ("a",)))),
    Diagram("knot", (ComponentCode(True, ("x", "y", "x", "y")),)),
]


def _broken(rng: random.Random, d: Diagram) -> Diagram:
    """``d`` made invalid, or at least changed, in one random way."""
    comps = list(d.components)
    k = rng.randrange(len(comps))
    comp = comps[k]
    how = rng.choice(("drop", "repeat", "flip", "token", "kind"))
    if how == "drop" and comp.passes:
        comps[k] = ComponentCode(comp.closed, comp.passes[1:])
    elif how == "repeat" and comp.passes:
        comps[k] = ComponentCode(comp.closed, comp.passes + comp.passes[:1])
    elif how == "flip":
        comps[k] = ComponentCode(not comp.closed, comp.passes)
    elif how == "token":
        comps[k] = ComponentCode(comp.closed, comp.passes + ("no way", "no way"))
    else:
        return Diagram("knot", d.components)
    return Diagram(d.kind, tuple(comps))


def _index_cases():
    rng = random.Random(61)
    cases = list(INVALID)
    for _ in range(40):
        kind = rng.choice(("tangle", "link"))
        cases += [
            random_any_diagram(rng, 9),
            random_good_diagram(rng, rng.randint(1, 5), 12, kind=kind),
            random_pure_diagram(rng, rng.randint(2, 4), kind),
        ]
    cases += [_broken(rng, d) for d in cases[len(INVALID):]]
    return cases


class TestIndex:
    """The fields cached on ``Diagram`` against the bodies that recomputed
    them on every call (``genutil.reference_*``)."""

    def test_matches_reference(self):
        invalid = 0
        for d in _index_cases():
            occ = reference_crossing_occurrences(d)
            assert d.pure == reference_pure_crossings(d), d
            assert (not any(d.parity.values()), d.parity) == reference_is_good_condition(d), d
            assert list(d.violations) == reference_validate(d), d
            for name, places in occ.items():
                if len(places) == 2:
                    i, j = sorted(ci for ci, _ in places)
                    assert crossing_type(d, name) == CrossingType(i, j), (d, name)
                else:
                    with pytest.raises(DiagramError, match=f"{len(places)} times"):
                        crossing_type(d, name)
            for (i, j), count in d.pair_counts.items():
                joined = [p for p in occ.values() if len(p) == 2 and sorted(c for c, _ in p) == [i, j]]
                assert count == len(joined), (d, i, j)
            if reference_validate(d):
                invalid += 1
                with pytest.raises(DiagramError, match="invalid diagram") as caught:
                    require_valid(d)
                assert all(str(v) in str(caught.value) for v in reference_validate(d))
            else:
                assert require_valid(d) is d
        assert invalid >= 80

    def test_partner_map_on_names_not_twice(self):
        # around two mixed crossings and a pure one, a name once, three
        # times and four times on one, two and three components, and all of
        # them at once: their passes XOR to a component or to 0, and none
        # of them is pure or joins a pair
        base = (("a", "b", "p", "p"), ("b", "a"), ())
        extras = [
            ((), ("s",), ()),
            (("t", "t", "t"), (), ()),
            (("t",), ("t", "t"), ()),
            (("t",), ("t",), ("t",)),
            (("f", "f", "f", "f"), (), ()),
            (("f", "f"), ("f", "f"), ()),
            (("f",), ("f",), ("f", "f")),
            (("s",), ("t", "f", "t", "f", "f"), ("t", "f")),
        ]
        for kind in ("tangle", "link"):
            for extra in extras:
                for pos in (0, 1, 2):
                    comps = []
                    for passes, more in zip(base, extra):
                        merged = list(passes)
                        merged[min(pos, len(merged)) : min(pos, len(merged))] = more
                        comps.append(ComponentCode(kind == "link", tuple(merged)))
                    d = Diagram(kind, tuple(comps))
                    occ = reference_crossing_occurrences(d)
                    assert d.partner_map == {
                        name: places[0][0] ^ places[1][0]
                        for name, places in occ.items()
                        if len(places) == 2
                    }, d
                    assert list(d.partner_map) == [n for n, p in occ.items() if len(p) == 2], d
                    assert d.pure == reference_pure_crossings(d) == {"p"}, d
                    assert list(d.pair_counts.items()) == list(reference_pair_counts(d).items()), d
                    good, table = reference_is_good_condition(d)
                    assert list(d.parity.items()) == list(table.items()), d
                    assert d.partners == reference_partners(d), d
                    assert d.violations and list(d.violations) == reference_validate(d), d

    def test_partners_match_reference(self):
        # valid and invalid diagrams, and every diagram of restricted walks
        cases = _index_cases()
        rng = random.Random(23)
        for kind in ("tangle", "link"):
            for n in (4, 5):
                cases += fuzz_walk_diagrams(rng, kind, n)
        for d in cases:
            assert d.partners == reference_partners(d), d

    def test_fields_outside_equality(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: a k k\ncomponent 2 open: a")
        assert d.partner_map is d.partner_map
        assert d.pure == {"k"}
        fresh = Diagram(d.kind, d.components)
        assert fresh == d and hash(fresh) == hash(d)
        assert "partner_map" not in vars(fresh)


class TestCrossingReaders:
    """The readers of a crossing's two components, which find them in
    ``partner_map``, against the passes of each crossing in scan order
    (``genutil.reference_crossing_occurrences``)."""

    @staticmethod
    def _cases():
        # the index cases, then tangles and links of 3-5 components
        cases = _index_cases()
        rng = random.Random(71)
        for _ in range(30):
            for kind in ("tangle", "link"):
                n = rng.randint(3, 5)
                cases += [
                    random_good_diagram(rng, n, 14, kind=kind),
                    random_mixed_diagram(rng, n, 9, kind),
                ]
        return cases

    def test_crossing_type_matches_reference(self):
        miscounts = set()
        for d in self._cases():
            for name, places in reference_crossing_occurrences(d).items():
                if len(places) == 2:
                    (i, _), (j, _) = places
                    assert i <= j and crossing_type(d, name) == CrossingType(i, j), (d, name)
                else:
                    with pytest.raises(DiagramError) as caught:
                        crossing_type(d, name)
                    assert str(caught.value) == (
                        f"crossing {name!r} occurs {len(places)} times, expected 2"
                    ), (d, name)
                    miscounts.add(len(places))
            with pytest.raises(DiagramError) as caught:
                crossing_type(d, "absent")
            assert str(caught.value) == "unknown crossing 'absent'"
        assert {1, 3} <= miscounts

    def test_lk_matches_reference_letters(self):
        bits = 0
        for d in self._cases():
            if d.n < 3 or d.pure or reference_validate(d):
                continue
            if d.kind == "link":
                d = cut_link(d, [Basepoint(i, 0) for i in range(1, d.n + 1)])
            for name, letter in reference_letters(d).items():
                (i, _), (j, _) = reference_crossing_occurrences(d)[name]
                thirds = [k for k in range(1, d.n + 1) if k not in (i, j)]
                assert [lk(d, name, k) for k in thirds] == list(letter), (d, name)
                bits += len(thirds)
                for k in (i, j):
                    with pytest.raises(InvariantError) as caught:
                        lk(d, name, k)
                    assert str(caught.value) == (
                        f"component {k} is one of the two strands of crossing {name!r}"
                    )
        assert bits >= 2000

    def test_apply_splices_refuses_unknown_names(self):
        spliced = 0
        for d in self._cases():
            if any(v.detail != "closed component in a tangle" for v in d.violations):
                with pytest.raises(DiagramError, match="invalid diagram"):
                    apply_splices(d, {"absent": "A"})
                continue
            with pytest.raises(BracketError) as caught:
                apply_splices(d, {"absent": "A"})
            assert str(caught.value) == "unknown crossing 'absent'"
            # every name of a diagram past the validity check is known
            for name in reference_crossing_occurrences(d):
                apply_splices(d, {name: "A"})
                spliced += 1
        assert spliced >= 1500


FIELDS = (
    "crossing_names",
    "violations",
    "partner_map",
    "pure",
    "pair_counts",
    "key",
    "parity",
    "pass_counts",
    "partners",
)


class TestFieldDescriptor:
    """The descriptor that computes each cached field of ``Diagram`` on its
    first read and keeps it in the instance ``__dict__``."""

    def test_computed_once_per_diagram(self, monkeypatch):
        d = parse_diagram("tangle n=2\ncomponent 1 open: a k k\ncomponent 2 open: a")
        for name in FIELDS:
            field = Diagram.__dict__[name]
            calls = []
            monkeypatch.setattr(
                field, "func", lambda d, build=field.func, calls=calls: calls.append(d) or build(d)
            )
            fresh = Diagram(d.kind, d.components)
            assert name not in vars(fresh)
            value = getattr(fresh, name)
            assert getattr(fresh, name) is value and vars(fresh)[name] is value
            assert calls == [fresh], name
            other = Diagram(d.kind, d.components)
            assert getattr(other, name) == value and len(calls) == 2, name

    def test_a_field_that_raises_keeps_nothing(self):
        d = Diagram("tangle", (ComponentCode(False, ("x",)),))
        with pytest.raises(DiagramError):
            d.key
        assert "key" not in vars(d)

    def test_class_access_returns_the_descriptor(self, monkeypatch):
        for name in FIELDS:
            field = Diagram.__dict__[name]
            assert getattr(Diagram, name) is field
            assert field.func.__name__ == name and field.__doc__ == field.func.__doc__
        field = Diagram.__dict__["pass_counts"]
        monkeypatch.setattr(field, "func", lambda d: "swapped")
        d = parse_diagram("link n=1\ncomponent 1 closed: x x")
        assert d.pass_counts == "swapped"

    def test_help_shows_the_docstrings(self):
        text = pydoc.render_doc(Diagram, renderer=pydoc.plaintext)
        documented = [name for name in FIELDS if Diagram.__dict__[name].__doc__]
        assert len(documented) == len(FIELDS) - 1
        for name in documented:
            first = Diagram.__dict__[name].__doc__.splitlines()[0].strip()
            assert first in text, name

    def test_copies_carry_no_fields(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: a k k\ncomponent 2 open: a")
        for name in FIELDS:
            getattr(d, name)
        assert set(vars(d)) == set(FIELDS)
        copies = [copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))]
        for other in [*copies, Diagram(d.kind, d.components)]:
            assert other == d and vars(other) == {}


class TestWalkedIndex:
    """The index fields on the diagrams that ``fuzz --forbid-pure`` walks:
    4- and 5-component tangles and links in good condition with 12 to 14
    crossings, and every diagram of a 10-step restricted walk from each,
    inserted ``w`` names included."""

    def test_matches_reference(self):
        rng = random.Random(19)
        walked = inserted = 0
        for kind in ("tangle", "link"):
            for n in (4, 5):
                for _ in range(8):
                    for d in fuzz_walk_diagrams(rng, kind, n):
                        occ = reference_crossing_occurrences(d)
                        # the same partners, and the same key order
                        assert list(d.partner_map.items()) == [
                            (name, a ^ b) for name, ((a, _), (b, _)) in occ.items()
                        ], d
                        assert d.pure == reference_pure_crossings(d), d
                        counts = reference_pair_counts(d)
                        assert list(d.pair_counts.items()) == list(counts.items()), d
                        good, table = reference_is_good_condition(d)
                        assert (not any(d.parity.values()), list(d.parity.items())) == (
                            good,
                            list(table.items()),
                        ), d
                        assert list(d.violations) == reference_validate(d), d
                        walked += 1
                        inserted += any(name.startswith("w") for name in d.partner_map)
        assert walked == 4 * 8 * 11 and inserted >= walked // 2

    def test_invalid_names_listed_per_pass(self):
        # a bad name on two components, a closed component in a tangle, and
        # two names that occur once, one of them bad too
        d = Diagram(
            "tangle",
            (
                ComponentCode(False, ("a-b", "x", "y")),
                ComponentCode(True, ("x", "z", "z", "w")),
                ComponentCode(False, ("y", "a-b", "q q")),
            ),
        )
        assert [str(v) for v in d.violations] == [
            "token at component 1: unserializable name 'a-b'",
            "kind at component 2: closed component in a tangle",
            "token at component 3: unserializable name 'a-b'",
            "token at component 3: unserializable name 'q q'",
            "arity at crossing q q: occurs 1 times, expected 2",
            "arity at crossing w: occurs 1 times, expected 2",
        ]
        assert list(d.violations) == reference_validate(d)


class TestCanonicalForm:
    def test_rotation_same_form(self):
        a = parse_diagram("link n=1\ncomponent 1 closed: y x y x")
        b = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
        assert canonical_form(a) == canonical_form(b)

    def test_idempotent(self, sample_tangle):
        c = canonical_form(sample_tangle)
        assert canonical_form(c) == c

    def test_reversal_same_form(self):
        a = parse_diagram("link n=1\ncomponent 1 closed: x y x z y z")
        b = Diagram("link", (ComponentCode(True, tuple(reversed(a.components[0].passes))),))
        assert canonical_form(a) == canonical_form(b)

    def test_open_components_not_reversed(self):
        a = parse_diagram("tangle n=2\ncomponent 1 open: x y\ncomponent 2 open: y x")
        b = parse_diagram("tangle n=2\ncomponent 1 open: x y\ncomponent 2 open: x y")
        assert canonical_form(a) != canonical_form(b)

    def test_components_never_reindexed(self):
        d = parse_diagram("link n=2\ncomponent 1 closed:\ncomponent 2 closed: x x")
        c = canonical_form(d)
        assert len(c.components[0]) == 0
        assert len(c.components[1]) == 2

    def test_invalid_diagram_rejected(self):
        with pytest.raises(DiagramError):
            canonical_form(Diagram("tangle", (ComponentCode(False, ("x",)),)))

    def test_cached_key_matches_a_fresh_key(self):
        # the form built from a key carries that key without computing it
        rng = random.Random(31)
        for trial in range(80):
            d = random_sparse_link(rng) if trial % 4 == 0 else random_any_diagram(rng, 7)
            key = canonical_key(d)
            assert d.key == key and d.key is d.key
            form = _diagram_from_key(key)
            assert form.key is key
            assert canonical_key(form) == key, d

    def test_scramble_invariance(self):
        rng = random.Random(23)
        for _ in range(60):
            d = random_any_diagram(rng, 8)
            assert canonical_key(scramble(rng, d)) == canonical_key(d)

    def test_matches_naive_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            d = random_any_diagram(rng, 7)
            assert canonical_key(d) == naive_canonical_key(d)

    def test_matches_naive_oracle_on_unlinked_components(self):
        # Components that share no crossing tie on all their rotations at
        # once; the key keeps those ties as separate factors.
        rng = random.Random(41)
        for _ in range(80):
            d = random_sparse_link(rng)
            assert canonical_key(d) == naive_canonical_key(d), d

    def test_unlinked_components_stay_cheap(self):
        # Four closed components of twelve crossings each, components 1 and 2
        # unlinked: the full product has 24 * 20 * 24 * 24 combinations.
        d = parse_diagram(
            "link n=4\n"
            "component 1 closed: k21 k13 k20 k22 k3 k17 k1 k6 k7 k14 k4 k10\n"
            "component 2 closed: k9 k11 k2 k8 k5 k19 k23 k15 k16 k12\n"
            "component 3 closed: k13 k19 k6 k5 k17 k20 k18 k16 k15 k10 k4 k7\n"
            "component 4 closed: k21 k8 k23 k1 k11 k12 k2 k3 k9 k22 k18 k14"
        )
        rng = random.Random(43)
        for _ in range(5):
            assert canonical_key(scramble(rng, d)) == canonical_key(d)


@st.composite
def small_diagrams(draw, pure: bool):
    """A link or tangle of 1-3 components and at most six crossings, small
    enough for :func:`naive_canonical_key`; with ``pure`` false, every
    crossing joins two components."""
    kind = draw(st.sampled_from(("link", "tangle")))
    n = draw(st.integers(1 if pure else 2, 3))
    per_comp: list[list[str]] = [[] for _ in range(n)]
    for serial in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, n - 1))
        if pure:
            j = draw(st.integers(0, n - 1))
        else:
            j = draw(st.integers(0, n - 2))
            j += j >= i
        for k in (i, j):
            per_comp[k].insert(draw(st.integers(0, len(per_comp[k]))), f"x{serial}")
    return Diagram(kind, tuple(ComponentCode(kind == "link", tuple(p)) for p in per_comp))


class TestCanonicalKeyOracle:
    """The pruned key against the full product of rotations and reversals."""

    @settings(max_examples=300, deadline=None)
    @given(d=st.one_of(small_diagrams(pure=True), small_diagrams(pure=False)))
    def test_matches_naive_oracle(self, d):
        assert canonical_key(d) == naive_canonical_key(d)

    def test_scramble_invariance_on_large_pure_free_links(self):
        # 16-20 mixed crossings on four closed components: the naive
        # product has tens of millions of combinations
        rng = random.Random(47)
        for _ in range(40):
            d = random_mixed_diagram(rng, 4, rng.randint(16, 20), "link")
            key = canonical_key(d)
            assert canonical_key(_diagram_from_key(key)) == key
            for _ in range(3):
                assert canonical_key(scramble(rng, d)) == key, d

    def test_unshared_component_after_a_shared_one(self):
        # Component 2 shares no crossing with component 1 and passes each of
        # its crossings once, so its labels and its crossings' factor are
        # set in closed form; component 3 then reads that factor, and
        # component 1's pure crossings leave it several tying states.
        rng = random.Random(53)
        for trial in range(60):
            first = ["p", "p"] if trial % 2 else []
            second, third = [], []
            for k in range(rng.randint(1, 3)):
                first.append(f"a{k}")
                third.append(f"a{k}")
            for k in range(rng.randint(1, 3)):
                second.append(f"b{k}")
                third.append(f"b{k}")
            for passes in (first, second, third):
                rng.shuffle(passes)
            d = Diagram(
                "link", tuple(ComponentCode(True, tuple(p)) for p in (first, second, third))
            )
            assert canonical_key(d) == naive_canonical_key(d), d
            assert canonical_key(scramble(rng, d)) == canonical_key(d), d


class TestCanonicalKeyReference:
    """The key with fixed labels outside the factor product against the key
    that keeps every label in a factor, on diagrams too large for
    :func:`naive_canonical_key`."""

    @staticmethod
    def inputs(rng: random.Random, count: int) -> list[Diagram]:
        # 4-5 components and 16-24 crossings, links and tangles, mixed and
        # in good condition, then sparse links and pure-crossing diagrams
        large = []
        for trial in range(count):
            kind = ("link", "tangle")[trial % 2]
            n = rng.randint(4, 5)
            if trial % 4 < 2:
                d = random_mixed_diagram(rng, n, rng.randint(16, 24), kind)
            else:
                d = random_good_diagram(rng, n, 24, kind)
                while d.crossing_count < 16:
                    d = random_good_diagram(rng, n, 24, kind)
            large.append(d)
        small = [random_sparse_link(rng) for _ in range(count // 2)]
        small += [
            random_pure_diagram(rng, rng.randint(2, 4), rng.choice(("link", "tangle")))
            for _ in range(count // 2)
        ]
        return large + small

    def test_matches_reference_and_its_scrambles(self):
        rng = random.Random(97)
        for d in self.inputs(rng, 120):
            key = reference_canonical_key(d)
            assert canonical_key(d) == key, d
            for _ in range(2):
                assert canonical_key(scramble(rng, d)) == key, d

    def test_matches_reference_on_every_neighbour(self):
        # every site of the slate that compare's search expands, without
        # pure crossings on inputs that have none, on 20 of the inputs
        rng = random.Random(101)
        checked = 0
        for d in self.inputs(rng, 10):
            slate = _expand(d, forbid_pure=not d.pure, max_size=d.crossing_count + 2)
            for site in slate:
                neighbor = apply_move(d, site)
                assert canonical_key(neighbor) == reference_canonical_key(neighbor), (d, site)
                checked += 1
        assert checked > 1000


class TestCanonicalKeyStillToCome:
    """The key decides which crossings are still to come from the component
    it scans, with no set of later crossings per component: against both
    references on the inputs where that decision matters, and in memory
    linear in the number of components."""

    @staticmethod
    def both_references(d: Diagram) -> None:
        key = canonical_key(d)
        assert key == reference_canonical_key(d), d
        assert key == naive_canonical_key(d), d

    @pytest.mark.parametrize("n", range(3, 13))
    def test_chains(self, n):
        # component i passes x_i and x_(i+1): closed, the last one passes
        # x_0 again; open, the chain ends on one more component
        rng = random.Random(n)
        closed = link(*(f"x{i} x{(i + 1) % n}" for i in range(n)))
        open_chain = tangle("x0", *(f"x{i} x{i + 1}" for i in range(n - 2)), f"x{n - 2}")
        for d in (closed, open_chain, scramble(rng, closed)):
            self.both_references(d)

    def test_empty_last_components(self):
        # the components after the last crossing carry nothing on, as the
        # last component does not
        rng = random.Random(163)
        for trial in range(120):
            d = random_any_diagram(rng, 6, ("link", "tangle")[trial % 2])
            closed = d.kind == "link"
            empty = (ComponentCode(closed, ()),) * rng.randint(1, 2)
            self.both_references(Diagram(d.kind, d.components + empty))
            self.both_references(Diagram(d.kind, empty[:1] + d.components + empty))

    def test_empty_circles_anywhere(self):
        # an empty circle adds (True, ()) and changes no state, placed
        # first, in the middle, last, or as every component
        rng = random.Random(173)
        empty = ComponentCode(True, ())
        for trial in range(150):
            d = random_any_diagram(rng, 6, "link")
            while d.n < 2:
                d = random_any_diagram(rng, 6, "link")
            comps = list(d.components)
            for where in (0, rng.randint(1, len(comps) - 1), len(comps)):
                placed = Diagram("link", tuple(comps[:where] + [empty] + comps[where:]))
                key = canonical_key(placed)
                assert key == naive_canonical_key(placed), placed
                assert key[1][where] == (True, ())
        for n in range(1, 5):
            d = Diagram("link", (empty,) * n)
            assert canonical_key(d) == naive_canonical_key(d) == ("link", ((True, ()),) * n)

    def test_pure_crossings_between_shared_ones(self):
        # each component passes one or two pure crossings, placed among its
        # mixed passes, so a crossing a component reads twice lies between
        # crossings it shares with earlier and later components
        rng = random.Random(167)
        for trial in range(100):
            kind = ("link", "tangle")[trial % 2]
            n = rng.randint(2, 3)
            comps: list[list[str]] = [[] for _ in range(n)]
            for k in range(rng.randint(n - 1, 3)):
                i, j = rng.sample(range(n), 2)
                comps[i].append(f"m{k}")
                comps[j].append(f"m{k}")
            for ci, passes in enumerate(comps):
                for k in range(rng.randint(1, 2)):
                    for _ in range(2):
                        passes.insert(rng.randint(0, len(passes)), f"p{ci}_{k}")
            d = Diagram(kind, tuple(ComponentCode(kind == "link", tuple(p)) for p in comps))
            self.both_references(d)

    def test_long_chain_is_keyed_in_linear_memory(self):
        # a closed chain of 2,000 components: a set of the later crossings
        # per component would hold about 4 million names
        n = 2000
        d = link(*(f"x{i} x{(i + 1) % n}" for i in range(n)))
        require_valid(d)
        tracemalloc.start()
        try:
            key = canonical_key(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert key[1][0] == (True, (1, 2))
        assert key[1][-1] == (True, (2, n))


def random_tangles(rng: random.Random, count: int) -> list[Diagram]:
    """``count`` tangles from the three random generators in turn: any
    crossings on 1-4 components (pure crossings and one-component tangles
    among them), 2-4 pure crossings on at least two components, and mixed
    crossings only; every fourth one gets an empty component put first, in
    the middle or last."""
    tangles = []
    for trial in range(count):
        if trial % 3 == 0:
            d = random_any_diagram(rng, 8, "tangle")
        elif trial % 3 == 1:
            d = random_pure_diagram(rng, rng.randint(2, 4), "tangle")
        else:
            d = random_mixed_diagram(rng, rng.randint(2, 4), rng.randint(0, 8), "tangle")
        if trial % 4 == 3:
            comps = list(d.components)
            comps.insert(rng.randint(0, len(comps)), ComponentCode(False, ()))
            d = Diagram("tangle", tuple(comps))
        tangles.append(d)
    return tangles


class TestTangleKey:
    """A tangle's key is its crossings relabeled by first occurrence, made
    in one pass: against both references, and never through the ties that
    serve closed components."""

    def test_matches_both_references(self):
        rng = random.Random(211)
        tangles = random_tangles(rng, 10_000)
        assert sum(len(d.pure) > 0 for d in tangles) > 3000
        assert sum(d.n == 1 for d in tangles) > 500
        assert sum(not comp.passes for d in tangles for comp in d.components) > 2500
        for d in tangles:
            key = canonical_key(d)
            assert key == naive_canonical_key(d), d
            assert key == reference_canonical_key(d), d

    def test_canonical_form_is_idempotent(self):
        rng = random.Random(211)
        for d in random_tangles(rng, 10_000):
            form = canonical_form(d)
            again = canonical_form(Diagram(form.kind, form.components))
            assert again == form, d

    def test_never_enters_the_tie_loop(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a tangle entered the tie loop")

        diagram_module = importlib.import_module("freelinks.diagram")
        monkeypatch.setattr(diagram_module, "_carried", forbidden)
        monkeypatch.setattr(diagram_module, "_next_state", forbidden)
        rng = random.Random(223)
        keyed = 0
        for d in random_tangles(rng, 400):
            if d.n > 1:
                assert canonical_key(d) == naive_canonical_key(d), d
                keyed += 1
        assert keyed > 300
        # the loop itself still uses them, so the patch bites on a link
        with pytest.raises(AssertionError, match="tie loop"):
            canonical_key(link("a b", "a b"))


def link(*components: str) -> Diagram:
    return Diagram("link", tuple(ComponentCode(True, tuple(c.split())) for c in components))


def tangle(*components: str) -> Diagram:
    return Diagram("tangle", tuple(ComponentCode(False, tuple(c.split())) for c in components))


def reshuffled(rng: random.Random, d: Diagram) -> Diagram:
    """``d`` with all its passes dealt out again at random, each component
    keeping its length: a valid diagram of the same shape, seldom the same
    diagram."""
    passes = [name for comp in d.components for name in comp.passes]
    rng.shuffle(passes)
    comps = []
    for comp in d.components:
        comps.append(ComponentCode(comp.closed, tuple(passes[: len(comp)])))
        del passes[: len(comp)]
    return Diagram(d.kind, tuple(comps))


class TestIsomorphic:
    """The direct test of "same diagram" against equal canonical keys."""

    @staticmethod
    def agrees(x: Diagram, y: Diagram) -> bool:
        same = _isomorphic(x, y)
        assert same == (x.key == y.key), (x, y)
        assert _isomorphic(y, x) == same, (x, y)
        return same

    def test_matches_key_equality(self):
        # any, pure, mixed, good and sparse diagrams, links and tangles,
        # against a scrambled copy, a copy dealt out again and every slate
        # neighbour; each neighbour also against a scrambled copy of itself
        # and against the last neighbour with its pass counts, which is
        # often a different diagram of the same shape
        rng = random.Random(131)
        same = differ = 0
        for trial in range(20):
            kind = ("link", "tangle")[trial % 2]
            n = rng.randint(2, 3)
            d = (
                lambda: random_any_diagram(rng, 6, kind),
                lambda: random_pure_diagram(rng, n, kind),
                lambda: random_mixed_diagram(rng, n, rng.randint(0, 8), kind),
                lambda: random_good_diagram(rng, n, 8, kind),
                lambda: random_sparse_link(rng),
            )[trial % 5]()
            pairs = [(d, scramble(rng, d)), (d, reshuffled(rng, d))]
            last = {}
            for site in whole_slate(d, max_size=d.crossing_count + 2):
                neighbor = apply_move(d, site)
                shape = tuple(len(c) for c in neighbor.components)
                pairs += [(d, neighbor), (neighbor, scramble(rng, neighbor))]
                pairs.append((last.setdefault(shape, neighbor), neighbor))
                last[shape] = neighbor
            for x, y in pairs:
                if self.agrees(x, y):
                    same += 1
                elif [len(c) for c in x.components] == [len(c) for c in y.components]:
                    differ += 1
        assert same >= 4000 and differ >= 3000, (same, differ)

    def test_matches_naive_oracle(self):
        rng = random.Random(137)
        for _ in range(300):
            d = random_any_diagram(rng, 8)
            for other in (scramble(rng, d), reshuffled(rng, d), scramble(rng, reshuffled(rng, d))):
                same = _isomorphic(d, other)
                assert same == (naive_canonical_key(d) == naive_canonical_key(other)), (d, other)

    @settings(max_examples=200, deadline=None)
    @given(d=small_diagrams(pure=True), seed=st.integers(0, 2**32))
    def test_matches_naive_oracle_on_small_diagrams(self, d, seed):
        rng = random.Random(seed)
        for other in (scramble(rng, d), reshuffled(rng, d)):
            assert _isomorphic(d, other) == (naive_canonical_key(d) == naive_canonical_key(other))

    @pytest.mark.parametrize(
        "x, y, same",
        [
            (link("", ""), link("", ""), True),
            (link("", "a a"), link("a a", ""), False),
            (link("a", "a"), link("b", "b"), True),
            (link("a b", "a b"), link("x y", "y x"), True),
            (link("a a", "b b"), link("a b", "a b"), False),
            (link("a a b c b c"), link("b c b c a a"), True),
            (tangle("a a b c b c"), tangle("b c b c a a"), False),
            (tangle("a a b b"), tangle("x x y y"), True),
            (tangle("a b", "a b"), link("a b", "a b"), False),
            (link("a b c", "a b c"), link("a b c", "c b a"), True),
            (link("a b c d", "a b c d"), link("a b c d", "a b d c"), False),
            (link("a b", "a c", "b c"), link("a c", "a b", "b c"), True),
        ],
    )
    def test_edge_cases(self, x, y, same):
        assert _isomorphic(x, y) == same
        assert self.agrees(x, y) == same

    def test_invalid_input_raises(self):
        valid, odd = link("a a"), link("a a b")
        for x, y in ((odd, valid), (valid, odd), (odd, odd)):
            with pytest.raises(DiagramError, match="crossing b"):
                _isomorphic(x, y)
        # the other checks come after validation
        with pytest.raises(DiagramError):
            _isomorphic(link("a"), tangle("a a"))

    def test_disjoint_symmetric_kinks_stay_cheap(self):
        # six unlinked components of six kinks each, whose rotations by two
        # passes all agree, the last one differing: matched one at a time,
        # not over the product of all their rotations
        kinks = [" ".join(f"k{c}_{k} k{c}_{k}" for k in range(6)) for c in range(6)]
        other = kinks[:-1] + ["k5_0 k5_1 k5_0 k5_1 " + " ".join(f"k5_{k} k5_{k}" for k in range(2, 6))]
        x, y = link(*kinks), link(*other)
        start = time.perf_counter()
        assert not _isomorphic(x, y)
        assert _isomorphic(x, scramble(random.Random(139), x))
        assert time.perf_counter() - start < 0.5


    def test_a_long_group_stays_linear(self):
        # 2,000 components in one group, each passing a crossing with the
        # next one and a kink: more levels than the interpreter's recursion
        # limit.  The copy whose middle component reads its kink across the
        # crossing is another diagram, told apart at the last level
        n = 2000

        def chain(odd):
            return link(
                *(
                    f"x{i} a{i} x{(i + 1) % n} a{i}" if i == odd else f"x{i} a{i} a{i} x{(i + 1) % n}"
                    for i in range(n)
                )
            )

        d = chain(None)
        start = time.perf_counter()
        assert _isomorphic(d, scramble(random.Random(149), d))
        assert not _isomorphic(d, chain(n // 2))
        assert time.perf_counter() - start < 2

    def test_matches_key_equality_on_one_repeated_partner(self):
        # the bracket summands of 2-component links and tangles: every pass's
        # partner is the other component, so the partners leave every
        # rotation of the first component open and place the second from its
        # anchor alone.  Each summand against scrambled, rotated and reversed
        # copies, and against near misses with the same partners: one
        # adjacent pair of passes swapped, as a third move swaps each of its
        # three (a 2-component diagram without pure crossings has no
        # third-move site), or one such pair on each component
        rng = random.Random(151)

        def turned(d: Diagram, r: int, reverse: bool) -> Diagram:
            comps = []
            for comp in d.components:
                passes = comp.passes
                if comp.closed and passes:
                    k = r % len(passes)
                    passes = passes[k:] + passes[:k]
                    passes = passes[::-1] if reverse else passes
                comps.append(ComponentCode(comp.closed, passes))
            return Diagram(d.kind, tuple(comps))

        def swapped(d: Diagram, components) -> Diagram:
            comps = list(d.components)
            for ci in components:
                passes = list(comps[ci].passes)
                p = rng.randrange(len(passes) - 1)
                passes[p : p + 2] = passes[p + 1], passes[p]
                comps[ci] = ComponentCode(comps[ci].closed, tuple(passes))
            return Diagram(d.kind, tuple(comps))

        same = differ = 0
        for trial in range(40):
            d = random_pure_diagram(rng, 2, ("link", "tangle")[trial % 2])
            for s in sorted(bracket(d).summands, key=serialize_diagram):
                assert all(len(set(line)) <= 1 for line in s.partners)
                copies = [scramble(rng, s), turned(s, rng.randrange(1, 9), False)]
                copies += [turned(s, rng.randrange(9), True), scramble(rng, turned(s, 1, True))]
                for y in copies:
                    assert self.agrees(s, y)
                if min(s.pass_counts) < 2:
                    continue
                for parts in ((0,), (1,), (0, 1)):
                    y = swapped(s, parts)
                    for x in (s, scramble(rng, s)):
                        if self.agrees(x, scramble(rng, y)):
                            same += 1
                        else:
                            differ += 1
        assert same >= 30 and differ >= 250, (same, differ)


class TestCutLink:
    def test_offset_zero(self):
        d = Diagram("link", (ComponentCode(True, ("a", "b", "d", "e")),))
        t = cut_link(d, [Basepoint(1, 0)])
        assert t.kind == "tangle"
        assert t.components[0].passes == ("a", "b", "d", "e")

    def test_rotation(self):
        d = Diagram("link", (ComponentCode(True, ("a", "b", "d", "e")),))
        t = cut_link(d, [Basepoint(1, 2)])
        assert t.components[0].passes == ("d", "e", "a", "b")

    def test_closure_cut_is_identity(self, sample_tangle, sample_closure):
        t = cut_link(sample_closure, [Basepoint(i, 0) for i in (1, 2, 3)])
        assert t == sample_tangle

    def test_bad_component(self, sample_closure):
        with pytest.raises(DiagramError, match="out of range"):
            cut_link(sample_closure, [Basepoint(1, 0), Basepoint(2, 0), Basepoint(5, 0)])

    def test_refuses_a_tangle(self, sample_tangle):
        with pytest.raises(DiagramError, match="^cut_link expects a link$"):
            cut_link(sample_tangle, [Basepoint(i, 0) for i in (1, 2, 3)])

    def test_refuses_a_basepoint_count_other_than_n(self, sample_closure):
        with pytest.raises(DiagramError) as err:
            cut_link(sample_closure, [Basepoint(1, 0), Basepoint(2, 0)])
        assert str(err.value) == "need exactly one basepoint per component, got 2 for n=3"

    def test_refuses_two_basepoints_on_one_component(self, sample_closure):
        with pytest.raises(DiagramError) as err:
            cut_link(sample_closure, [Basepoint(1, 0), Basepoint(2, 0), Basepoint(1, 1)])
        assert str(err.value) == "two basepoints on component 1"

    def test_bad_offset(self, sample_closure):
        with pytest.raises(DiagramError, match="offset"):
            cut_link(sample_closure, [Basepoint(1, 9), Basepoint(2, 0), Basepoint(3, 0)])

    def test_preserves_types_and_parity(self):
        rng = random.Random(91)
        for _ in range(25):
            d = random_good_diagram(rng, rng.randint(2, 4), 8, kind="link")
            points = [
                Basepoint(i, rng.randint(0, len(d.components[i - 1])))
                for i in range(1, d.n + 1)
            ]
            t = cut_link(d, points)
            for name in d.crossing_names:
                assert crossing_type(t, name) == crossing_type(d, name)
            assert t.parity == d.parity
