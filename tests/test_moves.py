import random
import time
from itertools import product

import pytest

import freelinks.diagram
from freelinks import moves
from freelinks.diagram import (
    ComponentCode,
    Diagram,
    DiagramError,
    ParseError,
    canonical_key,
    parse_diagram,
)
from freelinks.moves import (
    MoveError,
    MoveSite,
    SearchVerdict,
    apply_move,
    bounded_equivalence_search,
    enumerate_moves,
    inverse_site,
    join_by_descent,
    move_lower_bound,
    parse_trace,
    random_walk,
    replay,
    serialize_trace,
)

from conftest import DATA
from genutil import (
    SPLITLINES_ONLY_BREAKS,
    plant_triangle,
    random_any_diagram,
    random_good_diagram,
    random_mixed_diagram,
    random_pure_diagram,
    reference_apply_move,
    reference_bidirectional_search,
    reference_descent,
    reference_enumerate_moves,
    reference_inverse_site,
    reference_move_lower_bound,
    reference_random_walk,
    reference_search,
    scramble,
    whole_slate,
)

# two codes of the 3-component unlink with move lower bound 5: two bigons
# between components 2 and 3 and one between 1 and 3, against two between 1
# and 2
FAR_A = parse_diagram(
    "link n=3\ncomponent 1 closed: e f\n"
    "component 2 closed: a b c d\ncomponent 3 closed: a b c d f e"
)
FAR_B = parse_diagram(
    "link n=3\ncomponent 1 closed: a b c d\n"
    "component 2 closed: a b d c\ncomponent 3 closed:"
)
# four crossings between two components against one: no move changes the
# parity of their count, and the diagrams within the size bound are few
APART_A = parse_diagram("link n=2\ncomponent 1 closed: a b c d\ncomponent 2 closed: a b c d")
APART_B = parse_diagram("link n=2\ncomponent 1 closed: a\ncomponent 2 closed: a")
KINK = parse_diagram("link n=1\ncomponent 1 closed: x x")


class TestEnumerate:
    def test_kink_single_site(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x x")
        sites = enumerate_moves(d)
        assert [s.kind for s in sites] == ["R1_delete"]

    def test_bigon_single_site(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: p q\ncomponent 2 open: p q")
        sites = enumerate_moves(d)
        assert [s.kind for s in sites] == ["R2_delete"]
        assert sites[0].pairs == ((1, 0), (2, 0))

    def test_triangle_single_r3(self, triangle):
        sites = enumerate_moves(triangle)
        assert [s.kind for s in sites] == ["R3"]
        assert sites[0].names == ("x", "y", "z")

    def test_unknown_kind_refused(self, triangle):
        with pytest.raises(MoveError) as err:
            enumerate_moves(triangle, kinds={"R3", "R4"})
        assert str(err.value) == "unknown move kinds ['R4']"

    def test_reversed_order_bigon(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: p q\ncomponent 2 open: q p")
        assert [s.kind for s in enumerate_moves(d)] == ["R2_delete"]

    def test_overlapping_pairs_do_not_match(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
        # the only second-move patterns use disjoint pairs
        sites = enumerate_moves(d, kinds={"R2_delete"})
        for s in sites:
            assert len({pos for _, pos in s.pairs}) == 2

    def test_forbid_pure_drops_r1(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x x")
        assert enumerate_moves(d, forbid_pure=True) == []

    def test_forbid_pure_requires_pure_free_result(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
        # deleting the two crossings leaves the crossingless circle: allowed
        sites = enumerate_moves(d, forbid_pure=True)
        assert sites and all(s.kind == "R2_delete" for s in sites)
        kept = parse_diagram("link n=2\ncomponent 1 closed: x y x y\ncomponent 2 closed: z z")
        # any second-move deletion leaves the kink z z: no site survives
        assert enumerate_moves(kept, forbid_pure=True) == []

    def test_sites_are_applicable(self):
        rng = random.Random(3)
        for _ in range(40):
            d = random_any_diagram(rng, 8)
            for site in enumerate_moves(d):
                apply_move(d, site)

    def test_matches_reference(self):
        # random any, good and pure diagrams, half with a planted triangle,
        # and their 1-6 step walk neighbours
        rng = random.Random(41)
        kind_sets = (None, {"R3"}, {"R1_delete", "R2_delete"}, {"R2_delete", "R3"})
        third_moves = 0
        for trial in range(48):
            kind = rng.choice(("tangle", "link"))
            if trial % 3 == 0:
                d = random_any_diagram(rng, 8, kind)
            elif trial % 3 == 1:
                d = random_good_diagram(rng, rng.randint(2, 4), 8, kind)
            else:
                d = random_pure_diagram(rng, rng.randint(2, 3), kind)
            if trial % 2:
                d = plant_triangle(rng, d)
            forbid = not d.pure
            walk = random_walk(d, rng.randint(1, 6), seed=trial, forbid_pure=forbid)
            for e in (d, walk.final):
                for forbid_pure in (False, True):
                    for kinds in kind_sets:
                        sites = enumerate_moves(e, kinds=kinds, forbid_pure=forbid_pure)
                        expected = reference_enumerate_moves(e, kinds=kinds, forbid_pure=forbid_pure)
                        assert sites == expected, (e, kinds, forbid_pure)
                        third_moves += sum(site.kind == "R3" for site in sites)
        assert third_moves >= 200

    def test_short_components_match_reference(self):
        # closed components of 0, 1 and 2 passes, then random diagrams: a
        # 1-pass component has no pair and a 2-pass one has one, so two
        # 2-pass components make one bigon, and the kink one first move
        short = parse_diagram(
            "link n=5\ncomponent 1 closed:\ncomponent 2 closed: a\n"
            "component 3 closed: a b\ncomponent 4 closed: b c\ncomponent 5 closed: x x c"
        )
        bigon = parse_diagram("link n=2\ncomponent 1 closed: a b\ncomponent 2 closed: b a")
        kink = parse_diagram("link n=1\ncomponent 1 closed: x x")
        assert enumerate_moves(short) == [MoveSite("R1_delete", names=("x",), pairs=((5, 0),))]
        assert enumerate_moves(bigon) == [
            MoveSite("R2_delete", names=("a", "b"), pairs=((1, 0), (2, 0)))
        ]
        assert enumerate_moves(kink) == [MoveSite("R1_delete", names=("x",), pairs=((1, 0),))]
        rng = random.Random(43)
        cases = [short, bigon, kink] + [random_any_diagram(rng, 8) for _ in range(200)]
        for d in cases:
            for forbid_pure in (False, True):
                expected = reference_enumerate_moves(d, forbid_pure=forbid_pure)
                assert enumerate_moves(d, forbid_pure=forbid_pure) == expected, d

    def test_matches_reference_on_walked_multi_component_diagrams(self):
        # 4- and 5-component pure-free tangles and links of 12-14 crossings,
        # and every diagram of a 10-step restricted walk from each
        rng = random.Random(47)
        diagrams = third_moves = 0
        for trial in range(24):
            kind, n = ("tangle", "link")[trial % 2], 4 + trial // 2 % 2
            d = random_good_diagram(rng, n, 14, kind)
            while not 12 <= d.crossing_count <= 14:
                d = random_good_diagram(rng, n, 14, kind)
            walk = random_walk(d, 10, seed=trial, forbid_pure=True)
            for site in (None, *walk.moves):
                if site is not None:
                    d = apply_move(d, site)
                for forbid_pure in (False, True):
                    sites = enumerate_moves(d, forbid_pure=forbid_pure)
                    assert sites == reference_enumerate_moves(d, forbid_pure=forbid_pure), d
                    third_moves += sum(site.kind == "R3" for site in sites)
                diagrams += 1
        assert diagrams == 24 * 11 and third_moves >= 200


class TestApply:
    def test_r1_delete_open(self):
        d = parse_diagram("tangle n=1\ncomponent 1 open: x x a a")
        site = MoveSite("R1_delete", names=("x",), pairs=((1, 0),))
        assert apply_move(d, site).components[0].passes == ("a", "a")

    def test_r2_delete_bigon(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: p q\ncomponent 2 open: p q")
        (site,) = enumerate_moves(d)
        out = apply_move(d, site)
        assert all(c.passes == () for c in out.components)
        assert out.n == 2

    def test_r3_swaps_each_pair(self, triangle):
        (site,) = enumerate_moves(triangle)
        out = apply_move(triangle, site)
        assert [c.passes for c in out.components] == [("y", "x"), ("z", "x"), ("z", "y")]

    def test_r3_twice_is_identity(self, triangle):
        (site,) = enumerate_moves(triangle)
        assert apply_move(apply_move(triangle, site), site) == triangle

    @pytest.mark.parametrize("names", [("foo", "bar", "baz"), ("x", "y", "y"), ("x", "y", "z", "z")])
    def test_r3_names_must_be_the_pair_letters(self, triangle, names):
        site = MoveSite("R3", names=names, pairs=((1, 0), (2, 0), (3, 0)))
        with pytest.raises(MoveError, match="names"):
            apply_move(triangle, site)
        # the letters themselves, in any order, name the site
        assert apply_move(triangle, MoveSite("R3", names=("z", "x", "y"), pairs=site.pairs)) == (
            apply_move(triangle, enumerate_moves(triangle)[0])
        )

    def test_r3_overlapping_pairs_refused(self):
        # xy, yz and zx form a triangle, but the first two share position 1
        d = parse_diagram("tangle n=1\ncomponent 1 open: x y z x y z")
        site = MoveSite("R3", names=("x", "y", "z"), pairs=((1, 0), (1, 1), (1, 2)))
        with pytest.raises(MoveError) as err:
            apply_move(d, site)
        assert str(err.value) == "third-move pairs overlap"

    def test_unknown_kind_refused(self, triangle):
        with pytest.raises(MoveError) as err:
            apply_move(triangle, MoveSite("R4", names=("x",), pairs=((1, 0),)))
        assert str(err.value) == "unknown move kind 'R4'"

    def test_pattern_absent(self):
        d = parse_diagram("tangle n=1\ncomponent 1 open: x a x a")
        site = MoveSite("R1_delete", names=("x",), pairs=((1, 0),))
        with pytest.raises(MoveError):
            apply_move(d, site)

    def test_insert_requires_fresh_name(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x x")
        site = MoveSite("R1_insert", names=("x",), slots=((1, 0, False),))
        with pytest.raises(MoveError, match="already present"):
            apply_move(d, site)

    @pytest.mark.parametrize("name", ["a b", "a-b", "é", ""])
    def test_insert_requires_writable_name(self, triangle, name):
        # a name no diagram file can hold is refused like a name in use
        one = MoveSite("R1_insert", names=(name,), slots=((1, 0, False),))
        two = MoveSite("R2_insert", names=("w", name), slots=((1, 0, False), (2, 0, False)))
        for site in (one, two):
            with pytest.raises(MoveError, match="invalid crossing name"):
                apply_move(triangle, site)
        fine = MoveSite("R2_insert", names=("w", "v_2"), slots=two.slots)
        assert apply_move(triangle, fine).violations == ()

    def test_moves_preserve_structure(self):
        rng = random.Random(19)
        for _ in range(60):
            d = random_any_diagram(rng, 8)
            parity = d.parity
            for site in whole_slate(d, max_size=d.crossing_count + 2):
                out = apply_move(d, site)
                assert out.violations == ()
                assert out.n == d.n
                assert out.kind == d.kind
                assert [c.closed for c in out.components] == [c.closed for c in d.components]
                assert out.parity == parity


class TestInverses:
    def test_delete_insert_roundtrip_exact(self):
        rng = random.Random(7)
        for _ in range(80):
            d = random_any_diagram(rng, 8)
            for site in whole_slate(d, max_size=d.crossing_count + 2):
                out = apply_move(d, site)
                back = apply_move(out, inverse_site(d, site))
                assert back == d, (site, d, out)

    def test_wrapped_kink_roundtrip(self):
        d = parse_diagram("link n=1\ncomponent 1 closed: x a a x")
        for site in enumerate_moves(d, kinds={"R1_delete"}):
            out = apply_move(d, site)
            assert apply_move(out, inverse_site(d, site)) == d

    def test_wrapped_bigon_roundtrip(self):
        d = parse_diagram("link n=2\ncomponent 1 closed: p a a q\ncomponent 2 closed: q p")
        sites = [s for s in enumerate_moves(d, kinds={"R2_delete"}) if s.names[0] in "pq"]
        assert sites
        for site in sites:
            out = apply_move(d, site)
            assert apply_move(out, inverse_site(d, site)) == d

    def test_deletion_inverse_is_exact(self):
        # the insertion undoing a deletion is undone by that same deletion
        checked = 0
        for trial, start in enumerate(slate_diagrams(60, seed=29)):
            # a walk's insertions leave deletion sites, some across the basepoint
            for d in replay_steps(random_walk(start, 6, trial)):
                for site in enumerate_moves(d, kinds={"R1_delete", "R2_delete"}):
                    back = inverse_site(d, site)
                    assert inverse_site(apply_move(d, site), back) == site, (d, site, back)
                    checked += 1
        assert checked > 500

    @pytest.mark.parametrize(
        "text, site, message",
        [
            (None, MoveSite("R1_delete", names=("q",), pairs=((1, 5),)), "pair position 5"),
            (
                None,
                MoveSite("R2_insert", names=("v", "w"), slots=((1, 0, True), (1, 4, False))),
                "insertion position 4",
            ),
            # two wrapped sites on one component, refused by apply_move
            # before inverse_site reads them
            (
                None,
                MoveSite("R2_insert", names=("v", "w"), slots=((1, 0, True), (1, 0, True))),
                "at most one wrapped insertion per component",
            ),
            (
                "link n=2\ncomponent 1 closed: y a a x\ncomponent 2 closed: x y",
                MoveSite("R2_delete", names=("x", "y"), pairs=((1, 3), (1, 3))),
                "second-move pairs overlap",
            ),
        ],
        ids=["site0", "site1", "site2", "site3"],
    )
    def test_refuses_a_site_that_does_not_apply(self, text, site, message):
        d = parse_diagram(text or (DATA / "kink.link").read_text())
        with pytest.raises(MoveError, match=message) as applied:
            apply_move(d, site)
        with pytest.raises(MoveError) as inverted:
            inverse_site(d, site)
        assert str(inverted.value) == str(applied.value)

    def test_inverse_exactly_when_the_site_applies(self):
        # sites near the slate: each is refused by both, or undone
        rng = random.Random(73)
        undone = 0
        for _ in range(300):
            d = random_any_diagram(rng, 8)
            slate = whole_slate(d, max_size=d.crossing_count + 2)
            for _ in range(6):
                site = _malformed_site(rng, d, rng.choice(slate))
                try:
                    out = apply_move(d, site)
                except MoveError:
                    with pytest.raises(MoveError):
                        inverse_site(d, site)
                    continue
                assert apply_move(out, inverse_site(d, site)) == d, (d, site)
                undone += 1
        assert undone > 100

    def test_wrapped_insertion_roundtrip(self):
        # the slate never builds wrapped slots: each wrapped slot, first and
        # second, against every other slot of one component and of two
        one = parse_diagram("link n=1\ncomponent 1 closed: a b a b")
        two = parse_diagram("link n=2\ncomponent 1 closed: a b c\ncomponent 2 closed: b a c")
        sites = [MoveSite("R1_insert", names=("w",), slots=((c, 0, True),)) for c in (1, 2)]
        for d in (one, two):
            others = [(c, p, False) for c in range(1, d.n + 1) for p in range(4)]
            others += [(c, 0, True) for c in range(2, d.n + 1)]
            for other, same_order in product(others, (True, False)):
                for slots in (((1, 0, True), other), (other, (1, 0, True))):
                    sites.append(
                        MoveSite("R2_insert", names=("v", "w"), slots=slots, same_order=same_order)
                    )
        for site in sites:
            for d in (one, two):
                if max(c for c, _, _ in site.slots) > d.n:
                    continue
                out = apply_move(d, site)
                assert apply_move(out, inverse_site(d, site)) == d, (d, site)


# each function and its reference
PAIRED = ((apply_move, reference_apply_move), (inverse_site, reference_inverse_site))


def _outcome(f, d, site):
    try:
        return f(d, site)
    except MoveError as err:
        return str(err)


def _malformed_site(rng: random.Random, d, site: MoveSite) -> MoveSite:
    """A site with the right number of names and locations for its kind that
    may not apply to ``d``: ``site`` with one field changed, or one drawn at
    random near ``d``'s components and positions."""
    letters = sorted(d.crossing_names) + ["w1", "w2"]
    if rng.random() < 0.5:
        names, pairs, slots = list(site.names), list(site.pairs), list(site.slots)
        locs = slots or pairs
        change = rng.choice(("component", "position", "name", "order") + ("wrap",) * bool(slots))
        if change == "name":
            names[rng.randrange(len(names))] = rng.choice(letters)
        elif change == "order":
            locs.reverse()
        else:
            k = rng.randrange(len(locs))
            loc = list(locs[k])
            if change == "component":
                loc[0] += rng.choice((-1, 1))
            elif change == "position":
                loc[1] += rng.choice((-2, -1, 1, 2))
            else:
                loc[2] = not loc[2]
            locs[k] = tuple(loc)
        return MoveSite(site.kind, tuple(names), tuple(pairs), tuple(slots), rng.random() < 0.5)
    kind = rng.choice(moves.ALL_KINDS)
    count = moves._TRACE_FIELDS[kind][0]
    locs = []
    for _ in range(count):
        ci = rng.randint(0, d.n + 1)
        size = len(d.components[ci - 1].passes) if 1 <= ci <= d.n else 2
        locs.append((ci, rng.randint(-1, size + 2), rng.random() < 0.5))
    names = tuple(rng.choice(letters) for _ in range(count))
    if kind.endswith("_insert"):
        return MoveSite(kind, names, slots=tuple(locs), same_order=rng.random() < 0.5)
    return MoveSite(kind, names, pairs=tuple(loc[:2] for loc in locs))


class TestReference:
    """``apply_move`` and ``inverse_site`` against the bodies that gave each
    of the first and second moves its own deletion, insertion and inverse."""

    def test_slate_sites_match_reference(self):
        rng = random.Random(61)
        for _ in range(60):
            d = random_any_diagram(rng, 8)
            for forbid in (False, True):
                for site in whole_slate(d, forbid_pure=forbid, max_size=d.crossing_count + 2):
                    for f, g in PAIRED:
                        assert _outcome(f, d, site) == _outcome(g, d, site), (d, site)

    def test_malformed_sites_match_reference(self):
        rng = random.Random(67)
        refused = 0
        for _ in range(400):
            d = random_any_diagram(rng, 8)
            slate = whole_slate(d, max_size=d.crossing_count + 2)
            for _ in range(8):
                site = _malformed_site(rng, d, rng.choice(slate))
                for f, g in PAIRED:
                    got = _outcome(f, d, site)
                    assert got == _outcome(g, d, site), (d, site)
                    refused += isinstance(got, str)
        assert refused > 2000

    @pytest.mark.parametrize(
        "site",
        [
            MoveSite("R1_delete", names=("x", "y"), pairs=((1, 0),)),
            MoveSite("R1_delete", names=("x",), pairs=()),
            MoveSite("R1_delete", names=("x",), slots=((1, 0, False),)),
            MoveSite("R1_insert", names=("w",), slots=((1, 0, False), (1, 1, False))),
            MoveSite("R1_insert", names=(), slots=((1, 0, False),)),
            MoveSite("R2_delete", names=("x", "y"), pairs=((1, 0),)),
            MoveSite("R2_delete", names=("x",), pairs=((1, 0), (1, 2))),
            MoveSite("R2_insert", names=("v", "w"), slots=((1, 0, False),)),
            MoveSite("R2_insert", names=("v", "w", "u"), slots=((1, 0, False), (1, 1, False))),
            MoveSite("R3", names=("x", "y", "z"), pairs=((1, 0), (1, 2))),
            MoveSite("R3", names=("x", "y"), pairs=((1, 0), (1, 2), (1, 4))),
        ],
    )
    def test_wrong_counts_are_move_errors(self, site):
        # each kind takes as many names and locations as a trace line
        d = parse_diagram("link n=1\ncomponent 1 closed: x x y z y z")
        names, locs = moves._TRACE_FIELDS[site.kind]
        field = "slots" if site.kind.endswith("_insert") else "pairs"
        got = len(site.slots if field == "slots" else site.pairs)
        text = f"{site.kind} takes {names} crossing names and {locs} {field}"
        text += f", got {len(site.names)} and {got}"
        for f in (apply_move, inverse_site):
            with pytest.raises(MoveError) as caught:
                f(d, site)
            assert str(caught.value) == text


class TestRandomWalk:
    def test_zero_steps(self, sample_tangle):
        trace = random_walk(sample_tangle, 0, seed=1)
        assert trace.final == sample_tangle
        assert trace.moves == ()

    def test_deterministic(self, sample_tangle):
        a = random_walk(sample_tangle, 30, seed=7)
        b = random_walk(sample_tangle, 30, seed=7)
        assert a == b

    def test_forbid_pure_invariants(self, sample_tangle):
        trace = random_walk(sample_tangle, 100, seed=7, forbid_pure=True, max_size=14)
        assert not trace.final.pure
        assert trace.final.parity == sample_tangle.parity
        current = sample_tangle
        for site in trace.moves:
            current = apply_move(current, site)
            assert not current.pure
        assert current == trace.final

    def test_respects_max_size(self):
        rng = random.Random(2)
        d = random_good_diagram(rng, 3, 4)
        trace = random_walk(d, 60, seed=5, max_size=6)
        current = d
        for site in trace.moves:
            current = apply_move(current, site)
            assert current.crossing_count <= 6

    def test_stops_when_stuck(self):
        d = parse_diagram("tangle n=1\ncomponent 1 open: x x")
        trace = random_walk(d, 10, seed=1, forbid_pure=True, max_size=2)
        # no deletions survive the pure filter and no insertions are allowed
        assert trace.moves == ()

    def test_forbid_pure_from_pure_diagram_never_inserts(self):
        # an insertion keeps the pure crossing k, so none is a candidate
        d = parse_diagram("tangle n=2\ncomponent 1 open: k a k b\ncomponent 2 open: a b")
        for seed in range(20):
            trace = random_walk(d, 10, seed, forbid_pure=True)
            assert all(site.kind != "R2_insert" for site in trace.moves)

    def test_forbid_pure_deletes_every_pure_crossing(self):
        d = parse_diagram(
            "tangle n=2\ncomponent 1 open: p q a q p b\ncomponent 2 open: a b"
        )
        sites = whole_slate(d, forbid_pure=True, max_size=10)
        assert [(s.kind, s.names) for s in sites] == [("R2_delete", ("p", "q"))]
        assert not apply_move(d, sites[0]).pure


def replay_steps(walk):
    """Every diagram a walk passes through, its start first."""
    d = walk.initial
    yield d
    for site in walk.moves:
        d = apply_move(d, site)
        yield d


def slate_diagrams(count: int, seed: int):
    """Good, any and pure diagrams, tangles and links, some with a planted
    third-move site, so that every kind of site is on some slate."""
    rng = random.Random(seed)
    for trial in range(count):
        kind = ("tangle", "link")[trial % 2]
        pick = trial % 3
        if pick == 0:
            d = random_good_diagram(rng, rng.randint(1, 4), 8, kind)
        elif pick == 1:
            d = random_any_diagram(rng, 6, kind)
        else:
            d = random_pure_diagram(rng, rng.randint(2, 3), kind)
        yield plant_triangle(rng, d) if rng.random() < 0.3 else d


class TestSlate:
    """``random_walk`` builds the site it draws alone; these tie it to the
    whole slate that ``_expand`` builds and to the walk that builds it."""

    def test_site_at_each_index_matches_the_slate(self):
        for d in slate_diagrams(90, seed=41):
            for forbid in (True, False):
                for max_size in range(d.crossing_count, d.crossing_count + 3):
                    slate = whole_slate(d, forbid_pure=forbid, max_size=max_size)
                    layout = moves._slate(d, forbid_pure=forbid, max_size=max_size)
                    total = layout.size
                    assert total == len(slate), (d, forbid, max_size)
                    built = [moves._site_at(layout, k) for k in range(total)]
                    assert built == slate, (d, forbid, max_size)
                    with pytest.raises(IndexError):
                        moves._site_at(layout, total)

    def test_walk_never_builds_the_slate(self, monkeypatch):
        def no_slate(*args, **kwargs):
            raise AssertionError("the walk built the whole slate")

        monkeypatch.setattr(moves, "_expand", no_slate)
        for trial, d in enumerate(slate_diagrams(30, seed=53)):
            walk = random_walk(d, 8, trial, forbid_pure=trial % 2 == 0)
            assert replay(d, walk.moves) == walk.final

    def test_walk_matches_reference_walk(self):
        rng = random.Random(43)
        for trial, d in enumerate(slate_diagrams(300, seed=47)):
            forbid = trial % 2 == 0
            max_size = None if trial % 3 else d.crossing_count + rng.randint(0, 2)
            options = dict(forbid_pure=forbid, max_size=max_size)
            seed = rng.randrange(10**6)
            walk = random_walk(d, 8, seed, **options)
            assert walk == reference_random_walk(d, 8, seed, **options), (d, options)

class TestBoundedSearch:
    def test_reflexive(self, sample_tangle):
        verdict = bounded_equivalence_search(sample_tangle, sample_tangle, 0)
        assert verdict.equivalent
        assert verdict.trace.moves == ()

    def test_bigon_to_circle(self):
        a = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
        b = parse_diagram("link n=1\ncomponent 1 closed:")
        verdict = bounded_equivalence_search(a, b, 1)
        assert verdict.equivalent
        assert len(verdict.trace.moves) == 1
        assert canonical_key(replay(a, verdict.trace.moves)) == canonical_key(b)

    def test_triangle_r3_image(self, triangle):
        (site,) = enumerate_moves(triangle)
        image = apply_move(triangle, site)
        verdict = bounded_equivalence_search(triangle, image, 1)
        assert verdict.equivalent
        assert len(verdict.trace.moves) == 1

    def test_mismatched_kinds_refused(self):
        link = parse_diagram("link n=1\ncomponent 1 closed: x x")
        tangle = parse_diagram("tangle n=1\ncomponent 1 open: x x")
        with pytest.raises(MoveError) as err:
            bounded_equivalence_search(link, tangle, 2)
        assert str(err.value) == "mismatched kinds: link vs tangle"

    def test_component_count_mismatch(self, sample_tangle, triangle):
        bad = parse_diagram("tangle n=1\ncomponent 1 open:")
        with pytest.raises(MoveError, match="component counts"):
            bounded_equivalence_search(sample_tangle, bad, 1)

    def test_unknown_within_depth(self, sample_tangle, trivial_tangle):
        verdict = bounded_equivalence_search(sample_tangle, trivial_tangle, 1)
        assert not verdict.equivalent
        assert verdict.trace is None

    def test_two_step_path(self):
        a = parse_diagram("tangle n=1\ncomponent 1 open: x x y y")
        b = parse_diagram("tangle n=1\ncomponent 1 open:")
        assert not bounded_equivalence_search(a, b, 1).equivalent
        verdict = bounded_equivalence_search(a, b, 2)
        assert verdict.equivalent
        assert len(verdict.trace.moves) == 2

    def test_four_step_path_meets_in_the_middle(self):
        # two moves grown from each end, so both halves of the trace have two
        a = parse_diagram("tangle n=1\ncomponent 1 open: x x y y z z w w")
        b = parse_diagram("tangle n=1\ncomponent 1 open:")
        for start, end in ((a, b), (b, a)):
            assert not bounded_equivalence_search(start, end, 3).equivalent
            verdict = bounded_equivalence_search(start, end, 4)
            assert verdict.equivalent
            assert len(verdict.trace.moves) == 4
            assert canonical_key(replay(start, verdict.trace.moves)) == canonical_key(end)

    def test_matches_one_sided_reference(self):
        # pairs a 1-3 move walk apart, each searched both ways so that the
        # larger diagram is sometimes the target; small enough that the
        # reference never reaches its node cap
        rng = random.Random(29)
        found = 0
        for trial in range(80):
            forbid = trial % 2 == 1
            if forbid:
                d = random_good_diagram(rng, rng.randint(2, 3), 4)
            else:
                d = random_any_diagram(rng, 3)
            walk = random_walk(
                d,
                rng.randint(1, 3),
                seed=trial,
                forbid_pure=forbid,
                max_size=d.crossing_count + 2,
            )
            moved = scramble(rng, walk.final)
            depth = rng.randint(1, 2)
            for a, b in ((d, moved), (moved, d)):
                expected = reference_search(a, b, depth, forbid_pure=not a.pure and not b.pure)
                verdict = bounded_equivalence_search(a, b, depth)
                assert verdict.equivalent == expected.equivalent, (a, b, depth, forbid)
                if verdict.equivalent:
                    found += 1
                    assert len(verdict.trace.moves) <= depth
                    assert canonical_key(replay(a, verdict.trace.moves)) == canonical_key(b)
        assert 100 <= found < 160

    def test_moves_come_from_the_inputs(self, monkeypatch, sample_tangle, trivial_tangle):
        # between inputs without pure crossings the search keeps to
        # restricted moves, so no diagram it builds has a pure crossing
        built = []
        apply = moves.apply_move

        def building(d, site):
            built.append(apply(d, site))
            return built[-1]

        monkeypatch.setattr(moves, "apply_move", building)
        assert bounded_equivalence_search(sample_tangle, trivial_tangle, 5).reason == "depth"
        assert built and not any(d.pure for d in built)
        # an input with pure crossings gets every move, first moves among them
        kink = parse_diagram((DATA / "kink.link").read_text())
        circle = parse_diagram("link n=1\ncomponent 1 closed:")
        verdict = bounded_equivalence_search(kink, circle, 1)
        assert verdict.equivalent
        assert serialize_trace(verdict.trace) == "R1_delete x 1:0\n"

    def test_partners_are_built_once_per_diagram(self, monkeypatch):
        # a pair one third move apart, with equal pass counts: the start and
        # each neighbour of A are tested against B, whose partners are built
        # once all the same
        prop = Diagram.__dict__["partners"]
        build, built = prop.func, []
        monkeypatch.setattr(prop, "func", lambda d: built.append(d) or build(d))
        a = parse_diagram((DATA / "triangle.tangle").read_text())
        b = parse_diagram((DATA / "triangle_moved.tangle").read_text())
        verdict = bounded_equivalence_search(a, b, 1)
        assert verdict.reason == "found" and len(verdict.trace.moves) == 1
        assert any(d is a for d in built) and any(d is b for d in built)
        # the list holds every diagram, so no two of them share an id
        assert len({id(d) for d in built}) == len(built)


def _walk_pairs(rng: random.Random, count: int):
    """Diagrams without pure crossings and a scrambled copy of the end of a
    1-4 move walk from each, restricted or not, in both orders."""
    for trial in range(count):
        forbid = trial % 2 == 1
        d = random_good_diagram(rng, rng.randint(2, 3), 4)
        walk = random_walk(
            d, rng.randint(1, 4), seed=trial, forbid_pure=forbid, max_size=d.crossing_count + 2
        )
        moved = scramble(rng, walk.final)
        yield d, moved, forbid
        yield moved, scramble(rng, d), forbid


class TestSearchBound:
    def test_bound_matches_fresh_count(self):
        rng = random.Random(41)
        for _ in range(200):
            x = random_any_diagram(rng, 6)
            y = random_any_diagram(rng, 6, kind=x.kind)
            if x.n == y.n:
                assert move_lower_bound(x, y) == reference_move_lower_bound(x, y)

    def test_bound_is_at_most_the_walk_length(self):
        rng = random.Random(43)
        for forbid in (False, True):
            for trial in range(60):
                d = random_good_diagram(rng, rng.randint(2, 4), 6)
                walk = random_walk(d, 6, seed=trial, forbid_pure=forbid)
                current = d
                for k, site in enumerate(walk.moves, start=1):
                    current = apply_move(current, site)
                    assert move_lower_bound(d, current) <= k
                    assert move_lower_bound(current, d) <= k

    def test_site_step_matches_recomputed_bound(self):
        rng = random.Random(47)
        for forbid in (False, True):
            for _ in range(30):
                d = random_good_diagram(rng, rng.randint(2, 3), 4)
                if not forbid:
                    d = random_walk(d, 2, seed=rng.randrange(100)).final
                goal = random_walk(d, 3, seed=rng.randrange(100), forbid_pure=forbid).final
                here, there = d.pair_counts, goal.pair_counts
                h = move_lower_bound(d, goal)
                for site in whole_slate(d, forbid_pure=forbid, max_size=d.crossing_count + 2):
                    after = move_lower_bound(apply_move(d, site), goal)
                    assert moves._bound_step(here, there, site) == after - h

    def test_expansion_keeps_exactly_the_sites_within_the_bound(self):
        # the bounded expansion against the whole slate filtered by the
        # recomputed bound of each result: same sites, same order, and a
        # drop reported exactly when the filter drops a site
        outcomes = set()
        for trial, d in enumerate(slate_diagrams(60, seed=61)):
            goal = random_walk(d, 4, seed=trial, max_size=d.crossing_count + 4).final
            there = goal.pair_counts
            h = move_lower_bound(d, goal)
            for forbid in (True, False):
                for max_size in range(d.crossing_count, d.crossing_count + 3):
                    options = dict(forbid_pure=forbid, max_size=max_size)
                    bounds = [
                        (site, move_lower_bound(apply_move(d, site), goal))
                        for site in whole_slate(d, **options)
                    ]
                    for budget in (h - 1, h, h + 1):
                        out = list(moves._expand(d, goal=there, budget=budget, **options))
                        kept = [site for site, bound in bounds if bound <= budget]
                        case = (d, goal, options, budget)
                        assert [site for site in out if site is not None] == kept, case
                        assert (None in out) == (len(kept) < len(bounds)), case
                        outcomes.add((bool(kept), len(kept) < len(bounds)))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_one_move_run_lists_and_builds_only_what_the_bound_keeps(
        self, monkeypatch, four_component_link
    ):
        # the four-component link with a bigon x y ... y x on components 1
        # and 2: from it, the run of limit 1 can keep only a second-move
        # deletion, so it asks for no third-move site and builds no insertion
        bigon = parse_diagram(
            "link n=4\n"
            "component 1 closed: x y c1 b1 c2 a1 c3 a2 b2 c4\n"
            "component 2 closed: c1 c2 c3 c4 d1 d2 e1 y x e2\n"
            "component 3 closed: a1 a2 d1 d2\n"
            "component 4 closed: b1 b2 e1 e2\n"
        )
        asked, built = [], []
        enumerate_, site = moves.enumerate_moves, moves.MoveSite

        def listing(d, **kw):
            asked.append(kw.get("kinds"))
            return enumerate_(d, **kw)

        def building(kind, **kw):
            built.append(kind)
            return site(kind, **kw)

        monkeypatch.setattr(moves, "enumerate_moves", listing)
        monkeypatch.setattr(moves, "MoveSite", building)
        verdict = bounded_equivalence_search(bigon, four_component_link, 1)
        assert verdict.reason == "found" and len(verdict.trace.moves) == 1
        assert asked and all(kinds is not None and "R3" not in kinds for kinds in asked)
        assert "R2_insert" not in built

    def test_reason_bound_answers_before_any_move(self, monkeypatch):
        def no_moves(*args, **kwargs):
            raise AssertionError("the search expanded a diagram")

        monkeypatch.setattr(moves, "_slate", no_moves)
        assert move_lower_bound(FAR_A, FAR_B) == 5
        verdict = bounded_equivalence_search(FAR_A, FAR_B, 4)
        assert (verdict.equivalent, verdict.reason) == (False, "bound")

    def test_search_builds_the_slate(self, monkeypatch):
        calls = []
        slate = moves._slate

        def counting(*args, **kwargs):
            calls.append(args)
            return slate(*args, **kwargs)

        monkeypatch.setattr(moves, "_slate", counting)
        a = parse_diagram("tangle n=1\ncomponent 1 open: x x y y")
        b = parse_diagram("tangle n=1\ncomponent 1 open:")
        assert bounded_equivalence_search(a, b, 2).equivalent
        assert calls

    def test_reason_depth_then_found(self):
        a = parse_diagram("tangle n=1\ncomponent 1 open: x x y y")
        b = parse_diagram("tangle n=1\ncomponent 1 open:")
        assert bounded_equivalence_search(a, b, 1).reason == "depth"
        verdict = bounded_equivalence_search(a, b, 2)
        assert (verdict.equivalent, verdict.reason) == (True, "found")

    def test_reason_cap(self, monkeypatch):
        monkeypatch.setattr(moves, "MAX_NODES", 3)
        a = parse_diagram("tangle n=1\ncomponent 1 open: x x y y z z w w")
        b = parse_diagram("tangle n=1\ncomponent 1 open:")
        verdict = bounded_equivalence_search(a, b, 4)
        assert (verdict.equivalent, verdict.reason) == (False, "cap")

    def test_reason_exhausted_at_any_depth(self):
        for depth in (10, 10**9):
            start = time.perf_counter()
            verdict = bounded_equivalence_search(APART_A, APART_B, depth)
            assert time.perf_counter() - start < 1.0
            assert (verdict.equivalent, verdict.reason) == (False, "exhausted")

    def test_one_move_search_keys_nothing(self, monkeypatch, four_component_link):
        # a run with limit 1 tests each neighbour of A against B alone: the
        # other side holds nothing but B, so no key could ever be looked up
        keyed = []
        key = freelinks.diagram.canonical_key
        monkeypatch.setattr(freelinks.diagram, "canonical_key", lambda d: keyed.append(d) or key(d))
        rng = random.Random(157)
        # B is A with a bigon x y ... y x inserted, so A's side tries many
        # insertions first; and a link with three third-move sites, moved by
        # its last
        bigon = parse_diagram(
            "link n=4\n"
            "component 1 closed: x y c1 b1 c2 a1 c3 a2 b2 c4\n"
            "component 2 closed: c1 c2 c3 c4 d1 d2 e1 y x e2\n"
            "component 3 closed: a1 a2 d1 d2\n"
            "component 4 closed: b1 b2 e1 e2\n"
        )
        triangles = parse_diagram(
            "link n=3\n"
            "component 1 closed: x y a u v\n"
            "component 2 closed: x z b u w a\n"
            "component 3 closed: y z v w b\n"
        )
        moved = apply_move(triangles, enumerate_moves(triangles, kinds=("R3",))[-1])
        for a, b in ((four_component_link, bigon), (triangles, moved)):
            b = scramble(rng, b)
            keyed.clear()
            verdict = bounded_equivalence_search(a, b, 1)
            assert keyed == []
            assert verdict.reason == "found" and len(verdict.trace.moves) == 1
            assert replay(a, verdict.trace.moves).key == b.key

    def test_one_move_run_is_exhausted_unkeyed(self, monkeypatch):
        # the run with limit 1 alone, from links with third-move sites only,
        # toward the tangle of the same codes, which has their pair counts:
        # no insertion fits the size, so the run drops no move.  Each third
        # move of the first link reverses a pair on a closed component of
        # length 2, a rotation, so every neighbour is A itself and the side
        # is exhausted; the second link has new neighbours
        keyed = []
        key = freelinks.diagram.canonical_key
        monkeypatch.setattr(freelinks.diagram, "canonical_key", lambda d: keyed.append(d) or key(d))
        for codes, exhausted in (
            ("x y|x z|y z", True),
            ("x y a u v|x z b u w a|y z v w b", False),
        ):
            lines = [f"component {i} {{}}: {code}" for i, code in enumerate(codes.split("|"), 1)]
            text = "\n".join([f"{{}} n={len(lines)}", *lines])
            a = parse_diagram(text.format("link", *["closed"] * len(lines)))
            b = parse_diagram(text.format("tangle", *["open"] * len(lines)))
            neighbors = [apply_move(a, site) for site in enumerate_moves(a)]
            assert neighbors and all(site.kind == "R3" for site in enumerate_moves(a))
            assert all(d.key == a.key for d in neighbors) == exhausted
            keyed.clear()
            goals = (b.pair_counts, a.pair_counts)
            verdict = moves._search_run(a, b, goals, 1, True, a.crossing_count)
            assert keyed == []
            if exhausted:
                assert (verdict.equivalent, verdict.reason) == (False, "exhausted")
            else:
                assert verdict is None

    def test_prunes_exactly_the_moves_over_the_bound(self, monkeypatch):
        # bound 1 and two moves apart: the run with limit 2 tries, from each
        # end, just the moves whose result has bound at most 1 to the other
        a = parse_diagram("tangle n=1\ncomponent 1 open: x x y y")
        b = parse_diagram("tangle n=1\ncomponent 1 open:")
        tried = []
        apply = moves.apply_move
        monkeypatch.setattr(moves, "apply_move", lambda d, s: tried.append((d, s)) or apply(d, s))
        assert bounded_equivalence_search(a, b, 2).equivalent
        for end, other in ((a, b), (b, a)):
            kept = [
                site
                for site in whole_slate(end, max_size=4)
                if move_lower_bound(apply(end, site), other) <= 1
            ]
            sites = {site for d, site in tried if d is end}
            assert sites <= set(kept)
            if end is a:
                assert sites == set(kept)

    def test_answer_is_that_of_the_runs_in_turn(self, monkeypatch):
        # scripted runs: limit L finds a trace from `dist` on and reaches the
        # cap from `capped` on, as the runs of a real search do
        a = parse_diagram("tangle n=1\ncomponent 1 open: x x y y")
        b = parse_diagram("tangle n=1\ncomponent 1 open:")
        for dist in range(1, 7):
            for capped in range(1, 7):

                def outcome(limit):
                    if limit >= capped:
                        return SearchVerdict(False, reason="cap")
                    if limit >= dist:
                        return SearchVerdict(True, reason="found")
                    return None

                runs = []
                monkeypatch.setattr(
                    moves, "_search_run", lambda *args: runs.append(args[3]) or outcome(args[3])
                )
                verdict = bounded_equivalence_search(a, b, 5)
                first = next(filter(None, map(outcome, range(1, 6))), None)
                assert verdict.reason == (first.reason if first else "depth"), (dist, capped)
                assert len(runs) == len(set(runs))

    def test_matches_unpruned_search(self, monkeypatch):
        # also: no run applies a move to an end whose result has a bound of
        # depth or more to the other end
        tried = []
        apply = moves.apply_move
        monkeypatch.setattr(moves, "apply_move", lambda d, s: tried.append((d, s)) or apply(d, s))
        rng = random.Random(53)
        found = bounded = 0
        for a, b, forbid in _walk_pairs(rng, 120):
            depth = rng.randint(0, 3 if a.crossing_count + b.crossing_count <= 8 else 2)
            restricted = not a.pure and not b.pure
            expected = reference_bidirectional_search(a, b, depth, forbid_pure=restricted)
            tried.clear()
            verdict = bounded_equivalence_search(a, b, depth)
            if not verdict.equivalent:
                # a found trace is joined by unpruned moves, so only here
                for d, site in tried:
                    for end, other in ((a, b), (b, a)):
                        if d is end:
                            assert move_lower_bound(apply(end, site), other) < depth
            if expected.reason == "cap":
                continue
            assert verdict.equivalent == expected.equivalent, (a, b, depth, forbid)
            assert verdict.trace == expected.trace
            assert (verdict.reason == "bound") == (reference_move_lower_bound(a, b) > depth)
            if verdict.equivalent:
                found += 1
                assert verdict.reason == "found"
                assert len(verdict.trace.moves) <= depth
            else:
                bounded += verdict.reason == "bound"
                assert verdict.reason in ("bound", "depth", "exhausted")
        assert found >= 20 and bounded >= 5, (found, bounded)

    def test_invalid_start_is_refused_unkeyed(self):
        # y occurs once; the pass counts differ, so the start is never keyed,
        # and the bound answers before any move
        a = Diagram("link", (ComponentCode(True, ("x", "x", "y")),))
        with pytest.raises(DiagramError, match="crossing y"):
            bounded_equivalence_search(a, parse_diagram("link n=1\ncomponent 1 closed:"), 0)

    def test_start_with_a_neighbour_of_its_own_key(self, monkeypatch):
        # a start with third-move sites, one giving it again up to renaming,
        # rotation and reversal, and an end that another and a second move
        # reach, so that a run expands the third moves: the search never
        # keys the start, finds that neighbour to repeat it by testing it
        # against the start, and answers as the search that keys it first
        keyed, repeats = [], []
        key, isomorphic = freelinks.diagram.canonical_key, moves._isomorphic
        monkeypatch.setattr(freelinks.diagram, "canonical_key", lambda d: keyed.append(d) or key(d))

        def tested(x, y):
            same = isomorphic(x, y)
            repeats.append(same and y is a and x is not a)
            return same

        monkeypatch.setattr(moves, "_isomorphic", tested)
        rng = random.Random(67)
        pairs = 0
        while pairs < 24:
            d = plant_triangle(rng, random_good_diagram(rng, 3, rng.choice((0, 2, 4)), "link"))
            thirds = [apply_move(d, s) for s in enumerate_moves(d, kinds=("R3",))]
            others = [x for x in thirds if x.key != d.key]
            if len(others) == len(thirds) or not others:
                continue
            forbid = not d.pure and pairs % 4 < 2
            moved = rng.choice(others)
            seconds = [
                site
                for site in whole_slate(moved, forbid_pure=forbid, max_size=moved.crossing_count + 2)
                if site.kind == "R2_insert"
            ]
            end = scramble(rng, apply_move(moved, rng.choice(seconds)))
            for a, b in ((d, end), (end, d)):
                # fresh copies, with no key cached
                a, b = Diagram(a.kind, a.components), Diagram(b.kind, b.components)
                restricted = not a.pure and not b.pure
                expected = reference_bidirectional_search(a, b, 2, forbid_pure=restricted)
                keyed.clear()
                repeats.clear()
                verdict = bounded_equivalence_search(a, b, 2)
                assert (verdict.equivalent, verdict.trace, verdict.reason) == (
                    expected.equivalent,
                    expected.trace,
                    expected.reason,
                ), (a, b, forbid)
                assert not any(x is a for x in keyed)
                # from d, the run of limit 2 expands its third moves
                assert any(repeats) or a.components != d.components
                pairs += 1

    def test_larger_depth_never_loses_an_answer(self, monkeypatch):
        # with this cap, a single run of limit d + 1 reaches the cap on six
        # of these pairs where the run of limit d finds a trace
        monkeypatch.setattr(moves, "MAX_NODES", 150)
        rng = random.Random(59)
        for a, b, forbid in _walk_pairs(rng, 40):
            answers = [
                bounded_equivalence_search(a, b, depth).equivalent
                for depth in range(1, 6)
            ]
            assert answers == sorted(answers), (a, b, forbid)


def descent_inputs(rng: random.Random, count: int) -> list[Diagram]:
    """``count`` random diagrams without pure crossings, 2-5 components,
    tangles and links, half of them in good condition and some with a
    planted third-move site, each followed by the end of a restricted walk
    from it."""
    out = []
    while len(out) < count:
        kind = rng.choice(("tangle", "link"))
        n = rng.randint(2, 5)
        # closed components multiply the naive key's product, so links are
        # kept smaller than tangles
        most = 12 if kind == "tangle" else 8
        if rng.random() < 0.5:
            d = random_good_diagram(rng, n, most, kind)
        else:
            d = random_mixed_diagram(rng, n, rng.randint(2, most - 2), kind)
        if n >= 3 and rng.random() < 0.5:
            planted = plant_triangle(rng, d)
            if not planted.pure:
                d = planted
        walk = random_walk(
            d,
            rng.randint(1, 6),
            rng.randrange(10**6),
            forbid_pure=True,
            max_size=d.crossing_count + 4,
        )
        out += [d, walk.final]
    return out


class TestDescent:
    def test_representative_matches_reference(self):
        inputs = descent_inputs(random.Random(41), 240)
        closures = 0
        for d in inputs:
            end = moves._descend(d)
            assert end is not None
            assert end[0] == reference_descent(d), d
            closures += any(site and site.kind == "R3" for _, _, site in end[1].values())
        # the third-move closures are exercised, not only the deletions
        assert closures >= 20

    def test_equal_traces_replay_to_the_other_key(self):
        rng = random.Random(43)
        joined = 0
        inputs = descent_inputs(rng, 160)
        for a, b in zip(inputs[::2], inputs[1::2]):
            b = scramble(rng, b)
            trace = join_by_descent(a, b)
            if trace is None:
                continue
            joined += 1
            assert trace.initial is a
            assert replay(a, trace.moves).key == b.key == trace.final.key
            assert replay(a, parse_trace(serialize_trace(trace))).key == b.key
        assert joined >= 75

    def test_far_unlinks_are_joined(self):
        # five moves apart, and no search of depth 4 joins them
        trace = join_by_descent(FAR_A, FAR_B)
        assert [m.kind for m in trace.moves] == ["R2_delete"] * 3 + ["R2_insert"] * 2
        # each deletion is the first that enumerate_moves lists
        current = FAR_A
        for site in trace.moves[:3]:
            assert site == enumerate_moves(current, kinds=("R2_delete",), forbid_pure=True)[0]
            current = apply_move(current, site)
        assert replay(FAR_A, trace.moves).key == FAR_B.key
        assert not bounded_equivalence_search(FAR_A, FAR_B, 4).equivalent

    def test_different_representatives_join_nothing(self):
        # their exact tangle words differ, so they are not equivalent; the
        # descent deletes A's one bigon and finds no move on B
        a = parse_diagram(
            "tangle n=3\ncomponent 1 open: c4 c2 c1 c3\ncomponent 2 open: c5 c6 c8 c7\n"
            "component 3 open: c1 c8 c3 c5 c4 c2 c7 c6"
        )
        b = parse_diagram(
            "tangle n=3\ncomponent 1 open: c2 c3 c1 c4\ncomponent 2 open: c6 c7 c8 c5\n"
            "component 3 open: c6 c8 c1 c5 c3 c7 c2 c4"
        )
        assert moves._descend(a)[0] != moves._descend(b)[0]
        assert join_by_descent(a, b) is None

    def test_cap_gives_no_representative(self, monkeypatch, triangle):
        # the triangle has a third move and no bigon, so its closure holds
        # two diagrams
        assert moves._descend(triangle)[0] == reference_descent(triangle)
        monkeypatch.setattr(moves, "MAX_CLOSURE", 2)
        assert moves._descend(triangle) is None
        assert reference_descent(triangle, cap=2) is None
        moved = apply_move(triangle, enumerate_moves(triangle, kinds=("R3",))[0])
        assert join_by_descent(triangle, moved) is None

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (FAR_A, APART_A, "cannot join"),
            (KINK, parse_diagram("link n=1\ncomponent 1 closed:"), "without pure crossings"),
        ],
    )
    def test_refuses_inputs_it_cannot_join(self, a, b, message):
        with pytest.raises(MoveError, match=message):
            join_by_descent(a, b)


class TestTraceFormat:
    def test_roundtrip(self, sample_tangle):
        trace = random_walk(sample_tangle, 40, seed=9, max_size=12)
        text = serialize_trace(trace)
        assert parse_trace(text) == list(trace.moves)
        assert replay(trace.initial, parse_trace(text)) == trace.final

    def test_byte_order_mark_is_dropped(self):
        text = "R3 x y z 1:0 2:0 3:0\n"
        sites = parse_trace(text)
        assert parse_trace("\ufeff" + text) == sites
        assert parse_trace(b"\xef\xbb\xbf" + text.encode()) == sites
        with pytest.raises(ParseError) as caught:
            parse_trace(b"\xef\xbb\xbf" + text.encode() + b"\xff")
        assert str(caught.value) == "input is not UTF-8 (invalid start byte at byte 24) (line 2)"

    @pytest.mark.parametrize("mark", SPLITLINES_ONLY_BREAKS)
    def test_only_cr_and_lf_end_lines(self, mark):
        text = f"# the move{mark}after\nR3 x y z 1:0 2:0 3:0  # {mark}R1_delete{mark}\n"
        assert parse_trace(text) == parse_trace("R3 x y z 1:0 2:0 3:0\n")
        with pytest.raises(ParseError) as caught:
            parse_trace(f"# {mark}\r\n# {mark}\rR3 x y z 1:0 2:0\n")
        assert caught.value.line == 3

    @pytest.mark.parametrize("name", ["a-b", "a,b", "é"])
    def test_rejects_names_a_diagram_cannot_hold(self, name):
        with pytest.raises(ParseError, match="invalid crossing name") as caught:
            parse_trace(f"R3 x y z 1:0 2:0 3:0\nR1_insert {name} 1:0\n")
        assert caught.value.line == 2

    def test_replay_rejects_stale_trace(self, sample_tangle, triangle):
        trace = random_walk(sample_tangle, 10, seed=3)
        if not trace.moves:
            pytest.skip("walk recorded no moves")
        with pytest.raises(MoveError):
            replay(triangle, list(trace.moves))
