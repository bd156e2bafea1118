import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freelinks.invariant as invariant
from freelinks.diagram import Basepoint, ComponentCode, Diagram, DiagramError, cut_link, parse_diagram
from freelinks.invariant import (
    InvariantError,
    fingerprint,
    link_invariant,
    link_word,
    lk,
    lk_vector,
    word_invariant,
    word_table,
)
from freelinks.moves import apply_move, enumerate_moves, random_walk
from freelinks.words import (
    GroupContext,
    _indices_word,
    canonical_class_word,
    conjugate_equal,
    letter_index,
    make_word,
    reduce,
    render_word,
    slide,
    slide_conjugacy_equal,
)

from genutil import (
    fuzz_walk_diagrams,
    random_good_diagram,
    reference_class_word,
    reference_fingerprint,
    reference_letters,
    reference_word_table,
)


class TestLk:
    def test_first_crossing_is_zero(self, sample_tangle):
        assert lk(sample_tangle, "a", 3) == 0

    def test_counts_both_strands(self, sample_tangle):
        # one (1,3) pass before d on strand 1, two (2,3) passes before d on strand 2
        assert lk(sample_tangle, "d", 3) == 1

    def test_empty_prefixes(self):
        d = parse_diagram(
            "tangle n=3\ncomponent 1 open: a a2\ncomponent 2 open: a a2\ncomponent 3 open:"
        )
        assert lk(d, "a", 3) == 0

    def test_rejects_k_on_strand(self, sample_tangle):
        with pytest.raises(InvariantError, match="strands"):
            lk(sample_tangle, "a", 1)

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_k_out_of_range(self, sample_tangle, k):
        with pytest.raises(InvariantError) as err:
            lk(sample_tangle, "a", k)
        assert str(err.value) == f"component {k} out of range 1..3"

    def test_rejects_closed_component(self, sample_closure):
        with pytest.raises(InvariantError, match="closed"):
            lk(sample_closure, "a", 3)

    def test_rejects_pure_crossings(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: x x a\ncomponent 2 open: a b b")
        with pytest.raises(InvariantError, match="pure"):
            lk(d, "a", 1)

    def test_unknown_crossing(self, sample_tangle):
        with pytest.raises(InvariantError, match="unknown"):
            lk(sample_tangle, "zz", 3)


class TestLkVector:
    def test_sample_values(self, sample_tangle):
        assert lk_vector(sample_tangle, "a") == (0,)
        assert lk_vector(sample_tangle, "d") == (1,)

    def test_two_strand_letter_is_empty(self):
        d = parse_diagram("tangle n=2\ncomponent 1 open: a b\ncomponent 2 open: a b")
        assert lk_vector(d, "a") == ()


class TestWordInvariant:
    def test_pair_12(self, sample_tangle):
        assert word_invariant(sample_tangle, 1, 2).letters == ((0,), (1,))

    def test_pair_13_cancels(self, sample_tangle):
        assert word_invariant(sample_tangle, 1, 3).letters == ()

    def test_trivial_tangle(self, trivial_tangle):
        for i, j in ((1, 2), (2, 1), (1, 3), (2, 3)):
            assert word_invariant(trivial_tangle, i, j).letters == ()

    def test_good_condition_error_names_pair(self, triangle):
        with pytest.raises(InvariantError, match=r"\(1, 2\)"):
            word_invariant(triangle, 1, 2)

    def test_equal_pair_rejected(self, sample_tangle):
        with pytest.raises(InvariantError, match="distinct"):
            word_invariant(sample_tangle, 2, 2)

    def test_result_is_reduced(self):
        rng = random.Random(3)
        for _ in range(40):
            d = random_good_diagram(rng, rng.randint(2, 5), 10)
            for (i, j), w in word_table(d).items():
                assert reduce(w) == w

    def test_two_strand_words_vanish(self):
        # with no third strand the letters are all equal, and good condition
        # makes the letter count even
        rng = random.Random(5)
        for _ in range(30):
            d = random_good_diagram(rng, 2, 8)
            assert word_invariant(d, 1, 2).letters == ()


class TestLinkWord:
    def test_offset_zero_matches_tangle(self, sample_closure, sample_tangle):
        points = [Basepoint(i, 0) for i in (1, 2, 3)]
        assert link_word(sample_closure, points, 1, 2) == word_invariant(sample_tangle, 1, 2)

    def test_moving_past_third_strand_crossing_slides(self, sample_closure):
        base = link_word(sample_closure, [Basepoint(1, 0), Basepoint(2, 0), Basepoint(3, 0)], 1, 2)
        moved = link_word(sample_closure, [Basepoint(1, 3), Basepoint(2, 0), Basepoint(3, 0)], 1, 2)
        assert moved == slide(base, 3)

    def test_moving_past_pair_crossing_conjugates(self, sample_closure, sample_tangle):
        base = link_word(sample_closure, [Basepoint(1, 0), Basepoint(2, 0), Basepoint(3, 0)], 1, 2)
        moved = link_word(sample_closure, [Basepoint(1, 1), Basepoint(2, 0), Basepoint(3, 0)], 1, 2)
        first = lk_vector(sample_tangle, "a")
        conjugated = reduce(
            make_word(base.context, (first,) + base.letters + (first,))
        )
        assert moved == conjugated
        assert conjugate_equal(moved, base)

    def test_rejects_tangle(self, sample_tangle):
        with pytest.raises(InvariantError, match="link"):
            link_word(sample_tangle, [Basepoint(1, 0)] * 3, 1, 2)


class TestLinkInvariant:
    def test_rejects_tangle_by_name(self, sample_tangle):
        with pytest.raises(InvariantError, match=r"^link_invariant expects a link$"):
            link_invariant(sample_tangle, 1, 2)

    def test_four_component_example(self, four_component_link):
        value = link_invariant(four_component_link, 1, 2)
        expected = canonical_class_word(
            make_word(value.context, [(0, 1), (1, 1)])
        )
        assert value == expected
        assert value.letters != ()  # the link is not trivial

    def test_unlink_is_trivial(self):
        d = parse_diagram("link n=2\ncomponent 1 closed:\ncomponent 2 closed:")
        assert link_invariant(d, 1, 2).letters == ()

    def test_sample_closure_nonempty(self, sample_closure):
        value = link_invariant(sample_closure, 1, 2)
        assert value == canonical_class_word(make_word(value.context, [(0,), (1,)]))
        assert value.letters != ()

    def test_basepoint_independence(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 4)
            d = random_good_diagram(rng, n, 10, kind="link")
            points_a = [Basepoint(i, rng.randint(0, len(d.components[i - 1]))) for i in range(1, n + 1)]
            points_b = [Basepoint(i, rng.randint(0, len(d.components[i - 1]))) for i in range(1, n + 1)]
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    u = link_word(d, points_a, i, j)
                    v = link_word(d, points_b, i, j)
                    assert slide_conjugacy_equal(u, v), (d, points_a, points_b, i, j)


    def test_is_the_offset_zero_class_word(self):
        # the fingerprint entry equals the class word of the offset-0 cut,
        # also with one closed component stored reversed
        rng = random.Random(23)
        links = 0
        while links < 200:
            d = random_good_diagram(rng, rng.randint(2, 5), 12, kind="link")
            k = rng.randrange(d.n)
            comps = list(d.components)
            comps[k] = ComponentCode(True, comps[k].passes[::-1])
            for e in (d, Diagram("link", tuple(comps))):
                links += 1
                origin = [Basepoint(c, 0) for c in range(1, e.n + 1)]
                for i, j in product(range(1, e.n + 1), repeat=2):
                    if i != j:
                        expected = canonical_class_word(link_word(e, origin, i, j), undirected=True)
                        assert link_invariant(e, i, j) == expected, (e, i, j)


class TestFingerprint:
    def test_sample_values(self, sample_tangle):
        fp = fingerprint(sample_tangle)
        assert render_word(fp[((1, 2), 1)]) == "(0)·(1)"
        assert fp[((1, 3), 1)].letters == ()
        assert render_word(fp[((2, 3), 2)]) == "(0)·(1)"
        assert set(fp) == {
            ((i, j), along)
            for i in (1, 2)
            for j in range(i + 1, 4)
            for along in (i, j)
        }

    def test_trivial_all_empty(self, trivial_tangle):
        assert all(w.letters == () for w in fingerprint(trivial_tangle).values())

    def test_distinguishes_sample_from_trivial(self, sample_tangle, trivial_tangle):
        assert fingerprint(sample_tangle) != fingerprint(trivial_tangle)

    def test_link_fingerprint_uses_classes(self, four_component_link):
        fp = fingerprint(four_component_link)
        assert fp[((1, 2), 1)] == link_invariant(four_component_link, 1, 2)

    def test_link_is_read_without_a_cut(self, monkeypatch, four_component_link):
        def refuse(*args):
            raise AssertionError("fingerprint cut the link")

        monkeypatch.setattr(invariant, "cut_link", refuse)
        assert fingerprint(four_component_link) == reference_fingerprint(four_component_link)

    def test_link_with_open_component_is_invalid(self):
        # the link itself is validated, so no cut hides its open component
        d = Diagram(
            "link", (ComponentCode(False, ("a", "b")), ComponentCode(True, ("a", "b")))
        )
        with pytest.raises(DiagramError, match="open component in a link"):
            fingerprint(d)


def _kernel_cases():
    """300 random good tangles and links with 2 to 6 components, each with
    the diagrams of a short restricted walk from it."""
    rng = random.Random(29)
    for serial in range(300):
        n = 2 + serial % 5
        d = random_good_diagram(rng, n, 14, kind=("tangle", "link")[serial // 5 % 2])
        yield d
        walk = random_walk(d, 3, seed=serial, forbid_pure=True)
        for site in walk.moves:
            d = apply_move(d, site)
            yield d


class TestWordKernel:
    """The kernel on letter indices against the bit-tuple references."""

    def test_matches_references(self):
        tangles = links = 0
        for d in _kernel_cases():
            # the fingerprint's words as letter indices, wrapped into words
            words = invariant._class_words(d)
            assert all(type(word) is tuple for word in words.values())
            wrapped = {
                key: _indices_word(GroupContext(d.n, *key[0]), word) for key, word in words.items()
            }
            assert wrapped == fingerprint(d) == reference_fingerprint(d)
            if d.kind == "link":
                links += 1
                d = cut_link(d, [Basepoint(i, 0) for i in range(1, d.n + 1)])
            else:
                tangles += 1
            table = word_table(d)
            assert table == reference_word_table(d)
            letters = reference_letters(d)
            for name, letter in letters.items():
                assert lk_vector(d, name) == letter
            for word in table.values():
                for undirected in (False, True):
                    assert canonical_class_word(word, undirected=undirected) == (
                        reference_class_word(word, undirected=undirected)
                    )
        assert tangles >= 300 and links >= 300


class TestWalkedClassWords:
    """``_class_words`` on the diagrams that ``fuzz --forbid-pure`` walks,
    and its inline answers for short words."""

    def test_walked_match_reference_fingerprint(self):
        rng = random.Random(23)
        walked = 0
        for kind in ("tangle", "link"):
            for n in (4, 5):
                for _ in range(6):
                    for d in fuzz_walk_diagrams(rng, kind, n):
                        expected = [
                            (key, tuple(letter_index(x) for x in word.letters))
                            for key, word in reference_fingerprint(d).items()
                        ]
                        assert list(invariant._class_words(d).items()) == expected, d
                        walked += 1
        assert walked == 4 * 6 * 11

    def test_short_words_match_reference(self, monkeypatch):
        # every reduced word of 0 to 3 letters over the four letters of a
        # 4-component diagram, read in place of the diagram's own words
        words = [
            word
            for size in range(4)
            for word in product(range(4), repeat=size)
            if all(x != y for x, y in zip(word, word[1:]))
        ]
        assert len(words) == 1 + 4 + 12 + 36
        pairs = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
        for kind in ("tangle", "link"):
            d = Diagram(kind, tuple(ComponentCode(kind == "link", ()) for _ in range(4)))
            for start in range(0, len(words), len(pairs)):
                table = {
                    pair: list(words[(start + k) % len(words)]) for k, pair in enumerate(pairs)
                }
                monkeypatch.setattr(invariant, "_pair_words", lambda _, table=table: table)
                for ((i, j), along), word in invariant._class_words(d).items():
                    other = j if along == i else i
                    context = GroupContext(4, along, other)
                    expected = reference_class_word(
                        _indices_word(context, table[along, other]), undirected=kind == "link"
                    )
                    assert word == tuple(letter_index(x) for x in expected.letters), (
                        kind,
                        table[along, other],
                    )


class TestMoveInvariance:
    def test_r2_pairs_share_letters(self):
        # the two crossings of any second-move site carry the same letter
        rng = random.Random(13)
        seen = 0
        for _ in range(80):
            d = random_good_diagram(rng, rng.randint(3, 5), 10)
            for site in enumerate_moves(d, kinds={"R2_delete"}, forbid_pure=True):
                x, y = sorted({name for name in site.names})
                assert lk_vector(d, x) == lk_vector(d, y)
                seen += 1
        assert seen >= 10

    def test_walk_preserves_all_words(self, sample_tangle):
        reference = word_table(sample_tangle)
        walk = random_walk(sample_tangle, 60, seed=21, forbid_pure=True, max_size=12)
        current = sample_tangle
        for site in walk.moves:
            current = apply_move(current, site)
            assert word_table(current) == reference

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(3, 5))
    def test_walks_keep_tangle_words(self, seed, n):
        # what ``fuzz --forbid-pure`` checks on a tangle: its exact words
        start, *walked = fuzz_walk_diagrams(random.Random(seed), "tangle", n)
        reference = invariant._pair_words(start)
        for d in walked:
            assert invariant._pair_words(d) == reference, (start, d)

    def test_fingerprints_equal_along_walks(self):
        rng = random.Random(17)
        for _ in range(10):
            d = random_good_diagram(rng, rng.randint(2, 4), 8)
            reference = fingerprint(d)
            walk = random_walk(d, 15, seed=rng.randrange(10**6), forbid_pure=True, max_size=12)
            assert fingerprint(walk.final) == reference
