import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freelinks.words import (
    GroupContext,
    Word,
    WordError,
    apply_mask,
    canonical_class_word,
    conjugate_equal,
    cyclic_reduce,
    letter_index,
    make_word,
    orbit_representatives,
    reduce,
    render_word,
    slide,
    slide_conjugacy_equal,
)

from genutil import (
    brute_conjugate_equal,
    naive_class_word,
    random_word,
    reference_orbit_representatives,
    reference_slide_conjugacy_equal,
)

CTX3 = GroupContext(3, 1, 2)
CTX4 = GroupContext(4, 1, 2)

# the worked four-component example: letters over strands {3, 4}
ALPHA, BETA, DELTA = (0, 0), (0, 1), (1, 1)
EXAMPLE = make_word(CTX4, [ALPHA, BETA, DELTA, ALPHA])


def letters_strategy(width: int):
    return st.lists(
        st.tuples(*([st.integers(0, 1)] * width)) if width else st.just(()),
        max_size=10,
    )


class TestReduce:
    def test_involution_pair(self):
        assert reduce(make_word(CTX3, [(0,), (0,)])).letters == ()

    def test_example_already_reduced(self):
        assert reduce(EXAMPLE) == EXAMPLE

    def test_nested_cancellation(self):
        w = make_word(CTX3, [(1,), (0,), (0,), (1,), (1,)])
        assert reduce(w).letters == ((1,),)

    @given(letters_strategy(2), st.randoms(use_true_random=False))
    def test_confluence_under_inserted_pairs(self, letters, rng):
        w = make_word(CTX4, letters)
        expected = reduce(w)
        padded = list(letters)
        for _ in range(3):
            pos = rng.randint(0, len(padded))
            letter = (rng.randint(0, 1), rng.randint(0, 1))
            padded[pos:pos] = [letter, letter]
        assert reduce(make_word(CTX4, padded)) == expected

    def test_no_adjacent_equal_letters(self):
        rng = random.Random(3)
        for _ in range(200):
            w = reduce(random_word(rng, CTX4, 9))
            assert all(a != b for a, b in zip(w.letters, w.letters[1:]))


class TestCyclicReduce:
    def test_example(self):
        assert cyclic_reduce(EXAMPLE).letters == (BETA, DELTA)

    def test_empty(self):
        assert cyclic_reduce(make_word(CTX3, [])).letters == ()

    def test_already_cyclically_reduced(self):
        w = make_word(CTX4, [(1, 0), (0, 1), (1, 1)])
        assert cyclic_reduce(w) == w

    def test_equal_ends_are_stripped(self):
        # a b a is conjugate to b, so its cyclic reduction is the single letter
        w = make_word(CTX3, [(1,), (0,), (1,)])
        assert cyclic_reduce(w).letters == ((0,),)

    def test_minimal_in_conjugacy_class(self):
        rng = random.Random(17)
        for _ in range(120):
            n = rng.randint(2, 4)
            ctx = GroupContext(n, 1, 2)
            w = random_word(rng, ctx, 6)
            core = len(cyclic_reduce(w))
            g = random_word(rng, ctx, 4).letters
            conjugate = reduce(make_word(ctx, list(g) + list(w.letters) + list(reversed(g))))
            assert len(conjugate) >= core
            assert len(cyclic_reduce(conjugate)) == core


class TestConjugacy:
    def test_example(self):
        assert conjugate_equal(EXAMPLE, make_word(CTX4, [BETA, DELTA]))

    def test_reflexive(self):
        w = make_word(CTX3, [(0,), (1,), (0,)])
        assert conjugate_equal(w, w)

    def test_rotation(self):
        assert conjugate_equal(make_word(CTX3, [(0,), (1,)]), make_word(CTX3, [(1,), (0,)]))

    def test_mixed_contexts_rejected(self):
        with pytest.raises(WordError, match="mixed"):
            conjugate_equal(make_word(CTX3, []), make_word(CTX4, []))

    def test_agrees_with_brute_force(self):
        rng = random.Random(29)
        for trial in range(300):
            n = rng.choice((2, 3, 3, 4))
            ctx = GroupContext(n, 1, 2)
            u = random_word(rng, ctx, 6)
            if trial % 2:
                g = random_word(rng, ctx, 2).letters
                v = reduce(make_word(ctx, list(g) + list(u.letters) + list(reversed(g))))
            else:
                v = random_word(rng, ctx, 6)
            assert conjugate_equal(u, v) == brute_conjugate_equal(u, v)


class TestSlide:
    def test_flip_single_strand(self):
        w = make_word(CTX3, [(0,), (1,)])
        assert slide(w, 3).letters == ((1,), (0,))

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            w = random_word(rng, CTX4, 6)
            for l in CTX4.strands:
                assert slide(slide(w, l), l) == w

    def test_flip_first_strand(self):
        w = make_word(CTX4, [(0, 0), (0, 1)])
        assert slide(w, 3).letters == ((1, 0), (1, 1))

    def test_unknown_strand(self):
        with pytest.raises(WordError):
            slide(make_word(CTX4, []), 1)

    def test_is_a_unit_mask(self):
        rng = random.Random(17)
        for n in (3, 4, 5):
            for i, j in ((1, 2), (1, n), (2, 3)):
                ctx = GroupContext(n, i, j)
                for _ in range(20):
                    w = random_word(rng, ctx, 6)
                    for l in ctx.strands:
                        unit = tuple(int(k == l) for k in ctx.strands)
                        assert slide(w, l) == apply_mask(w, unit), (w, l)
                    for l in (0, i, j, n + 1):
                        with pytest.raises(WordError, match="is not a strand"):
                            slide(w, l)

    def test_preserves_reducedness(self):
        rng = random.Random(13)
        for _ in range(50):
            w = reduce(random_word(rng, CTX4, 8))
            assert reduce(slide(w, 4)) == slide(w, 4)


class TestSlideConjugacy:
    def test_example_identity_mask(self):
        assert slide_conjugacy_equal(EXAMPLE, make_word(CTX4, [BETA, DELTA]))

    def test_rotation_alone(self):
        assert slide_conjugacy_equal(
            make_word(CTX3, [(0,), (1,)]), make_word(CTX3, [(1,), (0,)])
        )

    def test_length_mismatch(self):
        assert not slide_conjugacy_equal(
            make_word(CTX3, [(0,), (1,), (0,), (1,)]), make_word(CTX3, [(0,), (1,)])
        )

    def test_equivalence_relation(self):
        rng = random.Random(41)
        words = [random_word(rng, CTX4, 5) for _ in range(12)]
        for w in words:
            assert slide_conjugacy_equal(w, w)
        for u in words:
            for v in words:
                assert slide_conjugacy_equal(u, v) == slide_conjugacy_equal(v, u)
        for u in words:
            for v in words:
                for w in words:
                    if slide_conjugacy_equal(u, v) and slide_conjugacy_equal(v, w):
                        assert slide_conjugacy_equal(u, w)


class TestLetterIndex:
    @pytest.mark.parametrize(
        "letter,index", [((0, 0), 0), ((1, 0), 1), ((0, 1), 2), ((1, 1), 3)]
    )
    def test_convention(self, letter, index):
        assert letter_index(letter) == index

    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_bijection(self, width):
        letters = list(product((0, 1), repeat=width))
        indices = sorted(letter_index(x) for x in letters)
        assert indices == list(range(2**width))


def index_key(w):
    return [letter_index(x) for x in w.letters]


class TestCanonicalClassWord:
    def test_example_classes_coincide(self):
        assert canonical_class_word(EXAMPLE) == canonical_class_word(
            make_word(CTX4, [BETA, DELTA])
        )

    def test_empty(self):
        assert canonical_class_word(make_word(CTX4, [])).letters == ()

    def test_idempotent(self, sample_tangle):
        from freelinks.invariant import word_invariant

        w = word_invariant(sample_tangle, 1, 2)
        assert canonical_class_word(canonical_class_word(w)) == canonical_class_word(w)

    def test_characterizes_slide_conjugacy(self):
        # against the mask-by-mask scan, on random pairs and on pairs where
        # v is a rotated masked image of u
        rng = random.Random(53)
        masks = list(product((0, 1), repeat=CTX4.width))
        related = 0
        for trial in range(150):
            u = random_word(rng, CTX4, 5)
            v = random_word(rng, CTX4, 5)
            if trial % 2:
                letters = apply_mask(u, rng.choice(masks)).letters
                r = rng.randrange(len(letters) + 1)
                v = make_word(CTX4, letters[r:] + letters[:r])
            expected = reference_slide_conjugacy_equal(u, v)
            related += expected
            assert (canonical_class_word(u) == canonical_class_word(v)) == expected, (u, v)
            assert slide_conjugacy_equal(u, v) == expected, (u, v)
        assert related >= 75


    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_naive_minimum(self, n):
        rng = random.Random(97 + n)
        ctx = GroupContext(n, 1, 2)
        for trial in range(150):
            w = random_word(rng, ctx, 16)
            if trial % 3 == 0:
                # a power of a short word: its rotations tie
                w = make_word(ctx, random_word(rng, ctx, 4).letters * rng.randint(2, 4))
            assert canonical_class_word(w) == naive_class_word(w), w

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_undirected_is_least_of_both_directions(self, n):
        rng = random.Random(131 + n)
        ctx = GroupContext(n, 1, 2)
        for _ in range(150):
            w = random_word(rng, ctx, 16)
            back = make_word(ctx, w.letters[::-1])
            expected = min(naive_class_word(w), naive_class_word(back), key=index_key)
            assert canonical_class_word(w, undirected=True) == expected, w
            assert canonical_class_word(back, undirected=True) == expected, w


class TestOrbit:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_masks_cover_cube(self, n):
        rng = random.Random(n)
        ctx = GroupContext(n, 1, 2)
        w = random_word(rng, ctx, 5)
        reps = orbit_representatives(w)
        assert set(reps) == set(product((0, 1), repeat=n - 2))
        assert len(set(reps.values())) <= 2 ** (n - 2)

    def test_matches_bit_tuple_scan(self):
        rng = random.Random(19)
        for trial in range(300):
            width = trial % 4
            w = random_word(rng, GroupContext(width + 2, 1, 2), 8)
            reps = orbit_representatives(w)
            assert list(reps.items()) == list(reference_orbit_representatives(w).items()), w

    def test_masking_matches_slides(self):
        w = make_word(CTX4, [ALPHA, DELTA])
        assert apply_mask(w, (1, 0)) == slide(w, 3)
        assert apply_mask(w, (1, 1)) == slide(slide(w, 3), 4)


def test_module_doctests():
    import doctest

    import freelinks.words

    assert doctest.testmod(freelinks.words).failed == 0


class TestRendering:
    def test_empty_renders_one(self):
        assert render_word(make_word(CTX4, [])) == "1"

    def test_dot_separated_tuples(self):
        assert render_word(make_word(CTX3, [(0,), (1,)])) == "(0)·(1)"

    def test_bad_letter_length(self):
        with pytest.raises(WordError):
            make_word(CTX4, [(0,)])


class TestCheckedBoundary:
    # the operations build their results unchecked from checked letters;
    # only the public constructors check, and they still do
    @pytest.mark.parametrize("letters", [[(0,)], [(0, 2)], [(0, 1), (1, 1, 0)]])
    def test_public_constructors_check(self, letters):
        with pytest.raises(WordError):
            make_word(CTX4, letters)
        with pytest.raises(WordError):
            Word(CTX4, tuple(letters))

    @pytest.mark.parametrize("mask", [(1,), (1, 0, 1)])
    def test_mask_of_wrong_width_rejected(self, mask):
        with pytest.raises(WordError) as err:
            apply_mask(EXAMPLE, mask)
        assert str(err.value) == f"mask {mask} has length {len(mask)}, expected 2"

    @pytest.mark.parametrize(
        "i, j, message",
        [
            (2, 2, "the component pair must consist of two distinct components"),
            (1, 4, "pair (1, 4) out of range 1..3"),
            (0, 2, "pair (0, 2) out of range 1..3"),
        ],
    )
    def test_context_refuses_a_bad_pair(self, i, j, message):
        with pytest.raises(WordError) as err:
            GroupContext(3, i, j)
        assert str(err.value) == message

    def test_non_bit_mask_rejected(self):
        with pytest.raises(WordError, match="non-bit"):
            apply_mask(EXAMPLE, (0, 2))

    def test_results_equal_checked_words(self):
        rng = random.Random(47)
        for _ in range(50):
            w = random_word(rng, CTX4, 8)
            results = [reduce(w), cyclic_reduce(w), slide(w, 3), apply_mask(w, (1, 0))]
            results += [canonical_class_word(w, undirected=True)]
            results += orbit_representatives(w).values()
            for u in results:
                assert u == make_word(CTX4, u.letters)
