import importlib
import random
from itertools import product

import pytest

from freelinks.bracket import (
    Bracket,
    BracketError,
    Verdict,
    apply_splices,
    bracket,
    bracket_equal,
    serialize_bracket,
)
from freelinks.diagram import (
    ComponentCode,
    Diagram,
    DiagramError,
    canonical_form,
    canonical_key,
    parse_diagram,
)
from freelinks.moves import apply_move

_bracket_module = importlib.import_module("freelinks.bracket")
_splice_components = _bracket_module._splice_components
_splice_table = _bracket_module._splice_table
_interlacement_rows = _bracket_module._interlacement_rows
_one_curve_codes = _bracket_module._one_curve_codes
_least_curve = _bracket_module._least_curve
_component_states = _bracket_module._component_states

from genutil import (
    brute_bracket_keys,
    random_any_diagram,
    random_good_diagram,
    random_mixed_diagram,
    random_pure_diagram,
    reference_bracket_equal,
    reference_class_key,
    reference_splice_components,
    sequential_bracket_keys,
    whole_slate,
)

CIRCLE = parse_diagram("link n=1\ncomponent 1 closed:")
KINK = parse_diagram("link n=1\ncomponent 1 closed: x x")
XYXY = parse_diagram("link n=1\ncomponent 1 closed: x y x y")


class TestSplice:
    def test_kink_branch_b_gives_circle(self):
        out = apply_splices(KINK, {"x": "B"})
        assert out.n == 1
        assert out.components[0] == ComponentCode(True, ())

    def test_kink_branch_a_splits(self):
        out = apply_splices(KINK, {"x": "A"})
        assert out.n == 2
        assert all(c == ComponentCode(True, ()) for c in out.components)

    # the passes around each spliced crossing are partnered on one more
    # component, so that every diagram spliced is valid

    def test_open_branch_b_reverses_segment(self):
        d = parse_diagram(
            "tangle n=2\ncomponent 1 open: a1 x b1 b2 x c1\ncomponent 2 open: a1 b1 b2 c1"
        )
        out = apply_splices(d, {"x": "B"})
        assert out.components[0].passes == ("a1", "b2", "b1", "c1")
        assert out.components[1] == d.components[1]

    def test_open_branch_a_splits_off_circle(self):
        d = parse_diagram(
            "tangle n=2\ncomponent 1 open: a1 x b1 b2 x c1\ncomponent 2 open: a1 b1 b2 c1"
        )
        out = apply_splices(d, {"x": "A"})
        assert out.components[0] == ComponentCode(False, ("a1", "c1"))
        assert out.components[1] == d.components[1]
        assert out.components[2] == ComponentCode(True, ("b1", "b2"))

    def test_closed_branch_rules(self):
        d = parse_diagram(
            "link n=2\ncomponent 1 closed: x q1 q2 x r1 r2\ncomponent 2 closed: q1 q2 r1 r2"
        )
        other = d.components[1].passes
        out_a = apply_splices(d, {"x": "A"})
        assert [c.passes for c in out_a.components] == [("q1", "q2"), other, ("r1", "r2")]
        out_b = apply_splices(d, {"x": "B"})
        assert [c.passes for c in out_b.components] == [("q1", "q2", "r2", "r1"), other]

    def test_merge_between_components(self):
        d = parse_diagram(
            "link n=3\ncomponent 1 closed: x q1 q2\ncomponent 2 closed: x s1 s2"
            "\ncomponent 3 closed: q1 q2 s1 s2"
        )
        other = d.components[2].passes
        out_a = apply_splices(d, {"x": "A"})
        assert [c.passes for c in out_a.components] == [("q1", "q2", "s1", "s2"), other]
        out_b = apply_splices(d, {"x": "B"})
        assert [c.passes for c in out_b.components] == [("q1", "q2", "s2", "s1"), other]

    def test_open_strand_swap(self):
        # a direction-preserving splice between two open strands swaps tails
        d = parse_diagram("tangle n=2\ncomponent 1 open: x a a\ncomponent 2 open: b x b")
        out = apply_splices(d, {"x": "A"})
        assert out.components[0].passes == ("b",)
        assert out.components[1].passes == ("b", "a", "a")

    def test_open_strand_reversal_rejected(self):
        # the other branch would join the two lower endpoints
        d = parse_diagram("tangle n=2\ncomponent 1 open: x a a\ncomponent 2 open: b x b")
        with pytest.raises(BracketError, match="open"):
            apply_splices(d, {"x": "B"})

    def test_kernel_matches_reference(self):
        # any subset of crossings, pure or mixed, spliced at once: the same
        # curves, sources and order as the tuple-port kernel, or both refuse
        rng = random.Random(37)
        refused = 0
        for _ in range(300):
            d = random_any_diagram(rng, 8)
            names = sorted(d.crossing_names)
            chosen = rng.sample(names, rng.randint(0, len(names)))
            branches = {name: rng.choice("AB") for name in chosen}
            code = sum(1 << r for r, name in enumerate(chosen) if branches[name] == "B")
            table = _splice_table(d, tuple(chosen))
            try:
                expected = reference_splice_components(d, branches)
            except BracketError:
                with pytest.raises(BracketError):
                    _splice_components(d, code, table)
                refused += 1
                continue
            assert _splice_components(d, code, table) == expected, (d, branches)
        assert 0 < refused < 150
        # every state of named inputs whose splices leave pass-free curves
        # with different sources, which fixes their order: a closed
        # component whose first pass is unspliced, and one whose first and
        # last passes are spliced, so that the empty run closing it back to
        # its first pass is the first pass-free run of the component
        for text in (
            "link n=2\ncomponent 1 closed: m k k c d m\ncomponent 2 closed: d c j j",
            "link n=2\ncomponent 1 closed: x k k y\ncomponent 2 closed: y x",
        ):
            d = parse_diagram(text)
            names = tuple(sorted(d.crossing_names))
            table = _splice_table(d, names)
            for code in range(1 << len(names)):
                branches = {name: "AB"[code >> r & 1] for r, name in enumerate(names)}
                expected = reference_splice_components(d, branches)
                assert _splice_components(d, code, table) == expected, (text, branches)

    def test_table_reuse_matches_reference(self):
        # one table per set of spliced crossings serves every state: lone
        # closed and open components with unpaired passes, then several
        # components with pure and mixed crossings spliced, refusals included
        rng = random.Random(41)
        cases = []
        for _ in range(60):
            sub = random_component(rng, rng.randint(0, 6), rng.randint(0, 3))
            cases.append((sub, tuple(sorted(sub.pure))))
        for _ in range(60):
            d = random_any_diagram(rng, 8)
            names = sorted(d.crossing_names)
            cases.append((d, tuple(rng.sample(names, min(len(names), rng.randint(0, 6))))))
        outcomes = set()
        for d, names in cases:
            table = _splice_table(d, names)
            for code in range(1 << len(names)):
                branches = {name: "AB"[code >> r & 1] for r, name in enumerate(names)}
                try:
                    expected = reference_splice_components(d, branches)
                except BracketError as refusal:
                    with pytest.raises(BracketError) as caught:
                        _splice_components(d, code, table)
                    assert str(caught.value) == str(refusal)
                    outcomes.add((d.n > 1, "refused"))
                    continue
                assert _splice_components(d, code, table) == expected, (d, branches)
                outcomes.add((d.n > 1, d.kind))
        assert outcomes == {
            (False, "link"), (False, "tangle"), (True, "link"), (True, "tangle"), (True, "refused")
        }

    def test_unknown_crossing(self):
        with pytest.raises(BracketError, match="unknown"):
            apply_splices(KINK, {"zz": "A"})

    def test_bad_branch(self):
        with pytest.raises(BracketError, match="branch"):
            apply_splices(KINK, {"x": "C"})

    @pytest.mark.parametrize(
        "passes, name",
        [("a b a", "a"), ("a b a", "b"), ("a b a b a", "a"), ("a b a b a", "b")],
    )
    def test_names_without_two_passes_are_refused(self, passes, name):
        # a crossing with one or three passes, spliced or not
        d = Diagram("link", (ComponentCode(True, tuple(passes.split())),))
        with pytest.raises(DiagramError, match="occurs"):
            apply_splices(d, {name: "A"})


class TestExpansion:
    def test_xyxy_assignment_census(self):
        results = {
            (bx, by): apply_splices(XYXY, {"x": bx, "y": by}).components
            for bx, by in product("AB", repeat=2)
        }
        one_component = {key for key, comps in results.items() if len(comps) == 1}
        # both splittings of the first crossing leave one circle; they cancel
        assert {("A", "A"), ("A", "B")} <= one_component
        # of the remaining pair, exactly one is discarded for its extra circle
        rest = {("B", "A"), ("B", "B")}
        assert len(rest & one_component) == 1
        assert all(c.passes == () for key in one_component for c in results[key])


class TestLeastCurve:
    """A closed curve at the least of all its rotations in both directions,
    found from the least rotation of each direction."""

    @staticmethod
    def every_rotation(passes: tuple[str, ...]) -> tuple[str, ...]:
        seqs = (passes, passes[::-1])
        return min((seq[r:] + seq[:r] for seq in seqs for r in range(len(seq))), default=())

    def test_closed_curves(self):
        rng = random.Random(173)
        curves = [(), ("a",), ("a", "a"), ("b", "a", "b", "a"), ("a", "b", "a", "c", "a", "b")]
        for _ in range(300):
            # few names, so that names repeat and least names tie
            names = [f"c{k}" for k in range(rng.randint(1, 4))]
            curves.append(tuple(rng.choice(names) for _ in range(rng.randint(0, 12))))
        for passes in curves:
            least = _least_curve(ComponentCode(True, passes))
            assert least == ComponentCode(True, self.every_rotation(passes)), passes

    def test_open_curves_are_unchanged(self):
        rng = random.Random(179)
        for length in range(8):
            curve = ComponentCode(False, tuple(rng.choice("abc") for _ in range(length)))
            assert _least_curve(curve) == curve


def random_component(rng, pure_count, mixed_count):
    """One closed or open component alone: ``pure_count`` chords and
    ``mixed_count`` unpaired passes, shuffled together."""
    passes = [f"p{r}" for r in range(pure_count) for _ in (0, 1)]
    passes += [f"m{k}" for k in range(mixed_count)]
    rng.shuffle(passes)
    closed = rng.random() < 0.5
    comp = ComponentCode(closed, tuple(passes))
    return Diagram("link" if closed else "tangle", (comp,))


def one_curve_codes_by_tracing(sub, pures, reference=False):
    """The states of a lone component whose traced splicing leaves one curve,
    by the kernel or, with ``reference``, by the reference kernel."""
    table = _splice_table(sub, pures)

    def curves(code):
        if reference:
            branches = {p: "AB"[(code >> r) & 1] for r, p in enumerate(pures)}
            return reference_splice_components(sub, branches)[0]
        return _splice_components(sub, code, table)[0]

    return [code for code in range(1 << len(pures)) if len(curves(code)) == 1]


class TestOneCurveCriterion:
    def test_matches_tracing(self):
        # the GF(2) interlacement test picks exactly the traced one-curve
        # states, on closed and open components with unpaired passes among
        # the chords
        rng = random.Random(89)
        seen = set()
        for _ in range(400):
            m = rng.randint(0, 9)
            sub = random_component(rng, m, rng.randint(0, 4))
            (comp,) = sub.components
            pures = tuple(sorted(sub.pure))
            expected = one_curve_codes_by_tracing(sub, pures)
            rows = _interlacement_rows(comp.passes, pures)
            assert _one_curve_codes(rows) == expected, comp
            seen.add((comp.closed, 0 < len(expected) < 1 << m))
        assert seen == {(True, True), (False, True), (True, False), (False, False)}

    @pytest.mark.parametrize("closed", [True, False])
    def test_no_chords_is_one_curve(self, closed):
        assert _interlacement_rows(("m1", "m2"), ()) == []
        assert _one_curve_codes([]) == [0]
        sub = Diagram("link" if closed else "tangle", (ComponentCode(closed, ("m1", "m2")),))
        assert one_curve_codes_by_tracing(sub, ()) == [0]

    def test_one_chord(self):
        # A splits x Q x R in two, B keeps one curve
        assert _interlacement_rows(("x", "q", "x", "r"), ("x",)) == [0]
        assert _one_curve_codes([0]) == [1]

    def test_traces_only_one_curve_states(self, monkeypatch):
        # bracket traces no state of a component whose pure passes form one
        # block, and each one-curve state of every other component once;
        # the counts come from the reference kernel over every state
        passes = random_component(random.Random(97), 10, 0).components[0].passes
        knot = Diagram("link", (ComponentCode(True, passes),))
        tangle = parse_diagram(
            "tangle n=3\ncomponent 1 open: a x b x a y c y"
            "\ncomponent 2 open: d b z d e z f e\ncomponent 3 open: c u g u f w g w"
        )
        link = parse_diagram("link n=2\ncomponent 1 closed: x a x b\ncomponent 2 closed: a y y b")
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _splice_components(*args, **kwargs)

        kinds = set()
        for d, traced in ((knot, []), (tangle, [1, 2, 3]), (link, [1])):
            expected = 0
            for ci, comp in enumerate(d.components, start=1):
                sub = Diagram(d.kind, (comp,))
                pures = tuple(sorted(d.pure.intersection(comp.passes)))
                assert pure_passes_form_one_block(comp, pures) == (ci not in traced)
                states = one_curve_codes_by_tracing(sub, pures, reference=True)
                assert len(states) % 2 == 1 and len(states) < 1 << len(pures)
                if ci in traced:
                    expected += len(states)
                kinds.add(ci in traced)
            calls.clear()
            monkeypatch.setattr(_bracket_module, "_splice_components", counting)
            value = bracket(d)
            monkeypatch.undo()
            assert len(calls) == expected
            assert {canonical_key(s) for s in value.summands} == brute_bracket_keys(d)
        assert kinds == {True, False}

    def test_one_normalisation_per_surviving_raw_curve(self, monkeypatch):
        # five one-curve states leave three raw curves, one of them three
        # times; all are rotations of one closed curve, which survives once
        sub = Diagram("link", (ComponentCode(True, tuple("p0 p1 p2 m1 m2 p0 p2 m0 p1".split())),))
        pures = ("p0", "p1", "p2")
        states = one_curve_codes_by_tracing(sub, pures, reference=True)
        raw = set()
        for code in states:
            branches = {p: "AB"[code >> r & 1] for r, p in enumerate(pures)}
            raw ^= {reference_splice_components(sub, branches)[0][0]}
        calls = []

        def counting(curve):
            calls.append(curve)
            return _least_curve(curve)

        monkeypatch.setattr(_bracket_module, "_least_curve", counting)
        odd = _component_states(sub, pures)
        assert sorted(calls) == sorted(raw)
        assert len(states) == 5 and len(raw) == 3
        assert odd == {ComponentCode(True, ("m0", "m1", "m2"))}


def pure_passes_form_one_block(comp, pures):
    """Whether the unspliced passes of ``comp`` are read as one run by every
    state: cyclically consecutive on a closed component, and none between
    the first and last pure pass on an open one."""
    spliced = [p for p, name in enumerate(comp.passes) if name in pures]
    kept = [p for p, name in enumerate(comp.passes) if name not in pures]
    if not comp.closed:
        return not any(spliced[0] < p < spliced[-1] for p in kept) if spliced else True
    seq = comp.passes
    return any(
        all(name not in pures for name in (seq[r:] + seq[:r])[: len(kept)])
        for r in range(len(seq) or 1)
    )


def chord_diagrams(m):
    """Every pairing of the positions 0 .. 2m - 1 into m chords, as pass
    sequences of the chord names ``p0`` .. ``p(m-1)``."""

    def pairings(free):
        if not free:
            yield []
            return
        first, rest = free[0], free[1:]
        for k, other in enumerate(rest):
            for tail in pairings(rest[:k] + rest[k + 1 :]):
                yield [(first, other), *tail]

    for chords in pairings(list(range(2 * m))):
        passes = [""] * (2 * m)
        for r, (p, q) in enumerate(chords):
            passes[p] = passes[q] = f"p{r}"
        yield tuple(passes)


FORCED = {
    "knot": "link n=1\ncomponent 1 closed: a b c a d b c d",
    "split closed component": (
        "link n=3\ncomponent 1 closed: x y x y\ncomponent 2 closed: a b\ncomponent 3 closed: a b"
    ),
    "closed run": "link n=2\ncomponent 1 closed: x y a b x y\ncomponent 2 closed: a b",
    "closed run across the start": "link n=2\ncomponent 1 closed: b x y x y a\ncomponent 2 closed: a b",
    "open, mixed before": "tangle n=2\ncomponent 1 open: a b x y x y\ncomponent 2 open: a b",
    "open, mixed after": "tangle n=2\ncomponent 1 open: x y x y a b\ncomponent 2 open: b a",
    "open, mixed at both ends": "tangle n=2\ncomponent 1 open: a x y x y b\ncomponent 2 open: a b",
}

NEAR_MISSES = {
    "closed": "link n=2\ncomponent 1 closed: x y a x b y\ncomponent 2 closed: a b",
    "closed, kink between": "link n=2\ncomponent 1 closed: a x x b y y\ncomponent 2 closed: a b",
    "open": "tangle n=2\ncomponent 1 open: x y a x y b\ncomponent 2 open: a b",
    "open, mixed outside too": "tangle n=2\ncomponent 1 open: a x b x y c y\ncomponent 2 open: a b c",
}


class TestForcedCurve:
    @pytest.mark.parametrize("m", range(7))
    def test_one_curve_count_is_odd_on_every_chord_diagram(self, m):
        # over GF(2) the sum of det(A + diag x) over all x is the top
        # coefficient of a multilinear polynomial, 1
        pures = tuple(f"p{r}" for r in range(m))
        count = 0
        for passes in chord_diagrams(m):
            assert len(_one_curve_codes(_interlacement_rows(passes, pures))) % 2 == 1, passes
            count += 1
        assert count == [1, 1, 3, 15, 105, 945, 10395][m]

    def test_one_curve_count_is_odd_on_random_chord_diagrams(self):
        rng = random.Random(101)
        for _ in range(60):
            (comp,) = random_component(rng, rng.randint(7, 14), 0).components
            pures = tuple(sorted(set(comp.passes)))
            assert len(_one_curve_codes(_interlacement_rows(comp.passes, pures))) % 2 == 1, comp

    @pytest.mark.parametrize("name", sorted(FORCED))
    def test_forced_components_trace_nothing(self, name, monkeypatch):
        d = parse_diagram(FORCED[name])
        for comp in d.components:
            assert pure_passes_form_one_block(comp, d.pure.intersection(comp.passes))
        expected = brute_bracket_keys(d)

        def refuse(*args, **kwargs):
            raise AssertionError("a forced component was expanded")

        monkeypatch.setattr(_bracket_module, "_splice_components", refuse)
        monkeypatch.setattr(_bracket_module, "_one_curve_codes", refuse)
        assert {canonical_key(s) for s in bracket(d).summands} == expected

    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_near_misses_are_traced(self, name, monkeypatch):
        d = parse_diagram(NEAR_MISSES[name])
        comp = d.components[0]
        assert not pure_passes_form_one_block(comp, d.pure.intersection(comp.passes))
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _splice_components(*args, **kwargs)

        monkeypatch.setattr(_bracket_module, "_splice_components", counting)
        assert {canonical_key(s) for s in bracket(d).summands} == brute_bracket_keys(d)
        assert calls

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cap_sized_knot_is_one_circle(self, seed, monkeypatch):
        passes = [f"p{k}" for k in range(20) for _ in (0, 1)]
        random.Random(seed).shuffle(passes)
        knot = Diagram("link", (ComponentCode(True, tuple(passes)),))

        def refuse(*args, **kwargs):
            raise AssertionError("a knot was expanded")

        monkeypatch.setattr(_bracket_module, "_splice_components", refuse)
        monkeypatch.setattr(_bracket_module, "_one_curve_codes", refuse)
        assert bracket(knot).summands == frozenset({canonical_form(CIRCLE)})


    def test_knot_past_the_cap_is_one_circle(self):
        # 21 interlaced chords form one block: nothing is traced, so the cap
        # of 20 does not apply
        names = " ".join(f"p{k}" for k in range(21))
        knot = parse_diagram(f"link n=1\ncomponent 1 closed: {names} {names}")
        assert bracket(knot).summands == frozenset({canonical_form(CIRCLE)})


def pure_block_diagram(rng: random.Random, kind: str, n: int) -> Diagram:
    """A diagram of ``n`` components with n - 1 to eight mixed crossings, each
    component then given 1-4 pure chords at random places, or as one
    block of their passes at one place, or none."""
    comps: list[list[str]] = [[] for _ in range(n)]
    for k in range(rng.randint(n - 1, 8) if n > 1 else 0):
        for i in rng.sample(range(n), 2):
            comps[i].insert(rng.randint(0, len(comps[i])), f"m{k}")
    for ci, passes in enumerate(comps):
        chords = [f"p{ci}_{k}" for k in range(rng.randint(1, 4))]
        style = rng.randrange(3)
        if style == 0:
            for name in chords * 2:
                passes.insert(rng.randint(0, len(passes)), name)
        elif style == 1:
            block = chords * 2
            rng.shuffle(block)
            at = rng.randint(0, len(passes))
            passes[at:at] = block
    return Diagram(kind, tuple(ComponentCode(kind == "link", tuple(p)) for p in comps))


class TestBracket:
    def test_pure_free_is_singleton(self, sample_tangle):
        value = bracket(sample_tangle)
        assert value.summands == frozenset({canonical_form(sample_tangle)})

    def test_kink_brackets_to_circle(self):
        assert bracket(KINK).summands == frozenset({canonical_form(CIRCLE)})

    def test_xyxy_brackets_to_circle(self):
        assert bracket(XYXY).summands == frozenset({canonical_form(CIRCLE)})

    def test_two_component_split_bookkeeping(self):
        d = parse_diagram(
            "link n=2\ncomponent 1 closed: x a x b\ncomponent 2 closed: a b"
        )
        value = bracket(d)
        expected = parse_diagram("link n=2\ncomponent 1 closed: a b\ncomponent 2 closed: a b")
        assert value.summands == frozenset({canonical_form(expected)})

    def test_summand_count_bound_and_shape(self):
        rng = random.Random(43)
        for _ in range(40):
            d = random_any_diagram(rng, 7)
            value = bracket(d)
            assert len(value.summands) <= 2 ** len(d.pure)
            for summand in value.summands:
                assert summand.n == d.n
                assert summand.kind == d.kind
                assert not summand.pure
                if d.kind == "tangle":
                    assert all(not c.closed for c in summand.components)

    def test_matches_sequential_expansion(self):
        # splice order must not matter: expand one crossing at a time in a
        # random order and compare the mod-2 summand key sets
        rng = random.Random(59)
        checked = 0
        for _ in range(60):
            kind = rng.choice(("tangle", "knot"))
            if kind == "tangle":
                d = random_any_diagram(rng, 6, kind="tangle")
            else:
                d = random_any_diagram(rng, 6, kind="link")
                if d.n != 1:
                    continue
            simultaneous = {canonical_key(s) for s in bracket(d).summands}
            assert sequential_bracket_keys(d, rng) == simultaneous
            checked += 1
        assert checked >= 25

    def test_matches_whole_diagram_expansion(self):
        # per-component expansion against all 2^m assignments of the whole
        # diagram, on links and tangles with pure crossings on several
        # components
        rng = random.Random(83)
        several = 0
        for _ in range(24):
            d = random_pure_diagram(rng, rng.randint(2, 3), rng.choice(("tangle", "link")))
            reference = brute_bracket_keys(d)
            keys = {canonical_key(s) for s in bracket(d).summands}
            assert keys == reference, d
            several += len(reference) > 1
        assert several >= 3

    def test_summands_are_valid_as_built(self, monkeypatch):
        # bracket keys each summand without validating it again: a fresh
        # copy of every diagram it keys must validate, on tangles and links
        # of 1-4 components whose components are traced, forced (pure
        # passes in one block) or free of pure crossings
        keyed = []
        key = _bracket_module.canonical_key
        monkeypatch.setattr(_bracket_module, "canonical_key", lambda s: keyed.append(s) or key(s))
        rng = random.Random(227)
        traced = forced = 0
        for trial in range(360):
            d = pure_block_diagram(rng, ("tangle", "link")[trial % 2], rng.randint(1, 4))
            for comp in d.components:
                pures = d.pure.intersection(comp.passes)
                if pures:
                    if _bracket_module._forced_curve(comp, pures) is None:
                        traced += 1
                    else:
                        forced += 1
            keyed.clear()
            value = bracket(d)
            assert len(keyed) >= len(value.summands) > 0
            for s in keyed:
                assert s.kind == d.kind and s.n == d.n
                assert Diagram(s.kind, s.components).violations == (), (d, s)
        assert traced > 150 and forced > 250

    def test_expansion_cap(self):
        # six kinks in two blocks split by the two passes of m1 and m2, so
        # the component's states are traced
        kinks = [f"p{k} p{k}" for k in range(6)]
        d = parse_diagram(
            "link n=2\n"
            f"component 1 closed: {' '.join(kinks[:3])} m1 {' '.join(kinks[3:])} m2\n"
            "component 2 closed: m1 m2"
        )
        with pytest.raises(BracketError, match="cap"):
            bracket(d, max_pure=5)
        bracket(d, max_pure=6)

    def test_serialization_header(self):
        text = serialize_bracket(bracket(XYXY))
        head, rest = text.split("\n", 1)
        assert head == "bracket n=1 summands=1"
        assert rest.startswith("link n=1")


class TestBracketEqual:
    def test_reflexive_at_depth_zero(self, sample_tangle):
        p = bracket(sample_tangle)
        assert bracket_equal(p, p, 0) == Verdict("equal")

    def test_xyxy_equals_circle(self):
        assert bracket_equal(bracket(XYXY), bracket(CIRCLE), 0).status == "equal"

    def test_sample_vs_trivial_distinct(self, sample_tangle, trivial_tangle):
        verdict = bracket_equal(bracket(sample_tangle), bracket(trivial_tangle), 2)
        assert verdict.status == "distinct"
        assert "(0)·(1)" in verdict.certificate
        assert "(1,2)" in verdict.certificate

    def test_mismatched_n(self, sample_tangle):
        one = bracket(parse_diagram("tangle n=1\ncomponent 1 open:"))
        with pytest.raises(BracketError, match="component counts"):
            bracket_equal(bracket(sample_tangle), one, 1)

    def test_mismatched_kinds(self):
        link = bracket(parse_diagram("link n=1\ncomponent 1 closed: x x"))
        tangle = bracket(parse_diagram("tangle n=1\ncomponent 1 open: x x"))
        with pytest.raises(BracketError) as err:
            bracket_equal(link, tangle, 1)
        assert str(err.value) == "mismatched kinds: link vs tangle"

    def test_single_move_invariance(self):
        rng = random.Random(67)
        for _ in range(25):
            d = random_any_diagram(rng, 6)
            candidates = whole_slate(d, max_size=d.crossing_count + 2)
            if not candidates:
                continue
            site = candidates[rng.randrange(len(candidates))]
            moved = apply_move(d, site)
            verdict = bracket_equal(bracket(d), bracket(moved), 2)
            assert verdict.status == "equal", (d, site, verdict)

    def test_mixed_move_needs_one_connecting_move(self):
        # when the move touches no pure crossing, each summand pair is joined
        # by that single move, so depth 1 settles the comparison
        rng = random.Random(71)
        checked = 0
        for _ in range(40):
            d = random_any_diagram(rng, 6)
            pure = d.pure
            sites = [
                s
                for s in whole_slate(d, max_size=d.crossing_count + 2)
                if not (set(s.names) & pure)
                and not (s.kind == "R1_insert")
                and not (
                    s.kind == "R2_insert" and s.slots[0][0] == s.slots[1][0]
                )
            ]
            if not sites:
                continue
            site = sites[rng.randrange(len(sites))]
            moved = apply_move(d, site)
            verdict = bracket_equal(bracket(d), bracket(moved), 1)
            assert verdict.status == "equal", (d, site, verdict)
            checked += 1
        assert checked >= 20

    def test_matches_search_first_reference(self):
        # reading the class keys before any search changes no verdict and no
        # certificate, on random pairs of equal, distinct and unknown brackets
        from freelinks.moves import random_walk

        rng = random.Random(103)
        statuses = set()
        for _ in range(200):
            d = random_any_diagram(rng, 8)
            if rng.random() < 0.5:
                steps, seed = rng.randint(1, 3), rng.randrange(1000)
                e = random_walk(d, steps, seed, max_size=d.crossing_count + 2).final
            else:
                e = random_any_diagram(rng, 8, kind=d.kind)
                while e.n != d.n:
                    e = random_any_diagram(rng, 8, kind=d.kind)
            p, q, depth = bracket(d), bracket(e), rng.randint(0, 2)
            verdict = bracket_equal(p, q, depth)
            assert verdict == reference_bracket_equal(p, q, depth), (d, e, depth)
            statuses.add(verdict.status)
        assert statuses == {"equal", "distinct", "unknown"}

    def test_certificate_among_odd_keys_matches_reference(self):
        # brackets of random 3-4-component summands whose symmetric
        # difference has two or more odd class keys: all with words, all
        # parity-only, or both
        rng = random.Random(107)
        counts = {"words": 0, "parity": 0, "both": 0}
        while min(counts.values()) < 100:
            n, kind = rng.randint(3, 4), rng.choice(("tangle", "link"))
            make = rng.choice(("words", "parity", "both"))

            def summand():
                if make == "words" or make == "both" and rng.random() < 0.5:
                    return canonical_form(random_good_diagram(rng, n, 10, kind=kind))
                return canonical_form(random_mixed_diagram(rng, n, rng.randint(1, 7), kind))

            p = Bracket(kind, n, frozenset(summand() for _ in range(rng.randint(1, 4))))
            q = Bracket(kind, n, frozenset(summand() for _ in range(rng.randint(1, 4))))
            keys = [reference_class_key(s) for s in p.summands ^ q.summands]
            odd = {key for key in keys if keys.count(key) % 2}
            worded = sum(key[1] is not None for key in odd)
            wanted = {"words": worded == len(odd), "parity": worded == 0, "both": 0 < worded < len(odd)}
            if len(odd) < 2 or not wanted[make]:
                continue
            verdict = bracket_equal(p, q, 0)
            assert verdict.status == "distinct"
            assert verdict == reference_bracket_equal(p, q, 0), (p, q)
            counts[make] += 1

    def test_class_keys_decide_before_search(self, monkeypatch, sample_tangle, trivial_tangle):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        # bracket_equal loads the search from freelinks.moves when it needs it
        moves = importlib.import_module("freelinks.moves")
        monkeypatch.setattr(moves, "bounded_equivalence_search", no_search)
        verdict = bracket_equal(bracket(sample_tangle), bracket(trivial_tangle), 2)
        assert verdict.status == "distinct"
        assert "(0)·(1)" in verdict.certificate

    def test_never_distinct_for_equivalent_pairs(self, sample_tangle):
        from freelinks.moves import random_walk

        walk = random_walk(sample_tangle, 12, seed=3, max_size=10)
        verdict = bracket_equal(bracket(sample_tangle), bracket(walk.final), 3)
        assert verdict.status != "distinct"
