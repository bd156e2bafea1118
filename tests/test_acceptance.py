"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are exact; the randomized criteria use fixed seeds.
"""

import random
from itertools import product

from freelinks.bracket import apply_splices, bracket, bracket_equal
from freelinks.cli import run
from freelinks.diagram import (
    Basepoint,
    canonical_form,
    parse_diagram,
)
from freelinks.invariant import link_word, word_table
from freelinks.moves import apply_move, random_walk
from freelinks.words import (
    GroupContext,
    canonical_class_word,
    cyclic_reduce,
    make_word,
    orbit_representatives,
    slide,
)

from conftest import DATA
from genutil import (
    brute_conjugate_equal,
    random_any_diagram,
    random_good_diagram,
    random_word,
    whole_slate,
    _reduce_letters,
)


def check(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_worked_example(four_component_link):
    ctx = GroupContext(4, 1, 2)
    word = make_word(ctx, [(0, 0), (0, 1), (1, 1), (0, 0)])
    core = make_word(ctx, [(0, 1), (1, 1)])
    ok = (
        cyclic_reduce(word) == core
        and canonical_class_word(word) == canonical_class_word(core)
        and canonical_class_word(word).letters != ()
    )
    # a diagram realizing the same letters reproduces the value end to end
    points = [Basepoint(i, 0) for i in range(1, 5)]
    realized = link_word(four_component_link, points, 1, 2)
    ok = ok and realized == word
    check(1, "worked four-component example word, exact", ok)


def test_criterion_2_tangle_invariance_fuzz(sample_tangle):
    rng = random.Random(20260810)
    diagrams = [sample_tangle] + [
        random_good_diagram(rng, rng.randint(2, 5), 12) for _ in range(100)
    ]
    moves_applied = 0
    failures = 0
    index = 0
    while moves_applied < 1000 or index < len(diagrams):
        if index >= len(diagrams):
            diagrams.append(random_good_diagram(rng, rng.randint(2, 5), 12))
        d = diagrams[index]
        index += 1
        reference = word_table(d)
        walk = random_walk(
            d, 10, seed=rng.randrange(10**9), forbid_pure=True, max_size=14
        )
        current = d
        for site in walk.moves:
            current = apply_move(current, site)
            moves_applied += 1
            if word_table(current) != reference:
                failures += 1
    check(
        2,
        "word invariance over forbid-pure fuzz, zero failures",
        failures == 0 and moves_applied >= 1000 and index >= 101,
        f"{index} tangles, {moves_applied} moves, {failures} failures",
    )


def test_criterion_3_basepoint_independence():
    rng = random.Random(31337)
    failures = 0
    links = 0
    while links < 50:
        n = rng.randint(2, 5)
        d = random_good_diagram(rng, n, 12, kind="link")
        links += 1

        def pick():
            return [
                Basepoint(i, rng.randint(0, len(d.components[i - 1])))
                for i in range(1, n + 1)
            ]

        first, second = pick(), pick()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                from freelinks.words import slide_conjugacy_equal

                if not slide_conjugacy_equal(
                    link_word(d, first, i, j), link_word(d, second, i, j)
                ):
                    failures += 1
    check(
        3,
        "link words agree up to slides and conjugation for random basepoints",
        failures == 0 and links >= 50,
        f"{links} links, {failures} failures",
    )


def test_criterion_4_bracket_invariance():
    rng = random.Random(424242)
    total = 0
    unknown = 0
    distinct = 0
    while total < 100:
        d = random_any_diagram(rng, 8)
        candidates = whole_slate(d, max_size=d.crossing_count + 2)
        if not candidates:
            continue
        site = candidates[rng.randrange(len(candidates))]
        moved = apply_move(d, site)
        total += 1
        p, q = bracket(d), bracket(moved)
        status = "unknown"
        for depth in (1, 2, 4):
            status = bracket_equal(p, q, depth).status
            if status == "equal":
                break
        if status == "distinct":
            distinct += 1
        elif status == "unknown":
            unknown += 1
    check(
        4,
        "bracket unchanged by one random move at depth <= 4",
        distinct == 0 and unknown / total < 0.05,
        f"{total} diagrams, {unknown} unknown, {distinct} distinct",
    )


def test_criterion_5_degenerate_expansions(sample_tangle, triangle):
    rng = random.Random(55)
    ok = True
    # no pure crossings: exactly one summand, the canonical form itself
    corpus = [sample_tangle, triangle] + [
        random_good_diagram(rng, rng.randint(1, 4), 8, kind=rng.choice(("tangle", "link")))
        for _ in range(30)
    ]
    for d in corpus:
        assert not d.pure
        ok = ok and bracket(d).summands == frozenset({canonical_form(d)})

    circle = canonical_form(parse_diagram("link n=1\ncomponent 1 closed:"))
    kink = parse_diagram("link n=1\ncomponent 1 closed: x x")
    ok = ok and bracket(kink).summands == frozenset({circle})

    xyxy = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
    census = {
        (bx, by): apply_splices(xyxy, {"x": bx, "y": by}).components
        for bx, by in product("AB", repeat=2)
    }
    splitting = [key for key, comps in census.items() if len(comps) != 1]
    kept = {
        key: canonical_form(parse_diagram("link n=1\ncomponent 1 closed:"))
        for key, comps in census.items()
        if len(comps) == 1
    }
    ok = (
        ok
        and len(splitting) == 1
        and len(kept) == 3
        and all(c.passes == () for key in kept for c in census[key])
        and bracket(xyxy).summands == frozenset({circle})
    )
    check(5, "pure-free brackets are singletons; kink and bigon knots give the circle", ok)


def test_criterion_6_conjugacy_oracle():
    rng = random.Random(606060)
    total = 10000
    disagreements = 0
    for trial in range(total):
        n = rng.choice((2, 3, 3, 4, 4))
        ctx = GroupContext(n, 1, 2)
        u = random_word(rng, ctx, 6)
        if trial % 5 < 2:
            g = random_word(rng, ctx, 2).letters
            letters = _reduce_letters(tuple(g) + u.letters + tuple(reversed(g)))
            v = make_word(ctx, letters) if len(letters) <= 6 else random_word(rng, ctx, 6)
        else:
            v = random_word(rng, ctx, 6)
        from freelinks.words import conjugate_equal

        if conjugate_equal(u, v) != brute_conjugate_equal(u, v, max_len=4):
            disagreements += 1
    check(
        6,
        "conjugacy matches brute force over 10^4 pairs",
        disagreements == 0,
        f"{total} pairs, {disagreements} disagreements",
    )


def test_criterion_7_slide_orbit_bound():
    rng = random.Random(7)
    ok = True
    for n in (2, 3, 4, 5):
        ctx = GroupContext(n, 1, 2)
        for _ in range(20):
            w = random_word(rng, ctx, 6)
            reps = orbit_representatives(w)
            ok = ok and set(reps) == set(product((0, 1), repeat=n - 2))
            ok = ok and len(set(reps.values())) <= 2 ** (n - 2)
            for l in ctx.strands:
                ok = ok and slide(slide(w, l), l) == w
    check(7, "orbits touch exactly the mask cube; slides are involutions", ok)


def test_criterion_8_cli_distinctness(capsys):
    sample = str(DATA / "three_strand.tangle")
    trivial = str(DATA / "trivial_3_3.tangle")
    triangle = str(DATA / "triangle.tangle")
    moved = str(DATA / "triangle_moved.tangle")

    code_distinct = run(["compare", sample, trivial])
    out_distinct = capsys.readouterr().out
    code_equal = run(["compare", triangle, moved, "--depth", "1"])
    out_equal = capsys.readouterr().out

    ok = (
        code_distinct == 1
        and out_distinct.splitlines()[0] == "distinct"
        and "pair (1,2) along 1: (0)·(1)" in out_distinct
        and code_equal == 0
        and out_equal.splitlines()[0] == "equal"
        and out_equal.splitlines()[1] == "trace:"
        and len(out_equal.strip().splitlines()) == 3
    )
    with capsys.disabled():
        print()
        check(8, "compare distinguishes and connects the end-to-end pairs", ok)
