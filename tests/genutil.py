"""Random diagram generators and brute-force oracles shared by the tests.

The oracles here are deliberately naive (full products, exhaustive
conjugator scans, sequential splice recursion) so they stay independent of
the production code paths they check.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from itertools import combinations, product

from freelinks.bracket import (
    Bracket,
    BracketError,
    Verdict,
    apply_splices,
    bracket,
    bracket_equal,
)
from freelinks.diagram import (
    TOKEN_RE,
    Basepoint,
    ComponentCode,
    Diagram,
    DiagramError,
    Violation,
    canonical_key,
    cut_link,
    require_valid,
)
from freelinks.invariant import _require_good, _require_tangle, fingerprint
from freelinks.moves import (
    ALL_KINDS,
    DELETION_KINDS,
    MAX_CLOSURE,
    MoveError,
    MoveSite,
    SearchVerdict,
    WalkTrace,
    _check_fresh,
    _disjoint,
    _expand,
    _joined_trace,
    _pair_positions,
    _walk,
    apply_move,
    bounded_equivalence_search,
    join_by_descent,
    serialize_trace,
)
from freelinks.words import (
    GroupContext,
    Letter,
    Word,
    _word,
    apply_mask,
    conjugate_equal,
    cyclic_reduce,
    letter_index,
    make_word,
    reduce,
    render_word,
)

# the characters at which str.splitlines ends a line and the text formats do
# not: \n, \r\n and \r alone end a line of a diagram or a trace
SPLITLINES_ONLY_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


# -- reference per-diagram data --------------------------------------------------
#
# The bodies that recomputed everything on every call, kept as references for
# the fields cached on ``Diagram``.


def reference_validate(d: Diagram) -> list[Violation]:
    violations: list[Violation] = []
    if d.kind not in ("tangle", "link"):
        violations.append(Violation("kind", "header", f"unknown kind {d.kind!r}"))

    counts: Counter[str] = Counter()
    for ci, comp in enumerate(d.components, start=1):
        counts.update(comp.passes)
        if d.kind == "tangle" and comp.closed:
            violations.append(
                Violation("kind", f"component {ci}", "closed component in a tangle")
            )
        elif d.kind == "link" and not comp.closed:
            violations.append(
                Violation("kind", f"component {ci}", "open component in a link")
            )
        for tok in comp.passes:
            if TOKEN_RE.match(tok) is None:
                violations.append(
                    Violation("token", f"component {ci}", f"unserializable name {tok!r}")
                )

    for name in sorted(counts):
        if counts[name] != 2:
            violations.append(
                Violation("arity", f"crossing {name}", f"occurs {counts[name]} times, expected 2")
            )
    return violations


def reference_name_error(raw: str) -> tuple[str, int] | None:
    """The first name on the component line ``raw`` that ``TOKEN_RE``
    refuses, with its 1-based column in ``raw``, found by a scan of the
    characters after the line's first colon, up to its comment; None when
    every name passes."""
    code = raw.split("#", 1)[0]
    col = code.index(":") + 1
    while col < len(code):
        if code[col].isspace():
            col += 1
            continue
        end = col
        while end < len(code) and not code[end].isspace():
            end += 1
        if TOKEN_RE.match(code[col:end]) is None:
            return code[col:end], col + 1
        col = end
    return None


def reference_crossing_occurrences(d: Diagram) -> dict[str, list[tuple[int, int]]]:
    occ: dict[str, list[tuple[int, int]]] = {}
    for ci, comp in enumerate(d.components, start=1):
        for pos, name in enumerate(comp.passes):
            occ.setdefault(name, []).append((ci, pos))
    return occ


def reference_pure_crossings(d: Diagram) -> set[str]:
    occ = reference_crossing_occurrences(d)
    return {name for name, places in occ.items() if len(places) == 2 and places[0][0] == places[1][0]}


def reference_is_good_condition(d: Diagram) -> tuple[bool, dict[tuple[int, int], int]]:
    table = {(i, j): 0 for i in range(1, d.n + 1) for j in range(i + 1, d.n + 1)}
    for places in reference_crossing_occurrences(d).values():
        if len(places) != 2:
            continue
        i, j = places[0][0], places[1][0]
        if i != j:
            key = (min(i, j), max(i, j))
            table[key] ^= 1
    return all(bit == 0 for bit in table.values()), table


def reference_pair_counts(d: Diagram) -> dict[tuple[int, int], int]:
    counts = {(i, j): 0 for i in range(1, d.n + 1) for j in range(i, d.n + 1)}
    for places in reference_crossing_occurrences(d).values():
        if len(places) == 2:
            i, j = places[0][0], places[1][0]
            counts[min(i, j), max(i, j)] += 1
    return counts


# -- random diagrams -----------------------------------------------------------


def _assemble(n: int, kind: str, per_comp: dict[int, list[str]], rng: random.Random) -> Diagram:
    comps = []
    for i in range(1, n + 1):
        passes = per_comp[i]
        rng.shuffle(passes)
        comps.append(ComponentCode(closed=kind == "link", passes=tuple(passes)))
    return Diagram(kind=kind, components=tuple(comps))


def random_good_diagram(
    rng: random.Random, n: int, max_crossings: int, kind: str = "tangle"
) -> Diagram:
    """A pure-crossing-free diagram in good condition: even count per pair."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(pairs)
    per_comp: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    budget = max_crossings
    serial = 0
    for i, j in pairs:
        top = budget // 2
        if top <= 0:
            break
        count = 2 * rng.randint(0, min(top, 2))
        budget -= count
        for _ in range(count):
            serial += 1
            name = f"c{serial}"
            per_comp[i].append(name)
            per_comp[j].append(name)
    return _assemble(n, kind, per_comp, rng)


def random_pure_diagram(rng: random.Random, n: int, kind: str) -> Diagram:
    """A diagram with 2-4 pure crossings on each of at least two components
    and 2-8 mixed crossings, any parity."""
    per_comp: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    owners = rng.sample(range(1, n + 1), rng.randint(2, n))
    serial = 0
    for i in owners:
        for _ in range(rng.randint(2, 4)):
            serial += 1
            per_comp[i] += [f"p{serial}", f"p{serial}"]
    for _ in range(rng.randint(2, 8)):
        serial += 1
        i, j = rng.sample(range(1, n + 1), 2)
        per_comp[i].append(f"m{serial}")
        per_comp[j].append(f"m{serial}")
    return _assemble(n, kind, per_comp, rng)


def random_mixed_diagram(rng: random.Random, n: int, crossings: int, kind: str) -> Diagram:
    """A pure-crossing-free diagram with ``crossings`` mixed crossings, each
    between two components drawn at random, so of any parity."""
    per_comp: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for serial in range(1, crossings + 1):
        for i in rng.sample(range(1, n + 1), 2):
            per_comp[i].append(f"c{serial}")
    return _assemble(n, kind, per_comp, rng)


def random_any_diagram(rng: random.Random, max_crossings: int, kind: str | None = None) -> Diagram:
    """A diagram with arbitrary (possibly pure) crossings, any parity."""
    if kind is None:
        kind = rng.choice(("tangle", "link"))
    n = rng.randint(1, 4)
    per_comp: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    total = rng.randint(0, max_crossings)
    for serial in range(1, total + 1):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        name = f"c{serial}"
        per_comp[i].append(name)
        per_comp[j].append(name)
    return _assemble(n, kind, per_comp, rng)


def random_sparse_link(rng: random.Random) -> Diagram:
    """A closed 3- or 4-component link, at most six passes per component,
    in which some component pairs share no crossing and some components
    start with a repeated pair ``p q p q``, so that many rotations tie."""
    n = rng.randint(3, 4)
    repeated = {i: [] for i in range(1, n + 1)}
    mixed: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    for i in range(1, n + 1):
        if rng.random() < 0.4:
            repeated[i] = [f"p{i}", f"q{i}"] * 2
    serial = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                continue
            for _ in range(rng.randint(1, 2)):
                if len(repeated[i] + mixed[i]) < 6 and len(repeated[j] + mixed[j]) < 6:
                    serial += 1
                    mixed[i].append(f"m{serial}")
                    mixed[j].append(f"m{serial}")
    comps = []
    for i in range(1, n + 1):
        rng.shuffle(mixed[i])
        comps.append(ComponentCode(closed=True, passes=tuple(repeated[i] + mixed[i])))
    return Diagram(kind="link", components=tuple(comps))


def scramble(rng: random.Random, d: Diagram) -> Diagram:
    """Rename crossings and rotate/reverse closed components at random."""
    names = sorted(d.crossing_names)
    shuffled = names[:]
    rng.shuffle(shuffled)
    renaming = {old: f"r{k}_{new}" for k, (old, new) in enumerate(zip(names, shuffled))}
    comps = []
    for comp in d.components:
        passes = tuple(renaming[name] for name in comp.passes)
        if comp.closed and passes:
            r = rng.randrange(len(passes))
            passes = passes[r:] + passes[:r]
            if rng.random() < 0.5:
                passes = passes[::-1]
        comps.append(ComponentCode(comp.closed, passes))
    return Diagram(d.kind, tuple(comps))


def fuzz_walk_diagrams(rng: random.Random, kind: str, n: int) -> list[Diagram]:
    """Every diagram of one 10-step restricted walk, as ``fuzz --forbid-pure``
    walks it: a scrambled ``n``-component diagram in good condition without
    pure crossings, with 12 to 14 crossings, then each diagram the walk
    reaches, with its inserted ``w`` names."""
    d = random_good_diagram(rng, n, 14, kind)
    while d.crossing_count < 12:
        d = random_good_diagram(rng, n, 14, kind)
    d = scramble(rng, d)
    walk = _walk(d, 10, rng.randrange(10**6), forbid_pure=True, max_size=None)
    return [d, *(current for _, current in walk)]


def plant_triangle(rng: random.Random, d: Diagram) -> Diagram:
    """``d`` with three fresh crossings inserted as adjacent pairs ``x y``,
    ``x z`` and ``y z`` at random places, so that it has a third-move site."""
    serial = len(d.crossing_names)
    x, y, z = (f"t{serial + k}" for k in range(3))
    comps = [list(comp.passes) for comp in d.components]
    for pair in ((x, y), (x, z), (y, z)):
        passes = comps[rng.randrange(len(comps))]
        pos = rng.randint(0, len(passes))
        passes[pos:pos] = pair if rng.random() < 0.5 else pair[::-1]
    return Diagram(
        d.kind,
        tuple(ComponentCode(comp.closed, tuple(p)) for comp, p in zip(d.components, comps)),
    )


# -- naive and reference canonical keys -------------------------------------------


def naive_canonical_key(d: Diagram):
    """Unpruned minimization over the full product of rotation/reversal choices."""
    variant_lists = []
    for comp in d.components:
        if not comp.closed or not comp.passes:
            variant_lists.append([comp.passes])
            continue
        variants = set()
        for seq in (comp.passes, comp.passes[::-1]):
            for r in range(len(seq)):
                variants.add(seq[r:] + seq[:r])
        variant_lists.append(sorted(variants))
    best = None
    for combo in product(*variant_lists):
        labels: dict[str, int] = {}
        nxt = 1
        rel_all = []
        for seq in combo:
            rel = []
            for tok in seq:
                if tok not in labels:
                    labels[tok] = nxt
                    nxt += 1
                rel.append(labels[tok])
            rel_all.append(tuple(rel))
        key = tuple(rel_all)
        if best is None or key < best:
            best = key
    return (d.kind, tuple((c.closed, rel) for c, rel in zip(d.components, best)))


def reference_canonical_key(d: Diagram) -> tuple:
    """The canonical key with every crossing label in a factor, even one
    with a single alternative, and every component's ties merged: the
    reference for :func:`canonical_key`, which holds determined labels
    outside the factor product."""
    require_valid(d)

    # ahead[c]: the crossings of the components after component c
    ahead: list[frozenset[str]] = []
    later: frozenset[str] = frozenset()
    for comp in reversed(d.components):
        ahead.append(later)
        later = later | frozenset(comp.passes)
    ahead.reverse()

    # A state is a set of labelings: the product of its factors.  A factor is
    # (crossings, alternatives), each alternative a tuple of their labels.
    # Each earlier crossing still to come lies in one factor of every state.
    states: list[tuple] = [()]
    nxt = 1
    earlier: set[str] = set()
    key_parts: list[tuple[bool, tuple[int, ...]]] = []
    for comp, to_come in zip(d.components, ahead):
        passes = comp.passes
        length = len(passes)
        fresh_toks = tuple(sorted(tok for tok in set(passes) - earlier if tok in to_come))
        # ties: (factors, narrowed, the alternatives for fresh_toks)
        if comp.closed and earlier.isdisjoint(passes) and len(set(passes)) == length:
            labels = tuple(range(nxt, nxt + length))
            best = list(labels)
            where = [passes.index(tok) for tok in fresh_toks]
            # the labels of the pass at p in the rotations and the reversals
            # from r = 0, 1, ...: nxt + (p - r) mod L and nxt + (r - p) mod L
            alts = {
                *zip(*(labels[p::-1] + labels[:p:-1] for p in where)),
                *zip(*(labels[-p:] + labels[:-p] for p in where)),
            }
            ties = [(factors, {}, alts) for factors in states]
        else:
            # per state, each earlier crossing's factor and index, and its
            # least label over that factor's alternatives
            owners, firsts = [], []
            for factors in states:
                owner, first = {}, {}
                for f, (toks, alts) in enumerate(factors):
                    for i, (tok, label) in enumerate(zip(toks, map(min, zip(*alts)))):
                        owner[tok] = f, i
                        first[tok] = label
                owners.append(owner)
                firsts.append(first)
            # the least first code over every state and rotation/reversal
            shared = earlier.intersection(passes)
            least = min((first[tok] for first in firsts for tok in shared), default=nxt)
            reverse = passes[::-1]
            best = None
            for factors, owner, first in zip(states, owners, firsts):
                if comp.closed:
                    variants = set()
                    for p, tok in enumerate(passes):
                        if first.get(tok, nxt) == least:
                            q = length - 1 - p
                            variants.add(passes[p:] + passes[:p])
                            variants.add(reverse[q:] + reverse[:q])
                else:
                    variants = (passes,)
                for variant in variants:
                    narrowed: dict[int, list[tuple[int, ...]]] = {}
                    new: dict[str, int] = {}
                    fresh = nxt
                    rel = []
                    # 0 while rel ties best's prefix, -1 once it is below it
                    order = -1 if best is None else 0
                    for tok in variant:
                        place = owner.get(tok)
                        if place is None:
                            code = new.get(tok)
                            if code is None:
                                code = new[tok] = fresh
                                fresh += 1
                        else:
                            f, i = place
                            alts = narrowed.get(f)
                            if alts is None:
                                alts, code = factors[f][1], first[tok]
                            else:
                                code = min(alt[i] for alt in alts)
                            narrowed[f] = [alt for alt in alts if alt[i] == code]
                        if not order:
                            bound = best[len(rel)]
                            if code > bound:
                                break
                            if code < bound:
                                order = -1
                        rel.append(code)
                    else:
                        if order:
                            best = rel
                            ties = []
                        ties.append((factors, narrowed, (tuple(new[tok] for tok in fresh_toks),)))
        assert best is not None
        key_parts.append((comp.closed, tuple(best)))
        nxt = max([nxt - 1, *best]) + 1

        # Ties that carry the same factors differ only in the labels of this
        # component's new crossings, which then form one more factor.
        earlier.update(passes)
        merged: dict[tuple, set[tuple[int, ...]]] = {}
        for factors, narrowed, fresh_alts in ties:
            carried = []
            for f, (toks, alts) in enumerate(factors):
                keep = [i for i, tok in enumerate(toks) if tok in to_come]
                if keep:
                    alts = {tuple(alt[i] for i in keep) for alt in narrowed.get(f, alts)}
                    carried.append((tuple(toks[i] for i in keep), tuple(sorted(alts))))
            merged.setdefault(tuple(sorted(carried)), set()).update(fresh_alts)
        states = [
            carried + (((fresh_toks, tuple(sorted(alts))),) if fresh_toks else ())
            for carried, alts in merged.items()
        ]
    return (d.kind, tuple(key_parts))


# -- brute-force word oracles ----------------------------------------------------


from functools import lru_cache


@lru_cache(maxsize=None)
def all_conjugators(width: int, max_len: int) -> tuple[tuple, ...]:
    alphabet = list(product((0, 1), repeat=width))
    out: list[tuple] = [()]
    layer: list[tuple] = [()]
    for _ in range(max_len):
        layer = [g + (a,) for g in layer for a in alphabet]
        out.extend(layer)
    return tuple(out)


def _reduce_letters(letters) -> tuple:
    stack: list = []
    for x in letters:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def brute_conjugate_equal(u: Word, v: Word, max_len: int = 4) -> bool:
    """Conjugate u by every word of length <= max_len and compare reduced forms.

    Every letter is its own inverse, so the inverse of a conjugator is its
    reversal.
    """
    target = _reduce_letters(v.letters)
    base = _reduce_letters(u.letters)
    for g in all_conjugators(u.context.width, max_len):
        if _reduce_letters(g + base + tuple(reversed(g))) == target:
            return True
    return False


def reference_slide_conjugacy_equal(u: Word, v: Word) -> bool:
    """Whether some composite of slides takes u to a conjugate of v, tried
    mask by mask: the slides commute and are involutions, so the 2^(n-2) bit
    masks enumerate the whole slide subgroup."""
    masks = product((0, 1), repeat=u.context.width)
    return any(conjugate_equal(apply_mask(u, mask), v) for mask in masks)


def naive_class_word(w: Word) -> Word:
    """The least rotation of every masked cyclic reduction of w, comparing
    rotations letter by letter through each letter's factor number."""
    letters = _reduce_letters(w.letters)
    while len(letters) >= 2 and letters[0] == letters[-1]:
        letters = letters[1:-1]
    best = None
    for mask in product((0, 1), repeat=w.context.width):
        masked = tuple(tuple(b ^ m for b, m in zip(x, mask)) for x in letters)
        for r in range(max(1, len(masked))):
            rot = masked[r:] + masked[:r]
            key = tuple(sum(bit << k for k, bit in enumerate(x)) for x in rot)
            if best is None or key < best[0]:
                best = (key, rot)
    return Word(w.context, best[1])


def reference_orbit_representatives(w: Word) -> dict[Letter, Word]:
    """Per mask in ``product`` order, the rotation of the masked cyclic
    reduction whose letter indices are least: the bit-tuple scan."""
    reps = {}
    for mask in product((0, 1), repeat=w.context.width):
        masked = apply_mask(cyclic_reduce(w), mask).letters
        rotations = [masked[r:] + masked[:r] for r in range(len(masked))] or [()]
        best = min(rotations, key=lambda rot: [letter_index(x) for x in rot])
        reps[mask] = _word(w.context, best)
    return reps


# -- reference word kernel --------------------------------------------------------
#
# The bit-tuple bodies of ``invariant._letters``, ``word_table`` and
# ``fingerprint`` and of ``words.canonical_class_word``, kept as references
# for the kernel on letter indices.  The fingerprint cuts a link at its
# offset-0 basepoints.


def reference_letters(d: Diagram) -> dict[str, Letter]:
    """Crossing name -> its letter as a bit tuple, for a tangle without pure
    crossings, from per-position counts of the passes before each crossing."""
    occ = d.occurrences
    before = [[]]
    for ci, comp in enumerate(d.components, start=1):
        running = [0] * (d.n + 1)
        rows = [tuple(running)]
        for name in comp.passes:
            (a, _), (b, _) = occ[name]
            running[b if a == ci else a] += 1
            rows.append(tuple(running))
        before.append(rows)
    return {
        name: tuple(
            (before[ci][pi][k] + before[cj][pj][k]) % 2
            for k in range(1, d.n + 1)
            if k not in (ci, cj)
        )
        for name, ((ci, pi), (cj, pj)) in occ.items()
    }


def reference_word_table(d: Diagram) -> dict[tuple[int, int], Word]:
    _require_tangle(d)
    _require_good(d)
    letters = reference_letters(d)
    occ = d.occurrences
    seqs = {(i, j): [] for i in range(1, d.n + 1) for j in range(1, d.n + 1) if i != j}
    for along, comp in enumerate(d.components, start=1):
        for name in comp.passes:
            (a, _), (b, _) = occ[name]
            seqs[(along, b if a == along else a)].append(letters[name])
    return {
        (along, other): reduce(_word(GroupContext(d.n, along, other), tuple(seq)))
        for (along, other), seq in seqs.items()
    }


def reference_class_word(w: Word, *, undirected: bool = False) -> Word:
    width = w.context.width
    core = [letter_index(x) for x in cyclic_reduce(w).letters]
    cores = (core, core[::-1]) if undirected else (core,)
    best = min(
        (tuple(x ^ c[p] for x in c[p:] + c[:p]) for c in cores for p in range(len(c))),
        default=(),
    )
    return _word(w.context, tuple(tuple((x >> r) & 1 for r in range(width)) for x in best))


def reference_fingerprint(d: Diagram) -> dict:
    closed = d.kind == "link"
    base = cut_link(d, [Basepoint(i, 0) for i in range(1, d.n + 1)]) if closed else d
    table = reference_word_table(base)
    out = {}
    for i in range(1, d.n + 1):
        for j in range(i + 1, d.n + 1):
            out[((i, j), i)] = reference_class_word(table[(i, j)], undirected=closed)
            out[((i, j), j)] = reference_class_word(table[(j, i)], undirected=closed)
    return out


def random_word(rng: random.Random, context: GroupContext, max_len: int) -> Word:
    alphabet = list(product((0, 1), repeat=context.width))
    k = rng.randint(0, max_len)
    return make_word(context, [rng.choice(alphabet) for _ in range(k)])


# -- sequential bracket oracle ----------------------------------------------------


def sequential_bracket_keys(d: Diagram, rng: random.Random) -> set:
    """Mod-2 summand keys by splicing one pure crossing at a time, both
    branches, in a random order per node.

    Only meaningful where the component enumeration of the result is forced
    (tangles, and links with one component), since single splices order new
    circles by their own convention rather than by inherited index.
    """
    n = d.n
    odd: Counter = Counter()

    def expand(current: Diagram, remaining: tuple[str, ...]):
        if not remaining:
            if current.n == n:
                odd[canonical_key(current)] += 1
            return
        pick = rng.randrange(len(remaining))
        name = remaining[pick]
        rest = remaining[:pick] + remaining[pick + 1 :]
        for branch in "AB":
            expand(apply_splices(current, {name: branch}), rest)

    expand(d, tuple(sorted(reference_pure_crossings(d))))
    return {key for key, count in odd.items() if count % 2}


def brute_bracket_keys(d: Diagram) -> set:
    """Mod-2 summand keys over all 2^m branch assignments of the whole diagram.

    Every assignment of the pure crossings is spliced on the whole diagram at
    once by :func:`reference_splice_components`; a result is kept when it
    has exactly one curve per source component, ordered by source component,
    and canonicalized.
    """
    pures = sorted(reference_pure_crossings(d))
    odd: set = set()
    for choice in product("AB", repeat=len(pures)):
        components, sources = reference_splice_components(d, dict(zip(pures, choice)))
        if len(components) != d.n:
            continue
        owners = []
        for touched in sources:
            assert len(touched) == 1, "a pure splice mixed source components"
            owners.append(next(iter(touched)))
        if sorted(owners) != list(range(1, d.n + 1)):
            continue
        ordered = tuple(comp for _, comp in sorted(zip(owners, components)))
        odd ^= {canonical_key(Diagram(d.kind, ordered))}
    return odd


# -- reference splice kernel ------------------------------------------------------


def reference_splice_components(d: Diagram, branches: dict[str, str]):
    """The splice kernel on tuple-named ports, kept as a reference for
    ``bracket._splice_components``: apply all splices of ``branches`` at once.

    Returns ``(components, sources)`` where ``sources[k]`` is the set of
    source component indices whose arcs or passes the k-th result component
    traverses.  Result components are ordered: for each source component in
    index order, the curve through its start (open) or through the arc
    leaving its first pass (closed, when that pass is spliced) or through its
    first pass itself; then all remaining curves in scan order.
    """
    occs = reference_crossing_occurrences(d)
    for name, branch in branches.items():
        if name not in occs:
            raise BracketError(f"unknown crossing {name!r}")
        if branch not in ("A", "B"):
            raise BracketError(f"branch must be 'A' or 'B', got {branch!r}")

    arc: dict[tuple, tuple] = {}

    def join(p, q):
        arc[p] = q
        arc[q] = p

    for ci, comp in enumerate(d.components, start=1):
        L = len(comp.passes)
        if L == 0:
            if not comp.closed:
                join(("s", ci), ("e", ci))
            continue
        for k in range(L - 1):
            join((ci, k, "o"), (ci, k + 1, "i"))
        if comp.closed:
            join((ci, L - 1, "o"), (ci, 0, "i"))
        else:
            join(("s", ci), (ci, 0, "i"))
            join((ci, L - 1, "o"), ("e", ci))

    via: dict[tuple, tuple] = {}
    spliced: set[tuple[int, int]] = set()
    for name, branch in branches.items():
        (c1, p1), (c2, p2) = occs[name]
        spliced.update(((c1, p1), (c2, p2)))
        if branch == "A":
            links = (((c1, p1, "i"), (c2, p2, "o")), ((c1, p1, "o"), (c2, p2, "i")))
        else:
            links = (((c1, p1, "i"), (c2, p2, "i")), ((c1, p1, "o"), (c2, p2, "o")))
        for u, v in links:
            via[u] = v
            via[v] = u

    visited: set[tuple] = set()
    names = {occ: name for name, places in occs.items() for occ in places}

    def trace(start, cycle: bool):
        """Walk from a port entered via its arc; emit surviving passes."""
        seq: list[str] = []
        touched: set[int] = set()
        port = start
        first = True
        while True:
            if cycle and not first and port == start:
                return seq, touched, None
            if port[0] in ("s", "e"):
                visited.add(port)
                return seq, touched, port
            ci, pos, side = port
            touched.add(ci)
            visited.add(port)
            if (ci, pos) in spliced:
                out = via[port]
            else:
                seq.append(names[(ci, pos)])
                out = (ci, pos, "o" if side == "i" else "i")
            visited.add(out)
            touched.add(out[0])
            port = arc[out]
            first = False

    components: list[ComponentCode] = []
    sources: list[set[int]] = []

    # curves anchored at original components, in index order
    for ci, comp in enumerate(d.components, start=1):
        if not comp.closed:
            start = ("s", ci)
            if start in visited:
                continue
            visited.add(start)
            seq, touched, end = trace(arc[start], cycle=False)
            if end[0] == "s":
                # the reconnection would join two lower endpoints, so the
                # result is not readable as lower-to-upper strands
                raise BracketError(
                    "splice reverses one open component onto another; "
                    "such a reconnection has no open-strand representation"
                )
            touched.add(ci)
            components.append(ComponentCode(False, tuple(seq)))
            sources.append(touched)
        elif len(comp.passes) == 0:
            components.append(ComponentCode(True, ()))
            sources.append({ci})
        else:
            anchor = arc[(ci, 0, "o")] if (ci, 0) in spliced else (ci, 0, "i")
            if anchor in visited:
                continue
            seq, touched, _ = trace(anchor, cycle=True)
            components.append(ComponentCode(True, tuple(seq)))
            sources.append(touched)

    # leftover closed curves: start at the first surviving pass so segments
    # read forward, then sweep pass-free cycles
    for ci, comp in enumerate(d.components, start=1):
        for pos in range(len(comp.passes)):
            port = (ci, pos, "i")
            if (ci, pos) in spliced or port in visited:
                continue
            seq, touched, _ = trace(port, cycle=True)
            components.append(ComponentCode(True, tuple(seq)))
            sources.append(touched)
    for ci, comp in enumerate(d.components, start=1):
        for pos in range(len(comp.passes)):
            for side in ("i", "o"):
                port = (ci, pos, side)
                if port in visited:
                    continue
                seq, touched, _ = trace(port, cycle=True)
                components.append(ComponentCode(True, tuple(seq)))
                sources.append(touched)

    return components, sources


# -- reference bracket comparison -------------------------------------------------


def reference_class_key(s: Diagram):
    """The class key of a summand with its words rendered: the parity table,
    and, in good condition, the rendered :func:`reference_fingerprint`."""
    good, table = reference_is_good_condition(s)
    parity = tuple(sorted(table.items()))
    if not good:
        return (parity, None)
    fp = reference_fingerprint(s)
    return (parity, tuple((pair, along, render_word(w)) for (pair, along), w in sorted(fp.items())))


def reference_render_class_key(key) -> str:
    parity, rendered = key
    if rendered is None:
        odd = ", ".join(f"({i},{j})" for (i, j), bit in parity if bit) or "none"
        return "odd crossing parities at pairs " + odd
    return "; ".join(f"pair ({i},{j}) along {a}: {w}" for (i, j), a, w in rendered)


def reference_bracket_equal(p: Bracket, q: Bracket, depth: int) -> Verdict:
    """The comparison that searches before it reads class keys, kept as a
    reference for ``bracket.bracket_equal``: the symmetric difference is
    sorted into classes by pairwise searches first, and only one summand of
    each odd class has its class key counted."""
    if p.n != q.n:
        raise BracketError(f"mismatched component counts: {p.n} vs {q.n}")
    if p.kind != q.kind:
        raise BracketError(f"mismatched kinds: {p.kind} vs {q.kind}")
    a_members = {canonical_key(s): s for s in p.summands}
    b_members = {canonical_key(s): s for s in q.summands}
    if set(a_members) == set(b_members):
        return Verdict("equal")
    members = {**a_members, **b_members}
    every = [members[k] for k in sorted(set(a_members) ^ set(b_members))]

    root = list(range(len(every)))

    def find(u: int) -> int:
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for u, v in combinations(range(len(every)), 2):
        ru, rv = find(u), find(v)
        if ru != rv and bounded_equivalence_search(every[u], every[v], depth).equivalent:
            root[rv] = ru
    sizes = Counter(find(u) for u in range(len(every)))
    rest = [every[r] for r, size in sizes.items() if size % 2]
    if not rest:
        return Verdict("equal")

    counts = Counter(reference_class_key(s) for s in rest)
    odd = sorted(
        (key for key, c in counts.items() if c % 2 != 0),
        key=lambda key: (key[1] is None, str(key)),
    )
    if odd:
        return Verdict("distinct", certificate=reference_render_class_key(odd[0]))
    return Verdict("unknown")


# -- reference compare ------------------------------------------------------------


def reference_compare(a: Diagram, b: Diagram, depth: int) -> tuple[int, str]:
    """The ``compare`` ladder that also compared the brackets of pure-free
    inputs the search and the descent could not join, kept as a reference
    for ``cli._cmd_compare``: parity tables, fingerprints, canonical keys,
    then between pure-free inputs the descent and one search, the descent
    first when the inputs are at least two moves apart and otherwise only
    if the search answers ``unknown``, then ``bracket_equal`` (at depth 0
    after that search).  Equal brackets give ``equal`` only with the trace
    of an unrestricted search that joins the inputs, and ``unknown``
    otherwise.  Returns the exit code and the text on stdout."""

    def odd_pairs(table):
        return ", ".join(f"({i},{j})" for (i, j), bit in sorted(table.items()) if bit) or "none"

    def joined(trace):
        return 0, "equal\ntrace:\n" + serialize_trace(trace)

    if a.parity != b.parity:
        return 1, (
            "distinct\ncertificate: odd crossing parities at pairs "
            f"{odd_pairs(a.parity)} != {odd_pairs(b.parity)}\n"
        )
    pure_free = not a.pure and not b.pure
    if pure_free and not any(a.parity.values()):
        fa, fb = fingerprint(a), fingerprint(b)
        differ = [key for key in sorted(fa) if fa[key] != fb[key]]
        if differ:
            (i, j), along = differ[0]
            return 1, (
                f"distinct\ncertificate: pair ({i},{j}) along {along}: "
                f"{render_word(fa[differ[0]])} != {render_word(fb[differ[0]])}\n"
            )
    if canonical_key(a) == canonical_key(b):
        return 0, "equal\n"
    if pure_free:
        far = reference_move_lower_bound(a, b) >= 2
        if far and (trace := join_by_descent(a, b)) is not None:
            return joined(trace)
        found = bounded_equivalence_search(a, b, depth)
        if found.equivalent:
            return joined(found.trace)
        if not far and (trace := join_by_descent(a, b)) is not None:
            return joined(trace)
        depth = 0
    verdict = bracket_equal(bracket(a), bracket(b), depth)
    if verdict.status == "distinct":
        return 1, f"distinct\ncertificate: {verdict.certificate}\n"
    if verdict.status == "equal":
        found = bounded_equivalence_search(a, b, depth)
        if found.equivalent:
            return joined(found.trace)
    return 0, "unknown\n"


# -- reference equivalence search -------------------------------------------------


def whole_slate(d: Diagram, *, forbid_pure: bool = False, max_size: int) -> list[MoveSite]:
    """Every site of the ``moves._slate`` layout of ``d``, built in slate
    order by ``moves._expand`` with no goal to prune by."""
    return list(_expand(d, forbid_pure=forbid_pure, max_size=max_size))


def reference_search(
    a: Diagram, b: Diagram, depth: int, *, forbid_pure: bool = False, max_nodes: int = 50000
):
    """The one-sided breadth-first search from ``a``, kept as a reference for
    ``moves.bounded_equivalence_search``.

    States are deduplicated by canonical form; insertions are bounded by the
    larger input's crossing count plus a slack of 2.  Returns a replayable
    trace on success and ``unknown`` otherwise (exhausting ``max_nodes``
    also yields unknown).
    """
    if a.n != b.n:
        raise MoveError(f"mismatched component counts: {a.n} vs {b.n}")
    if a.kind != b.kind:
        raise MoveError(f"mismatched kinds: {a.kind} vs {b.kind}")
    target = canonical_key(b)
    if canonical_key(a) == target:
        return SearchVerdict(True, WalkTrace(a, (), a), reason="found")
    max_size = max(a.crossing_count, b.crossing_count) + 2
    visited = {canonical_key(a)}
    frontier = deque([(a, ())])
    nodes = 0
    for _ in range(depth):
        next_frontier = deque()
        while frontier:
            diag, trace = frontier.popleft()
            for site in whole_slate(diag, forbid_pure=forbid_pure, max_size=max_size):
                neighbor = apply_move(diag, site)
                key = canonical_key(neighbor)
                if key in visited:
                    continue
                visited.add(key)
                extended = trace + (site,)
                if key == target:
                    return SearchVerdict(True, WalkTrace(a, extended, neighbor), reason="found")
                nodes += 1
                if nodes >= max_nodes:
                    return SearchVerdict(False, None, reason="cap")
                next_frontier.append((neighbor, extended))
        frontier = next_frontier
    return SearchVerdict(False, None, reason="depth")


def reference_bidirectional_search(
    a: Diagram, b: Diagram, depth: int, *, forbid_pure: bool = False, max_nodes: int = 50000
):
    """The unpruned bidirectional search, kept as a reference for
    ``moves.bounded_equivalence_search``, which must give the same trace
    wherever this one does not reach ``max_nodes``.

    Whole levels grow alternately from ``a`` and from ``b``, starting at
    ``a``, for ``depth`` levels; ``max_nodes`` bounds the states of both
    sides together.  An unknown answer has the reason ``cap`` or ``depth``.
    """
    if a.n != b.n:
        raise MoveError(f"mismatched component counts: {a.n} vs {b.n}")
    if a.kind != b.kind:
        raise MoveError(f"mismatched kinds: {a.kind} vs {b.kind}")
    source, target = canonical_key(a), canonical_key(b)
    if source == target:
        return SearchVerdict(True, WalkTrace(a, (), a), reason="found")
    max_size = max(a.crossing_count, b.crossing_count) + 2
    sides = ({source: (a, None, None)}, {target: (b, None, None)})
    frontiers = [[source], [target]]
    nodes = 0
    for level in range(depth):
        grow = level % 2
        seen, other = sides[grow], sides[1 - grow]
        grown = []
        for key in frontiers[grow]:
            diag = seen[key][0]
            for site in whole_slate(diag, forbid_pure=forbid_pure, max_size=max_size):
                neighbor = apply_move(diag, site)
                found = canonical_key(neighbor)
                if found in seen:
                    continue
                seen[found] = (neighbor, key, site)
                if found in other:
                    trace = _joined_trace(a, sides, found, forbid_pure, max_size)
                    return SearchVerdict(True, trace, reason="found")
                nodes += 1
                if nodes >= max_nodes:
                    return SearchVerdict(False, None, reason="cap")
                grown.append(found)
        frontiers[grow] = grown
    return SearchVerdict(False, None, reason="depth")


def reference_descent(d: Diagram, cap: int = MAX_CLOSURE):
    """The representative key of the descent of ``moves.join_by_descent``
    from ``d``, without pure crossings, built on the reference move
    enumeration and application and the naive key alone; None when a
    third-move closure holds ``cap`` states.

    The first second-move deletion is applied while there is one; then the
    diagrams reached by third moves are listed breadth-first, each once by
    naive key, until one has a second-move deletion, from which the
    deletions resume.  When the list runs out, its least key is the
    representative.
    """

    def deletions(x: Diagram) -> list[MoveSite]:
        return reference_enumerate_moves(x, kinds=("R2_delete",), forbid_pure=True)

    current = d
    while True:
        sites = deletions(current)
        if sites:
            current = reference_apply_move(current, sites[0])
            continue
        closure = [current]
        seen = {naive_canonical_key(current)}
        resume = None
        k = 0
        while resume is None and k < len(closure):
            for site in reference_enumerate_moves(closure[k], kinds=("R3",), forbid_pure=True):
                neighbor = reference_apply_move(closure[k], site)
                key = naive_canonical_key(neighbor)
                if key in seen:
                    continue
                seen.add(key)
                if deletions(neighbor):
                    resume = neighbor
                    break
                closure.append(neighbor)
                if len(closure) >= cap:
                    return None
            k += 1
        if resume is None:
            return min(naive_canonical_key(x) for x in closure)
        current = resume


def reference_move_lower_bound(x: Diagram, y: Diagram) -> int:
    """The move lower bound from a fresh scan of the passes: the sum over
    component pairs (i, j), i <= j, of the crossing count difference halved
    and rounded up."""

    def counts(d: Diagram) -> Counter:
        tally: Counter = Counter()
        for places in reference_crossing_occurrences(d).values():
            (i, _), (j, _) = places
            tally[min(i, j), max(i, j)] += 1
        return tally

    cx, cy = counts(x), counts(y)
    return sum(math.ceil(abs(cx[pair] - cy[pair]) / 2) for pair in cx.keys() | cy.keys())


# -- reference random walk --------------------------------------------------------


def reference_random_walk(
    d: Diagram,
    steps: int,
    seed: int,
    *,
    forbid_pure: bool = False,
    max_size: int | None = None,
) -> WalkTrace:
    """The walk that builds the :func:`whole_slate` at each step and draws
    one site from it, kept as a reference for ``moves.random_walk``."""
    if max_size is None:
        max_size = d.crossing_count + 4
    rng = random.Random(seed)
    current = d
    applied: list[MoveSite] = []
    for _ in range(steps):
        candidates = whole_slate(current, forbid_pure=forbid_pure, max_size=max_size)
        if not candidates:
            break
        site = candidates[rng.randrange(len(candidates))]
        current = apply_move(current, site)
        applied.append(site)
    return WalkTrace(initial=d, moves=tuple(applied), final=current)


# -- reference move enumeration ---------------------------------------------------


def reference_adjacent_pairs(d: Diagram) -> list[tuple[int, int, tuple[str, str]]]:
    """All adjacent pairs as (component, position, letters), deduplicated by
    their position sets: the pairs that ``moves.enumerate_moves`` scans."""
    out = []
    for ci, comp in enumerate(d.components, start=1):
        L = len(comp.passes)
        if L < 2:
            continue
        positions = range(L) if comp.closed else range(L - 1)
        seen: set[frozenset[int]] = set()
        for p in positions:
            q = (p + 1) % L
            posset = frozenset((p, q))
            if posset in seen:
                continue
            seen.add(posset)
            out.append((ci, p, (comp.passes[p], comp.passes[q])))
    return out


def reference_enumerate_moves(d: Diagram, *, kinds=None, forbid_pure: bool = False):
    """The letter-set-triple enumeration, kept as a reference for
    ``moves.enumerate_moves``: every triple of pair letter sets is tested for
    a third move, and every site is applied and its result scanned for pure
    crossings under ``forbid_pure``."""
    bad = reference_validate(d)
    if bad:
        raise DiagramError("invalid diagram: " + "; ".join(str(v) for v in bad))
    if kinds is None:
        kinds = set(DELETION_KINDS)
    else:
        kinds = set(kinds)
        unknown = kinds - set(ALL_KINDS)
        if unknown:
            raise MoveError(f"unknown move kinds {sorted(unknown)}")

    pairs = reference_adjacent_pairs(d)
    sites: list[MoveSite] = []

    if "R1_delete" in kinds and not forbid_pure:
        for ci, p, (a, b) in pairs:
            if a == b:
                sites.append(MoveSite("R1_delete", names=(a,), pairs=((ci, p),)))

    if "R2_delete" in kinds:
        by_letters: dict[frozenset[str], list[tuple[int, int]]] = {}
        for ci, p, (a, b) in pairs:
            if a != b:
                by_letters.setdefault(frozenset((a, b)), []).append((ci, p))
        for letters, places in by_letters.items():
            for loc1, loc2 in combinations(places, 2):
                if not _disjoint(d, loc1, loc2):
                    continue
                first, second = sorted((loc1, loc2))
                ci, p = first
                comp = d.components[ci - 1]
                x, y = comp.passes[p], comp.passes[_pair_positions(comp, p)[1]]
                sites.append(MoveSite("R2_delete", names=(x, y), pairs=(first, second)))

    if "R3" in kinds:
        by_letters = {}
        for ci, p, (a, b) in pairs:
            if a != b:
                by_letters.setdefault(frozenset((a, b)), []).append((ci, p))
        lettersets = sorted(by_letters, key=sorted)
        for s1, s2, s3 in combinations(lettersets, 3):
            union = s1 | s2 | s3
            if len(union) != 3:
                continue
            # three distinct 2-subsets of a 3-set are exactly {x,y} {x,z} {y,z}
            for loc1 in by_letters[s1]:
                for loc2 in by_letters[s2]:
                    for loc3 in by_letters[s3]:
                        locs = (loc1, loc2, loc3)
                        if all(
                            _disjoint(d, u, v) for u, v in combinations(locs, 2)
                        ):
                            sites.append(
                                MoveSite("R3", names=tuple(sorted(union)), pairs=tuple(sorted(locs)))
                            )

    seen_sites = set()
    unique = []
    for site in sites:
        sig = (site.kind, site.pairs)
        if sig not in seen_sites:
            seen_sites.add(sig)
            unique.append(site)

    if forbid_pure:
        unique = [s for s in unique if not reference_pure_crossings(apply_move(d, s))]
    unique.sort(key=lambda s: (s.kind, s.pairs, s.names))
    return unique


# -- reference move application and inversion -------------------------------------
#
# The bodies that gave each of the first and second moves its own deletion,
# insertion and inverse, kept as references for ``moves.apply_move`` and
# ``moves.inverse_site``.  A site with the wrong number of names or
# locations fails here with a bare unpacking ``ValueError``, and the inverse
# of a site that does not apply is refused as its application is.


def reference_apply_move(d: Diagram, m: MoveSite) -> Diagram:
    comps = list(d.components)
    if m.kind == "R1_delete":
        ((ci, p),) = m.pairs
        comp = _reference_component(d, ci)
        a, b = _pair_positions(comp, p)
        (x,) = m.names
        if comp.passes[a] != x or comp.passes[b] != x:
            raise MoveError(f"no double occurrence of {x!r} at component {ci} position {p}")
        comps[ci - 1] = _reference_delete_positions(comp, {a, b})
    elif m.kind == "R1_insert":
        ((ci, p, wrapped),) = m.slots
        (x,) = m.names
        _check_fresh(d, x)
        comp = _reference_component(d, ci)
        comps[ci - 1] = _reference_insert_pair(comp, p, (x, x), wrapped)
    elif m.kind == "R2_delete":
        loc1, loc2 = m.pairs
        x, y = m.names
        if x == y:
            raise MoveError("second-move crossings must be distinct")
        _reference_check_pair_letters(d, loc1, (x, y))
        second = _reference_pair_letters(d, loc2)
        if set(second) != {x, y}:
            raise MoveError(f"pair at {loc2} reads {second}, expected letters {{{x}, {y}}}")
        if not _disjoint(d, loc1, loc2):
            raise MoveError("second-move pairs overlap")
        deletions: dict[int, set[int]] = {}
        for ci, p in (loc1, loc2):
            a, b = _pair_positions(_reference_component(d, ci), p)
            deletions.setdefault(ci, set()).update((a, b))
        for ci, positions in deletions.items():
            comps[ci - 1] = _reference_delete_positions(comps[ci - 1], positions)
    elif m.kind == "R2_insert":
        slot_a, slot_b = m.slots
        x, y = m.names
        if x == y:
            raise MoveError("second-move crossings must be distinct")
        _check_fresh(d, x)
        _check_fresh(d, y)
        pair_a = (x, y)
        pair_b = (x, y) if m.same_order else (y, x)
        comps = _reference_two_inserts(d, comps, (slot_a, pair_a), (slot_b, pair_b))
    elif m.kind == "R3":
        locs = m.pairs
        if len(locs) != 3:
            raise MoveError("third move needs exactly three pairs")
        lettersets = [frozenset(_reference_pair_letters(d, loc)) for loc in locs]
        union = frozenset().union(*lettersets)
        if len(union) != 3 or any(len(s) != 2 for s in lettersets) or len(set(lettersets)) != 3:
            raise MoveError(f"pairs at {locs} do not form a triangle")
        if sorted(m.names) != sorted(union):
            raise MoveError(f"pairs at {locs} read {sorted(union)}, not the names {m.names}")
        for u, v in combinations(locs, 2):
            if not _disjoint(d, u, v):
                raise MoveError("third-move pairs overlap")
        for ci, p in locs:
            comp = comps[ci - 1]
            a, b = _pair_positions(comp, p)
            passes = list(comp.passes)
            passes[a], passes[b] = passes[b], passes[a]
            comps[ci - 1] = ComponentCode(comp.closed, tuple(passes))
    else:
        raise MoveError(f"unknown move kind {m.kind!r}")
    return Diagram(kind=d.kind, components=tuple(comps))


def _reference_component(d: Diagram, ci: int) -> ComponentCode:
    if not 1 <= ci <= d.n:
        raise MoveError(f"component {ci} out of range 1..{d.n}")
    return d.components[ci - 1]


def _reference_pair_letters(d: Diagram, loc: tuple[int, int]) -> tuple[str, str]:
    ci, p = loc
    comp = _reference_component(d, ci)
    a, b = _pair_positions(comp, p)
    return comp.passes[a], comp.passes[b]


def _reference_check_pair_letters(d: Diagram, loc: tuple[int, int], expected: tuple[str, str]):
    actual = _reference_pair_letters(d, loc)
    if actual != expected:
        raise MoveError(f"pair at {loc} reads {actual}, expected {expected}")


def _reference_delete_positions(comp: ComponentCode, positions: set[int]) -> ComponentCode:
    passes = tuple(tok for k, tok in enumerate(comp.passes) if k not in positions)
    return ComponentCode(comp.closed, passes)


def _reference_insert_pair(
    comp: ComponentCode, pos: int, pair: tuple[str, str], wrapped: bool
) -> ComponentCode:
    if wrapped:
        if not comp.closed:
            raise MoveError("wrapped insertion needs a closed component")
        first, second = pair
        return ComponentCode(True, (second,) + comp.passes + (first,))
    if not 0 <= pos <= len(comp.passes):
        raise MoveError(f"insertion position {pos} out of range 0..{len(comp.passes)}")
    return ComponentCode(comp.closed, comp.passes[:pos] + pair + comp.passes[pos:])


def _reference_two_inserts(d, comps, first, second):
    (slot_a, pair_a), (slot_b, pair_b) = first, second
    (ca, pa, wa), (cb, pb, wb) = slot_a, slot_b
    if ca != cb:
        comps[ca - 1] = _reference_insert_pair(_reference_component(d, ca), pa, pair_a, wa)
        comps[cb - 1] = _reference_insert_pair(_reference_component(d, cb), pb, pair_b, wb)
        return comps
    comp = _reference_component(d, ca)
    if wa and wb:
        raise MoveError("at most one wrapped insertion per component")
    if wa:
        comp = _reference_insert_pair(comp, pb, pair_b, False)
        comp = _reference_insert_pair(comp, 0, pair_a, True)
    elif wb:
        comp = _reference_insert_pair(comp, pa, pair_a, False)
        comp = _reference_insert_pair(comp, 0, pair_b, True)
    elif pa <= pb:
        comp = _reference_insert_pair(comp, pb, pair_b, False)
        comp = _reference_insert_pair(comp, pa, pair_a, False)
    else:
        comp = _reference_insert_pair(comp, pa, pair_a, False)
        comp = _reference_insert_pair(comp, pb, pair_b, False)
    comps[ca - 1] = comp
    return comps


def reference_inverse_site(d: Diagram, m: MoveSite) -> MoveSite:
    reference_apply_move(d, m)
    if m.kind == "R3":
        return m
    if m.kind == "R1_delete":
        ((ci, p),) = m.pairs
        comp = _reference_component(d, ci)
        wrapped = comp.closed and p == len(comp.passes) - 1
        return MoveSite("R1_insert", names=m.names, slots=((ci, 0 if wrapped else p, wrapped),))
    if m.kind == "R1_insert":
        ((ci, p, wrapped),) = m.slots
        comp = _reference_component(d, ci)
        newlen = len(comp.passes) + 2
        pos = newlen - 1 if wrapped else p
        return MoveSite("R1_delete", names=m.names, pairs=((ci, pos),))
    if m.kind == "R2_delete":
        return _reference_inverse_r2_delete(d, m)
    if m.kind == "R2_insert":
        return _reference_inverse_r2_insert(d, m)
    raise MoveError(f"unknown move kind {m.kind!r}")


def _reference_is_wrapped_pair(comp: ComponentCode, p: int) -> bool:
    return comp.closed and len(comp.passes) >= 2 and p == len(comp.passes) - 1


def _reference_inverse_r2_delete(d: Diagram, m: MoveSite) -> MoveSite:
    entries = []
    for ci, p in m.pairs:
        comp = _reference_component(d, ci)
        letters = _reference_pair_letters(d, (ci, p))
        entries.append((ci, p, _reference_is_wrapped_pair(comp, p), letters))
    (c1, p1, w1, l1), (c2, p2, w2, l2) = entries
    if c1 != c2:
        slots = ((c1, 0 if w1 else p1, w1), (c2, 0 if w2 else p2, w2))
        letters = (l1, l2)
    else:
        if w1 and w2:
            raise MoveError("two wrapped pairs on one component cannot be disjoint")
        if w1:
            (c1, p1, w1, l1), (c2, p2, w2, l2) = (c2, p2, w2, l2), (c1, p1, w1, l1)
        if w2:
            slots = ((c1, p1 - 1, False), (c2, 0, True))
            letters = (l1, l2)
        else:
            if p1 > p2:
                (p1, l1), (p2, l2) = (p2, l2), (p1, l1)
            slots = ((c1, p1, False), (c2, p2 - 2, False))
            letters = (l1, l2)
    return MoveSite(
        "R2_insert",
        names=letters[0],
        slots=slots,
        same_order=(letters[1] == letters[0]),
    )


def _reference_inverse_r2_insert(d: Diagram, m: MoveSite) -> MoveSite:
    slot_a, slot_b = m.slots
    (ca, pa, wa), (cb, pb, wb) = slot_a, slot_b
    x, y = m.names
    if ca != cb:
        La = len(_reference_component(d, ca).passes)
        Lb = len(_reference_component(d, cb).passes)
        pair_a = (ca, La + 1 if wa else pa)
        pair_b = (cb, Lb + 1 if wb else pb)
    else:
        L = len(_reference_component(d, ca).passes)
        if wa and wb:
            raise MoveError("at most one wrapped insertion per component")
        if wa:
            pair_a = (ca, L + 3)
            pair_b = (cb, pb + 1)
        elif wb:
            pair_a = (ca, pa + 1)
            pair_b = (cb, L + 3)
        elif pa <= pb:
            pair_a = (ca, pa)
            pair_b = (cb, pb + 2)
        else:
            pair_a = (ca, pa + 2)
            pair_b = (cb, pb)
    first, second = sorted((pair_a, pair_b))
    # anchor the stored names to the sorted first pair
    first_letters = (x, y) if first == pair_a else ((x, y) if m.same_order else (y, x))
    return MoveSite("R2_delete", names=first_letters, pairs=(first, second))
