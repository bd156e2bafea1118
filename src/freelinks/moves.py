"""Reidemeister moves for free diagrams, acting on Gauss codes.

The three moves become local rewriting rules on pass sequences:

* first move: delete or insert an adjacent double occurrence ``x x``;
* second move: delete or insert two crossings whose four occurrences form
  two disjoint adjacent pairs, each pair reading ``x y`` or ``y x`` (free
  diagrams carry no signs, so both relative orders are legal);
* third move: three disjoint adjacent pairs covering the letter sets
  ``{x,y} {x,z} {y,z}``; applying the move reverses each pair in place.

Adjacency is cyclic on closed components.  A pair located at position ``p``
occupies positions ``p`` and ``p+1`` modulo the component length, so on a
closed component ``p = len-1`` denotes the pair wrapping over the stored
basepoint.  Insertions may likewise be "wrapped" (one letter prepended, one
appended), which makes every deletion exactly invertible.  First and second
moves, on one and two pairs, share one pair deletion, one pair insertion and
one inverse rule.

Deletions and third-move sites are finitely enumerable; insertions form
infinite families, of which a finite slate is used.  ``_slate`` alone holds
the rules for the slate's insertions and lays it out without building them,
by the slot count of each component, from which the slate's size and the
index of each insertion follow per component.
``_expand`` is the one expansion of that layout: a generator that builds
each site only when it is reached, and drops, unbuilt, the sites a move
lower bound rules out.  It decides from the pair counts alone, per move
kind and per component pair, what the bound can keep, and neither
enumerates a kind nor visits the slots of a block of insertions that it
cannot keep.  The bounded search and the joining of its trace
read it lazily, and :func:`random_walk` draws one index into the layout
and builds only that site.

The bounded search keeps to restricted moves, those that make no pure
crossing, exactly when neither input has a pure crossing; by the paper's
theorem that loses no equivalence.

Between diagrams without pure crossings, :func:`join_by_descent` descends
each input to a representative under restricted moves, which do not depend
on a search depth, and joins the two when the representatives agree.

Its records, :class:`MoveSite`, :class:`WalkTrace` and
:class:`SearchVerdict`, are immutable named tuples, each equal to the tuple
of its fields: the data class module's ``replace``, ``fields`` and
``asdict`` do not apply to them (``_replace`` and ``_fields`` do), and only
:class:`~freelinks.diagram.Diagram` caches fields.
"""

from __future__ import annotations

import random
import re
from collections import deque
from collections.abc import Iterator
from itertools import combinations, product
from operator import attrgetter
from typing import NamedTuple

from .diagram import (
    TOKEN_RE,
    ComponentCode,
    Diagram,
    MoveError,
    ParseError,
    _isomorphic,
    _lines,
    _text,
    require_valid,
)

__all__ = [
    "MoveSite",
    "WalkTrace",
    "SearchVerdict",
    "MoveError",
    "enumerate_moves",
    "apply_move",
    "inverse_site",
    "random_walk",
    "bounded_equivalence_search",
    "join_by_descent",
    "move_lower_bound",
    "serialize_trace",
    "parse_trace",
    "replay",
]

DELETION_KINDS = ("R1_delete", "R2_delete", "R3")
ALL_KINDS = ("R1_delete", "R1_insert", "R2_delete", "R2_insert", "R3")
# states one run of a bounded equivalence search keeps, on both sides together
MAX_NODES = 50000
# states one third-move closure of a descent keeps; a closure that reaches it
# gives its input no representative
MAX_CLOSURE = 20000
# the change each move kind makes to the crossing count of the pair it touches
_COUNT_CHANGE = {"R1_delete": -1, "R1_insert": 1, "R2_delete": -2, "R2_insert": 2}
# component pair (i, j), i <= j -> the number of crossings between them, as
# in Diagram.pair_counts
PairCounts = dict[tuple[int, int], int]
# move kind -> (crossing names, pairs or slots) of a site and of a trace line
_TRACE_FIELDS = {
    "R1_delete": (1, 1),
    "R1_insert": (1, 1),
    "R2_delete": (2, 2),
    "R2_insert": (2, 2),
    "R3": (3, 3),
}


class MoveSite(NamedTuple):
    """A located move, with enough data to apply it deterministically.

    ``pairs`` locates adjacent pairs as ``(component, position)`` with
    1-based components (used by deletions and the third move); ``slots``
    locates insertions as ``(component, position, wrapped)``.  For a second
    move insertion, the first slot receives the letters ``names`` in order
    and the second receives them in the same order when ``same_order`` else
    swapped.
    """

    kind: str
    names: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...] = ()
    slots: tuple[tuple[int, int, bool], ...] = ()
    same_order: bool = True


class WalkTrace(NamedTuple):
    """A replayable move sequence: replaying ``moves`` from ``initial`` yields ``final``."""

    initial: Diagram
    moves: tuple[MoveSite, ...]
    final: Diagram


class SearchVerdict(
    NamedTuple(
        "SearchVerdict", [("equivalent", bool), ("trace", WalkTrace | None), ("reason", str)]
    )
):
    """Outcome of a bounded equivalence search; never claims inequivalence.

    ``reason``, a required keyword, is ``found`` with a trace, and otherwise
    says why the search gave up: ``bound`` (the move lower bound exceeds the
    depth), ``depth`` (no sequence within the depth was found), ``cap`` (a
    run kept :data:`MAX_NODES` states) or ``exhausted`` (one end's whole
    space of diagrams within the size bound was searched without meeting
    the other).
    """

    __slots__ = ()

    def __new__(cls, equivalent: bool, trace: WalkTrace | None = None, *, reason: str):
        return tuple.__new__(cls, (equivalent, trace, reason))

    def __getnewargs_ex__(self):
        # pickle and copy pass reason by keyword, as __new__ requires
        return (self.equivalent, self.trace), {"reason": self.reason}


# -- pattern scanning ---------------------------------------------------------


def _pair_positions(comp: ComponentCode, pos: int) -> tuple[int, int]:
    L = len(comp.passes)
    if L < 2:
        raise MoveError(f"no adjacent pair in a component of length {L}")
    if comp.closed:
        if not 0 <= pos < L:
            raise MoveError(f"pair position {pos} out of range 0..{L - 1}")
        return pos, (pos + 1) % L
    if not 0 <= pos < L - 1:
        raise MoveError(f"pair position {pos} out of range 0..{L - 2}")
    return pos, pos + 1


def enumerate_moves(d: Diagram, *, kinds=None, forbid_pure: bool = False) -> list[MoveSite]:
    """All applicable deletion and third-move sites of the requested kinds.

    Insertions are infinite families and are not enumerated (see
    :func:`_slate`).  Under ``forbid_pure`` no first-move site is
    kept and every kept site's result has no pure crossing.  Deletions and
    third moves keep every other crossing on its two components, so that
    keeps every site of a diagram without pure crossings and, of a diagram
    with some, only the second-move deletions that remove all of them.
    """
    require_valid(d)
    if kinds is None:
        kinds = set(DELETION_KINDS)
    else:
        kinds = set(kinds)
        unknown = kinds - set(ALL_KINDS)
        if unknown:
            raise MoveError(f"unknown move kinds {sorted(unknown)}")
    pure = d.pure if forbid_pure else frozenset()

    sites: list[MoveSite] = []
    # pair locations in scan order, keyed by their two distinct letters, the
    # lesser first; a closed 2-pass component has one pair, since its two
    # cyclic adjacencies cover the same two positions
    by_letters: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for ci, comp in enumerate(d.components, start=1):
        passes = comp.passes
        after = passes[1:] + passes[:1] if comp.closed and len(passes) > 2 else passes[1:]
        for p, (a, b) in enumerate(zip(passes, after)):
            if a != b:
                by_letters.setdefault((a, b) if a < b else (b, a), []).append((ci, p))
            elif "R1_delete" in kinds and not forbid_pure:
                sites.append(MoveSite("R1_delete", names=(a,), pairs=((ci, p),)))

    if "R2_delete" in kinds:
        for letters, places in by_letters.items():
            if len(places) < 2 or not pure.issubset(letters):
                continue
            for loc1, loc2 in combinations(places, 2):
                if loc1[0] != loc2[0] or _disjoint(d, loc1, loc2):
                    sites.append(
                        MoveSite("R2_delete", names=_pair_letters(d, loc1), pairs=(loc1, loc2))
                    )

    if "R3" in kinds and not pure:
        # each letter's greater partners; each triangle {x,y} {x,z} {y,z},
        # x < y < z, is found once, from {x,y} and a partner z of x past y
        greater: dict[str, list[str]] = {}
        for a, b in by_letters:
            greater.setdefault(a, []).append(b)
        for (x, y), places in by_letters.items():
            for z in greater[x]:
                if z <= y or (y, z) not in by_letters:
                    continue
                for u, v, w in product(places, by_letters[x, z], by_letters[y, z]):
                    if (
                        (u[0] != v[0] or _disjoint(d, u, v))
                        and (u[0] != w[0] or _disjoint(d, u, w))
                        and (v[0] != w[0] or _disjoint(d, v, w))
                    ):
                        pairs = tuple(sorted((u, v, w)))
                        sites.append(MoveSite("R3", names=(x, y, z), pairs=pairs))

    sites.sort(key=attrgetter("kind", "pairs", "names"))
    return sites


def _disjoint(d: Diagram, loc1: tuple[int, int], loc2: tuple[int, int]) -> bool:
    (c1, p1), (c2, p2) = loc1, loc2
    if c1 != c2:
        return True
    comp = d.components[c1 - 1]
    a1, b1 = _pair_positions(comp, p1)
    a2, b2 = _pair_positions(comp, p2)
    return a1 != a2 and a1 != b2 and b1 != a2 and b1 != b2


# -- application --------------------------------------------------------------


def apply_move(d: Diagram, m: MoveSite) -> Diagram:
    """Apply a move site; raises :class:`MoveError` if its pattern is absent.

    Component count, component indices, openness and all passes outside the
    site are unchanged.  First and second moves share one deletion, which
    drops the positions of their pairs, and one insertion, :func:`_insert_pairs`.
    """
    kind = m.kind
    locs = _locations(m)
    if kind == "R2_insert":
        x, y = m.names
        if x == y:
            raise MoveError("second-move crossings must be distinct")
        _check_fresh(d, x)
        _check_fresh(d, y)
        slot_a, slot_b = locs
        inserts = [(slot_a, (x, y)), (slot_b, (x, y) if m.same_order else (y, x))]
        (ca, pa, wa), (cb, pb, wb) = locs
        if ca == cb:
            # two slots of one component go in right to left, the wrapped
            # one last, so that each reads the component as d has it
            _component(d.components, ca)
            if wa and wb:
                raise MoveError("at most one wrapped insertion per component")
            if wa or (not wb and pa <= pb):
                inserts.reverse()
        return _insert_pairs(d, inserts)
    if kind == "R1_insert":
        (x,) = m.names
        _check_fresh(d, x)
        return _insert_pairs(d, [(locs[0], (x, x))])
    comps = list(d.components)
    if kind == "R3":
        lettersets = [frozenset(_pair_letters(d, loc)) for loc in locs]
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
        return Diagram(d.kind, tuple(comps))
    if kind == "R1_delete":
        ((ci, p),) = locs
        (x,) = m.names
        if _pair_letters(d, (ci, p)) != (x, x):
            raise MoveError(f"no double occurrence of {x!r} at component {ci} position {p}")
    else:
        loc1, loc2 = locs
        x, y = m.names
        if x == y:
            raise MoveError("second-move crossings must be distinct")
        first = _pair_letters(d, loc1)
        if first != (x, y):
            raise MoveError(f"pair at {loc1} reads {first}, expected {(x, y)}")
        second = _pair_letters(d, loc2)
        if set(second) != {x, y}:
            raise MoveError(f"pair at {loc2} reads {second}, expected letters {{{x}, {y}}}")
        if not _disjoint(d, loc1, loc2):
            raise MoveError("second-move pairs overlap")
    for ci in {ci for ci, _ in locs}:
        comp = d.components[ci - 1]
        gone = {k for c, p in locs if c == ci for k in _pair_positions(comp, p)}
        passes = tuple(tok for k, tok in enumerate(comp.passes) if k not in gone)
        comps[ci - 1] = ComponentCode(comp.closed, passes)
    return Diagram(d.kind, tuple(comps))


def _locations(m: MoveSite) -> tuple:
    """The slots of an insertion, else the pairs, of ``m``, if its kind and
    its counts of names and locations are in :data:`_TRACE_FIELDS`."""
    kind = m.kind
    fields = _TRACE_FIELDS.get(kind)
    if fields is None:
        raise MoveError(f"unknown move kind {kind!r}")
    insert = kind == "R2_insert" or kind == "R1_insert"
    locs = m.slots if insert else m.pairs
    if len(m.names) != fields[0] or len(locs) != fields[1]:
        raise MoveError(
            f"{kind} takes {fields[0]} crossing names and {fields[1]}"
            f" {'slots' if insert else 'pairs'}, got {len(m.names)} and {len(locs)}"
        )
    return locs


def _insert_pairs(d: Diagram, inserts: list) -> Diagram:
    """Insert each ``(slot, pair)`` of ``inserts`` into ``d`` in turn: at the
    slot's position, or, at a wrapped slot, the pair's second letter before
    the first pass and its first letter after the last."""
    comps = list(d.components)
    for (ci, pos, wrapped), pair in inserts:
        comp = _component(comps, ci)
        passes = comp.passes
        if wrapped:
            if not comp.closed:
                raise MoveError("wrapped insertion needs a closed component")
            passes = (pair[1],) + passes + (pair[0],)
        elif 0 <= pos <= len(passes):
            passes = passes[:pos] + pair + passes[pos:]
        else:
            raise MoveError(f"insertion position {pos} out of range 0..{len(passes)}")
        comps[ci - 1] = ComponentCode(comp.closed, passes)
    return Diagram(d.kind, tuple(comps))


def _check_fresh(d: Diagram, name: str) -> None:
    """Refuse an inserted crossing name that ``d`` uses or no file can hold."""
    if TOKEN_RE.match(name) is None:
        raise MoveError(f"invalid crossing name {name!r}")
    if name in d.crossing_names:
        raise MoveError(f"crossing name {name!r} already present")


def _component(comps, ci: int) -> ComponentCode:
    """Component ``ci``, 1-based, of the sequence ``comps``."""
    if not 1 <= ci <= len(comps):
        raise MoveError(f"component {ci} out of range 1..{len(comps)}")
    return comps[ci - 1]


def _pair_letters(d: Diagram, loc: tuple[int, int]) -> tuple[str, str]:
    ci, p = loc
    comp = _component(d.components, ci)
    a, b = _pair_positions(comp, p)
    return comp.passes[a], comp.passes[b]


# -- inversion ----------------------------------------------------------------


def inverse_site(d: Diagram, m: MoveSite) -> MoveSite:
    """The site undoing ``m``: applying it to ``apply_move(d, m)`` restores ``d``.
    Raises :class:`MoveError` unless ``m`` applies to ``d``.

    The third move is its own inverse at the same site.  First and second
    moves share one rule on their one or two pairs.  A deleted pair leaves a
    slot at its position, less the deleted positions before it on its
    component, or the wrapped slot when it spans the basepoint.  An
    inserted pair lies at its slot's position plus the letters put before
    it, or at its component's new end when its slot is wrapped.  A second
    move's names are those of its sorted first pair.
    """
    # refuses every site that does not apply, two wrapped pairs or slots
    # on one component among them
    apply_move(d, m)
    locs = _locations(m)
    if m.kind == "R3":
        return m
    two = len(locs) == 2
    same = two and locs[0][0] == locs[1][0]
    if m.kind.endswith("_insert"):
        pairs = []
        for k, (ci, p, wrapped) in enumerate(locs):
            end = len(_component(d.components, ci).passes) + 1
            if same:
                _, q, other_wrapped = locs[1 - k]
                end += 2
                # the other pair went in left of this one if it wrapped, or
                # if its slot is less, or equal and first
                p += 1 if other_wrapped else 2 * (q < p or q == p and k == 1)
            pairs.append((ci, end if wrapped else p))
        # a second-move deletion takes its pairs sorted, named by the first
        names = m.names
        if pairs[-1] < pairs[0]:
            pairs.reverse()
            names = names if m.same_order else names[::-1]
        return MoveSite(m.kind.replace("_insert", "_delete"), names=names, pairs=tuple(pairs))
    # per pair: component, position, whether it spans the basepoint, and the
    # letters that name the insertion: a second move's pair, a first move's name
    ends = []
    for ci, p in locs:
        comp = _component(d.components, ci)
        letters = _pair_letters(d, (ci, p)) if two else m.names
        ends.append((ci, p, comp.closed and p == len(comp.passes) - 1, letters))
    if same:
        (_, pa, wa, _), (_, pb, wb, _) = ends
        if wa or (not wb and pa > pb):
            ends.reverse()
    slots = []
    for k, (ci, p, wrapped, _) in enumerate(ends):
        # on a shared component, the first pair has the wrapped second's
        # position 0 before it, and an unwrapped second has the first's two
        before = (1 if ends[1 - k][2] else 2 * k) if same else 0
        slots.append((ci, 0, True) if wrapped else (ci, p - before, False))
    names, last = ends[0][3], ends[-1][3]
    kind = m.kind.replace("_delete", "_insert")
    return MoveSite(kind, names=names, slots=tuple(slots), same_order=last == names)


# -- candidate generation, walks, search --------------------------------------


class _Slate(NamedTuple):
    """The layout of the slate of a diagram, with no insertion built; see
    :func:`_slate`.  ``widths`` holds each component's slot count, and
    :attr:`size` and :func:`_site_at` count the insertions per component."""

    sites: list[MoveSite]
    names: tuple[str, ...]
    widths: tuple[int, ...]
    first: bool
    second: bool
    past: bool

    @property
    def size(self) -> int:
        widths = self.widths
        total = sum(widths)
        size = len(self.sites) + (total if self.first else 0)
        if self.second:
            # slot pairs on two components, or each slot with itself and
            # every later slot
            pairs = sum(w * w for w in widths) if self.past else -total
            size += total * total - pairs
        return size


def _fresh_names(d: Diagram) -> tuple[str, str]:
    """The first two of ``w1``, ``w2``, ... that ``d`` does not use."""
    used = d.crossing_names
    fresh = (f"w{k}" for k in range(1, len(used) + 3) if f"w{k}" not in used)
    return next(fresh), next(fresh)


def _slate(d: Diagram, *, forbid_pure: bool, max_size: int, kinds=ALL_KINDS) -> _Slate:
    """The layout of the slate of ``d``, its deletions and third-move sites
    and a finite set of insertions, with no insertion site built; the only
    code that applies the insertion rules.

    The insertions go into slots, the unwrapped positions of every
    component, ``widths[ci - 1]`` of them on component ``ci``: one per pass
    of a closed component, and one more on an open one or an empty circle.
    The slate is the :func:`enumerate_moves` sites, then, if ``first``, a
    first-move insertion of ``names[0]`` at each slot, then, if ``second``,
    per slot in order, a run of second-move insertions of ``names`` with
    each later slot, in both letter orders: from the slot itself, or from
    the next component's first slot when ``past`` is set.  ``widths`` and
    ``names`` are empty when no insertion fits.  No insertion's result
    exceeds ``max_size`` crossings.  Under ``forbid_pure`` no site's result
    has a pure crossing: there is no first-move insertion, each run starts
    past its slot's component, and a diagram with pure crossings gets no
    insertion at all, since an insertion keeps them (see
    :func:`enumerate_moves`).  Only the sites of the move kinds ``kinds``
    are laid out: all of them by default.
    """
    sites = enumerate_moves(d, kinds=kinds, forbid_pure=forbid_pure)
    count = d.crossing_count
    # whether the insertions of each kind fit in max_size
    ones = "R1_insert" in kinds and not forbid_pure and count + 1 <= max_size
    twos = "R2_insert" in kinds and count + 2 <= max_size and not (forbid_pure and d.pure)
    widths: tuple[int, ...] = ()
    if ones or twos:
        widths = tuple(
            max(len(comp.passes), 1) if comp.closed else len(comp.passes) + 1
            for comp in d.components
        )
    names = _fresh_names(d) if widths else ()
    return _Slate(sites, names, widths, ones, twos, forbid_pure)


def _expand(
    d: Diagram,
    *,
    forbid_pure: bool,
    max_size: int,
    goal: PairCounts | None = None,
    budget: int = 0,
) -> Iterator[MoveSite | None]:
    """The sites of the :func:`_slate` layout of ``d`` in slate order, each
    built only when it is reached; without ``goal``, every site, so that
    its ``list`` is the whole slate.

    Given ``goal``, the :attr:`Diagram.pair_counts` of the diagram searched
    for, every site whose result has a move lower bound above ``budget`` to
    that diagram is dropped unbuilt, and None is yielded, at least once, in
    place of the dropped sites.  The bound reads ``d.pair_counts`` and
    ``goal``, cached fields that it never changes, and what it keeps is
    decided per move kind and per component pair before any site is built:

    * a move kind that no site can be kept of is neither enumerated nor
      laid out.  When nothing else is dropped, the kinds left out are laid
      out at the end, only to tell whether to yield None, so that a search
      that runs out of diagrams knows whether it dropped one;
    * the insertions of a component pair that the bound drops, a block of
      second-move insertions with their first slot on one component and
      their second on one component, or the first-move insertions of one
      component, are skipped as one, without visiting their slots.
    """
    here = {} if goal is None else d.pair_counts
    # one move raises the bound by at most one, so a slack of 1 drops nothing
    slack = 1 if goal is None else budget - _distance(here, goal)

    def keeps(pair: tuple[int, int], change: int) -> bool:
        return slack >= 1 or _pair_step(here, goal, pair, change) <= slack

    kinds = ALL_KINDS
    if slack < 1:
        # the kinds that may keep a site: a third move keeps every pair
        # count, and the others change one pair's count, a first move's a
        # pure pair's, by as much as that pair can take
        kinds = {"R3"} if slack >= 0 else set()
        for kind, change in _COUNT_CHANGE.items():
            pairs = [(i, j) for i, j in here if i == j] if kind.startswith("R1") else here
            if any(here[pair] + change >= 0 and keeps(pair, change) for pair in pairs):
                kinds.add(kind)
    sites, names, widths, first, second, past = _slate(
        d, forbid_pure=forbid_pure, max_size=max_size, kinds=kinds
    )
    dropped = False
    for site in sites:
        if slack < 1 and _bound_step(here, goal, site) > slack:
            dropped = True
            yield None
        else:
            yield site
    for ci, width in enumerate(widths, start=1) if first else ():
        if keeps((ci, ci), 1):
            for pos in range(width):
                yield MoveSite("R1_insert", names=names[:1], slots=((ci, pos, False),))
        else:
            dropped = True
            yield None
    for ci, width in enumerate(widths, start=1) if second else ():
        # the components that the runs from ci's slots reach, and those
        # whose block the bound keeps
        reach = range(ci + 1 if past else ci, len(widths) + 1)
        kept = [cj for cj in reach if keeps((ci, cj), 2)]
        if len(kept) < len(reach):
            dropped = True
            yield None
        for pos in range(width) if kept else ():
            slot = (ci, pos, False)
            for cj in kept:
                for q in range(pos if cj == ci else 0, widths[cj - 1]):
                    slots = (slot, (cj, q, False))
                    yield MoveSite("R2_insert", names=names, slots=slots, same_order=True)
                    yield MoveSite("R2_insert", names=names, slots=slots, same_order=False)
    if slack < 1 and not dropped:
        # the kinds left out may have had a site, and it was dropped
        skipped = set(ALL_KINDS) - kinds
        if skipped and _slate(d, forbid_pure=forbid_pure, max_size=max_size, kinds=skipped).size:
            yield None


def _site_at(slate: _Slate, k: int) -> MoveSite:
    """The site at index ``k`` of the slate, built alone; raises
    :class:`IndexError` past the end.  The second-move insertions are
    counted per component, by the size of the block of runs from its
    slots, and only the block that holds ``k`` is entered."""
    sites, names, widths, first, second, past = slate
    if k < len(sites):
        return sites[k]
    k -= len(sites)
    total = sum(widths)
    if first:
        if k < total:
            return MoveSite("R1_insert", names=names[:1], slots=(_slot(widths, k),))
        k -= total
    begin = 0
    for ci, width in enumerate(widths, start=1) if second else ():
        end = begin + width
        # each run holds two sites per slot that it reaches: every slot
        # past the component, or every slot from its own on, one fewer
        # from each next slot
        if past:
            block = 2 * width * (total - end)
        else:
            block = width * (2 * (total - begin) - width + 1)
        if k < block:
            if past:
                pos, k = divmod(k, 2 * (total - end))
                start = end
            else:
                pos = 0
                while k >= 2 * (total - begin - pos):
                    k -= 2 * (total - begin - pos)
                    pos += 1
                start = begin + pos
            slots = ((ci, pos, False), _slot(widths, start + k // 2))
            return MoveSite("R2_insert", names=names, slots=slots, same_order=k % 2 == 0)
        k -= block
        begin = end
    raise IndexError("slate index out of range")


def _slot(widths: tuple[int, ...], index: int) -> tuple[int, int, bool]:
    """The slot at ``index`` over all components, whose slot counts are
    ``widths``."""
    for ci, width in enumerate(widths, start=1):
        if index < width:
            return ci, index, False
        index -= width
    raise IndexError("slate index out of range")


def random_walk(
    d: Diagram,
    steps: int,
    seed: int,
    *,
    forbid_pure: bool = False,
    max_size: int | None = None,
) -> WalkTrace:
    """Apply ``steps`` moves, each drawn uniformly from the :func:`_slate`
    layout; deterministic per seed.

    Each step reads the :func:`_slate` layout, draws one index into it and
    builds only the site at that index, so the walk is the one that drawing
    from the built slate gives.  Stops early (recording fewer steps) if no
    move is applicable under the options.
    """
    current = d
    applied: list[MoveSite] = []
    for site, current in _walk(d, steps, seed, forbid_pure=forbid_pure, max_size=max_size):
        applied.append(site)
    return WalkTrace(initial=d, moves=tuple(applied), final=current)


def _walk(
    d: Diagram, steps: int, seed: int, *, forbid_pure: bool, max_size: int | None
) -> Iterator[tuple[MoveSite, Diagram]]:
    """The steps of :func:`random_walk` as they are drawn: each move and the
    diagram it leaves, which the next step reads."""
    if max_size is None:
        max_size = d.crossing_count + 4
    rng = random.Random(seed)
    current = d
    for _ in range(steps):
        slate = _slate(current, forbid_pure=forbid_pure, max_size=max_size)
        total = slate.size
        if not total:
            return
        site = _site_at(slate, rng.randrange(total))
        current = apply_move(current, site)
        yield site, current


def move_lower_bound(x: Diagram, y: Diagram) -> int:
    """A lower bound on the number of moves between ``x`` and ``y``.

    A move changes the crossing count of at most one component pair: a first
    move that of a pure pair (i, i) by 1, a second move that of one pair by
    2, and a third move none.  So the bound is the sum over the pairs, mixed
    and pure, of ``ceil(|n(x) - n(y)| / 2)``, read from each diagram's
    :attr:`Diagram.pair_counts`.  It holds for restricted moves too:
    between diagrams without pure crossings the pure pairs add nothing.
    """
    return _distance(x.pair_counts, y.pair_counts)


def _half(gap: int) -> int:
    return (abs(gap) + 1) // 2


def _distance(here: PairCounts, goal: PairCounts) -> int:
    return sum(_half(count - goal[pair]) for pair, count in here.items())


def _bound_step(here: PairCounts, goal: PairCounts, site: MoveSite) -> int:
    """The change, -1, 0 or 1, that applying ``site`` to a diagram with pair
    counts ``here`` makes to its move lower bound to ``goal``."""
    change = _COUNT_CHANGE.get(site.kind)
    if change is None:
        return 0
    ends = sorted(loc[0] for loc in site.pairs or site.slots)
    return _pair_step(here, goal, (ends[0], ends[-1]), change)


def _pair_step(here: PairCounts, goal: PairCounts, pair: tuple[int, int], change: int) -> int:
    """The change to the move lower bound when the crossing count of
    ``pair`` changes by ``change``."""
    gap = here[pair] - goal[pair]
    return _half(gap + change) - _half(gap)


def bounded_equivalence_search(a: Diagram, b: Diagram, depth: int) -> SearchVerdict:
    """Search for a sequence of at most ``depth`` moves from ``a`` to ``b``.

    A breadth-first search grows from both ends, one whole level at a time,
    alternating and starting at ``a``, so a sequence of ``depth`` moves is
    found after about ``depth / 2`` levels on each side.  Moves are
    invertible, so a level grown from ``b`` holds the diagrams one move
    further back toward it.  States are deduplicated by canonical form;
    insertions are bounded by the larger input's crossing count plus a slack
    of 2.

    The moves come from the inputs.  When neither has a pure crossing, the
    search keeps to restricted moves, and no diagram on the way has a pure
    crossing: by the paper's theorem, two equivalent diagrams without pure
    crossings are equivalent through diagrams without pure crossings, so
    this loses no equivalence, only perhaps a shorter trace.  Between such
    diagrams every restricted move is undone by a restricted move, which the
    search from ``b`` relies on.  Otherwise every move is searched.

    The search is pruned by :func:`move_lower_bound` h.  If ``h(a, b) >
    depth`` it answers at once, without a move.  Otherwise a run with limit
    L drops, before applying it, every move whose result lies g moves from
    its own end and has ``g + h > L`` to the other end.  No sequence of at
    most L moves passes through a dropped diagram, so the run finds what the
    unpruned search of depth L finds, with the same trace.
    :data:`MAX_NODES` bounds the states of each run, on both sides together.
    The answer is that of the runs with limits ``h(a, b)``, ``h(a, b) + 1``,
    ... up to ``depth`` in turn, up to the first that finds a trace, reaches
    the cap or runs out of diagrams, so an answer found at some depth is
    found at every larger depth: a larger depth never loses an answer.  A
    run that drops no move and runs out of diagrams on one side ends the
    search, since no run of any limit can differ.

    Neither input is keyed: the start tests them by
    :func:`~freelinks.diagram._isomorphic`, as equal keys would, and each
    run holds them under placeholders.  A run with limit 1 keys nothing at
    all (see :func:`_search_run`).

    Returns a trace that replays from ``a`` to a diagram with ``b``'s
    canonical form on success, and ``unknown`` otherwise, with the
    :class:`SearchVerdict` reason: the search never claims inequivalence.
    """
    if a.n != b.n:
        raise MoveError(f"mismatched component counts: {a.n} vs {b.n}")
    if a.kind != b.kind:
        raise MoveError(f"mismatched kinds: {a.kind} vs {b.kind}")
    # validates both
    if _isomorphic(a, b):
        return SearchVerdict(True, WalkTrace(a, (), a), reason="found")
    forbid_pure = not a.pure and not b.pure
    # per side: the pair counts of the other side's end
    goals = (b.pair_counts, a.pair_counts)
    least = _distance(*goals)
    if least > depth:
        return SearchVerdict(False, reason="bound")
    max_size = max(a.crossing_count, b.crossing_count) + 2

    def run(limit: int) -> SearchVerdict | None:
        return _search_run(a, b, goals, limit, forbid_pure, max_size)

    # The answer is that of the runs with these limits in turn, up to the
    # first that does not run out of levels.  A run holds every state of the
    # runs with smaller limits, so the deepest gives that answer alone unless
    # it reaches the cap.  The two tightest runs go first: they are the
    # cheapest, and most traces are at most one move longer than the bound.
    # Then the deepest goes, and only if it reaches the cap the rest in turn.
    limits = range(max(least, 1), depth + 1)
    for limit in limits[:2]:
        verdict = run(limit)
        if verdict is not None:
            return verdict
    if len(limits) > 2:
        deepest = run(depth)
        if deepest is None or deepest.reason != "cap":
            return deepest or SearchVerdict(False, reason="depth")
        for limit in limits[2:-1]:
            verdict = run(limit)
            if verdict is not None:
                return verdict
        return deepest
    return SearchVerdict(False, reason="depth")


def _search_run(a, b, goals, limit: int, forbid_pure: bool, max_size: int):
    """One run of the bidirectional search, pruned to sequences of at most
    ``limit`` moves; None when its levels run out without an answer.

    Each side maps its end's index, which no key equals, and the key of
    every other diagram it holds to (diagram, entry reached from, move).  A
    neighbour is tested against each end by :func:`_isomorphic`, the other
    end first, and keyed only when it is neither.

    On the last level, while each side holds nothing but its end, as on the
    one level of a run with limit 1, no neighbour is keyed: nothing can
    look it up, so it is tested against the other end alone, and against
    its own end only until one is found new, which is all the ``exhausted``
    rule reads.  Such a level holds no state, so it counts none toward the
    cap.
    """
    ends = (a, b)
    sides = ({0: (a, None, None)}, {1: (b, None, None)})
    frontiers = [[0], [1]]
    pruned = [False, False]
    nodes = 0
    for level in range(limit):
        grow = level % 2
        seen, other = sides[grow], sides[1 - grow]
        # what the bound may leave a neighbour level // 2 + 1 moves from its end
        budget = limit - (level // 2 + 1)
        keyless = level == limit - 1 and len(seen) == len(other) == 1
        grown = []
        for entry in frontiers[grow]:
            diag = seen[entry][0]
            for site in _expand(
                diag, forbid_pure=forbid_pure, max_size=max_size, goal=goals[grow], budget=budget
            ):
                if site is None:
                    pruned[grow] = True
                    continue
                neighbor = apply_move(diag, site)
                if _isomorphic(neighbor, ends[1 - grow]):
                    found = 1 - grow
                elif keyless:
                    # nothing looks it up: only whether the level grew is read
                    if not grown and not _isomorphic(neighbor, ends[grow]):
                        grown.append(None)
                    continue
                elif _isomorphic(neighbor, ends[grow]):
                    continue
                else:
                    found = neighbor.key
                # no entry is on both sides before they meet, so the meet is
                # tested first
                if found in other:
                    seen[found] = (neighbor, entry, site)
                    trace = _joined_trace(a, sides, found, forbid_pure, max_size)
                    return SearchVerdict(True, trace, reason="found")
                if found in seen:
                    continue
                seen[found] = (neighbor, entry, site)
                nodes += 1
                if nodes >= MAX_NODES:
                    return SearchVerdict(False, reason="cap")
                grown.append(found)
        frontiers[grow] = grown
        if not grown and not pruned[grow]:
            # this side holds every diagram its end reaches, none of them the
            # other end, so no run of any limit can meet
            return SearchVerdict(False, reason="exhausted")
    return None


def _joined_trace(a: Diagram, sides, meet, forbid_pure: bool, max_size: int) -> WalkTrace:
    """The trace through the entry ``meet`` that both sides hold: those of a
    bounded search, or the two descents of :func:`join_by_descent`.

    The moves stored on ``a``'s side replay from ``a`` to its diagram of
    ``meet``.  The other side holds only a chain of diagrams toward ``b``,
    named and rotated independently, so each step takes the first candidate
    move whose result is the chain's next diagram up to renaming, rotation
    and reversal, by :func:`~freelinks.diagram._isomorphic`; no diagram is
    keyed.
    """
    ahead, behind = sides
    moves: list[MoveSite] = []
    entry = meet
    while ahead[entry][1] is not None:
        _, entry, site = ahead[entry]
        moves.append(site)
    moves.reverse()
    current = ahead[meet][0]
    step = behind[meet][1]
    while step is not None:
        # equal keys have equal pair counts, so every site whose result has
        # other pair counts than the next diagram's is dropped unbuilt
        target = behind[step][0]
        goal = target.pair_counts
        for site in _expand(current, forbid_pure=forbid_pure, max_size=max_size, goal=goal):
            if site is None:
                continue
            neighbor = apply_move(current, site)
            if _isomorphic(neighbor, target):
                break
        else:
            raise MoveError("no candidate move reaches the next diagram toward the target")
        moves.append(site)
        current = neighbor
        step = behind[step][1]
    return WalkTrace(a, tuple(moves), current)


# -- descent --------------------------------------------------------------------


def join_by_descent(a: Diagram, b: Diagram) -> WalkTrace | None:
    """A trace from ``a`` to ``b`` through a representative that both reach
    under restricted moves, or None; never a claim of inequivalence.

    The moves are those between diagrams without pure crossings: second
    moves on mixed crossings and third moves.  By the paper's theorem, two
    equivalent diagrams without pure crossings are equivalent through
    diagrams without pure crossings, so these moves can join any two
    equivalent inputs; the descent below tries one way of doing so.  Each
    input descends on its own:

    * it deletes the first ``R2_delete`` site that :func:`enumerate_moves`
      lists, under ``forbid_pure``, while there is one;
    * it then explores the closure of that diagram under third moves, which
      keep the crossing count, breadth-first and deduplicated by canonical
      key, until a diagram with such a site appears, and deletes again from
      there;
    * when the closure runs out, the least key in it is the input's
      representative.  A closure that reaches :data:`MAX_CLOSURE` states
      gives no representative, and the answer is None.

    Equal representatives give the trace: ``a``'s moves down to its
    representative, then ``b``'s in reverse, joined by
    :func:`_joined_trace` as the two sides of a search that meet at the
    shared key.  No depth bounds it, so it may be longer than any search
    depth; it replays from ``a`` to a diagram with ``b``'s canonical key.
    Different representatives prove nothing, since for three or more
    components the descent is not known to reach one representative per
    class, and the answer is then None.  Raises :class:`MoveError` unless
    both inputs are free of pure crossings and of one kind and size.
    """
    if a.n != b.n or a.kind != b.kind:
        raise MoveError(f"cannot join a {a.kind} n={a.n} and a {b.kind} n={b.n}")
    if a.pure or b.pure:
        raise MoveError("a descent needs inputs without pure crossings")
    ends = []
    for d in (a, b):
        end = _descend(d)
        if end is None:
            return None
        ends.append(end)
    (meet, ahead), (other, behind) = ends
    if meet != other:
        return None
    size = max(a.crossing_count, b.crossing_count)
    return _joined_trace(a, (ahead, behind), meet, True, size)


def _descend(d: Diagram) -> tuple[tuple, dict] | None:
    """The representative key of ``d`` under the :func:`join_by_descent`
    descent and the diagrams it reached, as the side of a search: entry ->
    (diagram, entry it was reached from, move), with ``d`` reached from
    None; None when a closure reaches :data:`MAX_CLOSURE` states.

    The input, and each diagram a deletion reaches, is held under a
    placeholder and never keyed when it has a second-move deletion itself:
    the descent leaves it at once and, with fewer crossings ever after,
    never meets it again.  Every other diagram is held under its canonical
    key.
    """
    deletions = _deletions(d)
    key = object() if deletions else d.key
    reached = {key: (d, None, None)}
    while True:
        while deletions:
            site = deletions[0]
            d = apply_move(d, site)
            deletions = _deletions(d)
            entry = object() if deletions else d.key
            reached[entry] = (d, key, site)
            key = entry
        end = _closure(reached, key)
        if end is None:
            return None
        key, deletions = end
        if not deletions:
            return key, reached
        d = reached[key][0]


def _deletions(d: Diagram) -> list[MoveSite]:
    """The second-move deletions of ``d`` that leave no pure crossing."""
    return enumerate_moves(d, kinds=("R2_delete",), forbid_pure=True)


def _closure(reached: dict, key) -> tuple | None:
    """The closure under third moves of the diagram that ``reached`` holds
    under ``key``, explored breadth-first; each diagram is added to
    ``reached`` as it is first met.

    Returns the key and the :func:`_deletions` of the first diagram met
    with a second-move deletion, ``(least key, [])`` when the closure runs
    out first, and None when it reaches :data:`MAX_CLOSURE` states.  Its
    keys have fewer crossings than those reached before it, so ``reached``
    dedups it as the closure alone would.
    """
    closure = [key]
    queue = deque(closure)
    while queue:
        here = queue.popleft()
        diag = reached[here][0]
        for site in enumerate_moves(diag, kinds=("R3",), forbid_pure=True):
            neighbor = apply_move(diag, site)
            found = neighbor.key
            if found in reached:
                continue
            reached[found] = (neighbor, here, site)
            deletions = _deletions(neighbor)
            if deletions:
                return found, deletions
            closure.append(found)
            if len(closure) >= MAX_CLOSURE:
                return None
            queue.append(found)
    return min(closure), []


# -- trace serialization ------------------------------------------------------

_SLOT_RE = re.compile(r"(\d+):(w|\d+)\Z")


def _format_slot(slot: tuple[int, int, bool]) -> str:
    ci, pos, wrapped = slot
    return f"{ci}:w" if wrapped else f"{ci}:{pos}"


def serialize_trace(trace: WalkTrace) -> str:
    """One move per line: ``<kind> <crossing names> <locations>``."""
    lines = []
    for m in trace.moves:
        parts = [m.kind, *m.names]
        parts += [f"{ci}:{p}" for ci, p in m.pairs]
        parts += [_format_slot(slot) for slot in m.slots]
        if m.kind == "R2_insert":
            parts.append("same" if m.same_order else "swap")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_slot(token: str, lineno: int) -> tuple[int, int, bool]:
    m = _SLOT_RE.match(token)
    if m is None:
        raise ParseError(f"trace: bad location {token!r}", lineno)
    ci = int(m.group(1))
    if m.group(2) == "w":
        return ci, 0, True
    return ci, int(m.group(2)), False


def parse_trace(text: str | bytes) -> list[MoveSite]:
    """Parse the line-oriented trace log emitted by :func:`serialize_trace`;
    lines end and a leading byte order mark is dropped as in
    :func:`parse_diagram`.

    Raises :class:`ParseError`, with the line number, on bytes that are not
    UTF-8, an unknown move kind, a wrong number of fields, a crossing name
    that a diagram file cannot hold, a bad location (the wrapped marker
    ``w`` locates insertion slots only) or an ``R2_insert`` order other than
    ``same`` or ``swap``.
    """
    moves = []
    for lineno, raw in enumerate(_lines(_text(text)), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        if kind not in _TRACE_FIELDS:
            raise ParseError(f"trace: unknown move kind {kind!r}", lineno)
        n_names, n_locs = _TRACE_FIELDS[kind]
        order = kind == "R2_insert"
        if len(fields) != n_names + n_locs + order:
            raise ParseError(
                f"trace: {kind} takes {n_names} crossing names and {n_locs} locations"
                + (" and 'same' or 'swap'" if order else "")
                + f", got {len(fields)} fields",
                lineno,
            )
        names = tuple(fields[:n_names])
        for name in names:
            if TOKEN_RE.match(name) is None:
                raise ParseError(f"trace: invalid crossing name {name!r}", lineno)
        locs = tuple(_parse_slot(tok, lineno) for tok in fields[n_names : n_names + n_locs])
        if order and fields[-1] not in ("same", "swap"):
            raise ParseError(f"trace: expected 'same' or 'swap', got {fields[-1]!r}", lineno)
        if kind.endswith("_insert"):
            same_order = not order or fields[-1] == "same"
            moves.append(MoveSite(kind, names=names, slots=locs, same_order=same_order))
        elif any(wrapped for _, _, wrapped in locs):
            raise ParseError(f"trace: {kind} locates pairs, which take no 'w' marker", lineno)
        else:
            moves.append(MoveSite(kind, names=names, pairs=tuple((c, p) for c, p, _ in locs)))
    return moves


def replay(initial: Diagram, moves) -> Diagram:
    """Apply a move sequence, validating each application."""
    current = initial
    for m in moves:
        current = apply_move(current, m)
    return current
