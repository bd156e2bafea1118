"""Splicing of crossings and the mod-2 bracket of a free diagram.

Splicing removes a 4-valent vertex and reconnects its four half-edges in
one of the two ways that do not recreate the vertex.  With the two passes of
a crossing ordered by scan order (components in index order, positions left
to right), and writing in/out for the half-edges before/after a pass in
traversal direction, the two branches are

* ``A``: join in1-out2 and out1-in2 (on one component this splits it:
  an open ``P x Q x R`` becomes the open ``P R`` plus the circle ``Q``,
  a closed ``x Q x R`` becomes the circles ``Q`` and ``R``);
* ``B``: join in1-in2 and out1-out2 (no split: ``P rev(Q) R``, resp. the
  circle ``Q rev(R)``).

A crossing whose passes lie on two different components reconnects them into
one by the same rule (either branch merges).  Branches are anchored to the
source diagram, and an assignment of branches to several crossings is applied
simultaneously by rewiring all chosen vertices at once; the result therefore
does not depend on any ordering of the splices.

The bracket of a diagram with m pure crossings sums the 2^m branch
assignments of its pure crossings that keep the number of components, as
canonical forms mod 2 (m = 0 gives the diagram's own canonical form).  A
pure splice rewires only its own component, so an assignment is kept exactly
when each component's share of it leaves that component one curve.  Each
component is therefore expanded alone, over its own 2^(m_c) states, curves
equal up to rotation or reversal cancel there, and only the products of the
survivors are canonicalized and reduced mod 2.

Which states leave one curve is decided before anything is traced: a state
does exactly when the GF(2) interlacement matrix of the component's pure
chords, with the chords set to branch ``B`` on the diagonal, is nonsingular
(Cohn and Lempel 1972; Zulli 1995).  A depth-first search over the rows
finds those states, and only they are traced, each by a walk over one
flat table that all its states share: per directed run of unspliced
passes, the crossing that ends it and the run that follows under each
branch.  The traced curves cancel mod 2 as read, and only the survivors
are normalised.  The whole expansion runs in the calling process.

Every component has an odd number of one-curve states: over GF(2),
det(A + diag x) is multilinear in x with top term x_1 ... x_m, so its sum
over x in {0,1}^m is that term's coefficient, 1.  A one-curve state keeps
every unspliced pass, so when the pure passes of a component form one block
(cyclically on a closed component, linearly on an open one) all its
one-curve states leave the same curve, the unspliced passes read as one run,
and that curve alone is the component's share, with no state traced.  Every
knot is such a component, and so is one with no pure crossing.

Bracket values are compared as sets of canonical forms: equality and
distinctness verdicts are sound, but since equivalence of individual
summands is only certified by bounded search, the comparison may also answer
unknown.

Its records, :class:`Bracket` and :class:`Verdict`, are immutable named
tuples, each equal to the tuple of its fields: the data class module's
``replace``, ``fields`` and ``asdict`` do not apply to them (``_replace``
and ``_fields`` do), and only :class:`~freelinks.diagram.Diagram` caches
fields.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import NamedTuple

from .diagram import (
    ComponentCode,
    Diagram,
    DiagramError,
    _diagram_from_key,
    canonical_key,
    require_valid,
    serialize_diagram,
)
from .invariant import _class_words, fingerprint, render_fingerprint
from .words import _least_rotation

__all__ = [
    "Bracket",
    "Verdict",
    "BracketError",
    "apply_splices",
    "bracket",
    "bracket_equal",
    "serialize_bracket",
]


class BracketError(ValueError):
    """A splice or bracket operation was applied outside its preconditions."""


class Bracket(NamedTuple):
    """Mod-2 set of canonical-form summands, all with ``n`` components."""

    kind: str
    n: int
    summands: frozenset[Diagram]


class Verdict(NamedTuple):
    """Three-valued comparison outcome."""

    status: str  # "equal" | "distinct" | "unknown"
    certificate: str | None = None


# -- simultaneous splicing over runs ------------------------------------------
#
# Splicing a fixed set of crossings cuts each component at the passes of
# those crossings.  The unspliced passes between two consecutive cuts (or
# between a cut and an open end) form a run, read whole in one direction
# or the other; a closed component whose first pass is unspliced is also
# cut just before that pass, where a run always continues into the next.
# Arriving at a spliced pass, the curve leaves through the crossing's other
# pass: branch A keeps the direction of travel and B reverses it.  So the
# run that follows each directed run under each branch is fixed by the set
# of crossings alone, and only the state code picks between the two.


def _splice_table(d: Diagram, names: tuple[str, ...]):
    """The runs of ``d`` cut at the passes of ``names``, distinct crossings
    of ``d`` with two passes each, as flat lists.

    One scan of the passes against a name index numbers the cuts: the
    first pass of ``names[r]`` in scan order (components in index order,
    positions left to right) is cut 2r and its second is cut 2r + 1, and
    the cut before the first pass of closed component ci, when that pass is
    unspliced, is 2m + ci - 1 for m names.  Run u is read forward as
    directed run 2u and backward as 2u + 1.  The result is ``(reads,
    chord, succ, starts, leftover)``: directed run k reads the passes
    ``reads[k]`` and ends at a spliced pass of ``names[chord[k]]``, where
    ``succ[2k]`` follows it under branch A and ``succ[2k + 1]`` under B.
    At an open end ``chord[k]`` is -1, and an odd ``k`` means a start; at
    the cut before a closed component's first pass it is 0 and both
    successors go on into the next run.
    ``starts[ci - 1]`` is ``(k, closed)``, with ``k`` the first run of
    component ci read forward, or -1 for a closed component without passes.
    ``leftover`` lists the forward runs with passes in scan order, then
    those without by their first end in scan order (the ends of pass g
    numbered 2g before it and 2g + 1 after it): on each component, the run
    that closes a closed component back to its first cut comes first.
    """
    cut = {name: 2 * r for r, name in enumerate(names)}
    joint = 2 * len(names)  # cut ids from here on continue a run unspliced
    # the forward and the backward directed run that leave each cut
    after = [0] * (joint + len(d.components))
    before = after.copy()
    reads, ends, starts, full, empty = [], [], [], [], []
    for ci, comp in enumerate(d.components, start=1):
        passes, closed = comp.passes, comp.closed
        if closed and not passes:
            starts.append((-1, True))
            continue
        starts.append((len(reads), closed))
        first = x = joint + ci - 1 if closed else None
        bounds, lo = [], 0  # each run of the component as (lo, hi, x, y)
        for p, name in enumerate(passes):
            y = cut.get(name)
            if y is None:
                continue
            cut[name] = y | 1
            if p or not closed:
                bounds.append((lo, p, x, y))
            else:
                first = y  # no cut before a spliced first pass
            x, lo = y, p + 1
        bounds.append((lo, len(passes), x, first))
        mark = len(empty)
        for lo, hi, x, y in bounds:
            k = len(reads)
            run = passes[lo:hi]
            reads += (run, run[::-1])
            ends += (y, x)  # the cut each direction arrives at
            (full if run else empty).append(k)
            if x is not None:
                after[x] = k
            if y is not None:
                before[y] = k + 1
        if closed and not run:
            # the last run's first end, before the component's first pass,
            # precedes every other end of the component
            empty.insert(mark, empty.pop())

    chord, succ = [], []
    for k, y in enumerate(ends):
        if y is None:
            chord.append(-1)
            succ += (0, 0)
        elif y >= joint:
            chord.append(0)
            on = before[y] if k & 1 else after[y]
            succ += (on, on)
        else:
            # the crossing's other pass: A keeps the direction, B reverses it
            chord.append(y >> 1)
            succ += (before[y ^ 1], after[y ^ 1]) if k & 1 else (after[y ^ 1], before[y ^ 1])
    return reads, chord, succ, starts, full + empty


def _splice_components(d: Diagram, code: int, table):
    """Apply all splices of one state at once, walking whole runs.

    ``table`` is ``_splice_table(d, names)``, and bit r of ``code`` picks
    branch B for ``names[r]`` (A when clear), so one table serves all the
    states of ``names``: after directed run k, a curve goes on into
    ``succ[2k + bit]`` for the bit of the crossing that ends k.  Each curve
    is read run by run from its first run until it returns there or
    reaches an open end.  Returns the list of result components, ordered:
    for each source component in index order, the curve through its start
    (open) or through the arc leaving its first pass (closed, when that
    pass is spliced) or through its first pass itself; then the remaining
    curves in the order of ``leftover``.
    """
    reads, chord, succ, starts, leftover = table
    seen = bytearray(len(chord) >> 1)

    def walk(start):
        seq: list[str] = []
        k = start
        while True:
            seen[k >> 1] = 1
            seq += reads[k]
            r = chord[k]
            if r < 0:
                return seq, k
            k = succ[2 * k + (code >> r & 1)]
            if k == start:
                return seq, None

    components: list[ComponentCode] = []
    for start, closed in starts:
        if start < 0:
            components.append(ComponentCode(True, ()))
            continue
        if seen[start >> 1]:
            continue
        seq, end = walk(start)
        if not closed and end & 1:
            # the reconnection would join two lower endpoints, so the
            # result is not readable as lower-to-upper strands
            raise BracketError(
                "splice reverses one open component onto another; "
                "such a reconnection has no open-strand representation"
            )
        components.append(ComponentCode(closed, tuple(seq)))
    # leftover closed curves, when some run is unread: runs with passes
    # first, then pass-free cycles
    for start in leftover if 0 in seen else ():
        if not seen[start >> 1]:
            seq, _ = walk(start)
            components.append(ComponentCode(True, tuple(seq)))
    return components


def apply_splices(d: Diagram, branches: dict[str, str]) -> Diagram:
    """Splice several crossings simultaneously, ``branches`` mapping each to
    ``A`` or ``B``; one crossing ``x`` alone is ``{x: branch}``.

    Branch labels refer to the scan order of each crossing's passes in ``d``
    itself, so the result is independent of any splice ordering.  Raises
    :class:`DiagramError` when ``d`` is invalid, except that a tangle may
    hold the closed curves that splicing a tangle splits off, and
    :class:`BracketError` on an unknown crossing or branch.

    The result of splicing a tangle may itself hold such a closed curve:
    branch ``A`` of a pure crossing on an open component splits one off.
    That result is no valid tangle, so :func:`canonical_key` and
    :func:`bracket` refuse it with :class:`DiagramError`, while this
    function accepts it for further splicing.
    """
    broken = [v for v in d.violations if v.detail != "closed component in a tangle"]
    if broken:
        raise DiagramError("invalid diagram: " + "; ".join(str(v) for v in broken))
    for name, branch in branches.items():
        if name not in d.partner_map:
            raise BracketError(f"unknown crossing {name!r}")
        if branch not in ("A", "B"):
            raise BracketError(f"branch must be 'A' or 'B', got {branch!r}")
    code = sum(1 << r for r, branch in enumerate(branches.values()) if branch == "B")
    components = _splice_components(d, code, _splice_table(d, tuple(branches)))
    return Diagram(d.kind, tuple(components))


def _interlacement_rows(passes: tuple[str, ...], pures: tuple[str, ...]) -> list[int]:
    """The GF(2) interlacement matrix of one component's pure chords, as rows.

    Bit s of row r is set when exactly one pass of ``pures[s]`` lies between
    the two passes of ``pures[r]``; the diagonal is zero.  Passes of other
    crossings are skipped, and an open component reads as if its ends were
    joined, which changes no interlacing.
    """
    index = {name: r for r, name in enumerate(pures)}
    rows = [0] * len(pures)
    seen = 0  # the chords with exactly one pass read so far
    for name in passes:
        r = index.get(name)
        if r is None:
            continue
        bit = 1 << r
        # a chord has one pass between the two of chord r exactly when its
        # bit of ``seen`` differs between them
        if seen & bit:
            rows[r] ^= seen ^ bit
        else:
            rows[r] = seen
        seen ^= bit
    return rows


def _one_curve_codes(rows: list[int]) -> list[int]:
    """The codes whose splice state leaves one curve, in ascending order.

    Bit r of a code sets the diagonal entry r; by Cohn-Lempel and Zulli the
    state leaves one curve exactly when ``rows`` plus that diagonal is
    nonsingular over GF(2).  A depth-first search decides the rows from the
    highest bit down and inserts each row into an XOR basis: a row that
    reduces to zero ends its whole subtree, since later rows cannot restore
    the rank.
    """
    pivots = [0] * len(rows)  # pivots[p]: the basis vector whose top bit is p
    codes: list[int] = []

    def descend(r: int, code: int):
        if r < 0:
            codes.append(code)
            return
        for bit in (0, 1):
            v = rows[r] | bit << r
            while v:
                top = v.bit_length() - 1
                p = pivots[top]
                if not p:
                    break
                v ^= p
            if v:
                pivots[top] = v
                descend(r - 1, code | bit << r)
                pivots[top] = 0

    descend(len(rows) - 1, 0)
    return codes


def _least_curve(curve: ComponentCode) -> ComponentCode:
    """A closed curve at the lesser of the least rotations of its passes and
    of their reversal; an open curve unchanged."""
    if curve.closed:
        passes = curve.passes
        curve = ComponentCode(True, min(_least_rotation(passes), _least_rotation(passes[::-1])))
    return curve


def _forced_curve(comp: ComponentCode, pures) -> ComponentCode | None:
    """The curve that every one-curve state of ``comp`` leaves when the
    passes of ``pures`` on it form at most one block, cyclic on a closed
    component and linear on an open one: its unspliced passes in their
    order.  ``None`` when they form more blocks."""
    cut = set(pures)
    spliced = [name in cut for name in comp.passes]
    previous = spliced[-1:] + spliced[:-1] if comp.closed else [False] + spliced[:-1]
    # a block of pure passes starts at each spliced pass after an unspliced one
    if sum(s and not p for s, p in zip(spliced, previous)) > 1:
        return None
    return ComponentCode(comp.closed, tuple(name for name in comp.passes if name not in cut))


def _component_states(sub: Diagram, pures: tuple[str, ...]) -> set[ComponentCode]:
    """Mod-2 set of the one-curve results of one component's states.

    ``sub`` holds the component alone, and bit r of a state picks the
    branch of ``pures[r]``.  Only the states that :func:`_one_curve_codes`
    finds are traced.  Their curves cancel mod 2 as read; each survivor is
    then put at its least rotation or reversal, and those cancel again, so
    that curves equal as closed curves cancel and one normalisation runs
    per surviving raw curve.
    """
    table = _splice_table(sub, pures)
    rows = _interlacement_rows(sub.components[0].passes, pures)
    raw: set[ComponentCode] = set()
    for code in _one_curve_codes(rows):
        components = _splice_components(sub, code, table)
        if len(components) != 1:
            raise BracketError(
                f"state {code} of the pure crossings {', '.join(pures)} left "
                f"{len(components)} curves where the interlacement test predicts one"
            )
        raw ^= {components[0]}
    odd: set[ComponentCode] = set()
    for curve in raw:
        odd ^= {_least_curve(curve)}
    return odd


def bracket(d: Diagram, *, max_pure: int = 20) -> Bracket:
    """Expand all splicings of all pure crossings and reduce mod 2.

    Keeps exactly the summands with ``d.n`` components; each is
    canonicalized, and pairs of equal canonical forms cancel.  A diagram
    without pure crossings brackets to the singleton of its own canonical
    form.  Raises :class:`DiagramError` when the diagram is invalid and
    :class:`BracketError` when the components whose states are traced have
    more than ``max_pure`` pure crossings between them.

    Each component's states are expanded on their own, in this process, and
    only those that leave it one curve are traced.  A component whose pure
    passes form one block has no state traced, so its pure crossings do not
    count toward the cap.

    Summands are valid by construction: each curve keeps its component's
    openness and mixed passes, and drops both passes of each pure crossing.
    Each is built with no violations recorded and keyed without being
    validated again.
    """
    pures = require_valid(d).pure
    own = [tuple(sorted(pures.intersection(comp.passes))) for comp in d.components]
    forced = [_forced_curve(comp, p) for comp, p in zip(d.components, own)]
    traced = sum(len(p) for p, curve in zip(own, forced) if curve is None)
    if traced > max_pure:
        raise BracketError(
            f"{traced} pure crossings to trace exceed the expansion cap of {max_pure}; "
            "only the library call bracket(d, max_pure=N) raises the cap"
        )
    survivors = [
        _component_states(Diagram(d.kind, (comp,)), p) if curve is None else {_least_curve(curve)}
        for comp, p, curve in zip(d.components, own, forced)
    ]

    keys: set[tuple] = set()
    for combo in product(*survivors):
        summand = Diagram(d.kind, combo)
        # where the field keeps it: a summand is valid as built
        summand.__dict__["violations"] = ()
        keys ^= {canonical_key(summand)}
    members = frozenset(_diagram_from_key(key) for key in keys)
    for summand in members:
        if summand.pure:
            raise BracketError("bracket summand retained a pure crossing")
    return Bracket(kind=d.kind, n=d.n, summands=members)


def serialize_bracket(b: Bracket) -> str:
    """Header plus each summand in the diagram file format, sorted."""
    bodies = sorted(serialize_diagram(s) for s in b.summands)
    head = f"bracket n={b.n} summands={len(bodies)}\n"
    return head + "\n".join(bodies)


# -- comparison ---------------------------------------------------------------


def _class_key(s: Diagram):
    """A hashable invariant of the restricted-move class of a summand.

    Combines the good-condition parity table with, when defined, the
    fingerprint's class words as letter indices; both are preserved by
    second and third moves through pure-crossing-free diagrams, so
    differing multiset parities of these keys certify distinct bracket
    values.
    """
    parity = tuple(sorted(s.parity.items()))
    if any(s.parity.values()):
        return (parity, None)
    return (parity, tuple(_class_words(s).items()))


def _odd_pairs(parity) -> str:
    """The pairs ``(i,j), ...`` of odd crossing parity among the items
    ``((i, j), bit)`` of a parity table, or ``none``."""
    return ", ".join(f"({i},{j})" for (i, j), bit in sorted(parity) if bit) or "none"


def bracket_equal(p: Bracket, q: Bracket, depth: int) -> Verdict:
    """Compare two bracket values; sound for ``equal`` and ``distinct``.

    Stage 1 tests canonical-form set equality.  Stage 2 groups the
    symmetric difference by class key: a group of odd size certifies
    distinctness, and the certificate is the least rendered fingerprint of
    such a group, or else its parity table.  Stage 3 sorts each group into
    classes: one :func:`bounded_equivalence_search` of at most ``depth``
    moves runs for each pair of its summands not yet in one class, and each
    class found equivalent merges.  Summands have no pure crossings, so each
    search keeps to restricted moves.  Such a search keeps
    the key, so summands of different groups are never joined.  Values are
    mod 2, so a class of even size cancels; when every class does, the
    answer is equal, and otherwise unknown.
    """
    if p.n != q.n:
        raise BracketError(f"mismatched component counts: {p.n} vs {q.n}")
    if p.kind != q.kind:
        raise BracketError(f"mismatched kinds: {p.kind} vs {q.kind}")
    a_members = {s.key: s for s in p.summands}
    b_members = {s.key: s for s in q.summands}
    if set(a_members) == set(b_members):
        return Verdict("equal")
    members = {**a_members, **b_members}
    groups: dict = {}
    for k in sorted(set(a_members) ^ set(b_members)):
        groups.setdefault(_class_key(members[k]), []).append(members[k])

    odd = [key for key, group in groups.items() if len(group) % 2]
    if odd:
        # certificates are ordered as printed, words before parity tables
        worded = [render_fingerprint(fingerprint(groups[k][0])) for k in odd if k[1] is not None]
        if worded:
            return Verdict("distinct", min(worded))
        parity, _ = min(odd, key=str)
        return Verdict("distinct", "odd crossing parities at pairs " + _odd_pairs(parity))

    # loaded here: a bracket decided by its keys needs no move code
    from .moves import bounded_equivalence_search

    for group in groups.values():
        root = list(range(len(group)))

        def find(u: int) -> int:
            while root[u] != u:
                root[u] = root[root[u]]
                u = root[u]
            return u

        for u, v in combinations(range(len(group)), 2):
            ru, rv = find(u), find(v)
            if ru != rv and bounded_equivalence_search(group[u], group[v], depth).equivalent:
                root[rv] = ru
        if any(size % 2 for size in Counter(find(u) for u in range(len(group))).values()):
            return Verdict("unknown")
    return Verdict("equal")
