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
finds those states, and only they are traced.  The whole expansion runs
in the calling process.

Bracket values are compared as sets of canonical forms: equality and
distinctness verdicts are sound, but since equivalence of individual
summands is only certified by bounded search, the comparison may also answer
unknown.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from . import invariant as _invariant
from .diagram import (
    ComponentCode,
    Diagram,
    _diagram_from_key,
    canonical_key,
    require_valid,
    serialize_diagram,
)
from .moves import bounded_equivalence_search
from .words import render_word

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


@dataclass(frozen=True)
class Bracket:
    """Mod-2 set of canonical-form summands, all with ``n`` components."""

    kind: str
    n: int
    summands: frozenset[Diagram]


@dataclass(frozen=True)
class Verdict:
    """Three-valued comparison outcome."""

    status: str  # "equal" | "distinct" | "unknown"
    certificate: str | None = None


# -- simultaneous splicing via port rewiring ----------------------------------


def _port_table(d: Diagram):
    """The wiring of ``d`` before any splice: ``(where, comp_of, names, arc)``.

    Passes are numbered in scan order.  Pass g has the in-port 2g and the
    out-port 2g + 1; with P ports on passes, component ci has the endpoint
    ports P + 2(ci - 1) (start) and P + 2(ci - 1) + 1 (end).  ``where`` maps
    each crossing to its passes, ``comp_of[g]`` and ``names[g]`` are the
    component and the crossing of pass g, and ``arc`` maps each port to the
    port at the other end of its arc.  None of it depends on the branches.
    """
    comp_of = [ci for ci, comp in enumerate(d.components, start=1) for _ in comp.passes]
    names = [name for comp in d.components for name in comp.passes]
    where: dict[str, list[int]] = {}
    for g, name in enumerate(names):
        where.setdefault(name, []).append(g)
    P = 2 * len(names)
    arc = [0] * (P + 2 * d.n)

    def join(p, q):
        arc[p] = q
        arc[q] = p

    g = 0
    for ci, comp in enumerate(d.components, start=1):
        L, s = len(comp.passes), P + 2 * (ci - 1)
        for k in range(g, g + L - 1):
            join(2 * k + 1, 2 * k + 2)
        if L and comp.closed:
            join(2 * (g + L) - 1, 2 * g)
        elif L:
            join(s, 2 * g)
            join(2 * (g + L) - 1, s + 1)
        elif not comp.closed:
            join(s, s + 1)
        g += L
    return where, comp_of, names, arc


def _splice_components(d: Diagram, branches: dict[str, str], table=None):
    """Apply all splices of ``branches`` at once.

    Returns ``(components, sources)`` where ``sources[k]`` is the set of
    source component indices whose arcs or passes the k-th result component
    traverses.  Result components are ordered: for each source component in
    index order, the curve through its start (open) or through the arc
    leaving its first pass (closed, when that pass is spliced) or through its
    first pass itself; then all remaining curves in scan order.  ``table``
    is ``_port_table(d)``, built here when not given.
    """
    where, comp_of, names, arc = _port_table(d) if table is None else table
    P = 2 * len(names)
    via: dict[int, int] = {}
    for name, branch in branches.items():
        if name not in where:
            raise BracketError(f"unknown crossing {name!r}")
        if branch not in ("A", "B"):
            raise BracketError(f"branch must be 'A' or 'B', got {branch!r}")
        g1, g2 = where[name]
        # A joins in1-out2 and out1-in2, B joins in1-in2 and out1-out2
        u, v = 2 * g1, 2 * g2 + (branch == "A")
        via[u], via[v], via[u ^ 1], via[v ^ 1] = v, u, v ^ 1, u ^ 1

    visited = bytearray(len(arc))

    def trace(start, cycle: bool):
        """Walk from a port entered via its arc; emit surviving passes."""
        seq: list[str] = []
        touched: set[int] = set()
        port = start
        while True:
            if port >= P:
                visited[port] = 1
                return seq, touched, port
            visited[port] = 1
            touched.add(comp_of[port >> 1])
            out = via.get(port)
            if out is None:
                seq.append(names[port >> 1])
                out = port ^ 1
            visited[out] = 1
            touched.add(comp_of[out >> 1])
            port = arc[out]
            if cycle and port == start:
                return seq, touched, None

    components: list[ComponentCode] = []
    sources: list[set[int]] = []

    def loop(start):
        seq, touched, _ = trace(start, cycle=True)
        components.append(ComponentCode(True, tuple(seq)))
        sources.append(touched)

    # curves anchored at original components, in index order
    first = 0
    for ci, comp in enumerate(d.components, start=1):
        head, first = first, first + 2 * len(comp.passes)
        if not comp.closed:
            start = P + 2 * (ci - 1)
            if visited[start]:
                continue
            visited[start] = 1
            seq, touched, end = trace(arc[start], cycle=False)
            if (end - P) % 2 == 0:
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
            anchor = arc[head + 1] if head in via else head
            if not visited[anchor]:
                loop(anchor)

    # leftover closed curves: start at the first surviving pass so segments
    # read forward, then sweep pass-free cycles
    for port in range(0, P, 2):
        if port not in via and not visited[port]:
            loop(port)
    port = visited.find(0, 0, P)
    while port >= 0:
        loop(port)
        port = visited.find(0, port + 1, P)

    return components, sources


def apply_splices(d: Diagram, branches: dict[str, str]) -> Diagram:
    """Splice several crossings simultaneously, ``branches`` mapping each to
    ``A`` or ``B``; one crossing ``x`` alone is ``{x: branch}``.

    Branch labels refer to the scan order of each crossing's passes in ``d``
    itself, so the result is independent of any splice ordering.  Raises
    :class:`BracketError` on an unknown crossing or branch.
    """
    components, _ = _splice_components(d, dict(branches))
    return Diagram(kind=d.kind, components=tuple(components))


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
            while v and pivots[v.bit_length() - 1]:
                v ^= pivots[v.bit_length() - 1]
            if v:
                top = v.bit_length() - 1
                pivots[top] = v
                descend(r - 1, code | bit << r)
                pivots[top] = 0

    descend(len(rows) - 1, 0)
    return codes


def _component_states(sub: Diagram, pures: tuple[str, ...]) -> set[ComponentCode]:
    """Mod-2 set of the one-curve results of one component's states.

    ``sub`` holds the component alone, and bit r of a state picks the
    branch of ``pures[r]``.  Only the states that :func:`_one_curve_codes`
    finds are traced.  Each curve is at its least rotation or reversal, so
    that curves equal as closed curves cancel.
    """
    table = _port_table(sub)
    rows = _interlacement_rows(sub.components[0].passes, pures)
    odd: set[ComponentCode] = set()
    for code in _one_curve_codes(rows):
        branches = {name: "AB"[(code >> r) & 1] for r, name in enumerate(pures)}
        components, _ = _splice_components(sub, branches, table)
        if len(components) != 1:
            raise BracketError(
                f"state {code} of the pure crossings {', '.join(pures)} left "
                f"{len(components)} curves where the interlacement test predicts one"
            )
        curve = components[0]
        if curve.closed and curve.passes:
            seqs = (curve.passes, curve.passes[::-1])
            curve = ComponentCode(True, min(seq[r:] + seq[:r] for seq in seqs for r in range(len(seq))))
        odd ^= {curve}
    return odd


def bracket(d: Diagram, *, max_pure: int = 20) -> Bracket:
    """Expand all splicings of all pure crossings and reduce mod 2.

    Keeps exactly the summands with ``d.n`` components; each is
    canonicalized, and pairs of equal canonical forms cancel.  A diagram
    without pure crossings brackets to the singleton of its own canonical
    form.  Raises :class:`DiagramError` when the diagram is invalid and
    :class:`BracketError` when it has more than ``max_pure`` pure crossings.

    Each component's states are expanded on their own, in this process, and
    only those that leave it one curve are traced.
    """
    pures = require_valid(d).pure
    if len(pures) > max_pure:
        raise BracketError(
            f"{len(pures)} pure crossings exceed the expansion cap of {max_pure}; "
            "only the library call bracket(d, max_pure=N) raises the cap"
        )
    survivors = [
        _component_states(
            Diagram(kind=d.kind, components=(comp,)),
            tuple(sorted(pures.intersection(comp.passes))),
        )
        for comp in d.components
    ]

    keys: set[tuple] = set()
    for combo in product(*survivors):
        keys ^= {canonical_key(Diagram(kind=d.kind, components=combo))}
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

    Combines the good-condition parity table with, when defined, the full
    word-invariant fingerprint; both are preserved by second and third moves
    through pure-crossing-free diagrams, so differing multiset parities of
    these keys certify distinct bracket values.
    """
    parity = tuple(sorted(s.parity.items()))
    if any(s.parity.values()):
        return (parity, None)
    fp = _invariant.fingerprint(s)
    rendered = tuple(
        (pair, along, render_word(word)) for (pair, along), word in sorted(fp.items())
    )
    return (parity, rendered)


def _odd_pairs(parity) -> str:
    """The pairs ``(i,j), ...`` of odd crossing parity among the items
    ``((i, j), bit)`` of a parity table, or ``none``."""
    return ", ".join(f"({i},{j})" for (i, j), bit in sorted(parity) if bit) or "none"


def _render_class_key(key) -> str:
    parity, rendered = key
    if rendered is None:
        return "odd crossing parities at pairs " + _odd_pairs(parity)
    return "; ".join(f"pair ({i},{j}) along {a}: {w}" for (i, j), a, w in rendered)


def bracket_equal(p: Bracket, q: Bracket, depth: int) -> Verdict:
    """Compare two bracket values; sound for ``equal`` and ``distinct``.

    Stage 1 tests canonical-form set equality.  Stage 2 counts the
    invariant class keys over the symmetric difference mod 2: a key counted
    an odd number of times certifies distinctness and is returned as the
    certificate.  Stage 3 sorts the symmetric difference into classes: one
    :func:`bounded_equivalence_search` of at most ``depth``
    pure-crossing-free moves runs for each pair of summands not yet in one
    class, and each class found equivalent merges.  Values are mod 2, so a
    class of even size cancels; when every class does, the answer is equal,
    and otherwise unknown.  Every member of a class has the class's key, so
    stage 2 reads the same parities as over one summand per odd class.
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
    every = [members[k] for k in sorted(set(a_members) ^ set(b_members))]

    counts = Counter(_class_key(s) for s in every)
    odd = sorted(
        (key for key, c in counts.items() if c % 2 != 0),
        key=lambda key: (key[1] is None, str(key)),
    )
    if odd:
        return Verdict("distinct", certificate=_render_class_key(odd[0]))

    root = list(range(len(every)))

    def find(u: int) -> int:
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for u, v in combinations(range(len(every)), 2):
        ru, rv = find(u), find(v)
        if ru != rv and bounded_equivalence_search(
            every[u], every[v], depth, forbid_pure=True
        ).equivalent:
            root[rv] = ru
    sizes = Counter(find(u) for u in range(len(every)))
    if all(size % 2 == 0 for size in sizes.values()):
        return Verdict("equal")
    return Verdict("unknown")
