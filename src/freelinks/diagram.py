"""Unsigned Gauss codes for free link and tangle diagrams.

A free diagram is stored as one pass sequence per component.  Each crossing
name occurs exactly twice across all sequences (the two passes through a
4-valent vertex).  Open components are oriented arcs read from the lower
endpoint to the upper endpoint; closed components are circles stored with an
arbitrary basepoint at position 0.  Virtual crossings are never represented:
an unsigned Gauss code determines a free diagram up to detour moves, and
every unsigned code is realizable, so no planarity check is performed.

Components are enumerated: ``components[k]`` is component ``k + 1`` and the
numbering is part of the data (it is preserved by all move and splice
operations elsewhere in the package).

The records (:class:`ComponentCode`, :class:`Basepoint`,
:class:`CrossingType`, :class:`Violation`, and those of the other modules)
are immutable named tuples, each equal to the tuple of its fields, and no
data classes: ``replace``, ``fields`` and ``asdict`` of the standard
library's data class module do not apply to them, and ``_replace`` and
``_fields`` do.

:class:`Diagram` is the one record class with cached fields, a small frozen
class that equals only another diagram.  Data derived from a diagram is
computed once per diagram, cached on it and read as its fields, never
changed: ``violations`` (empty when the diagram is valid),
``partner_map`` (each crossing's two components, XORed, the one crossing
index), ``pure``, ``pair_counts`` (the crossing count of each component
pair, pure pairs (i, i) included), ``parity`` (the good-condition table),
``pass_counts`` and ``partners`` (which ``_isomorphic`` reads), and ``key``.
A field is computed on its first read by a small descriptor,
:class:`_field`, with no lock, and kept in the instance ``__dict__``.
Operations that need a valid diagram call the one guard
:func:`require_valid`.  :func:`parse_diagram` checks the names and counts
the passes of its input as it reads them, and the diagram it returns already
holds its ``violations``, so the command line's validation of each loaded
file computes nothing again.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

__all__ = [
    "Diagram",
    "ComponentCode",
    "Basepoint",
    "CrossingType",
    "Violation",
    "DiagramError",
    "ParseError",
    "parse_diagram",
    "serialize_diagram",
    "require_valid",
    "crossing_type",
    "canonical_form",
    "canonical_key",
    "cut_link",
]

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")

HEADER_RE = re.compile(r"(tangle|link)\s+n=(\d+)\Z")
COMPONENT_RE = re.compile(r"component\s+(\d+)\s+(open|closed):(.*)\Z")


class DiagramError(ValueError):
    """A diagram violates a structural precondition."""


class MoveError(ValueError):
    """A move site does not apply to the given diagram.

    Defined here, and exported by :mod:`freelinks.moves`, so that the command
    line maps it to its exit code without loading the move code."""


class ParseError(DiagramError):
    """The text form of a diagram is malformed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + ("" if column is None else f", column {column}") + ")"
        super().__init__(message + where)


class ComponentCode(NamedTuple("ComponentCode", [("closed", bool), ("passes", tuple[str, ...])])):
    """One component of a diagram: its pass sequence in traversal order.
    ``len()`` counts its passes."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.passes)

    @classmethod
    def _make(cls, iterable) -> ComponentCode:
        # NamedTuple's own _make checks the field count with len()
        return cls(*iterable)


class _field:
    """A cached field of :class:`Diagram`: ``func`` computes it on the first
    read of each diagram, and the value is kept in the instance
    ``__dict__``, where later reads find it before this non-data
    descriptor.  Read on the class, it returns itself, so that ``func`` can
    be swapped.

    :func:`functools.cached_property` does the same, but before Python 3.12
    it takes a lock on each first read, which costs several times the
    lookup.  Without one, two threads that read a field first at once may
    both compute it, and keep equal values.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Diagram:
    """An enumerated free link or tangle diagram as unsigned Gauss codes.

    The one record class that is no named tuple, since its cached fields
    live in the instance ``__dict__``, where :class:`_field` keeps them.
    It is frozen: ``kind`` and ``components`` are slots that only
    ``__init__`` sets, and a diagram equals only a diagram with equal
    fields, never a tuple.

    Each index field is built in one traversal of the passes and cached.
    ``partner_map`` maps each crossing to the XOR of its two components, so
    that a pass's partner is one XOR away; ``violations``, unless
    :func:`parse_diagram` has stored it, ``pure``, ``pair_counts`` and
    ``partners`` read it, and ``parity`` reads the mixed pairs (i, j),
    i < j, of ``pair_counts``, which also counts each pure pair (i, i).
    ``pass_counts`` and ``partners`` are the shape that :func:`_isomorphic`
    matches.  ``partner_map`` is the one crossing index: a crossing reads
    as the pair of components of its passes, which :func:`crossing_type`
    finds from its first component in scan order and ``partner_map``.
    """

    # _field keeps each cached field in __dict__
    __slots__ = ("kind", "components", "__dict__")
    __match_args__ = ("kind", "components")

    def __init__(self, kind: str, components: tuple[ComponentCode, ...]):
        object.__setattr__(self, "kind", kind)  # "tangle" or "link"
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.components))

    def __repr__(self) -> str:
        return f"Diagram(kind={self.kind!r}, components={self.components!r})"

    def __reduce__(self):
        # pickle and copy build the copy anew, without the cached fields
        return type(self), (self.kind, self.components)

    @property
    def n(self) -> int:
        return len(self.components)

    @_field
    def crossing_names(self) -> frozenset[str]:
        return frozenset(name for comp in self.components for name in comp.passes)

    @property
    def crossing_count(self) -> int:
        return sum(len(comp) for comp in self.components) // 2

    @_field
    def violations(self) -> tuple[Violation, ...]:
        """The broken diagram invariants.  Names are not counted when
        :attr:`partner_map`, which a diagram met in a search or a walk needs
        anyway, holds one name for every two passes: every name then occurs
        twice.  All distinct names are checked by one test of their
        characters; only when it fails is each name checked, and the passes
        listed again, to report each pass of a bad name in place."""
        violations: list[Violation] = []
        if self.kind not in ("tangle", "link"):
            violations.append(Violation("kind", "header", f"unknown kind {self.kind!r}"))

        names = self.partner_map
        counts = None
        if 2 * len(names) != sum(self.pass_counts):
            # some name occurs once, or three times or more
            names = counts = Counter(chain.from_iterable(comp.passes for comp in self.components))
        bad = set()
        if not _plain_names(names):
            bad = {name for name in names if TOKEN_RE.match(name) is None}
        violations += _component_violations(self.kind, self.components, bad)

        if counts is not None:
            for name in sorted(name for name, count in counts.items() if count != 2):
                violations.append(
                    Violation("arity", f"crossing {name}", f"occurs {counts[name]} times, expected 2")
                )
        return tuple(violations)

    @_field
    def partner_map(self) -> dict[str, int]:
        """Crossing name -> the XOR of the 1-based components of its two
        passes, in order of first occurrence: a pass on component ``ci``
        has partner ``partner_map[name] ^ ci``, and 0 marks a pure
        crossing.  A name that does not occur twice is left out.

        Built in one pass over the passes.  Each pass adds one to its
        name's count, held less two in the bits above the components', where
        the XOR never reaches, so a name that occurs twice holds its XOR
        alone."""
        step = 1 << len(self.components).bit_length()
        low = -2 * step
        found: dict[str, int] = {}
        get = found.get
        for ci, comp in enumerate(self.components, start=1):
            for name in comp.passes:
                found[name] = (get(name, low) + step) ^ ci
        values = found.values()
        if found and not (0 <= min(values) and max(values) < step):
            # some name occurs once or three times or more
            found = {name: x for name, x in found.items() if 0 <= x < step}
        return found

    @_field
    def pure(self) -> frozenset[str]:
        """Crossings whose two passes lie on a single component."""
        return frozenset([name for name, x in self.partner_map.items() if not x])

    @_field
    def pair_counts(self) -> dict[tuple[int, int], int]:
        """The number of crossings joining each pair (i, j), i <= j: a pure
        pair (i, i) counts component i's pure crossings."""
        n = self.n
        counts = {(i, j): 0 for i in range(1, n + 1) for j in range(i, n + 1)}
        get = self.partner_map.get
        for ci, comp in enumerate(self.components, start=1):
            for name in comp.passes:
                # a mixed crossing counts at its pass on the lesser
                # component, a pure one at both passes; a name without two
                # passes reads a negative partner
                cj = get(name, -1) ^ ci
                if cj >= ci:
                    counts[ci, cj] += 1
        for i in range(1, n + 1):
            counts[i, i] //= 2
        return counts

    @_field
    def key(self) -> tuple:
        """The :func:`canonical_key` of this diagram, computed once."""
        return canonical_key(self)

    @_field
    def parity(self) -> dict[tuple[int, int], int]:
        """The good-condition parity table: each mixed pair's count mod 2.
        The diagram is in good condition when every entry is 0."""
        return {(i, j): count % 2 for (i, j), count in self.pair_counts.items() if i != j}

    @_field
    def pass_counts(self) -> tuple[int, ...]:
        """The number of passes of each component: equal on diagrams with
        equal keys, so diagrams where it differs need no key to tell their
        keys apart."""
        return tuple(len(comp.passes) for comp in self.components)

    @_field
    def partners(self) -> tuple[str, ...]:
        """Per component, each pass's partner, the component of its
        crossing's other pass, as the character of its 1-based index, read
        from :attr:`partner_map`; a name that does not occur twice reads
        ``chr(0)``."""
        get = self.partner_map.get
        return tuple(
            "".join([chr(get(tok, ci) ^ ci) for tok in comp.passes])
            for ci, comp in enumerate(self.components, start=1)
        )


class Basepoint(NamedTuple):
    """A cut location on a component: just before pass ``offset``."""

    component: int
    offset: int


class CrossingType(NamedTuple):
    """The pair of component indices joined by a crossing, with i <= j."""

    i: int
    j: int

    @property
    def is_pure(self) -> bool:
        return self.i == self.j


class Violation(NamedTuple):
    """One broken diagram invariant: the rule name and where it fails."""

    rule: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} at {self.where}: {self.detail}"


# -- parsing and serialization ----------------------------------------------


def parse_diagram(text: str | bytes) -> Diagram:
    """Parse the line-oriented text format.

    Line 1 is ``tangle n=<N>`` or ``link n=<N>``, followed by N lines
    ``component <i> open: <tok> ...`` or ``component <i> closed: <tok> ...``.
    ``#`` starts a comment; blank lines are skipped; lines end as
    :func:`_lines` ends them; a leading byte order mark is dropped (see
    :func:`_text`).  Raises :class:`ParseError` on bytes that are not
    UTF-8, on malformed syntax, on a crossing that does not occur exactly
    twice, and on component indices out of range or repeated.

    A component line's names are checked by one test of their characters,
    and its names are scanned one by one only to place a bad one at its
    column.  The passes are counted once.  Only the kind rules can then
    still fail, and the diagram keeps their result as its
    :attr:`Diagram.violations`, so validating it computes nothing again.
    """
    # (line number, line without comment and blanks, raw line)
    lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(_lines(_text(text)), start=1):
        stripped = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if stripped:
            lines.append((lineno, stripped, raw))

    if not lines:
        raise ParseError("empty input: expected 'tangle n=<N>' or 'link n=<N>' header", 1, 1)

    headerno, header, _ = lines[0]
    m = HEADER_RE.match(header)
    if m is None:
        raise ParseError("expected 'tangle n=<N>' or 'link n=<N>'", headerno, 1)
    kind = m[1]
    n = int(m[2])

    body = lines[1:]
    if len(body) != n:
        raise ParseError(
            f"expected {n} component lines, found {len(body)}",
            body[-1][0] if body else headerno,
            1,
        )

    codes: list[ComponentCode | None] = [None] * n
    for lineno, line, raw in body:
        m = COMPONENT_RE.match(line)
        if m is None:
            raise ParseError("expected 'component <i> open:|closed: <tokens>'", lineno, 1)
        index = int(m[1])
        if not 1 <= index <= n:
            raise ParseError(f"component index {index} out of range 1..{n}", lineno, 1)
        if codes[index - 1] is not None:
            raise ParseError(f"duplicate component index {index}", lineno, 1)
        tokens = m[3].split()
        if not _plain_names(tokens):
            code = raw.split("#", 1)[0]
            raise _bad_name(tokens, raw, len(code) - len(code.lstrip()) + m.start(3), lineno)
        codes[index - 1] = ComponentCode(m[2] == "closed", tuple(tokens))

    # n lines, each with its own index in 1..n: every index is present
    components = tuple(codes)
    counts = Counter(chain.from_iterable(comp.passes for comp in components))
    bad = sorted(name for name, c in counts.items() if c != 2)
    if bad:
        raise ParseError(
            "crossings must occur exactly twice; offenders: " + " ".join(bad),
            headerno,
        )
    diagram = Diagram(kind, components)
    # where _field keeps it: names and counts are checked above
    diagram.__dict__["violations"] = tuple(_component_violations(kind, components))
    return diagram


def _text(data: str | bytes, source: str = "") -> str:
    """``data``, decoded as UTF-8 if it is bytes, without a leading byte
    order mark: the one reading of input text, for both parsers and the
    command line.  The mark is dropped after decoding, so the byte offset in
    the error for bytes that are not UTF-8 counts from the start of
    ``data``; the error names ``source`` if given, else the offset's line.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            reason = f"not UTF-8 ({e.reason} at byte {e.start})"
            if source:
                raise ParseError(f"cannot read {source}: {reason}") from None
            raise ParseError(f"input is {reason}", data.count(b"\n", 0, e.start) + 1) from None
    return data.removeprefix("\ufeff")


def _lines(text: str) -> list[str]:
    r"""The lines of ``text``, for both parsers: a line ends at ``\n``,
    ``\r\n`` or ``\r`` alone.  ``str.splitlines`` also ends one at ``\v``,
    ``\f``, ``\x1c``-``\x1e``, ``\x85``, U+2028 and U+2029, which a
    comment may hold."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _bad_name(tokens: list[str], raw: str, pos: int, lineno: int) -> ParseError:
    """The error for the first of ``tokens`` that :data:`TOKEN_RE` refuses,
    at its column in the line ``raw``, whose text from ``pos`` on the
    tokens were split from."""
    for tok in tokens:
        # only blanks lie between two tokens, so the next match is this one
        pos = raw.index(tok, pos)
        if TOKEN_RE.match(tok) is None:
            return ParseError(f"invalid crossing name {tok!r}", lineno, pos + 1)
        pos += len(tok)
    raise AssertionError("every name is valid")


def serialize_diagram(d: Diagram) -> str:
    """Inverse of :func:`parse_diagram` on valid diagrams."""
    lines = [f"{d.kind} n={d.n}"]
    for i, comp in enumerate(d.components, start=1):
        openness = "closed" if comp.closed else "open"
        suffix = (" " + " ".join(comp.passes)) if comp.passes else ""
        lines.append(f"component {i} {openness}:{suffix}")
    return "\n".join(lines) + "\n"


# -- structural checks -------------------------------------------------------


def require_valid(d: Diagram, source: str = "") -> Diagram:
    """``d`` if it is valid, else :class:`DiagramError` naming ``source``."""
    if d.violations:
        where = f" in {source}" if source else ""
        raise DiagramError(f"invalid diagram{where}: " + "; ".join(str(v) for v in d.violations))
    return d


def _plain_names(names) -> bool:
    """Whether :data:`TOKEN_RE` accepts each of ``names``, tested at once:
    the character class it repeats accepts a concatenation of nonempty
    names exactly when it accepts each of them."""
    joined = "".join(names)
    return "" not in names and (not joined or TOKEN_RE.match(joined) is not None)


def _component_violations(kind: str, components, bad=()) -> list[Violation]:
    """The kind rule of each component, a closed one in a tangle or an open
    one in a link, each followed by the passes of that component whose
    names are in ``bad``."""
    violations = []
    for ci, comp in enumerate(components, start=1):
        if kind == "tangle" and comp.closed:
            violations.append(Violation("kind", f"component {ci}", "closed component in a tangle"))
        elif kind == "link" and not comp.closed:
            violations.append(Violation("kind", f"component {ci}", "open component in a link"))
        if bad:
            for tok in comp.passes:
                if tok in bad:
                    violations.append(
                        Violation("token", f"component {ci}", f"unserializable name {tok!r}")
                    )
    return violations


def crossing_type(d: Diagram, c: str) -> CrossingType:
    """The normalized pair (i, j), i <= j, of components carrying the two passes of c.

    i is the first component in scan order that passes c, and j is its
    partner in :attr:`Diagram.partner_map`."""
    x = d.partner_map.get(c)
    if x is None:
        count = sum(comp.passes.count(c) for comp in d.components)
        if not count:
            raise DiagramError(f"unknown crossing {c!r}")
        raise DiagramError(f"crossing {c!r} occurs {count} times, expected 2")
    i = next(ci for ci, comp in enumerate(d.components, start=1) if c in comp.passes)
    return CrossingType(i, x ^ i)


# -- canonical form -----------------------------------------------------------


def canonical_key(d: Diagram) -> tuple:
    """A hashable value equal for exactly the diagrams related by crossing
    renaming, closed-component rotation and closed-component reversal.

    Crossings are relabeled 1, 2, 3, ... in order of first occurrence while
    scanning components in index order; per closed component, the
    rotation/reversal producing the lexicographically least relabeled pass
    sequence is chosen among all combinations.  A tangle's components are
    all open, with nothing to choose, so its key is that first-occurrence
    relabeling, made in one pass.  The states and ties below serve links,
    whose components are all closed, and an empty circle among them adds
    ``(True, ())`` and changes no state.  The result is identical to the
    minimum over the full product, which is not enumerated:

    - the labelings of the tying prefixes are kept as states, each a set of
      labelings of the crossings still to come, held as ``(fixed,
      factors)``: ``fixed`` maps each crossing whose label the state
      determines to that label, and each factor lists the alternative
      labels of its own crossings, two or more of them.  The state is the
      fixed labels times the product of the factors.  Each pass reads its
      fixed label or one factor, so the least code at a pass is the least
      over that factor's alternatives alone, and the alternatives that give
      it stay a product with the other factors; a factor narrowed to one
      alternative moves its labels into ``fixed``.  Components that share
      no crossing therefore add their tying rotations as a factor instead
      of multiplying the states: a four-component link with a dozen
      crossings per component otherwise carries several hundred equal
      states.
    - only the (state, rotation/reversal) pairs whose first code is the
      least are scanned.  The first code of a pair is the fixed label or
      the least alternative label of its first crossing when an earlier
      component shares that crossing, and the next fresh label ``nxt``
      otherwise.  Those least labels are the column minima of each state's
      factors, taken once per state; they are also the code of the first
      pass that reads a factor.  The filter is exact: every other pair is
      already above the least at position 0 and can never win.
    - the scanned pairs are dropped at the first position where their
      relabeled prefix exceeds the best one found so far.
    - the pairs that tie the best become the next states.  Ties that carry
      the same fixed labels and factors differ only in the labels of the
      component's new crossings, which then form one more factor; when a
      single pair ties, its state is built directly, with nothing to merge.
    - a closed component of length ``L`` that shares no crossing with an
      earlier one and passes each of its crossings once is relabeled
      ``nxt, nxt+1, ...`` in every rotation and reversal, whatever the
      state, so all of them tie.  Its sequence is set directly, and its
      crossings' factor is built in closed form: the pass at position ``p``
      is labeled ``nxt + (p - r) mod L`` in the rotation from ``r`` and
      ``nxt + (r - p) mod L`` in the reversal from ``r``.  This is component
      1 of every link without pure crossings, and every component unlinked
      from all earlier ones.

    A crossing is still to come when a later component passes it: a new
    one unless the component scanned passes it twice, one that a state
    carries unless that component passes it.  Nothing looks ahead, so the
    bookkeeping is linear in the number of components.

    Computed afresh on each call; :attr:`Diagram.key` keeps it once computed.
    """
    require_valid(d)
    if d.kind == "tangle":
        # open strands are never rotated or reversed: each crossing is
        # labeled by its first pass in scan order
        label: dict[str, int] = {}
        parts = [
            (False, tuple([label.setdefault(tok, len(label) + 1) for tok in comp.passes]))
            for comp in d.components
        ]
        return (d.kind, tuple(parts))

    # A state is (fixed, factors): a label per determined crossing, and
    # factors (crossings, alternatives), each alternative a tuple of their
    # labels.  Each earlier crossing still to come is in fixed or in one
    # factor of every state.
    states: list[tuple[dict[str, int], list]] = [({}, [])]
    nxt = 1
    earlier: set[str] = set()
    key_parts: list[tuple[bool, tuple[int, ...]]] = []
    for ci, comp in enumerate(d.components, start=1):
        passes = comp.passes
        if not passes:
            # an empty circle reads nothing and carries every state on
            key_parts.append((True, ()))
            continue
        length = len(passes)
        read = set(passes)
        once = read if len(read) == length else {tok for tok, c in Counter(passes).items() if c == 1}
        fresh_toks = tuple(sorted(once - earlier))
        # ties: (fixed, factors, narrowed, the alternatives for fresh_toks)
        if earlier.isdisjoint(read) and len(read) == length:
            labels = tuple(range(nxt, nxt + length))
            best = list(labels)
            where = [passes.index(tok) for tok in fresh_toks]
            # the labels of the pass at p in the rotations and the reversals
            # from r = 0, 1, ...: nxt + (p - r) mod L and nxt + (r - p) mod L
            alts = {
                *zip(*(labels[p::-1] + labels[:p:-1] for p in where)),
                *zip(*(labels[-p:] + labels[:-p] for p in where)),
            }
            ties = [(fixed, factors, {}, alts) for fixed, factors in states]
        else:
            # per state, each factor crossing's factor and index, and its
            # least label over that factor's alternatives
            shared = earlier.intersection(passes)
            owners, leads = [], []
            for _, factors in states:
                owner, lead = {}, {}
                for f, (toks, alts) in enumerate(factors):
                    for i, tok in enumerate(toks):
                        if tok in shared:
                            owner[tok] = f, i
                            lead[tok] = min(map(itemgetter(i), alts))
                owners.append(owner)
                leads.append(lead)
            # the least first code over every state and rotation/reversal
            least = min(
                (
                    fixed.get(tok) or lead[tok]
                    for (fixed, _), lead in zip(states, leads)
                    for tok in shared
                ),
                default=nxt,
            )
            reverse = passes[::-1]
            best = None
            for (fixed, factors), owner, lead in zip(states, owners, leads):
                variants = set()
                for p, tok in enumerate(passes):
                    if (fixed.get(tok) or lead.get(tok, nxt)) == least:
                        q = length - 1 - p
                        variants.add(passes[p:] + passes[:p])
                        variants.add(reverse[q:] + reverse[:q])
                for variant in variants:
                    narrowed: dict[int, list[tuple[int, ...]]] = {}
                    new: dict[str, int] = {}
                    fresh = nxt
                    rel = []
                    # 0 while rel ties best's prefix, -1 once it is below it
                    order = -1 if best is None else 0
                    for tok in variant:
                        code = fixed.get(tok)
                        if code is None:
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
                                    alts, code = factors[f][1], lead[tok]
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
                        ties.append(
                            (fixed, factors, narrowed, (tuple(new[tok] for tok in fresh_toks),))
                        )
        assert best is not None
        key_parts.append((True, tuple(best)))
        nxt = max([nxt - 1, *best]) + 1

        earlier.update(read)
        if ci == d.n:
            # no tie carries anything on
            states = [({}, [])]
        elif len(ties) == 1:
            fixed, factors, narrowed, fresh_alts = ties[0]
            kept, carried = _carried(fixed, factors, narrowed, read)
            states = [_next_state(kept, carried, fresh_toks, fresh_alts)]
        else:
            # Ties that carry the same fixed labels and factors differ only in
            # the labels of this component's new crossings, which then form
            # one more factor.
            merged: dict[tuple, tuple] = {}
            for fixed, factors, narrowed, fresh_alts in ties:
                kept, carried = _carried(fixed, factors, narrowed, read)
                carried.sort()
                group = (frozenset(kept.items()), tuple(carried))
                entry = merged.get(group)
                if entry is None:
                    merged[group] = (kept, carried, set(fresh_alts))
                else:
                    entry[2].update(fresh_alts)
            states = [
                _next_state(kept, carried, fresh_toks, alts)
                for kept, carried, alts in merged.values()
            ]
    return (d.kind, tuple(key_parts))


def _carried(fixed: dict[str, int], factors: list, narrowed: dict, read: set[str]):
    """The fixed labels and factors of one tie, narrowed as its pass
    sequence narrowed them, on the crossings still to come alone: those its
    component did not ``read``; a factor left with one alternative moves
    into the fixed labels."""
    kept = {tok: label for tok, label in fixed.items() if tok not in read}
    carried = []
    for f, factor in enumerate(factors):
        toks, alts = factor
        keep = [i for i, tok in enumerate(toks) if tok not in read]
        if not keep:
            continue
        if len(keep) == len(toks):
            # a component narrows only the factors of the crossings it
            # reads, which are then not to come, so this one is unnarrowed
            carried.append(factor)
            continue
        toks = tuple(toks[i] for i in keep)
        alts = {tuple(alt[i] for i in keep) for alt in narrowed.get(f, alts)}
        if len(alts) > 1:
            carried.append((toks, tuple(sorted(alts))))
        else:
            kept.update(zip(toks, *alts))
    return kept, carried


def _next_state(kept: dict[str, int], carried: list, fresh_toks: tuple[str, ...], fresh_alts):
    """The state of the carried labels and factors with the alternatives
    ``fresh_alts`` for the new crossings ``fresh_toks``: one more factor, or
    fixed labels when there is one alternative."""
    if len(fresh_alts) > 1:
        carried.append((fresh_toks, tuple(sorted(fresh_alts))))
    else:
        kept.update(zip(fresh_toks, *fresh_alts))
    return kept, carried


def _isomorphic(x: Diagram, y: Diagram) -> bool:
    """Whether ``x.key == y.key``, decided without building either key;
    both are validated as :func:`canonical_key` validates them.  Callers
    make no pre-test of their own.

    Different kinds or :attr:`Diagram.pass_counts` answer False at once.
    Otherwise each group of components joined by crossings is matched on
    its own, in breadth-first order: ``y``'s first component of the group
    in the rotations and reversals whose :attr:`Diagram.partners` are
    ``x``'s, and each later one from its anchor, the first pass whose
    crossing it shares with the component that reached it: that crossing's
    image fixes one rotation per direction, whose partners alone are
    compared, in O(L) for a component of length L.
    """
    require_valid(x)
    require_valid(y)
    # valid diagrams of one kind have all components closed or all open
    if x.kind != y.kind or x.pass_counts != y.pass_counts:
        return False
    xc, yc = x.components, y.components
    xp, yp = x.partners, y.partners

    def variants(level: int) -> list:
        # y's component order[level] in the rotations and reversals whose
        # partners are x's; past the first level, only those that put the
        # image of its anchor crossing at anchors[level], where x has it
        ci, p = order[level], anchors[level]
        passes, line, want = yc[ci].passes, yp[ci], xp[ci]
        closed = yc[ci].closed
        directions = ((passes, line), (passes[::-1], line[::-1])) if closed else ((passes, line),)
        tries = {}
        if level:
            # the image crosses an earlier component, so each direction
            # passes it once, and one rotation puts it at p
            name = image[xc[ci].passes[p]]
            for seq, line in directions:
                r = (seq.index(name) - p) % len(seq)
                if (closed or not r) and line[r:] + line[:r] == want:
                    tries[seq[r:] + seq[:r]] = None
            return list(tries)
        if line == want:
            tries[passes] = None
        for seq, line in directions if closed else ():
            doubled = line * 2
            r = doubled.find(want)
            while 0 <= r < len(seq):
                tries[seq[r:] + seq[:r]] = None
                r = doubled.find(want, r + 1)
        return list(tries)

    placed: set[int] = set()
    for root in range(len(xc)):
        if root in placed:
            continue
        placed.add(root)
        # breadth first, each later component with the position of its
        # first pass whose crossing the component that reached it passes
        order, anchors = [root], [0]
        for ci in order:
            # partners hold 1-based components
            joined = sorted({p - 1 for p in map(ord, set(xp[ci]))} - placed)
            placed.update(joined)
            order += joined
            anchors += [xp[cj].find(chr(ci + 1)) for cj in joined]
        # y's name for each of x's names read so far; once the group is
        # whole, that is one to one, since every name has two passes
        image: dict[str, str] = {}
        # depth first, without recursion: per level, the variants left to
        # try and the names that the variant in use added to image
        stack = [(iter(variants(0)), ())]
        while stack:
            left, added = stack.pop()
            for name in added:
                del image[name]
            seq = next(left, None)
            if seq is None:
                continue
            level = len(stack)
            passes = xc[order[level]].passes
            # every pass reads one name, the one read before if its name was
            # met on an earlier component
            pairing = dict(zip(passes, seq))
            if tuple(map(image.get, passes, map(pairing.__getitem__, passes))) != seq:
                stack.append((left, ()))
                continue
            stack.append((left, set(pairing).difference(image)))
            image.update(pairing)
            if level + 1 == len(order):
                break
            stack.append((iter(variants(level + 1)), ()))
        else:
            return False
    return True


def canonical_form(d: Diagram) -> Diagram:
    """The canonical representative of d under renaming/rotation/reversal.

    Open components are never rotated or reversed (their orientation and
    endpoints are fixed structure); component indices are never permuted.
    Idempotent, and equal on any two diagrams differing only by crossing
    renaming, closed-component basepoint rotation, or closed-component
    traversal reversal.
    """
    return _diagram_from_key(d.key)


def _diagram_from_key(key) -> Diagram:
    """The canonical form whose :func:`canonical_key` is ``key``, with
    ``key`` already cached as its :attr:`Diagram.key`."""
    kind, parts = key
    comps = tuple(ComponentCode(closed, tuple(str(code) for code in rel)) for closed, rel in parts)
    d = Diagram(kind, comps)
    # where _field keeps it: a canonical form is its own canonical form
    d.__dict__["key"] = key
    return d


# -- cutting a link into a tangle ---------------------------------------------


def cut_link(d: Diagram, basepoints: list[Basepoint]) -> Diagram:
    """Cut every closed component at its basepoint, producing a tangle.

    Each component's pass sequence becomes the cyclic sequence read from the
    cut; crossing names and types are unchanged.  New intersections made when
    routing endpoints are virtual, hence invisible at the Gauss-code level.
    """
    if d.kind != "link":
        raise DiagramError("cut_link expects a link")
    if len(basepoints) != d.n:
        raise DiagramError(f"need exactly one basepoint per component, got {len(basepoints)} for n={d.n}")
    offsets: dict[int, int] = {}
    for b in basepoints:
        if not 1 <= b.component <= d.n:
            raise DiagramError(f"basepoint component {b.component} out of range 1..{d.n}")
        if b.component in offsets:
            raise DiagramError(f"two basepoints on component {b.component}")
        length = len(d.components[b.component - 1])
        if not 0 <= b.offset <= length:
            raise DiagramError(
                f"basepoint offset {b.offset} out of range 0..{length} on component {b.component}"
            )
        offsets[b.component] = b.offset % length if length else 0

    comps = []
    for ci, comp in enumerate(d.components, start=1):
        o = offsets[ci]
        comps.append(ComponentCode(False, comp.passes[o:] + comp.passes[:o]))
    return Diagram("tangle", tuple(comps))
