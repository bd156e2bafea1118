"""Output checks computed apart from ``freelinks``.

Diagrams use the tuple form of :mod:`gen`.  Each oracle is the slow, plain
version of something the program does fast:

* :func:`naive_key` minimises over the full product of rotations and
  reversals of the closed components, with no pruning;
* :func:`bracket_keys` expands the pure crossings by splicing one crossing
  at a time on each component's pass sequence, with the A/B rules of the
  ``freelinks.bracket`` docstring, and reduces the results mod 2;
* :func:`replay_trace` applies a printed move trace with its own move rules;
* :func:`parse_diagrams` reads the program's text format.
"""

from __future__ import annotations

from collections import Counter
from itertools import product


class CheckError(ValueError):
    """An output does not pass its check."""


# -- text format ----------------------------------------------------------------


def parse_diagrams(text: str) -> list:
    """Every diagram in ``text``: a header line then one line per component."""
    out = []
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    k = 0
    while k < len(lines):
        head = lines[k].split()
        if len(head) != 2 or head[0] not in ("tangle", "link") or not head[1].startswith("n="):
            raise CheckError(f"expected a diagram header, got {lines[k]!r}")
        n = int(head[1][2:])
        comps = []
        for i, line in enumerate(lines[k + 1 : k + 1 + n], start=1):
            label, _, rest = line.partition(":")
            words = label.split()
            if words[:2] != ["component", str(i)] or words[2:] not in (["open"], ["closed"]):
                raise CheckError(f"expected component {i}, got {line!r}")
            comps.append((words[2] == "closed", tuple(rest.split())))
        if len(comps) != n:
            raise CheckError("truncated diagram")
        out.append((head[0], tuple(comps)))
        k += 1 + n
    return out


# -- canonical key -----------------------------------------------------------------


def _variants(closed: bool, passes: tuple) -> list:
    if not closed or not passes:
        return [passes]
    seen = set()
    for seq in (passes, passes[::-1]):
        for r in range(len(seq)):
            seen.add(seq[r:] + seq[:r])
    return sorted(seen)


def naive_key(d) -> tuple:
    """Least first-occurrence relabelling over every rotation/reversal choice."""
    kind, comps = d
    best = None
    for combo in product(*(_variants(closed, passes) for closed, passes in comps)):
        labels: dict = {}
        rel = tuple(tuple(labels.setdefault(t, len(labels) + 1) for t in seq) for seq in combo)
        if best is None or rel < best:
            best = rel
    return (kind, tuple((closed, rel) for (closed, _), rel in zip(comps, best)))


def same_diagram(x, y) -> bool:
    """Whether ``naive_key(x) == naive_key(y)``, without listing the product.

    The relabelling of y as given is one member of the set that
    :func:`naive_key` minimises over, so the keys agree exactly when some
    combination of x's rotations and reversals relabels to it.  Combinations
    are tried component by component and dropped at the first differing
    label, so large diagrams are cheap to compare.
    """
    if x[0] != y[0] or [c for c, _ in x[1]] != [c for c, _ in y[1]]:
        return False
    labels: dict = {}
    target = [tuple(labels.setdefault(t, len(labels) + 1) for t in seq) for _, seq in y[1]]

    def extend(k: int, labels: dict) -> bool:
        if k == len(target):
            return True
        closed, seq = x[1][k]
        if len(seq) != len(target[k]):
            return False
        for variant in _variants(closed, seq):
            mine = dict(labels)
            if all(mine.setdefault(t, len(mine) + 1) == want for t, want in zip(variant, target[k])):
                if extend(k + 1, mine):
                    return True
        return False

    return extend(0, {})


# -- bracket -------------------------------------------------------------------------


def _rotate_to(seq: tuple, x: str) -> tuple:
    p = seq.index(x)
    return seq[p:] + seq[:p]


def _splice(curves: list, x: str) -> list[list]:
    """Both splices of crossing x on a list of ``(closed, passes)`` curves.

    Two passes on one curve split it (one branch) or reverse the enclosed
    segment (the other); passes on two curves, one of them necessarily a
    circle here, merge them either way round.
    """
    holders = [k for k, (_, seq) in enumerate(curves) if x in seq]
    if len(holders) == 1:
        (k,) = holders
        closed, seq = curves[k]
        rest = curves[:k] + curves[k + 1 :]
        if closed:
            seq = _rotate_to(seq, x)
            q = seq.index(x, 1)
            inner, outer = seq[1:q], seq[q + 1 :]
            return [rest + [(True, inner), (True, outer)], rest + [(True, inner + outer[::-1])]]
        p = seq.index(x)
        q = seq.index(x, p + 1)
        head, inner, tail = seq[:p], seq[p + 1 : q], seq[q + 1 :]
        return [rest + [(False, head + tail), (True, inner)], rest + [(False, head + inner[::-1] + tail)]]
    k1, k2 = holders
    if curves[k1][0]:
        k1, k2 = k2, k1  # any open curve goes first
    closed, seq = curves[k1]
    loop = _rotate_to(curves[k2][1], x)[1:]
    rest = [c for k, c in enumerate(curves) if k not in (k1, k2)]
    if closed:
        seq = _rotate_to(seq, x)[1:]
        return [rest + [(True, seq + loop)], rest + [(True, seq + loop[::-1])]]
    p = seq.index(x)
    return [rest + [(False, seq[:p] + part + seq[p + 1 :])] for part in (loop, loop[::-1])]


def _normal(closed: bool, seq: tuple) -> tuple:
    """A fixed representative of a curve up to rotation/reversal when closed."""
    return (closed, min(_variants(closed, seq)))


def _component_states(closed: bool, passes: tuple, pures: list) -> Counter:
    """Per single-curve outcome, the number of assignments giving it."""
    states = [[(closed, passes)]]
    for x in pures:
        states = [after for curves in states for after in _splice(curves, x)]
    return Counter(_normal(*curves[0]) for curves in states if len(curves) == 1)


def bracket_keys(d) -> set:
    """Naive keys of the mod-2 bracket summands of ``d``.

    A pure crossing rewires only its own component, so an assignment keeps
    the component count exactly when every component stays one curve; the
    summands are the products of the per-component outcomes, which is why
    each component is expanded on its own pass sequence.
    """
    kind, comps = d
    per_comp = []
    for closed, passes in comps:
        pures = sorted({t for t in passes if passes.count(t) == 2})
        odd = [curve for curve, c in _component_states(closed, passes, pures).items() if c % 2]
        per_comp.append(sorted(odd))
    counts = Counter(naive_key((kind, combo)) for combo in product(*per_comp))
    return {key for key, c in counts.items() if c % 2}


# -- parity --------------------------------------------------------------------------


def parity_table(d) -> dict:
    """Crossing count mod 2 per component pair (i, j), i < j."""
    n = len(d[1])
    where: dict = {}
    for ci, (_, passes) in enumerate(d[1], start=1):
        for t in passes:
            where.setdefault(t, []).append(ci)
    table = {(i, j): 0 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    for a, b in where.values():
        if a != b:
            table[(a, b) if a < b else (b, a)] ^= 1
    return table


def crossing_count(d) -> int:
    return sum(len(passes) for _, passes in d[1]) // 2


# -- trace replay --------------------------------------------------------------------


def _pair_at(comps: list, ci: int, p: int) -> tuple[int, int]:
    closed, seq = comps[ci]
    L = len(seq)
    last = L - 1 if closed else L - 2
    if L < 2 or not 0 <= p <= last:
        raise CheckError(f"no adjacent pair at component {ci + 1} position {p}")
    return p, (p + 1) % L


def _loc(token: str) -> tuple[int, int | None]:
    ci, _, pos = token.partition(":")
    return int(ci) - 1, None if pos == "w" else int(pos)


def _insert(comps: list, ci: int, pos, pair: tuple):
    closed, seq = comps[ci]
    if pos is None:
        if not closed:
            raise CheckError("wrapped insertion on an open component")
        comps[ci] = (closed, (pair[1],) + seq + (pair[0],))
    else:
        if not 0 <= pos <= len(seq):
            raise CheckError(f"insertion position {pos} out of range")
        comps[ci] = (closed, seq[:pos] + pair + seq[pos:])


def _apply(d, line: str):
    parts = line.split()
    kind, comps = d[0], list(d[1])
    present = {t for _, seq in comps for t in seq}
    move = parts[0]
    if move in ("R1_delete", "R2_delete", "R3"):
        width = {"R1_delete": 1, "R2_delete": 2, "R3": 3}[move]
        names, locs = parts[1 : 1 + width], [_loc(t) for t in parts[1 + width :]]
        if len(locs) != width or any(p is None for _, p in locs):
            raise CheckError(f"bad move line {line!r}")
        spans = [(ci, _pair_at(comps, ci, p)) for ci, p in locs]
        cells = [(ci, k) for ci, span in spans for k in span]
        if len(set(cells)) != len(cells):
            raise CheckError(f"overlapping pairs in {line!r}")
        letters = [frozenset(comps[ci][1][k] for k in span) for ci, span in spans]
        if move == "R1_delete":
            ok = letters[0] == {names[0]}
        elif move == "R2_delete":
            ok = letters[0] == letters[1] == set(names) and len(letters[0]) == 2
        else:
            ok = len(set(letters)) == 3 and all(len(s) == 2 for s in letters) and frozenset().union(*letters) == set(names)
        if not ok:
            raise CheckError(f"move does not apply: {line!r}")
        if move == "R3":
            for ci, (a, b) in spans:
                closed, seq = comps[ci]
                seq = list(seq)
                seq[a], seq[b] = seq[b], seq[a]
                comps[ci] = (closed, tuple(seq))
        else:
            gone = set(cells)
            comps = [
                (closed, tuple(t for k, t in enumerate(seq) if (ci, k) not in gone))
                for ci, (closed, seq) in enumerate(comps)
            ]
    elif move in ("R1_insert", "R2_insert"):
        if move == "R1_insert":
            (x,), slots = parts[1:2], [_loc(parts[2])]
            pairs = [(x, x)]
        else:
            x, y = parts[1:3]
            slots = [_loc(t) for t in parts[3:5]]
            pairs = [(x, y), (x, y) if parts[5] == "same" else (y, x)]
            if x == y or parts[5] not in ("same", "swap"):
                raise CheckError(f"bad move line {line!r}")
        if present & set(parts[1 : 1 + len(pairs)]):
            raise CheckError(f"insertion reuses a crossing name: {line!r}")
        # positions refer to the diagram before the move, and at a shared
        # position the first slot's pair ends up first: insert right to left
        order = sorted(
            range(len(slots)),
            key=lambda k: (slots[k][0], -1 if slots[k][1] is None else slots[k][1], k),
            reverse=True,
        )
        for k in order:
            _insert(comps, *slots[k], pairs[k])
    else:
        raise CheckError(f"unknown move {move!r}")
    return (kind, tuple(comps))


def replay_trace(d, lines: list[str]):
    """The diagram reached by applying the printed trace lines to ``d``."""
    for line in lines:
        d = _apply(d, line)
    return d
