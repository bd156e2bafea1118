"""Seeded input generation, written apart from ``freelinks``.

A diagram here is a plain tuple ``(kind, comps)`` where ``comps`` is a tuple
of ``(closed, passes)`` and ``passes`` a tuple of crossing names, each name
occurring exactly twice over all components.  Nothing in this module
imports the program, so a change to the program (for example to the order
in which ``freelinks.moves`` enumerates moves) cannot change the inputs:
the same seed always yields byte-identical files.

The moves are the free Reidemeister moves on Gauss codes as the program's
documentation states them: a second move inserts two crossings whose four
passes form two adjacent pairs ``x y`` / ``x y`` or ``x y`` / ``y x``; a
third move reverses, in place, three disjoint adjacent pairs reading
``{x,y} {x,z} {y,z}``.
"""

from __future__ import annotations

import random


def serialize(d) -> str:
    """The program's text format for one diagram."""
    kind, comps = d
    lines = [f"{kind} n={len(comps)}"]
    for i, (closed, passes) in enumerate(comps, start=1):
        suffix = (" " + " ".join(passes)) if passes else ""
        lines.append(f"component {i} {'closed' if closed else 'open'}:{suffix}")
    return "\n".join(lines) + "\n"


def build(rng: random.Random, kind: str, n: int, pair_counts: dict, pure_counts: dict | None = None):
    """A diagram with ``pair_counts[(i, j)]`` crossings between components
    i < j and ``pure_counts[i]`` pure crossings on component i, in random
    pass order."""
    per: dict[int, list[str]] = {i: [] for i in range(1, n + 1)}
    serial = 0
    for (i, j), count in sorted(pair_counts.items()):
        for _ in range(count):
            serial += 1
            per[i].append(f"c{serial}")
            per[j].append(f"c{serial}")
    for i, count in sorted((pure_counts or {}).items()):
        for _ in range(count):
            serial += 1
            per[i] += [f"c{serial}", f"c{serial}"]
    comps = []
    for i in range(1, n + 1):
        rng.shuffle(per[i])
        comps.append((kind == "link", tuple(per[i])))
    return (kind, tuple(comps))


def spread_counts(rng: random.Random, n: int, total: int) -> dict:
    """Split ``total`` mixed crossings over the component pairs, an even
    number per pair, so that every component meets at least one other."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    counts = dict.fromkeys(pairs, 0)
    # a spanning path keeps every component crossed
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        if not counts[(min(a, b), max(a, b))]:
            counts[(min(a, b), max(a, b))] = 2
    left = total - sum(counts.values())
    if left < 0 or left % 2:
        raise ValueError(f"cannot spread {total} crossings over {n} components")
    for _ in range(left // 2):
        counts[rng.choice(pairs)] += 2
    return counts


def _insert_pairs(rng: random.Random, d, placed: list):
    """Insert each ``(component, (u, v))`` as an adjacent pair at a random place."""
    comps = [list(passes) for _, passes in d[1]]
    for ci, pair in placed:
        p = rng.randint(0, len(comps[ci]))
        comps[ci][p:p] = pair
    return (d[0], tuple((closed, tuple(c)) for (closed, _), c in zip(d[1], comps)))


def r2_insert(rng: random.Random, d, i: int, j: int, x: str, y: str):
    """A second move creating crossings x, y between components i != j (0-based)."""
    return _insert_pairs(rng, d, [(i, (x, y)), (j, (x, y) if rng.random() < 0.5 else (y, x))])


def plant_triangle(rng: random.Random, d, i: int, j: int, k: int):
    """Add crossings t1 (i,j), t2 (i,k), t3 (j,k) as a third-move site.

    Returns the diagram and the site's three pairs as ``(component, (u, v))``.
    """
    site = [(i, ("t1", "t2")), (j, ("t1", "t3")), (k, ("t2", "t3"))]
    return _insert_pairs(rng, d, site), site


def third_move(d, site):
    """Reverse the three adjacent pairs of a planted site in place."""
    comps = [list(passes) for _, passes in d[1]]
    for ci, (u, v) in site:
        seq = comps[ci]
        p = seq.index(u)
        if seq[p + 1] != v:
            raise ValueError("site pairs are no longer adjacent")
        seq[p], seq[p + 1] = v, u
    return (d[0], tuple((closed, tuple(c)) for (closed, _), c in zip(d[1], comps)))


def scramble(rng: random.Random, d, *, reverse: bool = True):
    """Rename every crossing and rotate (and, if ``reverse``, reverse) each
    closed component."""
    names = sorted({t for _, passes in d[1] for t in passes})
    fresh = [f"k{k}" for k in range(1, len(names) + 1)]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))
    comps = []
    for closed, passes in d[1]:
        seq = tuple(rename[t] for t in passes)
        if closed and seq:
            r = rng.randrange(len(seq))
            seq = seq[r:] + seq[:r]
            if reverse and rng.random() < 0.5:
                seq = seq[::-1]
        comps.append((closed, seq))
    return (d[0], tuple(comps))
