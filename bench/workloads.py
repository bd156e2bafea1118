"""The three workloads: how each builds its items from a seed and checks
each item's output.

An item is one ``freelinks`` command line over generated input files.  The
item list of a workload is one *round*; its make-up (how many items of each
kind, and their sizes) is fixed, and only the random structure within it
follows the seed.  The checks use :mod:`oracle` only, never the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations

import gen
import oracle
from oracle import CheckError


@dataclass
class Item:
    kind: str
    command: str
    diagrams: list
    extra: list = field(default_factory=list)
    group: str = ""  # the item's row in the per-kind timing report

    def argv(self, paths: list[str]) -> list[str]:
        return [self.command, *paths, *self.extra]


# -- compare-search ----------------------------------------------------------------

# (kind, components, mixed crossings, how many per round)
FOUND = [("link", 4, 20, 100), ("link", 3, 16, 20), ("tangle", 4, 20, 16)]
ROLES = list(permutations(range(3)))
# a layout whose search takes about two seconds; others take up to four.
# One is enough: each such item is a large share of the round, and its
# time follows the machine's speed less closely than the reference loop.
UNKNOWN_LAYOUTS = (4,)
DISTINCT = 16


def _scramble(rng: random.Random, d):
    # No reversal: ``compare`` answers ``distinct`` for a link and its copy
    # with one closed component reversed (see FOUND in CHANGES.md), which
    # would fail some seeds and not others.
    return gen.scramble(rng, d, reverse=False)


def _found_pair(rng: random.Random, kind: str, n: int, total: int, serial: int):
    """Two diagrams one move apart: a second-move bigon to delete, or a
    planted third-move site, alternately."""
    base = gen.build(rng, kind, n, gen.spread_counts(rng, n, total))
    i, j, k = rng.sample(range(n), 3)
    if serial % 2:
        a, site = gen.plant_triangle(rng, base, i, j, k)
        b = gen.third_move(a, site)
    else:
        a, b = gen.r2_insert(rng, base, i, j, "b1", "b2"), base
    return _scramble(rng, a), _scramble(rng, b)


def _unknown_pair(rng: random.Random, serial: int):
    """Two codes of the 3-component unlink, at least five moves apart.

    The first has two bigons between components j and k and one between i
    and k; the second has two between i and j.  A second move changes the
    crossing count of one component pair by two and a third move changes
    none, so any move sequence between them has at least (4 + 4 + 2) / 2 = 5
    moves, one more than the default search depth.

    The search's cost depends on where the bigons sit by up to a factor of
    two, so the layout, and with it the roles i, j, k, is fixed per serial
    number, and the seed chooses only names and basepoints, which leave the
    cost unchanged.
    """
    i, j, k = ROLES[serial % len(ROLES)]
    layout = random.Random(f"unknown:{serial}")
    empty = ("link", ((True, ()),) * 3)
    a = b = empty
    for s, (u, v) in enumerate([(j, k), (j, k), (i, k)]):
        a = gen.r2_insert(layout, a, u, v, f"a{s}x", f"a{s}y")
    for s, (u, v) in enumerate([(i, j), (i, j)]):
        b = gen.r2_insert(layout, b, u, v, f"b{s}x", f"b{s}y")
    return _scramble(rng, a), _scramble(rng, b)


def _distinct_pair(rng: random.Random):
    """Two 4-crossing 3-component links whose parity tables differ.

    Each has one component pair with two crossings and two pairs with one.
    Every item of this kind is the same pair under fresh names and
    basepoints from the seed, so the kind's cost is one number and the tail
    percentile, which falls among these items, does not move with the seed.
    """
    layout = random.Random("distinct")
    pairs = [(1, 2), (1, 3), (2, 3)]
    a, b = (
        gen.build(layout, "link", 3, {p: 2 if p == even else 1 for p in pairs})
        for even in ((1, 2), (2, 3))
    )
    return _scramble(rng, a), _scramble(rng, b)


def compare_items(rng: random.Random) -> list[Item]:
    items = []
    serial = 0
    for kind, n, total, count in FOUND:
        for _ in range(count):
            group = f"found-{kind}-{n}-" + ("third" if serial % 2 else "second")
            items.append(Item("found", "compare", list(_found_pair(rng, kind, n, total, serial)), group=group))
            serial += 1
    items += [Item("unknown", "compare", list(_unknown_pair(rng, s))) for s in UNKNOWN_LAYOUTS]
    items += [Item("distinct", "compare", list(_distinct_pair(rng))) for _ in range(DISTINCT)]
    return items


def check_compare(item: Item, code: int, out: str) -> str:
    """Soundness of the verdict, and the trace of an ``equal`` answer."""
    lines = out.splitlines()
    verdict = lines[0] if lines else ""
    if (verdict, code) not in (("equal", 0), ("unknown", 0), ("distinct", 1)):
        raise CheckError(f"verdict {verdict!r} with exit code {code}")
    a, b = item.diagrams
    if verdict == "distinct":
        if item.kind != "distinct":
            raise CheckError("an equivalent pair was answered distinct")
        if not lines[1:2] or not lines[1].startswith("certificate: "):
            raise CheckError("distinct without a certificate")
    if verdict == "equal":
        if item.kind == "distinct":
            raise CheckError("a pair with different parity tables was answered equal")
        trace = lines[2:] if lines[1:2] == ["trace:"] else []
        if not oracle.same_diagram(oracle.replay_trace(a, trace), b):
            raise CheckError("the trace does not lead from A to B")
    return verdict


# -- bracket-expand ------------------------------------------------------------------

# (kind, components, mixed crossings, pure crossings per component, how many per round)
BRACKET = [
    ("link", 1, 0, (10,), 24),
    ("tangle", 2, 4, (5, 5), 14),
    ("tangle", 3, 6, (4, 3, 3), 14),
    ("link", 2, 4, (5, 5), 14),
    ("link", 3, 6, (3, 3, 4), 14),
]


def bracket_items(rng: random.Random) -> list[Item]:
    items = []
    for kind, n, mixed, pures, count in BRACKET:
        for _ in range(count):
            counts = gen.spread_counts(rng, n, mixed) if n > 1 else {}
            d = gen.build(rng, kind, n, counts, dict(enumerate(pures, start=1)))
            items.append(Item(f"{kind}-{n}", "bracket", [gen.scramble(rng, d)]))
    return items


def check_bracket(item: Item, code: int, out: str) -> str:
    """The summand set equals the independent expansion's, by naive key."""
    if code != 0:
        raise CheckError(f"exit code {code}")
    head, _, body = out.partition("\n")
    summands = oracle.parse_diagrams(body)
    if head != f"bracket n={len(item.diagrams[0][1])} summands={len(summands)}":
        raise CheckError(f"bad header {head!r}")
    got = [oracle.naive_key(s) for s in summands]
    if len(set(got)) != len(got):
        raise CheckError("a summand is listed twice")
    if set(got) != oracle.bracket_keys(item.diagrams[0]):
        raise CheckError("summands differ from the independent expansion")
    return "decided"


# -- fuzz-walk -----------------------------------------------------------------------

STEPS = 10
# (kind, components, mixed crossings, how many per round)
FUZZ = [("tangle", 4, 12, 27), ("tangle", 5, 14, 63), ("link", 4, 12, 27), ("link", 5, 14, 63)]


def fuzz_items(rng: random.Random) -> list[Item]:
    items = []
    for kind, n, total, count in FUZZ:
        for _ in range(count):
            d = gen.scramble(rng, gen.build(rng, kind, n, gen.spread_counts(rng, n, total)))
            extra = ["--steps", str(STEPS), "--seed", str(rng.randrange(10**6)), "--forbid-pure"]
            items.append(Item(f"{kind}-{n}", "fuzz", [d], extra))
    return items


def check_fuzz(item: Item, code: int, out: str) -> str:
    """A PASS line for every requested step, ending at the start's crossing
    parity (second and third moves change the count by 0 or 2)."""
    seed = item.extra[item.extra.index("--seed") + 1]
    start = oracle.crossing_count(item.diagrams[0])
    words = out.split()
    if code != 0 or len(words) != 4 or words[:3] != ["PASS", f"steps={STEPS}", f"seed={seed}"]:
        raise CheckError(f"exit code {code}, output {out.strip()!r}")
    final = int(words[3].removeprefix("crossings="))
    if (final - start) % 2:
        raise CheckError(f"crossing count went from {start} to {final}")
    return "decided"


WORKLOADS = {
    "compare-search": (compare_items, check_compare),
    "bracket-expand": (bracket_items, check_bracket),
    "fuzz-walk": (fuzz_items, check_fuzz),
}
