"""Gauss codes, canonical forms, and the move engine.

A free diagram is a Gauss code: one pass sequence per component, every
crossing name appearing exactly twice.  This script walks through parsing,
validation, canonical forms, and the three Reidemeister moves for free
diagrams, ending with a random walk and a bounded equivalence search.

Run from the repository root:  python3 demos/diagrams_and_moves.py
"""

from pathlib import Path

from freelinks import (
    Basepoint,
    apply_move,
    bounded_equivalence_search,
    canonical_form,
    crossing_type,
    cut_link,
    enumerate_moves,
    parse_diagram,
    random_walk,
    serialize_diagram,
    serialize_trace,
)

DATA = Path(__file__).parent / "data"

print("== parsing and validation ==")
tangle = parse_diagram((DATA / "three_strand.tangle").read_text())
print(serialize_diagram(tangle))
# derived data is read from the diagram's cached fields
print("violations:", tangle.violations)
print("crossing a joins components:", crossing_type(tangle, "a"))
print("pure crossings:", sorted(tangle.pure))
print("parity table:", tangle.parity)
print("good condition:", not any(tangle.parity.values()))

print()
print("== canonical form ==")
# the same knot stored with a different basepoint and names
first = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
second = parse_diagram("link n=1\ncomponent 1 closed: q p q p")
print("same canonical form:", canonical_form(first) == canonical_form(second))
print(serialize_diagram(canonical_form(first)))

print()
print("== the three moves ==")
kink = parse_diagram("link n=1\ncomponent 1 closed: x x")
(site,) = enumerate_moves(kink)
print("kink site:", site)
print("after first move:", serialize_diagram(apply_move(kink, site)))

triangle = parse_diagram((DATA / "triangle.tangle").read_text())
(site,) = enumerate_moves(triangle)
print("triangle site:", site)
moved = apply_move(triangle, site)
print("after third move:", [c.passes for c in moved.components])
print("applying it again restores the diagram:", apply_move(moved, site) == triangle)

print()
print("== cutting a link ==")
link = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
cut = cut_link(link, [Basepoint(1, 2)])
print("cut at offset 2:", serialize_diagram(cut))

print()
print("== random walks ==")
walk = random_walk(tangle, steps=40, seed=7, forbid_pure=True, max_size=12)
print(f"walked {len(walk.moves)} moves; final size {walk.final.crossing_count} crossings")
print("final still pure-free:", not walk.final.pure)
print("parity table unchanged:", walk.final.parity == tangle.parity)

print()
print("== bounded equivalence search ==")
knot = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
circle = parse_diagram("link n=1\ncomponent 1 closed:")
verdict = bounded_equivalence_search(knot, circle, depth=2)
print("two-crossing knot ~ circle:", verdict.equivalent)
print("trace:")
print(serialize_trace(verdict.trace), end="")
