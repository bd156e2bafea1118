"""The mod-2 splicing bracket.

Each pure crossing can be spliced two ways.  Expanding all choices over all
pure crossings and keeping only the results with the original number of
components gives a mod-2 combination of pure-crossing-free diagrams that is
unchanged by the moves.  This script shows the two splices of a crossing,
the cancellation that makes the two-crossing knot bracket trivial, and the
three-valued bracket comparison.

Run from the repository root:  python3 demos/splicing_bracket.py
"""

from itertools import product
from pathlib import Path

from freelinks import (
    apply_splices,
    bracket,
    bracket_equal,
    parse_diagram,
    serialize_bracket,
    serialize_diagram,
)

DATA = Path(__file__).parent / "data"

print("== the two splices of a crossing ==")
kink = parse_diagram("link n=1\ncomponent 1 closed: x x")
for branch in "AB":
    out = apply_splices(kink, {"x": branch})
    print(f"branch {branch}: {out.n} component(s)")
    print(serialize_diagram(out))

print("== expansion of the two-crossing knot ==")
knot = parse_diagram("link n=1\ncomponent 1 closed: x y x y")
# every assignment of branches to the pure crossings x and y, spliced at once
for bx, by in product("AB", repeat=2):
    components = apply_splices(knot, {"x": bx, "y": by}).components
    shape = [len(c) for c in components]
    note = "kept" if len(components) == knot.n else "discarded (extra component)"
    print(f"  x={bx} y={by} -> component sizes {shape}: {note}")
print("the two surviving equal circles cancel mod 2, leaving one:")
print(serialize_bracket(bracket(knot)))

print("== a pure crossing on a two-component link ==")
link = parse_diagram("link n=2\ncomponent 1 closed: x a x b\ncomponent 2 closed: a b")
print(serialize_bracket(bracket(link)))

print("== bracket comparison ==")
circle = parse_diagram("link n=1\ncomponent 1 closed:")
verdict = bracket_equal(bracket(knot), bracket(circle), depth=0)
print("two-crossing knot vs circle:", verdict.status)

tangle = parse_diagram((DATA / "three_strand.tangle").read_text())
trivial = parse_diagram((DATA / "trivial_3_3.tangle").read_text())
verdict = bracket_equal(bracket(tangle), bracket(trivial), depth=2)
print("six-crossing tangle vs trivial tangle:", verdict.status)
print("certificate:", verdict.certificate)
