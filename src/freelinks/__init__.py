"""Invariants of free knots, links and n-n tangles on unsigned Gauss codes.

The package provides:

* :mod:`freelinks.diagram` -- Gauss-code diagrams, parsing, validation,
  canonical forms, and cutting links into tangles;
* :mod:`freelinks.moves` -- Reidemeister moves for free diagrams, random
  walks, bounded equivalence search, and the descent that joins diagrams
  without pure crossings;
* :mod:`freelinks.bracket` -- splicing of pure crossings and the mod-2
  bracket, with a sound three-valued comparison;
* :mod:`freelinks.words` -- words in free products of copies of Z2 with
  reduction, conjugacy, and slide automorphisms;
* :mod:`freelinks.invariant` -- linking bits and the word invariants of
  tangles and links in good condition;
* :mod:`freelinks.cli` -- the ``freelinks`` command-line tool.

The package attribute ``freelinks.bracket`` is the function
:func:`~freelinks.bracket.bracket`, which shadows the module of the same
name, so ``import freelinks.bracket as m`` binds the function.  Reach the
module as ``importlib.import_module("freelinks.bracket")``.
"""

from types import ModuleType as _ModuleType

from .bracket import (
    Bracket,
    BracketError,
    Verdict,
    apply_splices,
    bracket,
    bracket_equal,
    serialize_bracket,
)
from .diagram import (
    Basepoint,
    ComponentCode,
    CrossingType,
    Diagram,
    DiagramError,
    ParseError,
    Violation,
    canonical_form,
    canonical_key,
    crossing_type,
    cut_link,
    parse_diagram,
    require_valid,
    serialize_diagram,
)
from .invariant import (
    Fingerprint,
    InvariantError,
    fingerprint,
    link_invariant,
    link_word,
    lk,
    lk_vector,
    render_fingerprint,
    word_invariant,
    word_table,
)
from .moves import (
    MoveError,
    MoveSite,
    SearchVerdict,
    WalkTrace,
    apply_move,
    bounded_equivalence_search,
    enumerate_moves,
    inverse_site,
    join_by_descent,
    move_lower_bound,
    parse_trace,
    random_walk,
    replay,
    serialize_trace,
)
from .words import (
    GroupContext,
    Letter,
    Word,
    WordError,
    apply_mask,
    canonical_class_word,
    conjugate_equal,
    cyclic_reduce,
    letter_index,
    make_word,
    orbit_representatives,
    render_letter,
    render_word,
    slide,
    slide_conjugacy_equal,
)
from .words import reduce as reduce_word

# the names imported above, without the submodules that importing them binds
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
