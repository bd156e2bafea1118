"""Invariants of free knots, links and n-n tangles on unsigned Gauss codes.

The package provides:

* :mod:`freelinks.diagram` -- Gauss-code diagrams, parsing, validation,
  canonical forms, and cutting links into tangles;
* :mod:`freelinks.moves` -- Reidemeister moves for free diagrams, random
  walks, bounded equivalence search, and the descent that joins diagrams
  without pure crossings; loaded on first use (see below);
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

:mod:`freelinks.moves`, the largest module, is loaded on first use: the
first access to ``freelinks.moves`` or to one of its names (``random_walk``,
``bounded_equivalence_search``, ...) through the package imports it, as does
``import freelinks.moves``.  Of the commands, only ``compare``, ``fuzz`` and
``replay`` load it; ``validate``, ``invariant``, ``bracket`` and ``orbit``
never do.  :class:`~freelinks.moves.MoveError` is defined in
:mod:`freelinks.diagram`, so catching it loads nothing.
"""

from importlib import import_module as _import_module
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
    MoveError,
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

# the names of freelinks.moves that __getattr__ serves: all but MoveError,
# which is imported above from freelinks.diagram
_MOVES_NAMES = (
    "MoveSite",
    "SearchVerdict",
    "WalkTrace",
    "apply_move",
    "bounded_equivalence_search",
    "enumerate_moves",
    "inverse_site",
    "join_by_descent",
    "move_lower_bound",
    "parse_trace",
    "random_walk",
    "replay",
    "serialize_trace",
)

# the names imported above, without the submodules that importing them
# binds, then the names of freelinks.moves
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_MOVES_NAMES)


def __getattr__(name: str):
    """``freelinks.moves`` and its names, loading the module on first use."""
    if name == "moves" or name in _MOVES_NAMES:
        moves = _import_module(".moves", __name__)
        return moves if name == "moves" else getattr(moves, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "moves"})
