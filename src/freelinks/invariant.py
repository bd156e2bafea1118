"""Word invariants of tangles and links in good condition.

Every mixed crossing c of type (i, j) on an n-strand tangle receives a
letter: the bit vector whose entry for a third component k is the parity of
the number of type-(i, k) passes strictly before c on strand i plus the
number of type-(j, k) passes strictly before c on strand j, both counted
from the lower endpoints.  Reading the type-(i, j) crossings along strand i
and reducing gives a word in the free product of copies of Z2; for tangles
in good condition without pure crossings this reduced word is unchanged by
second and third moves.

A link is cut at one basepoint per component to obtain a tangle; moving a
basepoint changes the word only by slides (past a crossing with a third
component) or conjugation (past a type-(i, j) crossing), so the canonical
slide/conjugacy class of the word is a link invariant.
"""

from __future__ import annotations

from .diagram import Basepoint, Diagram, cut_link, require_valid
from .words import (
    GroupContext,
    Letter,
    Word,
    _index_letter,
    _indices_word,
    _least_class,
    render_word,
)

__all__ = [
    "Fingerprint",
    "InvariantError",
    "lk",
    "lk_vector",
    "word_invariant",
    "word_table",
    "link_word",
    "link_invariant",
    "fingerprint",
    "render_fingerprint",
]


class InvariantError(ValueError):
    """The diagram violates a precondition of the word invariant."""


# ((i, j), along) -> canonical class word of the pair read along that strand
Fingerprint = dict[tuple[tuple[int, int], int], Word]


def _require_tangle(d: Diagram):
    require_valid(d)
    if any(comp.closed for comp in d.components):
        raise InvariantError("closed component present; cut the link first")
    _require_pure_free(d)


def _require_pure_free(d: Diagram):
    if d.pure:
        raise InvariantError(
            "pure crossings present: " + " ".join(sorted(d.pure)) + "; expand with the bracket instead"
        )


def _letters(d: Diagram) -> dict[str, int]:
    """Crossing name -> the :func:`~freelinks.words.letter_index` of its
    letter, for a valid diagram without pure crossings.

    The passes are read as stored, so on a link these are the letters of its
    offset-0 cut.  The bit for a third component k is the parity of the
    type-(i, k) passes before the crossing on component i plus the
    type-(j, k) passes before it on component j, over the k outside {i, j}
    in ascending order.  Each component keeps a running parity mask, bit
    k - 1 for component k, and each pass finds its partner in
    :attr:`~freelinks.diagram.Diagram.partner_map`.  A crossing's first
    pass, on the lesser component i, holds its mask until the second, on j,
    which XORs the two into the crossing's parities toward every component
    and squeezes out bits i - 1 and j - 1 to finish the letter index.
    """
    partner = d.partner_map
    held: dict[str, int] = {}
    letters = {}
    for ci, comp in enumerate(d.components, start=1):
        mask = 0
        for name in comp.passes:
            other = partner[name] ^ ci
            if other > ci:
                held[name] = mask
            else:
                m = held[name] ^ mask
                letters[name] = (
                    m & ((1 << (other - 1)) - 1)
                    | ((m >> other) & ((1 << (ci - other - 1)) - 1)) << (other - 1)
                    | (m >> ci) << (ci - 2)
                )
            mask ^= 1 << (other - 1)
    return letters


def lk(d: Diagram, c: str, k: int) -> int:
    """The linking bit of crossing c toward component k.

    Counts, mod 2, the type-(i, k) passes strictly before c on component i
    and the type-(j, k) passes strictly before c on component j, where
    (i, j) is the type of c.  Requires a pure-crossing-free tangle and
    k outside {i, j}.
    """
    letter = lk_vector(d, c)
    (ci, _), (cj, _) = d.occurrences[c]
    if not 1 <= k <= d.n:
        raise InvariantError(f"component {k} out of range 1..{d.n}")
    if k in (ci, cj):
        raise InvariantError(f"component {k} is one of the two strands of crossing {c!r}")
    return letter[GroupContext(d.n, ci, cj).strands.index(k)]


def lk_vector(d: Diagram, c: str) -> Letter:
    """The letter of crossing c: its linking bits over all third components."""
    _require_tangle(d)
    letters = _letters(d)
    if c not in letters:
        raise InvariantError(f"unknown crossing {c!r}")
    return _index_letter(letters[c], d.n - 2)


def _checked_pair(d: Diagram, i: int, j: int):
    if i == j:
        raise InvariantError("the component pair must consist of two distinct components")
    if not (1 <= i <= d.n and 1 <= j <= d.n):
        raise InvariantError(f"pair ({i}, {j}) out of range 1..{d.n}")


def _require_good(d: Diagram):
    odd = sorted(pair for pair, bit in d.parity.items() if bit)
    if odd:
        raise InvariantError(f"good condition fails: odd crossing count for pairs {odd}")


def _pair_words(d: Diagram) -> dict[tuple[int, int], list[int]]:
    """The reduced words of all ordered pairs, ``(along, other) -> word``,
    as letter indices.

    The letters of the type-(along, other) crossings are read along
    component ``along`` and reduced on a stack as they are read; each
    component keeps one row of stacks, indexed by the other component.
    """
    letters = _letters(d)
    partner = d.partner_map
    n = d.n
    rows = [[[] for _ in range(n + 1)] for _ in range(n + 1)]
    for along, comp in enumerate(d.components, start=1):
        row = rows[along]
        for name in comp.passes:
            stack = row[partner[name] ^ along]
            x = letters[name]
            if stack and stack[-1] == x:
                stack.pop()
            else:
                stack.append(x)
    return {(i, j): rows[i][j] for i in range(1, n + 1) for j in range(1, n + 1) if i != j}


def word_table(d: Diagram) -> dict[tuple[int, int], Word]:
    """The reduced words of all ordered pairs: ``(along, other) -> word``.

    One traversal computes the letters of every mixed crossing; use this when
    many pairs of the same diagram are needed.
    """
    _require_tangle(d)
    _require_good(d)
    return {
        (along, other): _indices_word(GroupContext(d.n, along, other), word)
        for (along, other), word in _pair_words(d).items()
    }


def word_invariant(d: Diagram, i: int, j: int) -> Word:
    """The reduced word of the type-(i, j) crossings read along strand i.

    Requires an n-strand tangle in good condition without pure crossings.
    Invariant, as a reduced word, under second and third moves through
    pure-crossing-free diagrams.
    """
    _checked_pair(d, i, j)
    return word_table(d)[(i, j)]


def link_word(d: Diagram, basepoints: list[Basepoint], i: int, j: int) -> Word:
    """The word of the tangle obtained by cutting the link at ``basepoints``.

    Depends on the basepoints only up to slides and conjugation.
    """
    if d.kind != "link":
        raise InvariantError("link_word expects a link")
    return word_invariant(cut_link(d, basepoints), i, j)


def link_invariant(d: Diagram, i: int, j: int) -> Word:
    """The canonical slide/conjugacy class word of the link, pair (i, j),
    taken up to reversing component i.

    Its entry of the :func:`fingerprint`, read from the passes as stored;
    the class does not depend on the basepoints of a cut, nor on the
    direction in which any component is stored.
    """
    if d.kind != "link":
        raise InvariantError("link_invariant expects a link")
    _checked_pair(d, i, j)
    return _indices_word(GroupContext(d.n, i, j), _class_words(d)[(min(i, j), max(i, j)), i])


def _class_words(d: Diagram) -> dict[tuple[tuple[int, int], int], tuple[int, ...]]:
    """The :func:`fingerprint` of ``d`` with each word as its letter indices.

    Two diagrams with the same number of components have equal fingerprints
    exactly when these are equal, so a comparison need not build the words.
    """
    require_valid(d)
    _require_pure_free(d)
    _require_good(d)
    closed = d.kind == "link"
    n = d.n
    words = _pair_words(d)
    out: dict[tuple[tuple[int, int], int], tuple[int, ...]] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for key, word in ((((i, j), i), words[i, j]), (((i, j), j), words[j, i])):
                # most words are empty or two letters long, and these are
                # the values _least_class gives them
                if not word:
                    out[key] = ()
                elif len(word) == 2:
                    out[key] = (0, word[0] ^ word[1])
                else:
                    out[key] = _least_class(word, closed)
    return out


def fingerprint(d: Diagram) -> Fingerprint:
    """Canonical class words for all pairs and both traversal choices.

    Keys are ``((i, j), along)`` with i < j and along in {i, j}.  Defined for
    valid diagrams in good condition without pure crossings.  The words are
    read from the passes as stored: a tangle's words, and on a link those of
    its offset-0 cut, which reads the same passes, so no cut is built.  On a
    link, each word is the least of the class words of both directions along
    its component, so reversing a closed component leaves the fingerprint
    unchanged: that reverses the words read along it and keeps every
    letter, since it meets each other component evenly often.
    """
    words = _class_words(d)
    contexts = {pair: GroupContext(d.n, *pair) for pair, _ in words}
    return {key: _indices_word(contexts[key[0]], word) for key, word in words.items()}


def render_fingerprint(fp: Fingerprint) -> str:
    return "; ".join(
        f"pair ({i},{j}) along {along}: {render_word(word)}"
        for ((i, j), along), word in sorted(fp.items())
    )
