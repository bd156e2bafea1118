"""Words in the free product of 2^(n-2) copies of Z2.

For an n-component diagram and a fixed pair of components {i, j}, the value
group is generated by the maps sigma : {1..n} \\ {i, j} -> Z2, one free
factor per map, subject only to sigma^2 = 1.  A letter is stored as a bit
tuple of length n - 2, indexed by the remaining components in ascending
order.  Because every generator is its own inverse, words over this alphabet
reduce by deleting adjacent equal letters, and conjugacy of cyclically
reduced words is rotation equality.

The slide automorphisms flip one fixed bit in every letter; they commute and
are involutions, so the subgroup they generate is enumerated by the 2^(n-2)
bit masks.

Its records, :class:`GroupContext` and :class:`Word`, are immutable named
tuples, each equal to the tuple of its fields: the data class module's
``replace``, ``fields`` and ``asdict`` do not apply to them (``_replace``
and ``_fields`` do), and only :class:`~freelinks.diagram.Diagram` caches
fields.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

__all__ = [
    "GroupContext",
    "Letter",
    "Word",
    "WordError",
    "make_word",
    "reduce",
    "cyclic_reduce",
    "conjugate_equal",
    "slide",
    "apply_mask",
    "slide_conjugacy_equal",
    "letter_index",
    "canonical_class_word",
    "orbit_representatives",
    "render_letter",
    "render_word",
]

Letter = tuple[int, ...]


class WordError(ValueError):
    """A word operation was applied to incompatible or malformed data."""


class GroupContext(NamedTuple("GroupContext", [("n", int), ("i", int), ("j", int)])):
    """The value group for component count n and component pair {i, j},
    stored with i < j."""

    __slots__ = ()

    def __new__(cls, n: int, i: int, j: int):
        if i == j:
            raise WordError("the component pair must consist of two distinct components")
        if not (1 <= i <= n and 1 <= j <= n):
            raise WordError(f"pair ({i}, {j}) out of range 1..{n}")
        return tuple.__new__(cls, (n, i, j) if i < j else (n, j, i))

    @classmethod
    def _make(cls, iterable) -> GroupContext:
        # so that _replace checks and orders the pair as __new__ does
        return cls(*iterable)

    @property
    def strands(self) -> tuple[int, ...]:
        """The remaining component indices, ascending; letters are bit maps on these."""
        return tuple(k for k in range(1, self.n + 1) if k not in (self.i, self.j))

    @property
    def width(self) -> int:
        return self.n - 2


class Word(NamedTuple("Word", [("context", GroupContext), ("letters", tuple[Letter, ...])])):
    """A sequence of letters in one group context.  ``len()`` counts its
    letters."""

    __slots__ = ()

    def __new__(cls, context: GroupContext, letters: tuple[Letter, ...]):
        for letter in letters:
            if len(letter) != context.width:
                raise WordError(
                    f"letter {letter} has length {len(letter)}, expected {context.width}"
                )
            if any(bit not in (0, 1) for bit in letter):
                raise WordError(f"letter {letter} has non-bit entries")
        return tuple.__new__(cls, (context, letters))

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def _make(cls, iterable) -> Word:
        # NamedTuple's own _make checks the field count with len()
        return cls(*iterable)


def make_word(context: GroupContext, letters) -> Word:
    return Word(context, tuple(tuple(letter) for letter in letters))


def _word(context: GroupContext, letters: tuple[Letter, ...]) -> Word:
    """A ``Word`` of letters already known to be bit tuples of the context's
    width, built without checking them again."""
    return tuple.__new__(Word, (context, letters))


def _same_context(u: Word, v: Word) -> GroupContext:
    if u.context != v.context:
        raise WordError(f"mixed contexts: {u.context} vs {v.context}")
    return u.context


def _reduced(letters) -> list:
    """The reduced word of ``letters``, reduced on a stack as they are read."""
    stack: list = []
    for letter in letters:
        if stack and stack[-1] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return stack


def reduce(w: Word) -> Word:
    """Delete adjacent equal letters until none remain.

    The result is the unique reduced representative of w in the free product
    (reduction over a confluent rewriting system).

    >>> ctx = GroupContext(3, 1, 2)
    >>> reduce(make_word(ctx, [(0,), (0,)])).letters
    ()
    >>> reduce(make_word(ctx, [(1,), (0,), (0,), (1,), (1,)])).letters
    ((1,),)
    """
    return _word(w.context, tuple(_reduced(w.letters)))


def _strip(core):
    """The cyclic reduction of the reduced word ``core``: equal end letters
    stripped, which leaves the interior reduced."""
    lo, hi = 0, len(core)
    while hi - lo >= 2 and core[lo] == core[hi - 1]:
        lo += 1
        hi -= 1
    return core[lo:hi]


def _least_rotation(core: list | tuple) -> tuple:
    """The least rotation of ``core``, a list or tuple of any mutually
    comparable items: letter indices here, crossing names for the curves of
    a bracket.  It starts at a least item, so only those rotations are
    tried."""
    if not core:
        return ()
    low = min(core)
    return min(tuple(core[p:] + core[:p]) for p in range(len(core)) if core[p] == low)


def _core(w: Word) -> list[int]:
    """The letter indices of the cyclic reduction of w."""
    return _strip(_reduced(map(letter_index, w.letters)))


def cyclic_reduce(w: Word) -> Word:
    """Reduce, then strip equal first/last letters; conjugate to w.

    >>> ctx = GroupContext(4, 1, 2)
    >>> cyclic_reduce(make_word(ctx, [(0, 0), (0, 1), (1, 1), (0, 0)])).letters
    ((0, 1), (1, 1))
    """
    return _indices_word(w.context, _core(w))


def conjugate_equal(u: Word, v: Word) -> bool:
    """Whether u and v are conjugate.

    In a free product of Z2 factors, two cyclically reduced words are
    conjugate exactly when one is a cyclic rotation of the other, that is,
    when their least rotations are equal.
    """
    _same_context(u, v)
    return _least_rotation(_core(u)) == _least_rotation(_core(v))


def slide(w: Word, l: int) -> Word:
    """Flip bit ``l`` in every letter of w (l names a strand component).

    Letterwise action of the automorphism determined by flipping one
    generator coordinate; an involution, and it preserves reducedness.
    """
    strands = w.context.strands
    if l not in strands:
        raise WordError(f"component {l} is not a strand of {w.context}")
    return apply_mask(w, tuple(int(k == l) for k in strands))


def apply_mask(w: Word, mask: Letter) -> Word:
    """XOR every letter of w with ``mask`` (a composite of slides)."""
    if len(mask) != w.context.width:
        raise WordError(f"mask {mask} has length {len(mask)}, expected {w.context.width}")
    if any(bit not in (0, 1) for bit in mask):
        raise WordError(f"mask {mask} has non-bit entries")
    m = letter_index(mask)
    return _indices_word(w.context, [letter_index(x) ^ m for x in w.letters])


def slide_conjugacy_equal(u: Word, v: Word) -> bool:
    """Whether some composite of slides takes u to a conjugate of v: whether
    their :func:`canonical_class_word` values are equal."""
    _same_context(u, v)
    return canonical_class_word(u) == canonical_class_word(v)


def letter_index(x: Letter) -> int:
    """The free-product factor number of a letter, in [0, 2^(n-2)).

    Bit of rank r (ascending strand order) has weight 2^r; this fixes one
    bijection between letters and factors.

    >>> letter_index((0, 1))
    2
    >>> letter_index((1, 1))
    3
    """
    return sum(bit << r for r, bit in enumerate(x))


def canonical_class_word(w: Word, *, undirected: bool = False) -> Word:
    """The least word in the slide/conjugacy class of w.

    Lexicographically least (letters ordered by :func:`letter_index`) among
    all rotations of the cyclic reduction of every masked image of w.  Two
    words have equal canonical class words exactly when they are
    slide-conjugacy equal.  When ``undirected``, the lesser of the class
    words of w and of w read backward; reading a word backward reverses its
    cyclic reduction, so both come from one reduction.

    Only anchored masks are tried.  The mask equal to a rotation's first
    letter turns that letter into letter 0, the least letter, so the least
    word starts with letter 0, and its mask is the letter its rotation
    starts with: one mask per rotation, not all 2^(n-2).
    """
    return _indices_word(w.context, _least_class(_core(w), undirected))


def _least_class(core: list[int], undirected: bool) -> tuple[int, ...]:
    """The letter indices of the canonical class word of the reduced word
    ``core``, itself given as letter indices (see :func:`canonical_class_word`).

    On letter indices a mask is an XOR, and the order is the tuple order.
    Each rotation is tried once per direction, masked by its own first
    letter, its anchored mask: that covers every rotation that starts at a
    letter its mask turns into letter 0.
    """
    core = _strip(core)
    length = len(core)
    if length < 3:
        # a cyclically reduced word of at most two letters has one anchored
        # image, in either direction
        return tuple(x ^ core[0] for x in core)
    rotations = []
    for c in (core, core[::-1]) if undirected else (core,):
        twice = c + c
        rotations += (twice[p : p + length] for p in range(length))
    return min(tuple(map(r[0].__xor__, r)) for r in rotations)


def _index_letter(x: int, width: int) -> Letter:
    """The letter of the given width whose :func:`letter_index` is x."""
    return tuple((x >> r) & 1 for r in range(width))


def _indices_word(context: GroupContext, indices) -> Word:
    """The word in ``context`` whose letters have the letter indices ``indices``."""
    width = context.width
    return _word(context, tuple(_index_letter(x, width) for x in indices))


def orbit_representatives(w: Word) -> dict[Letter, Word]:
    """Per mask, the rotation-least conjugacy representative of the masked word.

    The key set is always the full mask cube Z2^(n-2); distinct masks may
    share a representative.
    """
    core = _core(w)
    return {
        mask: _indices_word(w.context, _least_rotation([x ^ letter_index(mask) for x in core]))
        for mask in product((0, 1), repeat=w.context.width)
    }


def render_letter(x: Letter) -> str:
    return "(" + ",".join(str(bit) for bit in x) + ")"


def render_word(w: Word) -> str:
    """Letters as parenthesized bit tuples joined by a dot; the empty word is ``1``."""
    if not w.letters:
        return "1"
    return "·".join(render_letter(letter) for letter in w.letters)
