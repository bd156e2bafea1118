"""Command-line front end.

Subcommands: ``validate``, ``invariant``, ``bracket``, ``compare``,
``fuzz``, ``orbit``, ``replay``.  Exit codes: 0 success (results on
stdout), 1 a comparison or fuzz check found the inputs distinct or a
failure, 2 usage or parse errors, 3 precondition failures (for example a
diagram out of good condition), 141 standard output closed by its reader,
whatever the buffering: under ``python -u`` or ``PYTHONUNBUFFERED`` a
buffered writer is put under standard output, so that every byte is written
or the closed pipe is reported.
Each input file is read as bytes at once and decoded once as UTF-8, and a
leading byte order mark is dropped; lines end at ``\n``, ``\r\n`` or
``\r``.  Every input diagram is validated once, when it is loaded; only
``validate`` reads an invalid one.  Output is deterministic for fixed
inputs and seed; diagnostics go to stderr.  Only ``compare``, ``fuzz`` and
``replay`` load :mod:`freelinks.moves`, each once per call as it starts.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys

from .bracket import BracketError, _odd_pairs, bracket, bracket_equal, serialize_bracket
from .diagram import (
    Basepoint,
    Diagram,
    DiagramError,
    MoveError,
    ParseError,
    _isomorphic,
    _text,
    parse_diagram,
    require_valid,
    serialize_diagram,
)
from .invariant import (
    InvariantError,
    _class_words,
    _pair_words,
    fingerprint,
    link_invariant,
    link_word,
    word_invariant,
)
from .words import WordError, orbit_representatives, render_word

__all__ = ["run", "main"]


def _pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected I,J with integers, got {text!r}")
    return i, j


def _basepoints(text: str) -> list[Basepoint]:
    points = []
    try:
        for chunk in text.split(","):
            comp, offset = chunk.split(":")
            points.append(Basepoint(int(comp), int(offset)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected basepoints like '1:0,2:3', got {text!r}"
        )
    return points


def _count(text: str) -> int:
    """An argparse type for integers of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _read(path: str) -> str:
    r"""The text of the file ``path``, without a leading byte order mark,
    read by :func:`~freelinks.diagram._text`, so that an error's byte offset
    counts from the start of the file.

    Its readers split it by :func:`~freelinks.diagram._lines`, which ends a
    line at ``\r\n`` and ``\r`` as well as ``\n``, and at no other
    character, so no text layer translates line ends.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    return _text(data, path)


def _load(path: str) -> Diagram:
    """The valid diagram in the file ``path``."""
    return require_valid(parse_diagram(_read(path)), path)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="freelinks",
        description="Invariants of free knots, links and n-n tangles on Gauss codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file and report its summary")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariant", help="word invariant for one component pair")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair, required=True, metavar="I,J")
    p.add_argument("--along", type=int, default=None, metavar="I|J")
    p.add_argument("--basepoints", type=_basepoints, default=None, metavar="1:o1,2:o2,...")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("bracket", help="mod-2 splicing bracket of a diagram")
    p.add_argument("file")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("compare", help="decide equal / distinct / unknown for two diagrams")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--depth", type=_count, default=4)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fuzz", help="random move walk with invariant checks")
    p.add_argument("file")
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--forbid-pure", action="store_true")
    p.add_argument("--max-size", type=_count, default=None)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("orbit", help="masked conjugacy representatives of a word")
    p.add_argument("file")
    p.add_argument("--pair", type=_pair, required=True, metavar="I,J")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("replay", help="apply a recorded move trace to a diagram")
    p.add_argument("file")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_replay)

    return parser


def _cmd_validate(args) -> int:
    d = parse_diagram(_read(args.file))
    if d.violations:
        print(f"invalid, n={d.n}, violations={len(d.violations)}")
        for v in d.violations:
            print(f"  {v}")
        return 0
    good = not any(d.parity.values())
    print(
        f"valid, n={d.n}, crossings={d.crossing_count}, "
        f"good-condition={'true' if good else 'false'}, pure={len(d.pure)}"
    )
    return 0


def _resolve_along(args) -> tuple[int, int]:
    i, j = args.pair
    along = getattr(args, "along", None)
    if along is None:
        along = i
    if along not in (i, j):
        raise InvariantError(f"--along must be one of the pair, got {along}")
    other = j if along == i else i
    return along, other


def _cmd_invariant(args) -> int:
    d = _load(args.file)
    along, other = _resolve_along(args)
    if d.kind == "tangle":
        if args.basepoints is not None:
            raise InvariantError(f"--basepoints applies to links; {args.file} is a tangle")
        word = word_invariant(d, along, other)
    elif args.basepoints is not None:
        word = link_word(d, args.basepoints, along, other)
    else:
        word = link_invariant(d, along, other)
    print(render_word(word))
    return 0


def _cmd_bracket(args) -> int:
    d = _load(args.file)
    value = bracket(d)
    sys.stdout.write(serialize_bracket(value))
    return 0


def _cmd_compare(args) -> int:
    """Answer ``equal`` with a trace, ``distinct`` with a certificate, or
    ``unknown``; the first of these stages that decides answers.

    1. The parity tables of the mixed crossings, which no move changes
       (``distinct``).
    2. For inputs without pure crossings in good condition, the class words
       (``distinct``).
    3. For inputs without pure crossings, the descent of
       :func:`join_by_descent` and the bounded search, which answer only
       ``equal``.  Both keep to restricted moves: the descent always, the
       search because neither input has a pure crossing.  With a move lower bound of 2 or
       more the descent runs first and the search after it; with 0 or 1 the
       search runs first, and the descent only if the search answers
       ``unknown``.  The search starts by testing the inputs for the same
       diagram up to renaming crossings and rotating or reversing closed
       components, without keying either, so that such inputs, whose bound
       is 0, get ``equal`` with no trace.  By the paper's theorem,
       equivalent diagrams without pure crossings are equivalent through
       diagrams without pure crossings, so restricted moves lose no
       equivalence.
    4. Otherwise the same test for the same diagram first (``equal``, with
       no trace), before any bracket is expanded, so that such inputs never
       meet the bracket's cap on pure crossings; then the brackets
       (``distinct``), and, when they are equal, a search between the
       inputs (``equal``), unrestricted since an input has pure crossings.

    ``--depth`` bounds only the searches.  A descent's trace may be longer
    than ``--depth``; replayed from A it still reaches B's canonical key, so
    it is a proof all the same.  Different descent representatives prove
    nothing, so the descent never answers ``distinct``; a third-move closure
    that reaches :data:`~freelinks.moves.MAX_CLOSURE` states leaves the
    answer to the search.
    """
    from .moves import (
        bounded_equivalence_search,
        join_by_descent,
        move_lower_bound,
        serialize_trace,
    )

    a = _load(args.file_a)
    b = _load(args.file_b)
    if a.n != b.n or a.kind != b.kind:
        raise DiagramError(
            f"cannot compare: {a.kind} n={a.n} versus {b.kind} n={b.n}"
        )

    # the mixed-crossing parity table survives every move, so it is checked
    # before anything that searches
    if a.parity != b.parity:
        print("distinct")
        print(
            "certificate: odd crossing parities at pairs "
            f"{_odd_pairs(a.parity.items())} != {_odd_pairs(b.parity.items())}"
        )
        return 1

    pure_free = not a.pure and not b.pure
    good = not any(a.parity.values())

    if pure_free and good:
        wa, wb = _class_words(a), _class_words(b)
        if wa != wb:
            # only the first differing fingerprint word is rendered
            fa, fb = fingerprint(a), fingerprint(b)
            key = min(k for k in fa if fa[k] != fb[k])
            (i, j), along = key
            print("distinct")
            print(
                f"certificate: pair ({i},{j}) along {along}: "
                f"{render_word(fa[key])} != {render_word(fb[key])}"
            )
            return 1

    # every search and descent runs from file A, so that the trace replays
    # from it
    if pure_free:
        # the brackets are {A} and {B}, whose class keys the parity and
        # fingerprint stages have already matched, so only the descent and
        # the search can decide; inputs at most one move apart are cheapest
        # to search, since the search's first run then expands A alone, and
        # the search's start tests the inputs for the same diagram
        descend_first = move_lower_bound(a, b) >= 2
        trace = join_by_descent(a, b) if descend_first else None
        if trace is None:
            trace = bounded_equivalence_search(a, b, args.depth).trace
        if trace is None and not descend_first:
            trace = join_by_descent(a, b)
    elif _isomorphic(a, b):
        # the same diagram up to renaming, rotation and reversal, decided
        # without keying or bracketing either input
        print("equal")
        return 0
    else:
        # the bracket is an invariant: its "distinct" is a verdict on the
        # diagrams, but equal brackets only say that a search may succeed
        verdict = bracket_equal(bracket(a), bracket(b), args.depth)
        if verdict.status == "distinct":
            print("distinct")
            print(f"certificate: {verdict.certificate}")
            return 1
        trace = None
        if verdict.status == "equal":
            trace = bounded_equivalence_search(a, b, args.depth).trace
    if trace is not None:
        print("equal")
        if trace.moves:
            print("trace:")
            sys.stdout.write(serialize_trace(trace))
        return 0
    print("unknown")
    return 0


def _cmd_fuzz(args) -> int:
    from .moves import MoveSite, WalkTrace, _walk, apply_move, serialize_trace

    d = _load(args.file)
    track_words = args.forbid_pure and not d.pure and not any(d.parity.values())
    # compared as letter indices, with no word built: a tangle's words are
    # themselves the invariant, and a link's are its class words
    words = _pair_words if d.kind == "tangle" else _class_words
    reference = words(d) if track_words else None

    moves: list[MoveSite] = []
    current = replayed = d
    for site, current in _walk(
        d, args.steps, args.seed, forbid_pure=args.forbid_pure, max_size=args.max_size
    ):
        moves.append(site)
        # each step is replayed on a chain of its own; the checks then read
        # the walk's diagram, whose index the walk's next step builds anyway
        replayed = apply_move(replayed, site)
        if replayed != current:
            print("FAIL replay mismatch")
            return 1
        failure = None
        if current.violations:
            failure = "validity"
        elif current.n != d.n or current.kind != d.kind:
            failure = "component-count"
        elif current.parity != d.parity:
            failure = "parity-table"
        elif args.forbid_pure and current.pure:
            failure = "pure-crossing"
        elif track_words and words(current) != reference:
            failure = "fingerprint"
        if failure:
            print(f"FAIL step={len(moves)} check={failure}")
            sys.stdout.write(serialize_trace(WalkTrace(d, tuple(moves), current)))
            return 1
    print(f"PASS steps={len(moves)} seed={args.seed} crossings={current.crossing_count}")
    return 0


def _cmd_orbit(args) -> int:
    d = _load(args.file)
    along, other = _resolve_along(args)
    if d.kind == "tangle":
        word = word_invariant(d, along, other)
    else:
        word = link_word(d, [Basepoint(i, 0) for i in range(1, d.n + 1)], along, other)
    reps = orbit_representatives(word)
    rendered = sorted({render_word(rep) for rep in reps.values()})
    print(f"orbit masks={len(reps)} distinct={len(rendered)}")
    for line in rendered:
        print(line)
    return 0


def _cmd_replay(args) -> int:
    from .moves import parse_trace, replay

    d = _load(args.file)
    final = replay(d, parse_trace(_read(args.trace)))
    sys.stdout.write(serialize_diagram(final))
    return 0


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DiagramError, InvariantError, WordError, MoveError, BracketError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # unbuffered (python -u or PYTHONUNBUFFERED): the text layer writes
        # to the raw file itself and drops the rest of a partial write, so a
        # buffered writer goes between, which writes every byte or raises
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(out.buffer),
            out.encoding,
            out.errors,
            line_buffering=out.line_buffering,
            write_through=True,
        )
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output: send what is left to the null
        # device, so that the flush at exit fails no more, and exit as a
        # shell reports a writer the pipe stopped (128 + SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
