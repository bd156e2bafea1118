import contextlib
import functools
import importlib
import io
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelinks import cli
from freelinks.bracket import bracket, bracket_equal
from freelinks.cli import run
from freelinks.diagram import ComponentCode, Diagram, parse_diagram, serialize_diagram
from freelinks.moves import apply_move, parse_trace, random_walk, replay, serialize_trace

from conftest import DATA
from genutil import (
    random_good_diagram,
    random_mixed_diagram,
    random_pure_diagram,
    reference_compare,
    scramble,
)

_moves_module = importlib.import_module("freelinks.moves")

SAMPLE = str(DATA / "three_strand.tangle")
TRIVIAL = str(DATA / "trivial_3_3.tangle")
TRIANGLE = str(DATA / "triangle.tangle")
TRIANGLE_MOVED = str(DATA / "triangle_moved.tangle")
FOUR = str(DATA / "four_component.link")
KINK = str(DATA / "kink.link")


# a closed 4-component link whose pair-(1,4) class word changes when
# component 1 alone is read backward
REVERSIBLE = [
    "c4 c6 c10 c1 c8 c5 c7 c2 c9 c11 c3 c12",
    "c13 c15 c14 c16 c18 c17",
    "c13 c19 c3 c14 c5 c20 c2 c16 c4 c6 c1 c15",
    "c11 c20 c19 c12 c18 c9 c7 c10 c17 c8",
]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_process(*argv):
    """Run ``python -m freelinks`` in a child process, as a user would."""
    src = str(DATA.parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "freelinks", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_link(path, components) -> str:
    d = Diagram("link", tuple(ComponentCode(True, tuple(c.split())) for c in components))
    path.write_text(serialize_diagram(d))
    return str(path)


def tangle(components) -> Diagram:
    return Diagram("tangle", tuple(ComponentCode(False, tuple(c.split())) for c in components))


def write_tangle(path, components) -> str:
    path.write_text(serialize_diagram(tangle(components)))
    return str(path)


# two 3-component tangles without pure crossings, no move apart by the lower
# bound, with the same parity table and class words but different exact
# tangle words: the descent deletes A's one bigon and finds no move on B, so
# their representatives differ, and no search of depth 4 joins them
UNJOINED_A = ["c4 c2 c1 c3", "c5 c6 c8 c7", "c1 c8 c3 c5 c4 c2 c7 c6"]
UNJOINED_B = ["c2 c3 c1 c4", "c6 c7 c8 c5", "c6 c8 c1 c5 c3 c7 c2 c4"]


class TestValidate:
    def test_valid_summary_line(self, capsys):
        code, out, _ = invoke(capsys, "validate", SAMPLE)
        assert code == 0
        assert out == "valid, n=3, crossings=6, good-condition=true, pure=0\n"

    def test_invalid_reports_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.tangle"
        bad.write_text("tangle n=1\ncomponent 1 closed: x x\n")
        code, out, _ = invoke(capsys, "validate", str(bad))
        assert code == 0
        assert out.startswith("invalid, n=1, violations=1")
        assert "kind" in out

    def test_invalid_names_output_pinned(self, capsys, monkeypatch, tmp_path):
        # A bad name on two components, a closed component in a tangle and
        # names that occur once.  The file stops at its first bad name; the
        # same diagram built in the library reaches the violation listing.
        bad = tmp_path / "bad.tangle"
        bad.write_text(
            "tangle n=3\ncomponent 1 open: a-b x y\n"
            "component 2 closed: x z z w\ncomponent 3 open: y a-b\n"
        )
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: invalid crossing name 'a-b' (line 2, column 19)\n"
        d = Diagram(
            "tangle",
            (
                ComponentCode(False, ("a-b", "x", "y")),
                ComponentCode(True, ("x", "z", "z", "w")),
                ComponentCode(False, ("y", "a-b", "q q")),
            ),
        )
        monkeypatch.setattr(cli, "parse_diagram", lambda text: d)
        code, out, err = invoke(capsys, "validate", str(bad))
        assert (code, err) == (0, "")
        assert out == (
            "invalid, n=3, violations=6\n"
            "  token at component 1: unserializable name 'a-b'\n"
            "  kind at component 2: closed component in a tangle\n"
            "  token at component 3: unserializable name 'a-b'\n"
            "  token at component 3: unserializable name 'q q'\n"
            "  arity at crossing q q: occurs 1 times, expected 2\n"
            "  arity at crossing w: occurs 1 times, expected 2\n"
        )

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tangle"
        bad.write_text("tangle n=1\ncomponent 1 open: x\n")
        code, _, err = invoke(capsys, "validate", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, "validate", "nosuch.link")
        assert (code, out) == (2, "")
        assert err == "error: cannot read nosuch.link: No such file or directory\n"

    def test_non_utf8_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.link"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = invoke_process("validate", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {bad}: not UTF-8 (invalid start byte at byte 0)\n"

    @pytest.mark.parametrize(
        "name,content,reason",
        [
            ("folder", None, "Is a directory"),
            (
                "bad.link",
                b"link n=1\ncomponent 1 closed: \xff\xff\n",
                "not UTF-8 (invalid start byte at byte 29)",
            ),
            # the mark counts toward the offset
            (
                "marked.link",
                b"\xef\xbb\xbflink n=1\ncomponent 1 closed: \xff\xff\n",
                "not UTF-8 (invalid start byte at byte 32)",
            ),
        ],
    )
    def test_unreadable_file_message(self, capsys, monkeypatch, tmp_path, name, content, reason):
        monkeypatch.chdir(tmp_path)
        if content is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(content)
        for argv in (("validate", name), ("compare", name, SAMPLE), ("replay", SAMPLE, name)):
            assert invoke(capsys, *argv) == (2, "", f"error: cannot read {name}: {reason}\n")

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        plain = tmp_path / "plain.link"
        plain.write_bytes(b"link n=1\ncomponent 1 closed: a a\n")
        marked = tmp_path / "marked.link"
        marked.write_bytes(b"\xef\xbb\xbflink n=1\ncomponent 1 closed: a a\n")
        code, out, err = invoke(capsys, "validate", str(plain))
        assert (code, out, err) == (0, "valid, n=1, crossings=1, good-condition=true, pure=1\n", "")
        assert invoke(capsys, "validate", str(marked)) == (code, out, err)
        # an error's line and column are those of the file without the mark
        bad = b"link n=1\ncomponent 1 closed: a-b a-b\n"
        plain.write_bytes(bad)
        marked.write_bytes(b"\xef\xbb\xbf" + bad)
        code, out, err = invoke(capsys, "validate", str(plain))
        assert (code, out) == (2, "") and "(line 2, column 21)" in err
        assert invoke(capsys, "validate", str(marked)) == (code, out, err)

    @pytest.mark.parametrize("variant", ["crlf", "cr", "mark", "comment"])
    def test_line_ends_and_mark_print_the_same(self, capsys, tmp_path, variant):
        def copy(path: str) -> str:
            data = Path(path).read_bytes()
            if variant == "mark":
                data = b"\xef\xbb\xbf" + data
            elif variant == "comment":
                # str.splitlines breaks a line at each, a line end does not
                data = data.replace(b"#", "#\f\x85\u2028".encode())
            else:
                data = data.replace(b"\n", b"\r\n" if variant == "crlf" else b"\r")
            target = tmp_path / f"{variant}-{Path(path).name}"
            target.write_bytes(data)
            return str(target)

        trace = tmp_path / "moves.trace"
        trace.write_text("# the third move\nR3 x y z 1:0 2:0 3:0\n")
        for argv in (
            ("validate", FOUR),
            ("bracket", FOUR),
            ("validate", SAMPLE),
            ("bracket", SAMPLE),
            ("replay", TRIANGLE, str(trace)),
        ):
            expected = invoke(capsys, *argv)
            assert expected[0] == 0 and expected[1]
            assert invoke(capsys, argv[0], *map(copy, argv[1:])) == expected, argv


class TestInvariant:
    def test_tangle_word(self, capsys):
        code, out, _ = invoke(capsys, "invariant", SAMPLE, "--pair", "1,2", "--along", "1")
        assert code == 0
        assert out == "(0)·(1)\n"

    def test_link_class(self, capsys):
        code, out, _ = invoke(capsys, "invariant", FOUR, "--pair", "1,2", "--along", "1")
        assert code == 0
        assert out == "(0,0)·(1,0)\n"

    def test_link_class_ignores_component_direction(self, capsys, tmp_path):
        a = write_link(tmp_path / "a.link", REVERSIBLE)
        flipped = [" ".join(reversed(REVERSIBLE[0].split()))] + REVERSIBLE[1:]
        b = write_link(tmp_path / "b.link", flipped)
        _, first, _ = invoke(capsys, "invariant", a, "--pair", "1,4")
        code, second, _ = invoke(capsys, "invariant", b, "--pair", "1,4")
        assert code == 0
        assert second == first

    def test_link_with_basepoints(self, capsys):
        code, out, _ = invoke(
            capsys, "invariant", FOUR, "--pair", "1,2", "--basepoints", "1:0,2:0,3:0,4:0"
        )
        assert code == 0
        assert out == "(0,0)·(0,1)·(1,1)·(0,0)\n"

    def test_basepoints_on_tangle_exit_3(self, capsys):
        code, out, err = invoke(
            capsys, "invariant", SAMPLE, "--pair", "1,2", "--basepoints", "7:0"
        )
        assert (code, out) == (3, "")
        assert "--basepoints applies to links" in err

    def test_precondition_failure_exits_3(self, capsys):
        code, _, err = invoke(capsys, "invariant", TRIANGLE, "--pair", "1,2")
        assert code == 3
        assert "good condition" in err

    def test_bad_pair_usage_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "invariant", SAMPLE, "--pair", "one,two")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = invoke(capsys, "invariant", SAMPLE, "--pair", "1,2", "--bogus")
        assert code == 2

    def test_malformed_basepoints_exit_2(self, capsys):
        code, out, err = invoke(
            capsys, "invariant", FOUR, "--pair", "1,2", "--basepoints", "1-0"
        )
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: argument --basepoints: expected basepoints like '1:0,2:3', got '1-0'\n"
        )
        assert "Traceback" not in err

    def test_along_outside_the_pair_exits_3(self, capsys):
        code, out, err = invoke(capsys, "invariant", SAMPLE, "--pair", "1,2", "--along", "3")
        assert (code, out, err) == (3, "", "error: --along must be one of the pair, got 3\n")


class TestBracket:
    def test_kink_output(self, capsys):
        code, out, _ = invoke(capsys, "bracket", KINK)
        assert code == 0
        assert out == "bracket n=1 summands=1\nlink n=1\ncomponent 1 closed:\n"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("bracket", KINK, "--jobs", "0"), id="0"),
            pytest.param(("bracket", KINK, "--jobs", "-2"), id="-2"),
            pytest.param(("bracket", KINK, "--jobs", "two"), id="two"),
            pytest.param(("bracket", KINK, "--jobs", "2"), id="bracket-2"),
            pytest.param(("compare", SAMPLE, TRIVIAL, "--jobs", "2"), id="compare-2"),
            pytest.param(("compare", SAMPLE, TRIVIAL, "--pair", "1,3"), id="compare-pair"),
        ],
    )
    def test_bad_jobs_exit_2(self, capsys, argv):
        # the expansion runs in one process, and no subcommand takes --jobs;
        # compare checks the words of all pairs, and takes no --pair
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err


    @pytest.mark.parametrize("subcommand", ["bracket", "compare"])
    def test_pure_crossing_cap_exits_3(self, tmp_path, subcommand):
        # 21 pure crossings, one more than the cap, on a component whose two
        # mixed passes split them into two blocks, so that its states are
        # traced; compare reaches the bracket against a pure-free link with
        # the same parity table
        first = " ".join(f"p{k}" for k in range(11))
        second = " ".join(f"p{k}" for k in range(11, 21))
        link = tmp_path / "pure21.link"
        link.write_text(
            f"link n=2\ncomponent 1 closed: {first} {first} m1 {second} {second} m2\n"
            "component 2 closed: m1 m2\n"
        )
        free = tmp_path / "free.link"
        free.write_text("link n=2\ncomponent 1 closed: m1 m2\ncomponent 2 closed: m1 m2\n")
        files = (str(link), str(free))[: 2 if subcommand == "compare" else 1]
        code, out, err = invoke_process(subcommand, *files)
        assert code == 3
        assert out == ""
        assert "cap of 20" in err
        assert "bracket(d, max_pure=N)" in err
        assert "Traceback" not in err


def compare_inputs(rng: random.Random, shape: int) -> tuple[Diagram, Diagram]:
    """Two diagrams of one kind and size: for ``shape`` 0 a good diagram and
    another, 1 a good diagram and a scrambled copy, 2 a diagram without pure
    crossings, of any parity, and another or a restricted walk from it, 3 a
    diagram with pure crossings and a walk from it or another of its parity
    table, and 4 a good diagram and a restricted walk from it."""
    kind = rng.choice(("tangle", "link"))
    if shape == 3:
        x = random_pure_diagram(rng, rng.randint(2, 3), kind)
    elif shape == 2:
        x = random_mixed_diagram(rng, rng.randint(2, 4), rng.randint(2, 7), kind)
    else:
        x = random_good_diagram(rng, rng.randint(2, 4), 10, kind)
    if shape == 0:
        return x, random_good_diagram(rng, x.n, 10, kind)
    if shape == 1:
        return x, scramble(rng, x)
    other = rng.random() < 0.5
    if shape == 2 and other:
        return x, random_mixed_diagram(rng, x.n, rng.randint(2, 7), kind)
    if shape == 3 and other:
        y = random_pure_diagram(rng, x.n, kind)
        while y.parity != x.parity:
            y = random_pure_diagram(rng, x.n, kind)
        return x, y
    walk = random_walk(
        x,
        rng.randint(1, 4),
        rng.randrange(10**6),
        forbid_pure=shape != 3,
        max_size=x.crossing_count + 2,
    )
    return x, walk.final


def unjoined_inputs(rng: random.Random) -> tuple[Diagram, Diagram]:
    """The tangles ``UNJOINED_A`` and ``UNJOINED_B`` under fresh names, in
    either order, the first moved by a restricted walk of 0 to 3 steps."""
    x, y = (scramble(rng, tangle(components)) for components in (UNJOINED_A, UNJOINED_B))
    if rng.random() < 0.5:
        x, y = y, x
    walk = random_walk(x, rng.randint(0, 3), rng.randrange(10**6), forbid_pure=True)
    return walk.final, y


class TestCompare:
    def test_distinct_with_certificate(self, capsys):
        code, out, _ = invoke(capsys, "compare", SAMPLE, TRIVIAL)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "distinct"
        assert "pair (1,2) along 1: (0)·(1)" in lines[1]

    def test_triangle_image_equal_with_trace(self, capsys):
        code, out, _ = invoke(capsys, "compare", TRIANGLE, TRIANGLE_MOVED, "--depth", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "equal"
        assert lines[1] == "trace:"
        assert lines[2].startswith("R3")

    def test_identical_files_equal(self, capsys):
        code, out, _ = invoke(capsys, "compare", SAMPLE, SAMPLE)
        assert code == 0
        assert out.splitlines()[0] == "equal"

    def test_negative_depth_exits_2(self, capsys):
        code, out, _ = invoke(capsys, "compare", TRIANGLE, TRIANGLE_MOVED, "--depth", "-1")
        assert code == 2
        assert out == ""

    def test_parity_decides_before_any_search(self, capsys, tmp_path, monkeypatch):
        a = write_link(tmp_path / "a.link", ["a b c f g", "a d e f g h", "b c d e h"])
        b = write_link(tmp_path / "b.link", ["a b c d", "a b e f g h", "c d e f g h"])

        def forbidden(*args, **kwargs):
            raise AssertionError("the parity tables differ; no search is needed")

        # compare and bracket_equal load the search from freelinks.moves
        monkeypatch.setattr(_moves_module, "bounded_equivalence_search", forbidden)
        code, out, _ = invoke(capsys, "compare", a, b)
        assert code == 1
        assert out.splitlines() == [
            "distinct",
            "certificate: odd crossing parities at pairs (1,2), (2,3) != none",
        ]

    def test_pure_free_inputs_are_searched_once(self, capsys, tmp_path, monkeypatch):
        import freelinks.cli
        import freelinks.moves

        # no move lower bound: the search runs first, then the descent
        a = write_tangle(tmp_path / "a.tangle", UNJOINED_A)
        b = write_tangle(tmp_path / "b.tangle", UNJOINED_B)
        calls = []
        search, join = freelinks.moves.bounded_equivalence_search, freelinks.moves.join_by_descent

        def counted(a, b, depth, **kwargs):
            calls.append(("search", depth))
            return search(a, b, depth, **kwargs)

        def descent(a, b):
            calls.append(("descent",))
            return join(a, b)

        def forbidden(*args, **kwargs):
            raise AssertionError("the brackets of pure-free inputs decide nothing")

        monkeypatch.setattr(freelinks.moves, "bounded_equivalence_search", counted)
        monkeypatch.setattr(freelinks.moves, "join_by_descent", descent)
        monkeypatch.setattr(freelinks.cli, "bracket", forbidden)
        monkeypatch.setattr(freelinks.cli, "bracket_equal", forbidden)
        code, out, _ = invoke(capsys, "compare", a, b)
        assert calls == [("search", 4), ("descent",)]
        assert (code, out) == (0, "unknown\n")

    def test_far_inputs_are_joined_by_descent_alone(self, capsys, tmp_path, monkeypatch):
        import freelinks.cli
        import freelinks.moves

        # two unlinks: two bigons on pair (2,3) and one on (1,3), against two
        # on (1,2); their fingerprints agree, and they are 5 moves apart, one
        # more than the search's depth
        a = write_link(tmp_path / "a.link", ["e f", "a b c d", "a b c d e f"])
        b = write_link(tmp_path / "b.link", ["a b c d", "a b c d", ""])

        def forbidden(*args, **kwargs):
            raise AssertionError("the descent decides first")

        monkeypatch.setattr(freelinks.moves, "bounded_equivalence_search", forbidden)
        monkeypatch.setattr(freelinks.cli, "bracket", forbidden)
        monkeypatch.setattr(freelinks.cli, "bracket_equal", forbidden)
        code, out, _ = invoke(capsys, "compare", a, b)
        lines = out.splitlines()
        assert (code, lines[:2]) == (0, ["equal", "trace:"])
        # five moves, longer than --depth 4, and still a proof
        moves = parse_trace("".join(line + "\n" for line in lines[2:]))
        assert len(moves) == 5
        replayed = replay(parse_diagram(Path(a).read_text()), moves)
        assert replayed.key == parse_diagram(Path(b).read_text()).key

    def test_descent_past_its_cap_falls_back_to_the_search(self, capsys, tmp_path, monkeypatch):
        import freelinks.cli
        import freelinks.moves

        # the moved triangle with two bigons on pair (1,2), against the
        # triangle: 2 moves apart by the bound, so the descent goes first,
        # and its closure of the moved triangle holds two diagrams
        a = write_tangle(tmp_path / "a.tangle", ["y x a b c d", "z x a b c d", "z y"])
        ends = []
        join = freelinks.moves.join_by_descent

        def descent(a, b):
            ends.append(join(a, b))
            return ends[-1]

        cap = freelinks.moves.MAX_CLOSURE
        monkeypatch.setattr(freelinks.moves, "join_by_descent", descent)
        monkeypatch.setattr(freelinks.moves, "MAX_CLOSURE", 2)
        code, out, _ = invoke(capsys, "compare", a, TRIANGLE)
        assert ends == [None]
        lines = out.splitlines()
        assert (code, lines[:2]) == (0, ["equal", "trace:"])
        moves = parse_trace("".join(line + "\n" for line in lines[2:]))
        assert [m.kind for m in moves] == ["R2_delete", "R2_delete", "R3"]
        assert replay(parse_diagram(Path(a).read_text()), moves).key == parse_diagram(
            Path(TRIANGLE).read_text()
        ).key
        # under the real cap, the descent joins them first
        monkeypatch.setattr(freelinks.moves, "MAX_CLOSURE", cap)
        code, out, _ = invoke(capsys, "compare", a, TRIANGLE)
        assert ends[-1] is not None
        assert (code, out.splitlines()[:2]) == (0, ["equal", "trace:"])

    def test_matches_reference_ladder(self, capsys, tmp_path):
        # the ladder that also compared the brackets of pure-free inputs the
        # search and the descent could not join prints the same, on inputs
        # that reach every stage: parity, fingerprint, key, descent, search,
        # and brackets
        rng = random.Random(29)
        unjoined = 0
        for trial in range(252):
            if trial < 240:
                x, y = compare_inputs(rng, trial % 5)
            else:
                # the descent joins most pure-free pairs that the search
                # does not; it cannot join these
                x, y = unjoined_inputs(rng)
            depth = rng.randint(0, 1 if x.pure or y.pure else 2)
            a = tmp_path / f"a{trial}.{x.kind}"
            b = tmp_path / f"b{trial}.{x.kind}"
            a.write_text(serialize_diagram(x))
            b.write_text(serialize_diagram(y))
            expected = reference_compare(
                parse_diagram(a.read_text()), parse_diagram(b.read_text()), depth
            )
            code, out, _ = invoke(capsys, "compare", str(a), str(b), "--depth", str(depth))
            assert (code, out) == expected, (x, y, depth)
            unjoined += not x.pure and not y.pure and out == "unknown\n"
        assert unjoined >= 10

    def test_each_input_is_keyed_once(self, capsys, monkeypatch):
        import freelinks.cli
        import freelinks.diagram

        loaded, keyed = [], []
        load, key = freelinks.cli._load, freelinks.diagram.canonical_key
        monkeypatch.setattr(freelinks.cli, "_load", lambda path: loaded.append(load(path)) or loaded[-1])
        monkeypatch.setattr(freelinks.diagram, "canonical_key", lambda d: keyed.append(d) or key(d))
        # one third move apart: the command tests the inputs against each
        # other, then searches, and keys neither
        code, out, _ = invoke(capsys, "compare", TRIANGLE, TRIANGLE_MOVED)
        assert (code, out.splitlines()[:2]) == (0, ["equal", "trace:"])
        assert [sum(d is x for d in keyed) for x in loaded] == [0, 0]

    def test_second_move_pair_keys_only_the_end(self, capsys, monkeypatch, tmp_path):
        import freelinks.cli
        import freelinks.diagram

        loaded, keyed = [], []
        load, key = freelinks.cli._load, freelinks.diagram.canonical_key
        monkeypatch.setattr(freelinks.cli, "_load", lambda path: loaded.append(load(path)) or loaded[-1])
        monkeypatch.setattr(freelinks.diagram, "canonical_key", lambda d: keyed.append(d) or key(d))
        # A is B with a bigon x y ... y x on components 1 and 2, so their
        # pass counts differ: the neighbour that deletes it is tested
        # against B, and neither input is keyed
        bigon = [
            "x y c1 b1 c2 a1 c3 a2 b2 c4",
            "c1 c2 c3 c4 d1 d2 e1 y x e2",
            "a1 a2 d1 d2",
            "b1 b2 e1 e2",
        ]
        code, out, _ = invoke(capsys, "compare", write_link(tmp_path / "a.link", bigon), FOUR)
        lines = out.splitlines()
        assert (code, lines[:2], len(lines)) == (0, ["equal", "trace:"], 3)
        assert lines[2].startswith("R2_delete x y ")
        assert [sum(d is x for d in keyed) for x in loaded] == [0, 0]

    def test_renamed_copy_is_equal_without_a_trace(self, capsys, tmp_path):
        # equal pass counts, so the inputs are keyed and the keys match
        comps = [
            "c1 b1 c2 a1 c3 a2 b2 c4",
            "c1 c2 c3 c4 d1 d2 e1 e2",
            "a1 a2 d1 d2",
            "b1 b2 e1 e2",
        ]
        renamed = [" ".join(f"r{tok}" for tok in c.split()[1:] + c.split()[:1]) for c in comps]
        code, out, _ = invoke(
            capsys, "compare", FOUR, write_link(tmp_path / "renamed.link", renamed)
        )
        assert (code, out) == (0, "equal\n")

    def test_pure_free_inputs_are_tested_for_the_same_diagram_once(self, capsys, monkeypatch):
        import freelinks.cli
        import freelinks.diagram
        import freelinks.moves

        loaded, tested = [], []
        load, isomorphic = freelinks.cli._load, freelinks.diagram._isomorphic

        def counted(x, y):
            tested.append((x, y))
            return isomorphic(x, y)

        monkeypatch.setattr(freelinks.cli, "_load", lambda path: loaded.append(load(path)) or loaded[-1])
        monkeypatch.setattr(freelinks.cli, "_isomorphic", counted)
        monkeypatch.setattr(freelinks.moves, "_isomorphic", counted)
        # one third move apart and free of pure crossings: only the search's
        # start tests the inputs against each other
        code, out, _ = invoke(capsys, "compare", TRIANGLE, TRIANGLE_MOVED)
        assert (code, out.splitlines()[:2]) == (0, ["equal", "trace:"])
        a, b = loaded
        assert sum(x is a and y is b for x, y in tested) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_scrambled_copy_prints_equal_alone(self, capsys, tmp_path, seed):
        # with and without pure crossings: the search's start, or the test
        # before the brackets, answers with no trace
        rng = random.Random(seed)
        d = random_pure_diagram(rng, 3, "link") if seed % 2 else random_good_diagram(rng, 3, 6, "link")
        a = tmp_path / "a.link"
        b = tmp_path / "b.link"
        a.write_text(serialize_diagram(d))
        b.write_text(serialize_diagram(scramble(rng, d)))
        code, out, _ = invoke(capsys, "compare", str(a), str(b))
        assert (code, out) == (0, "equal\n")

    def test_fingerprint_certificates(self, capsys, tmp_path):
        # pure-free pairs in good condition with equal parity tables, told
        # apart by the first differing word of their fingerprints
        cases = [
            (
                write_tangle(
                    tmp_path / "a.tangle",
                    ["c3 c6 c2 c5 c4 c1", "", "c7 c2 c4 c1 c3 c8 c9 c10", "c8 c5 c9 c10 c6 c7"],
                ),
                write_tangle(
                    tmp_path / "b.tangle",
                    ["c1 c2", "c7 c9 c10 c8 c4 c3", "c8 c7 c9 c6 c1 c5 c10 c2", "c4 c5 c3 c6"],
                ),
                "pair (1,3) along 1: (0,0)·(0,1) != (0,0)·(1,1)",
            ),
            (
                write_link(
                    tmp_path / "a.link",
                    ["c2 c1 c3 c4", "c3 c5 c6 c4 c8 c2 c1 c9 c7 c10", "c5 c8 c6 c7", "c10 c9"],
                ),
                write_link(
                    tmp_path / "b.link",
                    ["", "c8 c7 c6 c5", "c7 c3 c8 c1 c2 c6 c4 c5", "c4 c2 c1 c3"],
                ),
                "pair (2,3) along 2: (0,0)·(0,1) != (0,0)·(0,1)·(0,0)·(0,1)",
            ),
        ]
        for a, b, certificate in cases:
            code, out, _ = invoke(capsys, "compare", a, b)
            assert (code, out) == (1, f"distinct\ncertificate: {certificate}\n")

    def test_reversed_component_is_equal(self, capsys, tmp_path):
        comps = [
            "c4 c6 c10 c1 c8 c5 c7 c2 c9 c11 c3 c12",
            "c13 c15 c14 c16 c18 c17",
            "c13 c19 c3 c14 c5 c20 c2 c16 c4 c6 c1 c15",
            "c11 c20 c19 c12 c18 c9 c7 c10 c17 c8",
        ]
        a = write_link(tmp_path / "a.link", comps)
        flipped = [" ".join(reversed(comps[0].split()))] + comps[1:]
        b = write_link(tmp_path / "b.link", flipped)
        code, out, _ = invoke(capsys, "compare", a, b)
        assert (code, out) == (0, "equal\n")

    def test_reversing_closed_components_is_never_distinct(self, capsys, tmp_path):
        # five components give letters of three bits, where a reversed word
        # is often not in the slide/conjugacy class of the original
        rng = random.Random(89)
        for trial in range(30):
            d = random_good_diagram(rng, 5, 20, kind="link")
            comps = [" ".join(c.passes) for c in d.components]
            flipped = [
                " ".join(reversed(c.split())) if rng.random() < 0.5 else c for c in comps
            ]
            a = write_link(tmp_path / f"a{trial}.link", comps)
            b = write_link(tmp_path / f"b{trial}.link", flipped)
            code, out, _ = invoke(capsys, "compare", a, b)
            assert out.splitlines()[0] != "distinct", (comps, flipped, out)
            assert code == 0

    def test_equal_brackets_alone_are_unknown(self, capsys, tmp_path):
        # every chord of K is odd and K has no move site, so by Manturov's
        # parity theorem it is minimal and not the unknot; yet its bracket
        # equals the unknot's
        unknot = write_link(tmp_path / "u.link", [""])
        knot = write_link(tmp_path / "k.link", ["5 6 5 4 1 4 3 6 1 2 3 2"])
        u, k = (parse_diagram(Path(path).read_text()) for path in (unknot, knot))
        assert bracket_equal(bracket(u), bracket(k), 4).status == "equal"
        code, out, _ = invoke(capsys, "compare", unknot, knot)
        assert (code, out) == (0, "unknown\n")

    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False), shape=st.integers(0, 5), depth=st.integers(0, 1))
    def test_equal_is_always_certified(self, rng, shape, depth):
        # "equal" needs the keys to match or a trace that replays from A to
        # B's canonical key; shape 5 is two knots, whose brackets are at
        # most the unknot
        if shape == 5:

            def knot() -> Diagram:
                chords = [f"c{k // 2}" for k in range(2 * rng.randint(0, 4))]
                rng.shuffle(chords)
                return Diagram("link", (ComponentCode(True, tuple(chords)),))

            x, y = knot(), knot()
        else:
            x, y = compare_inputs(rng, shape)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            a.write_text(serialize_diagram(x))
            b.write_text(serialize_diagram(y))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["compare", str(a), str(b), "--depth", str(depth)])
        lines = out.getvalue().splitlines(keepends=True)
        if lines[0] != "equal\n":
            return
        assert code == 0
        if len(lines) == 1:
            assert x.key == y.key
        else:
            assert lines[1] == "trace:\n"
            assert replay(x, parse_trace("".join(lines[2:]))).key == y.key

    def test_mismatched_inputs_exit_3(self, capsys, tmp_path):
        single = tmp_path / "one.tangle"
        single.write_text("tangle n=1\ncomponent 1 open:\n")
        code, _, err = invoke(capsys, "compare", SAMPLE, str(single))
        assert code == 3


class TestFuzz:
    def test_pass_line(self, capsys):
        code, out, _ = invoke(
            capsys, "fuzz", SAMPLE, "--steps", "30", "--seed", "7", "--forbid-pure"
        )
        assert code == 0
        assert out.startswith("PASS steps=30 seed=7")

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, "fuzz", SAMPLE, "--steps", "20", "--seed", "3")
        _, second, _ = invoke(capsys, "fuzz", SAMPLE, "--steps", "20", "--seed", "3")
        assert first == second

    @pytest.mark.parametrize("flags", [("--steps", "-1"), ("--steps", "3", "--max-size", "-3")])
    def test_negative_counts_exit_2(self, capsys, flags):
        code, out, _ = invoke(capsys, "fuzz", SAMPLE, "--seed", "7", *flags)
        assert code == 2
        assert out == ""

    def test_forbid_pure_from_pure_diagram(self, capsys, tmp_path):
        # no restricted move deletes the pure crossing k, and no insertion
        # may keep it, so the walk makes no step
        path = tmp_path / "kinked.tangle"
        path.write_text("tangle n=2\ncomponent 1 open: k a k b\ncomponent 2 open: a b\n")
        code, out, _ = invoke(
            capsys, "fuzz", str(path), "--steps", "10", "--seed", "1", "--forbid-pure"
        )
        assert code == 0
        assert out == "PASS steps=0 seed=1 crossings=3\n"

    @staticmethod
    def rigged_words_fail(capsys, monkeypatch, path, check):
        # a rigged word check must surface as FAIL plus the offending trace
        calls = {"n": 0}

        def unstable(d):
            calls["n"] += 1
            return calls["n"]

        monkeypatch.setattr(cli, check, unstable)
        code, out, _ = invoke(
            capsys, "fuzz", path, "--steps", "5", "--seed", "7", "--forbid-pure"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL step=1 check=fingerprint"
        assert len(lines) == 2  # the one offending move, serialized

    def test_fail_fast_serializes_trace(self, capsys, monkeypatch):
        # a tangle's check compares its exact words
        self.rigged_words_fail(capsys, monkeypatch, SAMPLE, "_pair_words")

    def test_fail_fast_on_a_link(self, capsys, monkeypatch):
        # a link's check compares its class words
        self.rigged_words_fail(capsys, monkeypatch, FOUR, "_class_words")

    @staticmethod
    def walk_steps(steps):
        """The (site, diagram) steps of fuzz's walk of SAMPLE with seed 7,
        taken with the real moves, so that a rigged apply_move corrupts only
        the replay's chain."""
        d = parse_diagram(Path(SAMPLE).read_text())
        return list(_moves_module._walk(d, steps, 7, forbid_pure=True, max_size=None))

    def test_replay_mismatch_fails(self, capsys, monkeypatch):
        # a replay that leaves step 2 undone differs from the walk there
        steps = self.walk_steps(5)
        calls = {"n": 0}

        def skipping(d, site):
            calls["n"] += 1
            return d if calls["n"] == 2 else apply_move(d, site)

        monkeypatch.setattr(_moves_module, "_walk", lambda *args, **kwargs: iter(steps))
        monkeypatch.setattr(_moves_module, "apply_move", skipping)
        code, out, _ = invoke(
            capsys, "fuzz", SAMPLE, "--steps", "5", "--seed", "7", "--forbid-pure"
        )
        assert (code, out) == (1, "FAIL replay mismatch\n")
        assert calls["n"] == 2

    # per check, a diagram made from one of the walk's that fails that check alone
    FAULTS = {
        # a crossing left with one pass
        "validity": lambda d: Diagram(
            d.kind, (ComponentCode(False, d.components[0].passes[1:]), *d.components[1:])
        ),
        # the same passes, closed
        "component-count": lambda d: Diagram(
            "link", tuple(ComponentCode(True, c.passes) for c in d.components)
        ),
        # one more crossing between components 1 and 2
        "parity-table": lambda d: Diagram(
            d.kind,
            (
                ComponentCode(False, d.components[0].passes + ("f1",)),
                ComponentCode(False, d.components[1].passes + ("f1",)),
                *d.components[2:],
            ),
        ),
        # a kink on component 1
        "pure-crossing": lambda d: Diagram(
            d.kind, (ComponentCode(False, d.components[0].passes + ("f1", "f1")), *d.components[1:])
        ),
    }

    @pytest.mark.parametrize("check", list(FAULTS))
    def test_faulty_step_fails_its_check(self, capsys, monkeypatch, check):
        # the walk and the replay both hand over the same faulty diagram at
        # step 3, which must surface as FAIL plus the three moves
        step, steps = 3, self.walk_steps(5)
        site, current = steps[step - 1]
        faulty = self.FAULTS[check](current)
        steps[step - 1] = (site, faulty)
        walked = random_walk(parse_diagram(Path(SAMPLE).read_text()), step, 7, forbid_pure=True)
        calls = {"n": 0}

        def replaying(d, site):
            calls["n"] += 1
            return faulty if calls["n"] == step else apply_move(d, site)

        monkeypatch.setattr(_moves_module, "_walk", lambda *args, **kwargs: iter(steps))
        monkeypatch.setattr(_moves_module, "apply_move", replaying)
        code, out, _ = invoke(
            capsys, "fuzz", SAMPLE, "--steps", "5", "--seed", "7", "--forbid-pure"
        )
        assert len(walked.moves) == step
        assert (code, out) == (1, f"FAIL step={step} check={check}\n" + serialize_trace(walked))
        assert calls["n"] == step

    def test_each_step_indexes_one_diagram(self, capsys, monkeypatch):
        # the checks read the walk's own diagrams: one occurrences index per
        # step, plus the input's
        built = []
        index = Diagram.__dict__["occurrences"]

        def counted(d):
            built.append(d)
            return index.func(d)

        wrapped = functools.cached_property(counted)
        wrapped.__set_name__(Diagram, "occurrences")
        monkeypatch.setattr(Diagram, "occurrences", wrapped)
        code, out, _ = invoke(
            capsys, "fuzz", FOUR, "--steps", "6", "--seed", "2", "--forbid-pure"
        )
        assert code == 0 and out.startswith("PASS steps=6 ")
        assert len(built) == 7


# ``fuzz FILE --steps 20 --seed S`` for S = 1, 2, 3: (file, --forbid-pure) ->
# the final crossing counts, and the step counts when not all 20; each line
# pins the walk's drawing order, so that it changes only on purpose
FUZZ_GOLDEN = {
    ("four_component.link", False): (16, 16, 16),
    ("four_component.link", True): (16, 16, 16),
    ("kink.link", False): (5, 5, 5),
    ("kink.link", True): ((0, 1), (0, 1), (0, 1)),
    ("three_strand.tangle", False): (10, 10, 10),
    ("three_strand.tangle", True): (10, 10, 10),
    ("triangle.tangle", False): (5, 6, 6),
    ("triangle.tangle", True): (7, 7, 7),
    ("triangle_moved.tangle", False): (5, 6, 7),
    ("triangle_moved.tangle", True): (5, 7, 5),
    ("trivial_3_3.tangle", False): (2, 4, 3),
    ("trivial_3_3.tangle", True): (4, 4, 4),
}


@pytest.mark.parametrize("name,forbid", sorted(FUZZ_GOLDEN))
def test_fuzz_golden_output(capsys, name, forbid):
    flags = ("--forbid-pure",) if forbid else ()
    for seed, expected in enumerate(FUZZ_GOLDEN[name, forbid], start=1):
        steps, crossings = expected if isinstance(expected, tuple) else (20, expected)
        code, out, _ = invoke(
            capsys, "fuzz", str(DATA / name), "--steps", "20", "--seed", str(seed), *flags
        )
        assert (code, out) == (0, f"PASS steps={steps} seed={seed} crossings={crossings}\n")

@pytest.mark.parametrize("command", ["invariant", "orbit"])
@pytest.mark.parametrize("pair", ["9,9", "2,2", "0,5", "1,4"])
def test_impossible_pair_exits_3(capsys, command, pair):
    code, out, err = invoke(capsys, command, SAMPLE, "--pair", pair)
    assert (code, out) == (3, "")
    assert "pair" in err


class TestOrbit:
    def test_four_component_orbit(self, capsys):
        code, out, _ = invoke(capsys, "orbit", FOUR, "--pair", "1,2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "orbit masks=4 distinct=2"
        assert lines[1:] == sorted(lines[1:])

    def test_orbit_of_triangle_fails_precondition(self, capsys):
        code, _, _ = invoke(capsys, "orbit", TRIANGLE, "--pair", "1,2")
        assert code == 3


class TestReplay:
    def test_replay_trace(self, capsys, tmp_path):
        from freelinks.diagram import parse_diagram, serialize_diagram

        trace = tmp_path / "moves.trace"
        trace.write_text("R3 x y z 1:0 2:0 3:0\n")
        code, out, _ = invoke(capsys, "replay", TRIANGLE, str(trace))
        assert code == 0
        assert out == serialize_diagram(parse_diagram(Path(TRIANGLE_MOVED).read_text()))

    def test_comments_and_blank_lines_are_skipped(self, capsys, tmp_path):
        plain = tmp_path / "plain.trace"
        plain.write_text("R1_insert w1 1:w\nR1_delete x 1:1\n")
        commented = tmp_path / "commented.trace"
        commented.write_text(
            "# the kink, wrapped in a second one\n"
            "R1_insert w1 1:w  # over the basepoint\n"
            "\n"
            "   \n"
            "R1_delete x 1:1\n"
        )
        code, out, _ = invoke(capsys, "replay", KINK, str(plain))
        assert (code, out) == (0, "link n=1\ncomponent 1 closed: w1 w1\n")
        assert invoke(capsys, "replay", KINK, str(commented)) == (code, out, "")

    def test_stale_trace_exits_3(self, capsys, tmp_path):
        trace = tmp_path / "moves.trace"
        trace.write_text("R1_delete q 1:0\n")
        code, _, err = invoke(capsys, "replay", TRIANGLE, str(trace))
        assert code == 3

    def test_wrong_third_move_names_exit_3(self, capsys, tmp_path):
        trace = tmp_path / "moves.trace"
        trace.write_text("R3 foo bar baz 1:0 2:0 3:0\n")
        code, out, err = invoke(capsys, "replay", TRIANGLE, str(trace))
        assert code == 3
        assert out == ""
        assert "foo" in err

    def test_unwritable_crossing_name_exits_2(self, capsys, tmp_path):
        # the replayed diagram would hold a name that no diagram file can
        trace = tmp_path / "moves.trace"
        trace.write_text("R1_insert a-b 1:0\n")
        code, out, err = invoke(capsys, "replay", TRIANGLE, str(trace))
        assert code == 2
        assert out == ""
        assert "invalid crossing name 'a-b'" in err
        assert "line 1" in err

    def test_truncated_trace_line_exits_2(self, tmp_path):
        trace = tmp_path / "moves.trace"
        trace.write_text("R1_delete x\n")
        code, out, err = invoke_process("replay", KINK, str(trace))
        assert code == 2
        assert out == ""
        assert "line 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line",
        [
            "R3 x y z 1:0 2:0",
            "R2_insert x y 1:0 2:0 sideways",
            "R1_insert x 1:zz",
            "R4 x 1:0",
            "R2_delete x y 1:0 2:0 3:0",
            "R1_delete x 1:w",
            "R3 x y z 1:w 2:0 3:0",
        ],
    )
    def test_malformed_trace_lines_exit_2(self, capsys, tmp_path, line):
        trace = tmp_path / "moves.trace"
        trace.write_text("R1_insert q 1:0\n" + line + "\n")
        code, out, err = invoke(capsys, "replay", KINK, str(trace))
        assert code == 2
        assert "line 2" in err

    def test_non_utf8_trace_exits_2(self, capsys, tmp_path):
        trace = tmp_path / "moves.trace"
        trace.write_bytes(b"R3 \xff\xfe\n")
        code, _, err = invoke(capsys, "replay", KINK, str(trace))
        assert code == 2
        assert "UTF-8" in err


class TestInvalidInput:
    """A parsable but invalid diagram fails every subcommand but ``validate``."""

    TEXT = "tangle n=1\ncomponent 1 closed: x x\n"

    def test_replay_exits_3(self, tmp_path):
        bad = tmp_path / "closed.tangle"
        bad.write_text(self.TEXT)
        trace = tmp_path / "empty.trace"
        trace.write_text("")
        code, out, err = invoke_process("replay", str(bad), str(trace))
        assert (code, out) == (3, "")
        assert "closed component in a tangle" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariant", "{bad}", "--pair", "1,2"),
            ("bracket", "{bad}"),
            ("orbit", "{bad}", "--pair", "1,2"),
            ("compare", SAMPLE, "{bad}"),
            ("compare", "{bad}", SAMPLE),
            ("fuzz", "{bad}", "--steps", "3", "--seed", "1"),
        ],
    )
    def test_reports_the_file(self, capsys, tmp_path, argv):
        bad = tmp_path / "closed.tangle"
        bad.write_text(self.TEXT)
        code, out, err = invoke(capsys, *(arg.format(bad=bad) for arg in argv))
        assert (code, out) == (3, "")
        assert f"invalid diagram in {bad}" in err


class TestClosedPipe:
    """A reader that closes standard output early gets exit 141 and no
    message, whether the write fails at exit or inside a subcommand, and
    whether standard output is buffered or not."""

    @staticmethod
    def child_env(unbuffered: bool | None = None) -> dict[str, str]:
        """This process's environment with the sources on the path, and
        ``PYTHONUNBUFFERED`` set to 1, unset, or as inherited (None)."""
        src = str(DATA.parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        if unbuffered is not None:
            env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @staticmethod
    def big_replay(tmp_path) -> tuple[str, str, str]:
        """A replay of an empty trace that prints about 600 KB."""
        names = [f"crossing_{k:05d}" for k in range(20000)]
        big = tmp_path / "big.link"
        big.write_text(f"link n=1\ncomponent 1 closed: {' '.join(names + names)}\n")
        trace = tmp_path / "empty.trace"
        trace.write_text("")
        return "replay", str(big), str(trace)

    @classmethod
    def run_into_closed_pipe(cls, *argv):
        read, write = os.pipe()
        # closed before the child writes, so its first write fails
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "freelinks", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=cls.child_env(),
            )
        finally:
            os.close(write)
        return proc.returncode, proc.stderr

    def test_short_output(self):
        assert self.run_into_closed_pipe("validate", FOUR) == (141, b"")

    def test_output_longer_than_a_pipe_buffer(self, tmp_path):
        # about 84 KiB of output, so that the write fails inside the
        # subcommand rather than at the flush before exit
        names = [f"crossing_{k:04d}" for k in range(3000)]
        big = tmp_path / "big.link"
        big.write_text(f"link n=1\ncomponent 1 closed: {' '.join(names + names)}\n")
        trace = tmp_path / "empty.trace"
        trace.write_text("")
        assert len(big.read_text()) > 64 * 1024
        assert self.run_into_closed_pipe("replay", str(big), str(trace)) == (141, b"")

    def test_unbuffered_output_into_a_pipe_closed_after_one_byte(self, tmp_path):
        # unbuffered, the text layer writes to the raw file, which takes
        # what the pipe holds of the one large write; the rest must still
        # be written, and so fail, rather than be dropped with exit 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "freelinks", *self.big_replay(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.child_env(True),
        )
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (141, b"")

    def test_unbuffered_output_is_whole(self, tmp_path):
        argv = [sys.executable, "-m", "freelinks", *self.big_replay(tmp_path)]
        runs = [
            subprocess.run(argv, capture_output=True, env=self.child_env(unbuffered))
            for unbuffered in (False, True)
        ]
        assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, b"")] * 2
        assert len(runs[0].stdout) > 600_000
        assert runs[1].stdout == runs[0].stdout


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("validate", SAMPLE),
            ("invariant", FOUR, "--pair", "1,2"),
            ("bracket", KINK),
            ("compare", SAMPLE, TRIVIAL),
            ("orbit", FOUR, "--pair", "1,2"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second

    def test_parser_reuse_keeps_no_state(self, capsys):
        # the parser is built once per process; a bad argument or another
        # subcommand in between changes nothing of a later run
        from freelinks.cli import _build_parser

        calls = [
            ("invariant", FOUR, "--pair", "1,2"),
            ("bracket", KINK, "--jobs", "0"),
            ("validate", SAMPLE),
            ("compare", SAMPLE, TRIVIAL, "--depth", "x"),
            ("bracket", KINK),
            ("--help",),
        ]
        first = [invoke(capsys, *argv) for argv in calls]
        second = [invoke(capsys, *argv) for argv in calls]
        assert first == second
        assert [code for code, _, _ in first] == [0, 2, 0, 2, 0, 0]
        assert _build_parser() is _build_parser()
        assert first[-1][1] == _build_parser.__wrapped__().format_help()


# -- mutated inputs ------------------------------------------------------------

TRACE_TEXT = serialize_trace(
    random_walk(parse_diagram(Path(SAMPLE).read_text()), 6, seed=3, max_size=10)
).encode()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with a few bytes dropped, duplicated or flipped, or lines truncated."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        if not buf:
            break
        i = draw(st.integers(0, len(buf) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "flip", "truncate")))
        if op == "drop":
            del buf[i]
        elif op == "duplicate":
            buf.insert(i, buf[i])
        elif op == "flip":
            buf[i] ^= 1 << draw(st.integers(0, 7))
        else:
            end = buf.find(b"\n", i)
            del buf[i : len(buf) if end < 0 else end]
    return bytes(buf)


COMMANDS = (
    ("validate", "{mutated}"),
    ("invariant", "{mutated}", "--pair", "1,2"),
    ("bracket", "{mutated}"),
    ("compare", "{mutated}", "{source}", "--depth", "1"),
    ("fuzz", "{mutated}", "--steps", "3", "--seed", "1", "--forbid-pure"),
    ("orbit", "{mutated}", "--pair", "1,2"),
    ("replay", SAMPLE, "{mutated}"),
)


class TestMutatedInputs:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_code_without_traceback(self, data):
        source = data.draw(st.sampled_from((SAMPLE, FOUR, KINK, TRIANGLE)))
        command = data.draw(st.sampled_from(COMMANDS))
        original = TRACE_TEXT if command[0] == "replay" else Path(source).read_bytes()
        text = data.draw(mutated(original))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated"
            path.write_bytes(text)
            argv = [arg.format(mutated=path, source=source) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        assert code in (0, 1, 2, 3), (argv, text)
        assert "Traceback" not in err.getvalue()
