"""Per-layer spans recorded from outside the program.

Each traced function is replaced, in its defining module and in every
``freelinks`` module that imported it by name, by a wrapper that opens a
span on a stack.  A span's self time is its duration minus the durations of
the traced spans it directly contains.  Nothing inside ``src/freelinks`` is
changed; :meth:`Tracer.restore` puts the original functions back.
"""

from __future__ import annotations

import sys
import time

# layer name -> (module, attribute)
TARGETS = {
    "cli.run": ("freelinks.cli", "run"),
    "diagram.canonical_key": ("freelinks.diagram", "canonical_key"),
    "diagram.validate": ("freelinks.diagram", "validate"),
    "diagram.crossing_occurrences": ("freelinks.diagram", "crossing_occurrences"),
    "moves.move_candidates": ("freelinks.moves", "move_candidates"),
    "moves.apply_move": ("freelinks.moves", "apply_move"),
    "moves.bounded_equivalence_search": ("freelinks.moves", "bounded_equivalence_search"),
    # the package attribute ``freelinks.bracket`` is the function, not the
    # module, so modules are always looked up in ``sys.modules``
    "bracket.bracket": ("freelinks.bracket", "bracket"),
    "bracket.splice": ("freelinks.bracket", "_splice_components"),
    "bracket.bracket_equal": ("freelinks.bracket", "bracket_equal"),
    "invariant.fingerprint": ("freelinks.invariant", "fingerprint"),
    "invariant.word_table": ("freelinks.invariant", "word_table"),
    "words.canonical_class_word": ("freelinks.words", "canonical_class_word"),
}

# (metric, unit, better), in the order they are reported
METRICS = [
    ("diagram.canonical_key.calls", "count", "lower"),
    ("diagram.canonical_key.self_s", "s", "lower"),
    ("diagram.canonical_key.distinct_share", "ratio", "higher"),
    ("diagram.validate.calls", "count", "lower"),
    ("diagram.validate.self_s", "s", "lower"),
    ("diagram.crossing_occurrences.calls", "count", "lower"),
    ("diagram.crossing_occurrences.self_s", "s", "lower"),
    ("moves.move_candidates.calls", "count", "lower"),
    ("moves.move_candidates.self_s", "s", "lower"),
    ("moves.move_candidates.sites", "count", "lower"),
    ("moves.apply_move.calls", "count", "lower"),
    ("moves.apply_move.self_s", "s", "lower"),
    ("moves.bounded_equivalence_search.calls", "count", "lower"),
    ("moves.bounded_equivalence_search.total_s", "s", "lower"),
    ("bracket.bracket.calls", "count", "lower"),
    ("bracket.bracket.total_s", "s", "lower"),
    ("bracket.splice.calls", "count", "lower"),
    ("bracket.splice.self_s", "s", "lower"),
    ("bracket.kept_share", "ratio", "higher"),
    ("bracket.bracket_equal.calls", "count", "lower"),
    ("bracket.bracket_equal.total_s", "s", "lower"),
    ("invariant.fingerprint.calls", "count", "lower"),
    ("invariant.fingerprint.total_s", "s", "lower"),
    ("invariant.word_table.self_s", "s", "lower"),
    ("words.canonical_class_word.calls", "count", "lower"),
    ("words.canonical_class_word.self_s", "s", "lower"),
    ("cli.run.total_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TARGETS, 0)
        self.total = dict.fromkeys(TARGETS, 0.0)
        self.self_time = dict.fromkeys(TARGETS, 0.0)
        self.keys: set[int] = set()
        self.sites = 0
        self.kept = 0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [start, time in child spans]
        self._patched: list[tuple] = []

    def install(self):
        for layer, (module, attr) in TARGETS.items():
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name != "freelinks" and not name.startswith("freelinks."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spent = clock() - frame[0]
                self.calls[layer] += 1
                self.total[layer] += spent
                self.self_time[layer] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
            self._count(layer, args, result)
            return result

        return traced

    def _count(self, layer: str, args, result):
        if layer == "diagram.canonical_key":
            self.keys.add(hash(result))
        elif layer == "moves.move_candidates":
            self.sites += len(result)
        elif layer == "bracket.splice":
            self.kept += len(result[0]) == args[0].n

    def metrics(self) -> dict:
        def share(part, whole):
            return part / whole if whole else 0.0

        values = {}
        for layer in TARGETS:
            values[f"{layer}.calls"] = self.calls[layer]
            values[f"{layer}.self_s"] = self.self_time[layer]
            values[f"{layer}.total_s"] = self.total[layer]
        values["diagram.canonical_key.distinct_share"] = share(
            len(self.keys), self.calls["diagram.canonical_key"]
        )
        values["moves.move_candidates.sites"] = self.sites
        values["bracket.kept_share"] = share(self.kept, self.calls["bracket.splice"])
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
