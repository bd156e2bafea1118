"""The command line's output on the demo data, byte for byte.

``tests/data/golden.json`` holds stdout, stderr and the exit code of every
run that ``make_golden.golden_argvs`` lists; a change of output must come
with that file rewritten by ``tests/make_golden.py``.
"""

import json

from make_golden import GOLDEN, capture, golden_argvs


def test_golden_output():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in golden] == golden_argvs()
    for entry in golden:
        got = capture(entry["argv"])
        assert got == entry, "first differing run: freelinks " + " ".join(entry["argv"])
