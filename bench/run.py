"""Benchmark of the ``freelinks`` command line, stdlib only.

Run from the root of a checkout:

    python3 bench/run.py --workload compare-search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload fuzz-walk --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --check [--seed 1]

One process runs one workload.  Its items (see ``workloads.py``) are built
from the seed by the benchmark's own generator and written to files under
``.bench_out/`` before anything is timed.  An item is one call of
``freelinks.cli.run(argv)``: the path a command-line user takes, minus
interpreter start-up.  Items run one at a time, in whole rounds over the
item list, shuffled once from the seed: at least three, and more while the
next round would end within ``--seconds``.  After the timed rounds every
output is checked against the independent oracles in ``oracle.py``; an
item fails if it raised, exited with an unexpected code, failed its check,
or printed in a later round something other than in the first.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one untraced round is followed by
one traced round, the per-layer metrics of the traced round are printed,
and the tracing overhead is the ratio of the two rounds' times.
``--check`` runs the oracles against the program on ``demos/data/*`` and
then one round of every workload.

The time metrics are in units of a reference speed.  Right before every
item, and before every set-up repeat, the benchmark times a fixed
pure-Python loop of its own (``reference``), which keeps no objects, so
that what the program leaves on the heap cannot change its time.  An item's
time is multiplied by ``REF_NOMINAL_S`` over the median loop time around
it, and the set-up's by the same over the median of the set-up's.  On a
shared machine the same code runs 10 to 40% slower for minutes at a time,
and the program and the loop slow down together, so the scaled times keep
what the program costs and drop most of what the machine did meanwhile.
The loop is part of the benchmark, so a change to the program cannot change
it.  The unscaled wall-clock figures are printed before the result and
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
MIN_ROUNDS = 3
TAIL_BEYOND = 10
REF_LOOPS = 60_000
# the reference loop's time on a lightly loaded 2-core x86-64 (Xeon)
# virtual machine with Python 3.11: a scaled time is a time at that speed
REF_NOMINAL_S = 0.0054
# the loop times on either side of an item that give its speed
REF_WINDOW = 3

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Item, check_bracket  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("decided", "items"),
    ("peak_rss_mb", "MB"),
]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description="freelinks benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true", help="check the oracles on demos/data, then one round per workload")
    return p


# -- inputs ----------------------------------------------------------------------------


def write_inputs(items, workdir: Path):
    """Write every item's diagrams; returns per-item paths and the inputs' hash."""
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = []
    for idx, item in enumerate(items):
        mine = []
        for k, d in enumerate(item.diagrams):
            text = gen.serialize(d)
            path = workdir / f"{idx:03d}-{k}.txt"
            path.write_text(text, encoding="utf-8")
            mine.append(str(path))
            digest.update(text.encode())
        digest.update(" ".join(item.argv([p.rsplit("/", 1)[-1] for p in mine])).encode() + b"\n")
        paths.append(mine)
    return paths, digest.hexdigest()


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


def speed_factor(refs) -> float:
    """``REF_NOMINAL_S`` over the median reference time: below 1 on a slow machine."""
    return REF_NOMINAL_S / statistics.median(refs)


def set_up(paths) -> tuple[float, float]:
    """Repeated set-ups: (median wall seconds, median seconds at the reference speed)."""
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        refs.append(reference())
        walls.append(load_program(paths))
    refs.append(reference())
    wall = statistics.median(walls)
    return wall, wall * speed_factor(refs)


def load_program(paths) -> float:
    """Import ``freelinks`` afresh and read and parse every input; seconds taken."""
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "freelinks" or m.startswith("freelinks.")]:
        del sys.modules[name]
    freelinks = importlib.import_module("freelinks")
    importlib.import_module("freelinks.cli")
    for group in paths:
        for path in group:
            freelinks.parse_diagram(Path(path).read_text(encoding="utf-8"))
    return time.perf_counter() - start


# -- running ---------------------------------------------------------------------------


def run_item(argv):
    """One timed call of the command line: (seconds, exit code or None, stdout, error)."""
    cli_run = sys.modules["freelinks.cli"].run
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_run(argv)
        error = err.getvalue().strip() or None
    except Exception as e:  # a raising item is a failed item, not a crashed benchmark
        code, error = None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - start, code, out.getvalue(), error


def run_round(items, paths):
    """One pass over the items: (per-item results, per-item speed factors).

    An item's factor comes from the ``REF_WINDOW`` reference times taken
    before it, the last right before it, and the ``REF_WINDOW`` after it,
    the first right after it; one more reference follows the last item.
    """
    results, refs = [], []
    for item, group in zip(items, paths):
        refs.append(reference())
        results.append(run_item(item.argv(group)))
    refs.append(reference())
    factors = [speed_factor(refs[max(0, i - REF_WINDOW + 1) : i + REF_WINDOW + 1]) for i in range(len(items))]
    return results, factors


def check_outputs(items, rounds, check):
    """Check every round's outputs; returns (failed count, verdicts of round one, messages)."""
    failed = 0
    messages = []
    verdicts = []
    for idx, item in enumerate(items):
        first = rounds[0][0][idx]
        try:
            if first[1] is None:
                raise oracle.CheckError(first[3])
            verdict = check(item, first[1], first[2])
        except (ValueError, IndexError) as e:  # CheckError is a ValueError
            verdict = None
            messages.append(f"item {idx} ({item.kind}): {e}")
        verdicts.append(verdict)
        for r, (results, _) in enumerate(rounds):
            again = results[idx]
            if verdict is None:
                failed += 1
            elif again[1:3] != first[1:3]:
                failed += 1
                messages.append(f"item {idx} ({item.kind}): round {r + 1} output differs from round 1")
    return failed, verdicts, messages


def tail_index(count: int) -> int:
    """Sorted index of the highest percentile with ten items beyond it."""
    return count - TAIL_BEYOND - 1


def best_times(rounds, scaled: bool = True) -> list[float]:
    """Each item's least time over the rounds, at the reference speed or on
    the wall clock.

    Other load on a shared machine only ever slows an item down, and its
    bursts last seconds, so the least of repeats a round apart is the
    steadiest estimate of what the item itself costs.
    """
    per_round = [
        [t * (f if scaled else 1.0) for (t, *_), f in zip(results, factors)] for results, factors in rounds
    ]
    return [min(times) for times in zip(*per_round)]


def time_metrics(item_times, setup_s) -> dict:
    times = sorted(item_times)
    return {
        "setup_s": setup_s,
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": times[tail_index(len(times))] * 1e3,
    }


def end_to_end(rounds, verdicts, setup_s, rss_mb) -> dict:
    values = {
        **time_metrics(best_times(rounds), setup_s),
        "decided": sum(v not in (None, "unknown") for v in verdicts),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_kind_ms(items, rounds) -> dict:
    by_kind: dict[str, list[float]] = {}
    for item, t in zip(items, best_times(rounds)):
        by_kind.setdefault(item.group or item.kind, []).append(t * 1e3)
    return {kind: round(statistics.median(ts), 3) for kind, ts in by_kind.items()}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, min_rounds: int = MIN_ROUNDS):
    """Build, time and check one workload; returns the result and a report."""
    build, check = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    items = build(rng)
    # Items of one kind cost alike.  Run back to back, they would all meet
    # the same few seconds of the machine's speed; spread over the round,
    # they meet all of it, and the median and tail move less between runs.
    rng.shuffle(items)
    workdir = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    try:
        paths, input_hash = write_inputs(items, workdir)
        setup_wall, setup_s = set_up(paths)

        rounds = []
        info = {"workload": workload, "seed": seed, "items_per_round": len(items), "inputs_sha256": input_hash}
        if trace:
            rounds.append(run_round(items, paths))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rounds.append(run_round(items, paths))
            finally:
                tracer.restore()
            plain, traced = (sum(best_times([results])) for results in rounds)
            info["tracing_overhead"] = traced / plain - 1
            info["absent"] = tracer.absent
            metrics = tracer.metrics()
        else:
            start = time.perf_counter()
            while True:
                rounds.append(run_round(items, paths))
                elapsed = time.perf_counter() - start
                if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) > seconds:
                    break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, verdicts, messages = check_outputs(items, rounds, check)
    if not trace:
        metrics = end_to_end(rounds, verdicts, setup_s, rss_mb)
        info["wall"] = time_metrics(best_times(rounds, scaled=False), setup_wall)
        info["speed"] = statistics.median(f for _, factors in rounds for f in factors)
    info.update(
        rounds=len(rounds),
        tail_percentile=round(100 * (len(items) - TAIL_BEYOND) / len(items), 1),
        item_ms_by_kind=per_kind_ms(items, rounds),
        problems=messages,
    )
    attempted = len(items) * len(rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


# -- check mode ------------------------------------------------------------------------


def check_demos() -> list[str]:
    """The oracles against the program on the sample data."""
    problems = []
    files = sorted((ROOT / "demos" / "data").glob("*"))
    if not files:
        return ["no files under demos/data"]
    for path in files:
        (d,) = oracle.parse_diagrams(path.read_text(encoding="utf-8"))
        _, code, out, error = run_item(["validate", str(path)])
        good = not any(oracle.parity_table(d).values())
        pure = sum(passes.count(t) == 2 for _, passes in d[1] for t in set(passes))
        want = f"valid, n={len(d[1])}, crossings={oracle.crossing_count(d)}, good-condition={str(good).lower()}, pure={pure}"
        if code != 0 or out.strip() != want:
            problems.append(f"validate {path.name}: {out.strip() or error!r}, expected {want!r}")
        _, code, out, error = run_item(["bracket", str(path)])
        try:
            check_bracket(Item("demo", "bracket", [d]), code, out)
        except oracle.CheckError as e:
            problems.append(f"bracket {path.name}: {e}")
    return problems


def check_mode(seed: int) -> int:
    load_program([])
    problems = check_demos()
    print(f"demos/data: {'ok' if not problems else 'FAILED'}")
    for workload in sorted(WORKLOADS):
        result, info = benchmark(workload, seed, 0, trace=False, min_rounds=1)
        print(f"{workload}: {result['attempted']} items, {result['failed']} failed")
        problems += [f"{workload}: {m}" for m in info["problems"]]
    for line in problems:
        print(f"  {line}")
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "freelinks" / "__init__.py").is_file():
        print(f"error: no freelinks sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.check:
        return check_mode(args.seed)
    if args.workload is None:
        print("error: --workload is required (or --check)", file=sys.stderr)
        return 2

    result, info = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(
        f"workload={args.workload} seed={args.seed} rounds={info['rounds']} "
        f"items/round={info['items_per_round']} tail=p{info['tail_percentile']:g} "
        f"inputs_sha256={info['inputs_sha256']}"
    )
    if "wall" in info:
        print(
            f"wall clock: speed factor {info['speed']:.3f}, "
            + ", ".join(f"{k}={v:.6g}" for k, v in info["wall"].items())
        )
    if args.trace:
        print(f"tracing overhead: {100 * info['tracing_overhead']:+.1f}% time against an untraced round")
        if info["absent"]:
            print("absent: " + " ".join(info["absent"]))
    for line in info["problems"]:
        print(f"problem: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
