"""Run one benchmark workload and print its result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fpras-cold --seed 2023 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with telemetry off;
``--trace 1`` measures the per-layer metrics (and, for the overhead and
coverage figures, spends half of ``--seconds`` untraced).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table of the same metrics.  ``--smoke`` shrinks every input
so each workload finishes in seconds (the smoke test uses it).

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.  The process
re-executes itself with ``PYTHONHASHSEED=0`` (see ``main``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fpras-cold", "exact-cold", "serve-mixed")
HASH_SEED = "0"


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The sampled routes' answers and work counters depend on the
        # interpreter's string-hash seed (set iteration order reaches
        # the RNG), so an unpinned seed makes one --seed give different
        # work in every process.  Re-exec with it pinned.
        args = sys.argv[1:] if argv is None else list(argv)
        os.execve(
            sys.executable, [sys.executable, str(Path(__file__)), *args],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes (seconds per workload)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from repro.bench.harness import ResultTable

    from perfbench.record import (
        ResultBuilder,
        environment,
        ledger_compare_and_append,
    )

    declared = _declared()
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = ResultBuilder()
    if args.workload == "serve-mixed":
        from perfbench.serve_mixed import run_serve_mixed

        correct, attempted, failed, counters = run_serve_mixed(
            ROOT, args.seed, args.seconds, bool(args.trace), args.smoke,
            result,
        )
    else:
        from perfbench.cold import run_cold

        correct, attempted, failed, counters = run_cold(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, result,
        )
        if args.workload == "exact-cold" and args.trace:
            # The serving layers' metrics ride on exact-cold's traced
            # run: serve-mixed's end-to-end tails are not steady enough
            # to gate on (see README), but its layers must be measured.
            from perfbench.serve_mixed import serve_layer_metrics

            correct = serve_layer_metrics(
                ROOT, args.seed, args.seconds / 2, args.smoke, result
            ) and correct

    env = environment(ROOT, "optimized")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result.metrics,
    }
    if args.trace:
        result.add(
            "counters.changed",
            ledger_compare_and_append(ROOT, record, counters),
            "count",
        )
    else:
        ledger_compare_and_append(ROOT, record, None)

    # Every declared metric of this mode, in declaration order; a
    # per-layer metric whose layer this workload never reaches reads 0.
    metrics = {}
    for spec in wanted:
        measured = result.metrics.get(spec["name"])
        if measured is not None and measured["unit"] != spec["unit"]:
            raise SystemExit(
                f"metric {spec['name']} measured in {measured['unit']}, "
                f"declared in {spec['unit']}"
            )
        metrics[spec["name"]] = measured or {"value": 0.0,
                                             "unit": spec["unit"]}
    stray = set(result.metrics) - set(metrics)
    if stray:
        raise SystemExit(f"undeclared metrics: {sorted(stray)}")
    result.metrics = metrics

    table = ResultTable(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"(src {env['src_lines']} lines, {env['git_sha'][:12]}, "
        f"python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']})",
        ["metric", "value", "unit"],
    )
    for name, cell in metrics.items():
        table.add_row([name, cell["value"], cell["unit"]])
    table.print()
    print(f"correct={correct} attempted={attempted} failed={failed}")
    print(result.line(correct=correct, attempted=attempted, failed=failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
