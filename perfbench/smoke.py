#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size (n <= 6, b <= 4).

    python3 perfbench/smoke.py [--full]

For every workload it checks that

* a run with --trace 0 and one with --trace 1 are correct and print every
  metric BENCHMARK.json names, under that name and with its unit;
* a corrupted reference entry makes the failed share positive;
* two traced runs with different seeds give identical counts: every
  ``.calls`` and ``.entries``, ``fields.ops`` and the kernel-scan degrees.

It also checks that the benchmark refuses to run, with a nonzero exit and
no result line, in a copy of itself with no ``src/`` beside it.  With
``--full`` it makes only the traced-count check, at the benchmark's own
size.  Prints one line per check and exits 1 if any failed.
"""

import argparse
import copy
import json
import shutil
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
FAILURES = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_benchmark(script, workload, seed, trace, tiny=True):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else []),
        cwd=script.parent.parent,
        capture_output=True,
        text=True,
        timeout=run.DEADLINE_S,
    )


def result_line(workload, seed, trace, tiny=True):
    proc = run_benchmark(run.HERE / "run.py", workload, seed, trace, tiny)
    if proc.returncode != 0:
        check(False, f"{workload} trace={trace} exits 0: {proc.stderr[-500:]}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def exact_count(name):
    return name.endswith((".calls", ".entries")) or name in (
        "fields.ops",
        "sheaves.kernel_free.degrees",
    )


def corrupted(reference, workload):
    """A copy of the reference with one entry of the workload's data changed."""
    ref = copy.deepcopy(reference)
    kind, field = run.WORKLOADS[workload]
    if kind == "sweep":
        ref["sweep"][field]["classical 3 1"]["psi_degree"] += 1
    elif kind == "ses":
        ref["ses"]["1 2"][2] = not ref["ses"]["1 2"][2]
    else:
        ref["cli"][str(run.SIZES["tiny"]["cli_n_max"])]["sha256"] = "0" * 64
    return ref


def check_bare_copy():
    """In a directory holding only BENCHMARK.json and perfbench/, no run."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK, bare)
    proc = run_benchmark(bare / "perfbench" / "run.py", "sweep-gfp", 1, 0)
    shutil.rmtree(bare)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result, "a copy without src/ exits nonzero, no result")


def check_counts_repeat(name, tiny=True):
    counts = []
    for seed in (1, 2):
        line = result_line(name, seed, 1, tiny)
        if line is not None:
            counts.append({k: v["value"] for k, v in line["metrics"].items() if exact_count(k)})
    if len(counts) == 2:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        check(not differ, f"{name} traced counts repeat across seeds {differ or ''}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true", help="traced-count check at full size")
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.full:
        for workload in spec["workloads"]:
            check_counts_repeat(workload["name"], tiny=False)
        print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
        return 1 if FAILURES else 0
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.load_package()
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            line = result_line(name, 1, trace)
            if line is None:
                continue
            printed = {k: v["unit"] for k, v in line["metrics"].items()}
            check(printed == units[trace], f"{name} trace={trace} prints every metric with its unit")
            check(line["correct"] and line["failed"] == 0, f"{name} trace={trace} is correct")
        check_counts_repeat(name)
        context, result = run.measure(name, 1, 1, 0, "tiny", corrupted(reference, name))
        check(
            result["failed"] > 0 and context["failed_share"] > 0 and not result["correct"],
            f"{name} a corrupted reference entry gives failed_share > 0",
        )
    check_bare_copy()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
