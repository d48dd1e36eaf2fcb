#!/usr/bin/env python3
"""Certification benchmark for twistlines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
the checkout's ``src/`` and from nowhere else.  Every output is checked
against ``perfbench/reference.json``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` they are the per-layer counts and times of one traced pass,
and the spans are written to ``perfbench/out/``.  ``perfbench/NOTES.md``
explains the workloads and the metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

FLAVORS = (None, "symmetric", "skew")
PRIME = 10007
# the benchmark's size, and the tiny size of the smoke test
SIZES = {
    "full": {"sweep_n_max": 20, "ses_b_max": 14, "cli_n_max": 18},
    "tiny": {"sweep_n_max": 6, "ses_b_max": 4, "cli_n_max": 6},
}
WORKLOADS = {  # name -> (kind, field)
    "sweep-qq": ("sweep", "QQ"),
    "sweep-gfp": ("sweep", f"GF({PRIME})"),
    "ses-exact": ("ses", "QQ"),
    "cli-sweep-jobs2": ("cli", "QQ"),
}
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# set-up starts made before the passes and again after them, so a slow
# spell of a second or two does not decide the median
SETUP_STARTS = 6
# size of the probe task, and the round time the figures are scaled to: a
# value inside the run medians of 0.67 to 1.48 ms on the host of NOTES.md
PROBE_SIZE = 2400
PROBE_REF_MS = 1.0
PROBE_EXPONENT = 0.75
PROBE_ROUNDS_CLI = 25  # rounds before and after each CLI invocation
SETUP_PROBE_ROUNDS = 5  # rounds before each set-up start
DEADLINE_S = 170  # a run has to end within 180 s
CHILD_TIMEOUT_S = 150


class Overrun(BaseException):
    """The run hit its deadline; not an Exception, so item checks let it pass."""


def layer_unit(name):
    if name.endswith(("_share", "_per_generator")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def cli_argv(n_max, jobs):
    return ["sweep", "--n-max", str(n_max), "--jobs", str(jobs), "--format", "json"]


def run_child(argv):
    """Run a Python child in its own process group; kill the group if it overruns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out, err


def setup_starts(kind, field_name, starts, probes=None):
    """Wall times of fresh interpreters that import the package and build
    the workload's field, with probe rounds before each if ``probes`` is a
    list to fill."""
    modules = "twistlines, twistlines.cli" if kind == "cli" else "twistlines"
    field = "twistlines.QQ" if field_name == "QQ" else f"twistlines.PrimeField({PRIME})"
    argv = ["-c", f"import {modules}; {field}"]
    times = []
    for _ in range(starts):
        if probes is not None:
            probes.extend(probe_s() for _ in range(SETUP_PROBE_ROUNDS))
        t = perf_counter()
        code, _, err = run_child(argv)
        times.append(perf_counter() - t)
        if code != 0:
            raise RuntimeError(f"set-up start failed: {err.decode(errors='replace')}")
    return times


def probe_task():
    rows = [(i, str(i), {i: i}) for i in range(PROBE_SIZE)]
    rows.sort(key=lambda row: -row[0])


def probe_s():
    """Wall time of a fixed, allocation-heavy pure-Python task that uses
    nothing of the package, timed between the items of a pass to follow the
    host's speed as it drifts.  The task runs once untimed first, so the
    figure does not depend on what the item before it left in the caches."""
    probe_task()
    t = perf_counter()
    probe_task()
    return perf_counter() - t


def speed_scale(probes):
    """Factor that turns a time measured next to these probe rounds into a
    time on a host where a round takes PROBE_REF_MS.  The workloads follow
    the probe's slowdown only in part, and by how much varies over time, so
    the correction is its PROBE_EXPONENT power (see NOTES.md, "Noise")."""
    return (PROBE_REF_MS / (statistics.median(probes) * 1e3)) ** PROBE_EXPONENT


class Tally:
    """Items attempted and failed, with latencies of the items that ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.latencies = []

    def record(self, latency, failure, count=1):
        self.attempted += count
        if latency is not None:
            self.latencies.append(latency)
        if failure is not None:
            self.failed += count
            if len(self.reasons) < 5:
                self.reasons.append(failure)


# -- workloads ---------------------------------------------------------------


class Workload:
    """Seeded inputs plus one pass over them; the program is only called
    through public functions looked up on their modules at call time.
    The seed permutes the item order of every pass."""

    def __init__(self, name, size, reference, seed):
        import twistlines.cli
        from twistlines import families, fields, verify

        self.name = name
        self.kind, self.field_name = WORKLOADS[name]
        self.families, self.verify, self.cli = families, verify, twistlines.cli
        self.field = fields.QQ if self.field_name == "QQ" else fields.PrimeField(PRIME)
        self.rng = random.Random(seed)
        dims = SIZES[size]
        if self.kind == "sweep":
            items = verify.sweep_points(2, dims["sweep_n_max"], list(FLAVORS))
            self.expected = reference["sweep"][self.field_name]
        elif self.kind == "ses":
            b_max = dims["ses_b_max"]
            items = [(a, b) for b in range(1, b_max + 1) for a in range(1, b + 1)]
            self.expected = reference["ses"]
        else:
            n_max = dims["cli_n_max"]
            self.argv = cli_argv(n_max, min(2, os.cpu_count() or 1))
            self.expected = reference["cli"][str(n_max)]
            items = []
        self.items = items
        self.output_bytes = 0

    def run_pass(self, tally, in_process=False, tracer=None, probes=None):
        """One pass; if ``probes`` is a list, a probe round is timed into it
        before each item (before and after the CLI invocation)."""
        if self.kind == "cli":
            self._cli_pass(tally, in_process, probes)
            return
        check = self._sweep_item if self.kind == "sweep" else self._ses_item
        order = list(self.items)
        self.rng.shuffle(order)
        for item_id, item in enumerate(order):
            if tracer is not None:
                tracer.item = item_id
            if probes is not None:
                probes.append(probe_s())
            try:
                latency, failure = check(item)
            except Exception as exc:  # one bad item must not end the run
                latency, failure = None, f"{item}: {type(exc).__name__}: {exc}"
            tally.record(latency, failure)

    def _sweep_item(self, point):
        flavor, n, k = point
        expected = self.expected[f"{flavor or 'classical'} {n} {k}"]
        t = perf_counter()
        try:
            if flavor is None:
                fam = self.families.build_classical(self.field, n, k)
            else:
                fam = self.families.build_isotropic(self.field, n, k, flavor)
        except self.families.ExceptionalCaseError:
            return None, (None if expected is None else f"{point}: refused, reference certifies it")
        cert = self.verify.certify(fam)
        latency = perf_counter() - t
        if expected is None:
            return latency, f"{point}: certified, reference refuses it"
        if not cert.very_twisting:
            return latency, f"{point}: verdict is not very twisting"
        if cert.to_json_dict() != expected:
            return latency, f"{point}: certificate differs from the reference"
        return latency, None

    def _ses_item(self, pair):
        t = perf_counter()
        report = self.verify.verify_claim_ses(self.field, *pair)
        latency = perf_counter() - t
        if list(report) != self.expected[f"{pair[0]} {pair[1]}"]:
            return latency, f"{pair}: report differs from the reference"
        if not report.exact:
            return latency, f"{pair}: report is not exact"
        return latency, None

    def _cli_pass(self, tally, in_process, probes):
        """One sweep through the CLI; every row fails if the bytes differ."""
        rows = self.expected["rows"]
        if probes is not None:
            probes.extend(probe_s() for _ in range(PROBE_ROUNDS_CLI))
        t = perf_counter()
        if in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.argv)
            out, err = buf.getvalue().encode(), b""
        else:
            code, out, err = run_child(["-m", "twistlines.cli", *self.argv])
        latency = perf_counter() - t
        if probes is not None:
            probes.extend(probe_s() for _ in range(PROBE_ROUNDS_CLI))
        self.output_bytes = len(out)
        failure = None
        if code != 0:
            failure = f"cli exited {code}: {err.decode(errors='replace')[-300:]}"
        elif hashlib.sha256(out).hexdigest() != self.expected["sha256"]:
            failure = "cli output differs from the reference"
        tally.record(latency, failure, count=rows)


def timed_passes(work, tally, seconds, deadline):
    """Whole passes until another would overrun --seconds (at least one).
    Returns the passes' wall time without the probe rounds, and the probe
    times."""
    probes = []
    passes = 0
    start = perf_counter()
    while True:
        work.run_pass(tally, probes=probes)
        passes += 1
        wall = perf_counter() - start
        if wall + wall / passes > seconds or start + wall * (passes + 1) / passes > deadline:
            print(f"# passes={passes} wall_s={wall:.3f}")
            return wall - sum(probes), probes


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(work, seconds, deadline):
    """The end-to-end metrics.  Times are scaled to the reference host by
    the probe rounds timed next to them: the passes' times by those of the
    passes, the set-up time by those of the set-up.  The unscaled figures
    go to the context."""
    tally = Tally()
    setup_starts(work.kind, work.field_name, 1)  # warms the file cache; not counted
    setup_probes = []
    setup = setup_starts(work.kind, work.field_name, SETUP_STARTS, setup_probes)
    wall, probes = timed_passes(work, tally, seconds, deadline)
    setup += setup_starts(work.kind, work.field_name, SETUP_STARTS, setup_probes)
    who = resource.RUSAGE_CHILDREN if work.kind == "cli" else resource.RUSAGE_SELF
    lat = tally.latencies
    unscaled = {
        "items_per_s": tally.attempted / wall,
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_p90_ms": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(setup),
    }
    scale = speed_scale(probes)
    metrics = {
        "items_per_s": unscaled["items_per_s"] / scale,
        "item_p50_ms": unscaled["item_p50_ms"] * scale,
        "item_p90_ms": unscaled["item_p90_ms"] * scale,
        "setup_s": unscaled["setup_s"] * speed_scale(setup_probes),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    unscaled["probe_ms"] = statistics.median(probes) * 1e3
    unscaled["setup_probe_ms"] = statistics.median(setup_probes) * 1e3
    print(f"# latency_samples={len(lat)}")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return tally, metrics, {"unscaled": unscaled}


def traced(work, stem):
    """One untraced and one traced pass; per-layer numbers come from the
    second, and the wall-time difference is the tracing overhead.  The
    spans go to ``<stem>.tsv``."""
    from spans import Tracer

    tally = Tally()
    in_process = work.kind == "cli"  # pool-worker spans are lost; keep the parent's
    state = work.rng.getstate()
    t = perf_counter()
    work.run_pass(tally, in_process=in_process)
    plain = perf_counter() - t
    work.rng.setstate(state)  # the traced pass sees the same order
    tracer = Tracer()
    tracer.install()
    try:
        t = perf_counter()
        work.run_pass(tally, in_process=in_process, tracer=tracer)
        wall = perf_counter() - t
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["cli.output_bytes"] = work.output_bytes if work.kind == "cli" else 0
    values["trace.overhead_s"] = wall - plain
    with open(f"{stem}.tsv", "w", encoding="utf-8") as fh:
        tracer.write_spans(fh)
    print(f"# traced pass {wall:.3f} s, untraced {plain:.3f} s, spans in {stem}.tsv")
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return tally, metrics, {}


def load_package():
    if not (SRC / "twistlines" / "__init__.py").is_file():
        raise SystemExit(f"no twistlines sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twistlines

    if SRC not in Path(twistlines.__file__).resolve().parents:
        raise SystemExit(f"twistlines was imported from {twistlines.__file__}, not {SRC}")


def measure(name, seed, seconds, trace, size="full", reference=None):
    """Run one workload; returns (context, result line as a dict)."""
    context = {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load1": os.getloadavg()[0],
    }
    if reference is None:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    deadline = perf_counter() + DEADLINE_S
    work = Workload(name, size, reference, seed)
    stem = OUT / f"trace-{name}-seed{seed}"
    if trace:
        OUT.mkdir(exist_ok=True)
        tally, metrics, extra = traced(work, stem)
    else:
        tally, metrics, extra = end_to_end(work, seconds, deadline)
    context.update(extra)
    context["failed_share"] = tally.failed / tally.attempted
    context["failures"] = tally.reasons
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if trace:
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"context": context, "result": result}, fh, indent=1)
    return context, result


def _overrun(signum, frame):
    raise Overrun()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size (n <= 6, b <= 4)")
    args = parser.parse_args(argv)
    load_package()
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(DEADLINE_S + 5)
    try:
        context, result = measure(
            args.workload, args.seed, args.seconds, args.trace, "tiny" if args.tiny else "full"
        )
    except Overrun:
        print("benchmark run overran its deadline", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print("# context " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
