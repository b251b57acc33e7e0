#!/usr/bin/env python3
"""The performance ledger: six workloads, absolute units, per-layer numbers.

One workload, one pass (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/ledger/run.py --workload halo-swap --seed 3 \\
        --seconds 10 --trace 0      # end-to-end metrics, tracing off
    python3 benchmarks/ledger/run.py --workload halo-swap --seed 3 \\
        --seconds 10 --trace 1      # the traced pass: per-layer metrics

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

The whole ledger (no ``--trace``): every workload in its own fresh
subprocess, first untraced, then traced, every metric printed by name::

    python3 benchmarks/ledger/run.py [--workload NAME ...] [--seed N]
        [--out FILE] [--trace-out FILE] [--quick]
    python3 benchmarks/ledger/run.py --check-repeat     # two sets, compared
    python3 benchmarks/ledger/run.py --compare A.json B.json

See ``benchmarks/ledger/README.md`` for the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: The seed every committed number uses, and the hold-out seed claims are
#: re-checked on (never used while tuning a change).
DEFAULT_SEED = 2024
HOLDOUT_SEED = 7919

#: Per-layer metrics that must repeat bit for bit between two runs of the same
#: code on every workload ...
EXACT = {
    "transforms.ir_ops_out", "transforms.stencil_regions",
    "vectorize.nests_compiled", "vectorize.fallbacks",
    "kernel.flops_per_byte", "serve.jobs_rejected",
}
#: ... and those that do wherever the set of runs is fixed by the workload
#: (on serve-mix the number of jobs served depends on the clock).
EXACT_UNLESS_SERVED = {
    "halo.msgs_per_step", "halo.bytes_per_step", "halo.overlapped_ratio",
    "runtime.bytes_elided", "runtime.shared_blocks_reused",
    "codegen.cache_miss", "codegen.engaged_per_run",
    "codegen.fallbacks_per_run",
}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One workload, one pass (in this process)
# ---------------------------------------------------------------------------

def run_single(args) -> int:
    try:
        from ledger_workloads import WORKLOADS, execute
    except ImportError as error:
        # A checkout without src/: nothing to measure, and no result line.
        print(f"ledger: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    name = args.workload[0]
    if name not in WORKLOADS:
        print(f"ledger: unknown workload {name!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, detail, recorder = execute(
            name, args.seed, args.seconds, traced=bool(args.trace),
            quick=args.quick)
    finally:
        stop_children()
    print_metrics(name, result, detail)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"result": result, "detail": detail}, handle)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": recorder.chrome_events(pid=0),
                       "displayTimeUnit": "ms"}, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child_pids() -> list:
    """Pids of the processes (zombies too) whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid ...": comm may hold spaces and ")".
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``Session.close``/``Server.close`` reap the rank workers.  What they leave
    is ``multiprocessing``'s resource tracker, started with the first
    shared-memory block: on its own it ends only *after* this process has, so
    whoever looks at the process table right after a pass still finds it.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # only after a failed close
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes its pipe (it then unlinks what leaked) and waits for it
    for pid in child_pids():  # whatever else: nothing may outlive the pass
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def print_metrics(name: str, result: dict, detail: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}: {attempted} operations, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f}), wall {detail['wall_s']:.1f} s")
    if "samples" in detail:
        q1, q2, q3 = detail["op_us_quartiles"]
        print(f"   op_us over {detail['samples']} samples: "
              f"quartiles {q1:.4g} / {q2:.4g} / {q3:.4g}; "
              f"setup_s over {len(detail['setup_s_samples'])} set-ups")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
    inrun = detail.get("inrun_self_seconds")
    if inrun:
        print("   in-run self time on the slowest rank (program's own spans):")
        for span, seconds in sorted(inrun.items(), key=lambda kv: -kv[1]):
            print(f"     {span:<30} {seconds * 1e3:>12.3f} ms")


# ---------------------------------------------------------------------------
# The whole ledger: every workload in its own subprocess, both passes
# ---------------------------------------------------------------------------

def run_pass(name: str, args, traced: bool, trace_out: str = "") -> dict:
    """One workload pass in a fresh interpreter; returns result + detail."""
    with tempfile.TemporaryDirectory(prefix="ledger-") as scratch:
        out = os.path.join(scratch, "pass.json")
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(traced)),
            "--out", out,
        ]
        if args.quick:
            command.append("--quick")
        if trace_out:
            command += ["--trace-out", trace_out]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if not os.path.exists(out):
            raise SystemExit(
                f"ledger: {name} ({'traced' if traced else 'untraced'}) exited "
                f"{proc.returncode} without a result:\n{proc.stdout[-2000:]}")
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
    print_metrics(name + (" [traced pass]" if traced else ""),
                  record["result"], record["detail"])
    return record


def run_set(names, args) -> dict:
    """One full set: for each workload the untraced, then the traced pass."""
    workloads = {}
    events = []
    for pid, name in enumerate(names):
        untraced = run_pass(name, args, traced=False)
        with tempfile.TemporaryDirectory(prefix="ledger-") as scratch:
            spans = os.path.join(scratch, "spans.json") if args.trace_out else ""
            traced = run_pass(name, args, traced=True, trace_out=spans)
            if spans:
                with open(spans, encoding="utf-8") as handle:
                    for event in json.load(handle)["traceEvents"]:
                        event["pid"] = pid
                        events.append(event)
        workloads[name] = {"end_to_end": untraced, "per_layer": traced}
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "workloads": workloads}


def set_failed(ledger_set: dict) -> bool:
    return any(
        not record["result"]["correct"]
        for passes in ledger_set["workloads"].values()
        for record in passes.values())


def run_spread(names, args, benchmark) -> int:
    """The driver's steadiness test: ``--spread N`` untraced passes per
    workload, each on another seed; quartile distance over median per metric.

    Fails when a spread (``setup_s`` excepted, as in the driver) exceeds the
    metric's bound; the target is a third of the bound.
    """
    ok = True
    rows = []
    for name in names:
        passes = []
        for _ in range(args.spread):
            args.seed += 1
            passes.append({"workloads": {name: {
                "end_to_end": run_pass(name, args, traced=False)}}})
        for entry in benchmark["end_to_end"]:
            values = metric_values(passes, name, "end_to_end", entry["name"])
            share = spread(values)
            gated = entry["name"] != "setup_s"
            ok = ok and not (gated and share > entry["bound"])
            rows.append(
                f"{name:<16} {entry['name']:<14} "
                f"{statistics.median(values):>12.5g} {share:>8.4f} "
                f"{entry['bound']:>6.2f}  "
                + ("over the bound" if share > entry["bound"]
                   else "ok" if share <= entry["bound"] / 3
                   else "over a third of the bound"))
    print(f"\n== spread over {args.spread} seeds: quartile distance / median")
    print(f"{'workload':<16} {'metric':<14} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    print("\n".join(rows))
    return 0 if ok else 1


def run_ledger(args) -> int:
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    if args.spread:
        return run_spread(names, args, benchmark)
    sets = [run_set(names, args) for _ in range(2 if args.check_repeat else 1)]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"sets": sets}, handle, indent=1)
    status = 1 if any(set_failed(s) for s in sets) else 0
    if args.check_repeat and not check_repeat(sets, benchmark):
        status = 1
    return status


# ---------------------------------------------------------------------------
# Reading ledgers back: --check-repeat and --compare
# ---------------------------------------------------------------------------

def metric_values(sets, workload: str, layer: str, metric: str) -> list:
    return [s["workloads"][workload][layer]["result"]["metrics"][metric]["value"]
            for s in sets if workload in s["workloads"]]


def spread(values) -> float:
    """Run-to-run spread as a share of the median (quartile distance from
    four values up, the full range below that)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return abs((q3 - q1) / middle) if middle else 0.0
    return abs((max(values) - min(values)) / middle) if middle else 0.0


def check_repeat(sets, benchmark) -> bool:
    """Two sets of the same code must agree within the benchmark's bounds."""
    first, second = sets
    ok = True
    print("\n== check-repeat: two sets of the same code")
    print(f"{'workload':<16} {'metric':<14} {'set 1':>12} {'set 2':>12} "
          f"{'rel diff':>9} {'bound':>6}")
    for name in first["workloads"]:
        for entry in benchmark["end_to_end"]:
            a, b = metric_values(sets, name, "end_to_end", entry["name"])
            diff = abs(b - a) / abs(a) if a else float("inf")
            excess = diff > entry["bound"]
            ok = ok and not excess
            print(f"{name:<16} {entry['name']:<14} {a:>12.5g} {b:>12.5g} "
                  f"{diff:>9.4f} {entry['bound']:>6.2f}"
                  f"{'  EXCEEDS BOUND' if excess else ''}")
        for index, ledger_set in enumerate(sets, 1):
            detail = ledger_set["workloads"][name]["end_to_end"]["detail"]
            q1, q2, q3 = detail["op_us_quartiles"]
            wide = " (wide: check for two modes)" if q2 and (q3 - q1) / q2 > 0.2 \
                else ""
            print(f"{'':<16} set {index} op_us quartiles {q1:.5g} / {q2:.5g} / "
                  f"{q3:.5g} over {detail['samples']} samples{wide}")
        exact = EXACT | (EXACT_UNLESS_SERVED if name != "serve-mix" else set())
        for metric in sorted(exact):
            a, b = metric_values(sets, name, "per_layer", metric)
            if a != b:
                ok = False
                print(f"{name:<16} {metric} is exact but differs: {a!r} vs {b!r}")
    print("check-repeat:", "every metric repeats within its bound, exact "
          "metrics identical" if ok else "FAILED")
    return ok


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric verdicts, then the per-layer deltas."""
    benchmark = load_benchmark()
    with open(path_a, encoding="utf-8") as handle:
        sets_a = json.load(handle)["sets"]
    with open(path_b, encoding="utf-8") as handle:
        sets_b = json.load(handle)["sets"]
    names = [n for n in sets_a[0]["workloads"] if n in sets_b[0]["workloads"]]
    regressed = False
    print(f"A = {path_a} ({len(sets_a)} set(s)), "
          f"B = {path_b} ({len(sets_b)} set(s)); ratio = B / A")
    print(f"{'workload':<16} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'B/A':>8} {'bound':>6} {'spread':>7}  verdict")
    for name in names:
        for entry in benchmark["end_to_end"]:
            a = metric_values(sets_a, name, "end_to_end", entry["name"])
            b = metric_values(sets_b, name, "end_to_end", entry["name"])
            base, new = statistics.median(a), statistics.median(b)
            ratio = new / base if base else float("inf")
            worse = ratio - 1 if entry["better"] == "lower" else 1 - ratio
            noise = max(spread(a), spread(b))
            if noise > entry["bound"]:
                verdict = "unresolved"
            elif worse > entry["bound"]:
                verdict = "regressed"
                regressed = True
            elif -worse > max(noise, entry["bound"] / 3):
                verdict = "improved"
            else:
                verdict = "within"
            print(f"{name:<16} {entry['name']:<14} {base:>12.5g} {new:>12.5g} "
                  f"{ratio:>8.4f} {entry['bound']:>6.2f} {noise:>7.4f}  {verdict}")
    print("\nper-layer deltas (median of B minus median of A; ratio B / A):")
    for name in names:
        print(f"-- {name}")
        for entry in benchmark["per_layer"]:
            a = metric_values(sets_a, name, "per_layer", entry["name"])
            b = metric_values(sets_b, name, "per_layer", entry["name"])
            base, new = statistics.median(a), statistics.median(b)
            if base == new == 0:
                continue  # a layer this workload bypasses, on both sides
            ratio = f"{new / base:8.4f}" if base else "     new"
            print(f"   {entry['name']:<32} {base:>14.6g} {new:>14.6g} "
                  f"{new - base:>+14.6g} {ratio} {entry['unit']}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per pass "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass of one workload in this process: "
                             "0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--trace-out",
                        help="write the benchmark-side spans as Chrome trace JSON")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one set-up: a shape check, not a "
                             "measurement")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice and compare against the bounds")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="N untraced passes per workload on seeds "
                             "seed+1..seed+N: run-to-run spread vs the bounds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = 0.2 if args.quick else float(load_benchmark()["run_seconds"])
    if args.trace is not None:
        if len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return run_single(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
