"""Shape check of the performance ledger (``run.py --quick``).

Asserts no wall-clock value: only that the runner and ``BENCHMARK.json``
agree on what is measured, that every operation succeeds and every reference
check passes on tiny sizes, and that nothing outlives the run.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # no POSIX shared memory here: nothing can leak into it
        return set()


def _session_processes(session: int) -> set:
    """``(pid, state)`` of every process, zombies included, in ``session``."""
    found = set()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid pgrp session ..."
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            found.add((int(pid), fields[0]))
    return found


@pytest.fixture(scope="module")
def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory) -> dict:
    """One ``--quick`` ledger over all six workloads, both passes."""
    scratch = tmp_path_factory.mktemp("ledger")
    out, trace = scratch / "ledger.json", scratch / "spans.json"
    shm_before = _shm_segments()
    # A session of its own: whatever the run starts (rank workers,
    # multiprocessing's resource tracker) stays in it and can be found.
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out), "--trace-out", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    leaked_processes = _session_processes(proc.pid)
    assert proc.returncode == 0, stdout[-3000:] + stderr[-3000:]
    with open(out, encoding="utf-8") as handle:
        ledger = json.load(handle)["sets"][0]
    with open(trace, encoding="utf-8") as handle:
        spans = json.load(handle)["traceEvents"]
    return {"ledger": ledger, "spans": spans, "stdout": stdout,
            "leaked_shm": _shm_segments() - shm_before,
            "leaked_processes": leaked_processes}


def test_benchmark_json_is_within_the_contract(benchmark_spec):
    spec = benchmark_spec
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])
    assert setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_runner_and_benchmark_json_name_the_same_sets(benchmark_spec, quick_ledger):
    workloads = quick_ledger["ledger"]["workloads"]
    assert list(workloads) == [w["name"] for w in benchmark_spec["workloads"]]
    for passes in workloads.values():
        for layer in ("end_to_end", "per_layer"):
            metrics = passes[layer]["result"]["metrics"]
            assert {name: entry["unit"] for name, entry in metrics.items()} == \
                {e["name"]: e["unit"] for e in benchmark_spec[layer]}
            assert all(isinstance(entry["value"], (int, float))
                       for entry in metrics.values())
    # One command prints every metric by name.
    for layer in ("end_to_end", "per_layer"):
        for entry in benchmark_spec[layer]:
            assert entry["name"] in quick_ledger["stdout"]


def test_every_operation_succeeds_and_every_reference_matches(quick_ledger):
    for name, passes in quick_ledger["ledger"]["workloads"].items():
        for layer, record in passes.items():
            result = record["result"]
            assert result["attempted"] >= 1, (name, layer)
            assert result["failed"] == 0 and result["correct"], (name, layer)
        assert all(entry["value"] > 0 for entry in
                   passes["end_to_end"]["result"]["metrics"].values()), name


def test_layers_a_workload_bypasses_read_zero(quick_ledger):
    workloads = quick_ledger["ledger"]["workloads"]

    def layer(workload: str, prefix: str) -> dict:
        metrics = workloads[workload]["per_layer"]["result"]["metrics"]
        return {name: entry["value"] for name, entry in metrics.items()
                if name.startswith(prefix)}

    for name in workloads:
        served = layer(name, "serve.")
        if name == "serve-mix":
            assert served["serve.jobs_s"] > 0
        else:
            assert not any(served.values()), (name, served)
    for name in ("kernel-large", "steps-small"):
        assert not any(layer(name, "halo.").values()), name
    for name in ("halo-swap", "halo-libcall"):
        assert layer(name, "halo.")["halo.msgs_per_step"] == 4
    assert layer("halo-swap", "halo.")["halo.overlapped_ratio"] == 1
    assert layer("halo-libcall", "halo.")["halo.overlapped_ratio"] == 0
    corpus = layer("compile-corpus", "frontends.")
    assert all(value > 0 for value in corpus.values()), corpus


def test_spans_name_their_parent_and_workload(quick_ledger):
    spans = [event for event in quick_ledger["spans"] if event["ph"] == "X"]
    assert {event["args"]["workload"] for event in spans} == \
        set(quick_ledger["ledger"]["workloads"])
    assert any(event["name"] == "plan.run" and event["args"]["parent"]
               for event in spans)


def test_nothing_outlives_the_run(quick_ledger):
    assert not quick_ledger["leaked_processes"]
    assert not quick_ledger["leaked_shm"]


def test_nothing_outlives_a_process_world_pass():
    """One pass as the driver runs it: looked at the moment it has exited."""
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--workload", "halo-swap", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=120)
    leaked = _session_processes(proc.pid)
    assert proc.returncode == 0, stdout[-3000:] + stderr[-3000:]
    assert json.loads(stdout.splitlines()[-1])["correct"]
    assert not leaked
