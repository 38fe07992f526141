"""Run the ledger: one workload for the driver, or all four for a person.

Driver form (one fresh interpreter per run; last stdout line is the
result object the contract in ``BENCHMARK.json`` describes)::

    python3 ledger/run.py --workload noop_call --seed 7 --seconds 22 --trace 0

Full form (each workload in its own fresh interpreter, an untraced pass
for the end-to-end metrics and a traced pass for the layers)::

    python3 ledger/run.py --seed 7 --out .ledger_out [--runs 10]

which writes ``<out>/ledger.json`` and ``<out>/trace_<workload>.json``.
"""

import time

_T0 = time.time()  # set-up is counted from the interpreter's first line

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Busy seconds before the measured window.  By time, not by count: on
#: this machine class the first 2-3 s of a busy process run ~20 % fast.
WARMUP_S = 3.5
#: Share of ``--seconds`` given to the two-client capacity phase.
CAPACITY_SHARE = 0.20
#: Set-ups timed per untraced run (this interpreter's own + fresh
#: children); ``setup_s`` is their median.
SETUPS = 3


def _bootstrap() -> None:
    """Make ``repro`` and ``ledger`` importable, here and in the mesh
    workers this process forks."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {SRC / 'repro'} is "
                 f"missing (run from a full checkout)")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + inherited if inherited else "")


def _scratch_dir() -> Path | None:
    """Keep the program's temp files (container state, mesh sockets)
    inside the checkout, in a directory this run removes.  Unix socket
    paths are capped at ~107 bytes, so a deep checkout keeps the system
    temp dir instead."""
    base = ROOT / ".ledger_tmp"
    if len(str(base)) >= 48:
        return None
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    tempfile.tempdir = os.environ["TMPDIR"] = str(scratch)
    return scratch


#: A child that claims the machine's cheap free memory and holds it.
#: In this sandbox class the hypervisor takes back free guest memory in
#: 2 MB blocks (free page reporting), and the first touch of such a
#: block costs ~20x a recycled page: 6.8 ms against 0.5 ms per 1.3 MB
#: frame.  The allocator hands out small left-over fragments — still
#: backed — before it splits a reclaimed block, so a bulk run is fast
#: while a previous run's fragments last and slow afterwards: latency
#: jumps between modes by history, not by code.  Claiming the fragments
#: first (chunks are touched until two in a row cost the slow price)
#: puts every bulk run in the slow mode, which is also the steady state
#: of any run long enough.  The child holds the memory, so it shows in
#: nobody's resident set, and the work stays outside ``setup_s``.
_SETTLE = """
import mmap, sys, time
chunk, held, slow = 64 << 20, [], 0
while slow < 2 and len(held) < int(sys.argv[1]):
    region = mmap.mmap(-1, chunk)
    begin = time.perf_counter()
    for offset in range(0, chunk, mmap.PAGESIZE):
        region[offset] = 1
    slow = slow + 1 if time.perf_counter() - begin > 0.128 else 0
    held.append(region)
print(len(held), flush=True)
sys.stdin.read()
"""


def _settle_memory() -> subprocess.Popen:
    """Start the memory-settling child; returns once it holds."""
    with open("/proc/meminfo", encoding="ascii") as meminfo:
        available_kb = next(int(line.split()[1]) for line in meminfo
                            if line.startswith("MemAvailable:"))
    chunks = min(64, available_kb // 1024 // 4 // 64)
    child = subprocess.Popen(
        [sys.executable, "-c", _SETTLE, str(chunks)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    child.stdout.readline()
    return child


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _contract()[section]}


def _stop_resource_tracker() -> None:
    """Shared-memory use starts multiprocessing's tracker process; stop
    it and wait, so no process outlives this one."""
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _child_setup_s(name: str, seed: int) -> float:
    """Set-up time of one more fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_untraced(workload, seconds: float, smoke: bool) -> dict:
    """The end-to-end pass: tracing off, one client then two."""
    from ledger.measure import (UNSTEADY, LoopStats, busy_rate, closed_loop,
                                median, peak_rss_mb, percentile)
    workload.start()
    clients = [workload.client()]
    setups = [time.time() - _T0]
    try:
        indices = itertools.count()
        loop = dict(make_input=workload.make_input, check=workload.check,
                    indices=indices)
        # the first operations a fresh client ever sends: their wire
        # bytes repeat exactly for equal seeds
        wire_ops = 4 if smoke else workload.wire_ops
        warm = closed_loop(clients[0], seconds=0.3 if smoke else WARMUP_S,
                           min_ops=wire_ops, **loop)
        phase_b = seconds * CAPACITY_SHARE
        start = time.perf_counter()
        solo = closed_loop(clients[0], seconds=seconds - phase_b, **loop)
        solo_seconds = time.perf_counter() - start

        clients.append(workload.client())
        pair = [LoopStats(), LoopStats()]
        threads = [threading.Thread(
            target=closed_loop, args=(client,),
            kwargs=dict(seconds=phase_b, stats=stats, **loop))
            for client, stats in zip(clients, pair)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rss = peak_rss_mb(workload.worker_pids())
        problems = workload.verify()
    finally:
        for client in clients:
            client.close()
        workload.stop()
    if not smoke:
        setups += [_child_setup_s(workload.name, workload.seed)
                   for _ in range(SETUPS - 1)]

    phases = [warm, solo, *pair]
    attempted = sum(s.attempted for s in phases)
    failed = sum(s.failed for s in phases)
    if not (solo.first_s and solo.repeat_s and all(
            s.completed for s in pair)):
        raise RuntimeError(
            f"{workload.name}: {failed} of {attempted} calls failed and "
            f"a whole path has no sample: nothing to report")
    first_ms = [s * 1e3 for s in solo.first_s]
    metrics = {
        "latency_p50_ms": median(first_ms),
        "latency_p90_ms": percentile(first_ms, 90),
        "repeat_latency_p50_ms": median(solo.repeat_s) * 1e3,
        "throughput_ops_s": solo.completed / solo.busy_s,
        "capacity_ops_s": busy_rate(pair),
        "wire_bytes_per_op": median(warm.wire[:wire_ops]),
        "setup_s": statistics.median(setups),
    }
    spread = solo.window_spread(start, solo_seconds)
    extra = {"samples": len(first_ms),
             "failed_share": failed / attempted,
             "window_spread": spread, "unsteady": spread > UNSTEADY,
             "peak_rss_mb": rss,
             "setup_samples_s": setups, "problems": problems}
    if len(first_ms) >= 1000:  # ten samples beyond the 99th percentile
        extra["latency_p99_ms"] = percentile(first_ms, 99)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra}


def run_one(args) -> int:
    """Driver form: one workload, one pass, one result line."""
    _bootstrap()
    from ledger.workloads import WORKLOADS
    scratch = _scratch_dir()
    workload = WORKLOADS[args.workload](args.seed)
    settled = None
    if workload.bulk and not (args.setup_only or args.smoke):
        settled = _settle_memory()
    try:
        if args.setup_only:
            workload.start()
            client = workload.client()
            elapsed = time.time() - _T0
            client.close()
            workload.stop()
            print(json.dumps({"setup_s": elapsed}))
            return 0
        if args.trace:
            from ledger.layers import run_traced
            out = Path(args.out) if args.out else ROOT / ".ledger_out"
            result = run_traced(workload, args.seconds, args.smoke, out)
            units = _units("per_layer")
        else:
            result = run_untraced(workload, args.seconds, args.smoke)
            units = _units("end_to_end")
    finally:
        if settled is not None:
            settled.communicate()  # closes its stdin: it lets go, exits
        _stop_resource_tracker()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload:12s} {name:36s} "
              f"{metric['value']:14.4f} {metric['unit']}")
    if args.out:
        detail = dict(result, metrics=metrics, workload=args.workload,
                      seed=args.seed, seconds=args.seconds,
                      trace=args.trace)
        path = Path(args.out) / \
            f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(detail, indent=1))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Full form: every workload, each pass in a fresh interpreter."""
    _bootstrap()
    from ledger.measure import fingerprint
    from ledger.workloads import WORKLOADS
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ledger = {"schema": "ledger/1", "seed": args.seed,
              "run_seconds": args.seconds, "runs": args.runs,
              "fingerprint": fingerprint(ROOT), "workloads": {}}
    all_correct = True
    for name in WORKLOADS:
        passes = [(0, args.seed + k) for k in range(args.runs)]
        passes.append((1, args.seed))
        details = []
        for trace, seed in passes:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(out)]
            if args.smoke:
                cmd.append("--smoke")
            done = subprocess.run(cmd, cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE)
            if done.returncode != 0:
                print(f"ledger: {name} trace={trace} seed={seed} exited "
                      f"{done.returncode}", file=sys.stderr)
                return 1
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            details.append(json.loads((
                out / f"{name}.trace{trace}.seed{seed}.json").read_text()))
        untraced, traced = details[:-1], details[-1]
        end_to_end = {}
        for metric, first in untraced[0]["metrics"].items():
            values = [d["metrics"][metric]["value"] for d in untraced]
            end_to_end[metric] = {"value": statistics.median(values),
                                  "unit": first["unit"], "runs": values}
        extra = {key: [d["extra"].get(key) for d in untraced]
                 for key in ("samples", "failed_share", "window_spread",
                             "latency_p99_ms", "peak_rss_mb", "problems")
                 if any(key in d["extra"] for d in untraced)}
        correct = all(d["correct"] for d in details)
        all_correct = all_correct and correct
        ledger["workloads"][name] = {
            "why": WORKLOADS[name].why, "correct": correct,
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "end_to_end": end_to_end, "extra": extra,
            "per_layer": traced["metrics"], "budget": traced["extra"]}
    ledger["summary"] = {"correct": all_correct, "claim": None}
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"ledger: wrote {out / 'ledger.json'} "
          f"(correct={all_correct})")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in _contract()["workloads"]],
                        help="run just this workload (driver form); "
                             "omit to run all four")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per pass (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end pass, 1: per-layer pass")
    parser.add_argument("--out", help="directory for ledger.json, "
                        "per-pass detail and span files")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (full form), "
                             "seeds seed..seed+runs-1")
    parser.add_argument("--smoke", action="store_true",
                        help="short warm-up and a single set-up: for tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_contract()["run_seconds"])
    if args.workload is None:
        if not args.out:
            parser.error("--out is required when running all workloads")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
