"""The germcalc benchmark.

    python3 perfbench/run.py --workload atlas-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
The seed generates the workload's inputs (see workloads.py).  The run then
repeats passes over the whole input set, each pass in a fresh worker
interpreter so that every pass starts with cold caches, one pass at a
time, until the next pass would end after `--seconds`.  Every answer is
graded against reference.py.  Times are the worker's CPU time scaled to the
speed of a fixed reference kernel timed in the same worker (see
REFERENCE_KERNEL_S and worker.py), because the CPU speed this process gets
on a shared host drifts.

With `--trace 0` the last line of output reports the end-to-end metrics;
with `--trace 1` passes run in untraced/traced pairs and the last line
reports the per-layer metrics of the traced passes and the tracing
overhead.  The lines before it state every metric with its unit, sample
count and clock, the failures and the answers that have no reference.

Exit status 0 with a result line, or 1 without one when the program
cannot be imported or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

RUN_LIMIT_S = 170       # a run must end within 180 s
SETUP_SAMPLES = 15      # setup-only workers per run, after one warm-up
# Mean CPU time of worker.reference_kernel on the machine the benchmark was
# written on (Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11).  Times are
# reported at this kernel speed: raw CPU time * REFERENCE_KERNEL_S / the
# kernel's mean time in the same worker.  There, the CPU time of one pass
# varied by 6-18% (coefficient of variation) between back-to-back passes
# and the scaled time by 1-3%.
REFERENCE_KERNEL_S = 0.0035

END_TO_END_UNITS = {
    "setup_s": "s", "germs_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "echelon.busy_s": "s", "echelon.pivot_nnz": "count",
    "echelon.max_coef_bits": "bits", "echelon.eliminations": "count",
    "echelon.rows": "count", "echelon.nnz_in": "count",
    "echelon.useful_ratio": "ratio", "tangent.eliminations_per_call": "count/call",
    "tangent.calls": "count", "tangent.cache_hit_ratio": "ratio",
    "tangent.busy_s": "s", "tangent.self_s": "s", "ring.calls": "count",
    "ring.busy_s": "s", "germ.busy_s": "s", "ops.busy_s": "s",
    "ops.self_s": "s", "gates.busy_s": "s", "gates.self_s": "s",
    "atlas.busy_s": "s", "atlas.self_s": "s", "atlas.instantiations": "count",
    "cli.parse_s": "s", "cli.canon_s": "s", "cli.canon_hit_ratio": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure: no result line is printed."""


# -- workers ----------------------------------------------------------------------

def _worker(mode: str, request: dict | None, deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout < 1:
        raise BenchError("out of time before the next worker")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("GERMCALC_MAX_DEGREE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(SRC), mode],
            input=json.dumps(request) if request is not None else "",
            capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"a {mode} worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(inputs: list[dict], seconds: float, traced: bool,
            deadline: float) -> tuple[list[dict], list[tuple[bool, dict]]]:
    """Setup-only worker results, then (traced?, worker result) for every
    pass."""
    _worker("setup", None, deadline)  # warm-up: writes the bytecode caches
    setups = [_worker("setup", None, deadline) for _ in range(SETUP_SAMPLES)]
    schedule = (False, True) if traced else (False,)
    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for flag in schedule:
            result = _worker("pass", {"inputs": inputs, "trace": flag},
                             deadline)
            passes.append((flag, result))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return setups, passes


# -- grading ----------------------------------------------------------------------

def grade(kind: str, answer: dict, ref: dict) -> tuple[bool, bool, list[str]]:
    """(failed, failed silently with exit 0, notes on ungraded answers and
    errors) of one input."""
    if "error" in answer:                   # a library call raised
        return True, False, [answer["error"]]
    checks: list[tuple[bool, bool]] = []    # (right, exited 0)
    notes: list[str] = []
    if kind == "verify":
        ok = answer["aecod"] == ref["aecod"] == answer["catalog_aecod"]
        checks.append((ok, answer["aecod"] is not None))
    elif kind == "dense":
        ok = answer["m0"] == ref["m0"] and answer["aecod"] == ref["aecod"]
        checks.append((ok, True))
    else:
        if kind == "augconc" and answer["build_exit"] != 0:
            checks.append((False, False))
        if ref["aecod"] is None:
            notes.append(f"eval exit {answer.get('eval_exit')} "
                         f"aecod={answer.get('aecod')}")
        else:
            ok = answer.get("eval_exit") == 0 and answer.get("aecod") == ref["aecod"]
            checks.append((ok, answer.get("eval_exit") == 0))
        if ref["verdict"] is None:
            notes.append(f"gate exit {answer.get('gate_exit')} "
                         f"verdict={answer.get('verdict')}")
        else:
            ok = (answer.get("gate_exit") == 0
                  and answer.get("verdict") == ref["verdict"])
            checks.append((ok, answer.get("gate_exit") == 0))
    failed = not all(ok for ok, _ in checks)
    silent = any(not ok and exit0 for ok, exit0 in checks)
    return failed, silent, notes


# -- statistics -------------------------------------------------------------------

def is_known(answer: dict, defect: dict | None) -> bool:
    """Whether a failed answer is the recorded wrong answer of a known
    defect; a defect that fails in any other way (say, silently where it
    failed loudly) is not the known one."""
    return defect is not None and all(
        answer.get(key) == value for key, value in defect.items())


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it,
    that percentile, and the number beyond; the maximum below 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


# -- the run ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "germcalc" / "__init__.py").is_file():
        print(f"error: no germcalc package under {SRC}", file=sys.stderr)
        return 1
    inputs, refs = workloads.generate(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"inputs {len(inputs)}  fingerprint {workloads.fingerprint(inputs)}")
    try:
        setups, passes = measure(inputs, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # grade every pass; answers must not depend on the pass or on tracing
    known = reference.KNOWN_DEFECTS[args.workload]
    attempted = failed = silent = 0
    failed_ids: set[str] = set()
    unexpected: set[str] = set()
    notes: dict[str, list[str]] = {}
    problems: list[str] = []
    first: dict[str, dict] = {}
    kinds = {item["id"]: item["kind"] for item in inputs}
    for flag, result in passes:
        for row in result["answers"]:
            iid, answer = row["id"], row["answer"]
            if first.setdefault(iid, answer) != answer:
                problems.append(f"{iid}: answer differs between passes "
                                f"({first[iid]} against {answer}, traced={flag})")
            bad, quiet, note = grade(kinds[iid], answer, refs[iid])
            attempted += 1
            failed += bad
            silent += quiet
            if bad:
                failed_ids.add(iid)
                if not is_known(answer, known.get(iid)):
                    unexpected.add(iid)
            if note:
                notes[iid] = note
        tr = result["trace"]
        if tr:
            acc = tr["tangent_accounting"]
            checkable = not any(a.startswith("tangent") for a in tr["absent"])
            if checkable and acc["calls"] != acc["hits"] + acc["misses"]:
                problems.append(f"hooks missed tangent calls: {acc}")
    if unexpected:
        problems.append("failures other than the known defects' recorded "
                        f"answers: {sorted(unexpected)}")

    untraced = [r for flag, r in passes if not flag]
    print(f"passes {len(passes)} ({len(untraced)} untraced), each in a fresh "
          f"worker; {attempted} inputs attempted")
    print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted}:"
          f" answer or exit code differs from the reference)")
    print(f"silent_wrong_share {silent / attempted:.6g} ratio ({silent} of "
          f"{attempted}: wrong answer with exit 0)")
    for iid in sorted(failed_ids):
        tag = ("NOT A KNOWN DEFECT" if iid in unexpected
               else f"known defect {known[iid]}")
        print(f"  failed: {iid}  [{tag}]  {first[iid]}")
    for iid in sorted(set(known) - failed_ids):
        print(f"  known defect not seen: {iid}  {first.get(iid)}")
    for iid, note in sorted(notes.items()):
        print(f"  ungraded or error: {iid}: {'; '.join(note)}")
    last = passes[-1][1]["caches"]
    print("caches after the last pass (hits/misses/size): " + ", ".join(
        f"{k.split('.', 1)[1]} {h}/{m}/{s}" for k, (h, m, s) in last.items()))
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(setups, untraced)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def scaled(seconds: float, worker: dict) -> float:
    """CPU seconds at the reference kernel speed."""
    return seconds * REFERENCE_KERNEL_S / worker["kernel_s"]


def end_to_end(setups: list[dict], passes: list[dict]) -> dict:
    """An input's latency is its median over the passes, so the tail
    percentile depends on the input set alone, not on how many passes fit
    in the run."""
    per_input: dict[str, list[float]] = {}
    for r in passes:
        for row in r["answers"]:
            per_input.setdefault(row["id"], []).append(scaled(row["cpu_s"], r))
    lats = [statistics.median(v) for v in per_input.values()]
    tail_value, tail_pct, beyond = tail(lats)
    imports = [scaled(w["setup_cpu_s"], w) for w in setups + passes]
    rss = [r["peak_rss_mb"] for r in passes]
    values = {
        "setup_s": statistics.median(imports),
        "germs_per_s": len(lats) / statistics.median(
            scaled(r["cpu_s"], r) for r in passes),
        "latency_p50_s": statistics.median(lats),
        "latency_tail_s": tail_value,
        "peak_rss_mb": statistics.median(rss),
    }
    raw = statistics.median(r["cpu_s"] for r in passes)
    wall = statistics.median(r["wall_s"] for r in passes)
    kernel = statistics.median(r["kernel_s"] for r in passes)
    print("clock: the worker's CPU time (time.thread_time), scaled to the "
          f"reference kernel speed ({REFERENCE_KERNEL_S * 1000:g} ms per "
          f"kernel); the median pass ran the kernel in {kernel * 1000:.4g} ms "
          f"and took {raw:.4g} s CPU and {wall:.4g} s wall unscaled")
    print(f"setup_s {_fmt(values['setup_s'])} s (median of {len(imports)} "
          "imports of germcalc in fresh workers)")
    print(f"germs_per_s {_fmt(values['germs_per_s'])} 1/s ({len(lats)} inputs "
          f"over the median pass of {len(passes)})")
    print(f"latency_p50_s {_fmt(values['latency_p50_s'])} s (median of "
          f"{len(lats)} inputs, each its median over {len(passes)} passes)")
    print(f"latency_tail_s {_fmt(tail_value)} s (p{tail_pct:.2f} of "
          f"{len(lats)} inputs, {beyond} beyond; same per-input medians)")
    print(f"peak_rss_mb {_fmt(values['peak_rss_mb'])} MB (median over "
          f"{len(rss)} workers of ru_maxrss)")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(passes: list[tuple[bool, dict]]) -> dict:
    """Medians over the traced passes; times scaled like the end-to-end
    ones, counts and ratios as counted."""
    traced = [r for flag, r in passes if flag]
    plain = [r for flag, r in passes if not flag]
    values: dict[str, float | None] = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead":
            continue
        got = [r["trace"]["values"][name] for r in traced]
        if None in got:
            values[name] = None
            continue
        if PER_LAYER_UNITS[name] == "s":
            got = [scaled(v, r) for v, r in zip(got, traced)]
        values[name] = statistics.median(got)
    values["trace.overhead"] = (
        statistics.median(scaled(r["cpu_s"], r) for r in traced)
        / statistics.median(scaled(r["cpu_s"], r) for r in plain) - 1)
    info = traced[-1]["trace"]
    print(f"per-layer metrics of {len(traced)} traced pass(es) (median); spans "
          "on the wall clock without the kernel runs, scaled; overhead on the "
          f"scaled CPU clock against {len(plain)} untraced pass(es)")
    for name, unit in PER_LAYER_UNITS.items():
        base = info["bases"].get(name)
        extra = f" (base {base})" if base is not None else ""
        print(f"{name} {_fmt(values[name])} {unit}{extra}")
    print(f"tangent calls/hits/misses {info['tangent_accounting']}")
    if info["absent"]:
        print(f"absent hook targets: {', '.join(info['absent'])}")
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
