"""One pass of a workload in a fresh interpreter.

    python3 worker.py SRC_DIR setup       # time `import germcalc`, then exit
    python3 worker.py SRC_DIR pass        # also run the inputs read from stdin

The request on stdin is {"inputs": [...], "trace": bool}.  The last line of
standard output is one JSON object: the import time, the mean time of the
reference kernel, the raw answer and CPU/wall time of every input, the
cache counts, the peak RSS and, when traced, the per-layer metrics.
Answers are graded by the caller, never here.
"""

import sys
import time

SRC, MODE = sys.argv[1], sys.argv[2]
REQUEST = sys.stdin.read() if MODE == "pass" else ""

_cpu0 = time.thread_time()
import germcalc  # noqa: E402  (the import is what setup_s times)
SETUP_CPU_S = time.thread_time() - _cpu0

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from germcalc import atlas, cli, germ, tangent  # noqa: E402

import hooks  # noqa: E402

# CPU time on a shared host drifts by tens of percent from one minute to the
# next.  A fixed kernel of the engine's kind of work (products of
# polynomials held as dicts keyed by exponent tuples, with multi-word
# integers) is timed every PROBE_EVERY_S of CPU time during a pass, from a
# profiling-timer signal, so that the caller can state every time at one
# reference speed.  Kernel time is taken out of the input it interrupted.
# A setup-only worker runs the kernel SETUP_KERNELS times after the import.
PROBE_EVERY_S = 0.08
SETUP_KERNELS = 12
_KERNEL_FACTOR = {(1, 0, 0): 3, (0, 1, 0): -2, (0, 0, 1): 5, (1, 1, 0): 1,
                  (0, 0, 2): -1}


def reference_kernel() -> float:
    """CPU seconds taken by one run of the fixed kernel."""
    start = time.thread_time()
    p = {(0, 0, 0): 1}
    for _ in range(10):
        out: dict = {}
        for ma, ca in p.items():
            for mb, cb in _KERNEL_FACTOR.items():
                mono = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                out[mono] = out.get(mono, 0) + ca * cb
        p = out
    return time.thread_time() - start


class SpeedProbe:
    """Keeps the times of kernel runs, taken on a CPU-time timer."""

    def __init__(self):
        self.times: list[float] = []
        self.total = 0.0

    def sample(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()  # the kernel frees what it allocates by refcount
        try:
            spent = reference_kernel()
        finally:
            if collecting:
                gc.enable()
        self.times.append(spent)
        self.total += spent

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mean(self) -> float:
        return self.total / len(self.times)


def _cli(argv: list[str]) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    lines = out.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if code == 0 and lines else None)


def _classify(text: str) -> dict:
    code, payload = _cli(["eval", "--germ", text, "--json"])
    answer = {"eval_exit": code,
              "aecod": payload["invariants"]["aecod"] if payload else None}
    code, payload = _cli(["gate", "--germ", text, "--json"])
    answer.update(gate_exit=code,
                  verdict=payload["verdict"]["kind"] if payload else None)
    return answer


def run_input(item: dict) -> dict:
    kind = item["kind"]
    if kind == "verify":
        params = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in item["params"].items()}
        row = atlas.verify(item["name"], params)
        return {"aecod": row.computed, "catalog_aecod": row.expected}
    if kind == "dense":
        g = cli.parse_multigerm(item["germ"])
        return {"m0": germ.multiplicity(g), "aecod": tangent.ae_codim(g).value}
    if kind == "augconc":
        code, payload = _cli(["build", "augconc", "--germ", item["total"],
                              "--phi", item["phi"], "--json"])
        answer = {"build_exit": code}
        if payload:
            answer.update(_classify(payload["germ"]))
        return answer
    return _classify(item["germ"])


def cache_state(cached: dict[str, object]) -> dict[str, list[int]]:
    out = {}
    for name, fn in sorted(cached.items()):
        info = fn.cache_info()
        out[name] = [info.hits, info.misses, info.currsize]
    return out


def main() -> int:
    here = os.path.realpath(os.path.dirname(germcalc.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        print(f"germcalc imported from {here}, not from {SRC}", file=sys.stderr)
        return 3
    result = {"setup_cpu_s": SETUP_CPU_S}
    probe = SpeedProbe()
    if MODE == "setup":
        for _ in range(SETUP_KERNELS):
            probe.sample()
        result.update(kernel_s=probe.mean(), kernels=len(probe.times))
        print(json.dumps(result))
        return 0

    request = json.loads(REQUEST)
    cached = hooks.cached_functions()  # found before the hooks rebind them
    warm = {k: v for k, v in cache_state(cached).items() if any(v)}
    if warm:
        print(f"caches not empty after import: {warm}", file=sys.stderr)
        return 3
    tracer = None
    if request["trace"]:
        # spans leave out the kernel runs that interrupt them
        tracer = hooks.Tracer(lambda: time.perf_counter() - probe.total)
        tracer.install()

    answers = []
    probe.sample()
    probe.start()
    for item in request["inputs"]:
        c0, w0, k0 = time.thread_time(), time.perf_counter(), probe.total
        try:
            answer = run_input(item)
        except Exception as exc:  # recorded, and graded as a failure
            answer = {"error": repr(exc)}
        kernel = probe.total - k0
        answers.append({"id": item["id"], "answer": answer,
                        "cpu_s": time.thread_time() - c0 - kernel,
                        "wall_s": time.perf_counter() - w0 - kernel})
    probe.stop()
    result.update(
        answers=answers,
        cpu_s=sum(row["cpu_s"] for row in answers),
        wall_s=sum(row["wall_s"] for row in answers),
        kernel_s=probe.mean(),
        kernels=len(probe.times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        caches=cache_state(cached),
        trace=tracer.metrics() if tracer else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
