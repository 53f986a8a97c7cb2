"""Shared machinery: spans, the operation ledger, the pass loop, run facts.

Spans go only around calls that the benchmark itself makes into tubecat;
nothing inside the library is instrumented.  They are kept in memory and
written to a file when the run ends.
"""
from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

# Pass id for work done once, after the timed passes.
AFTER = "after"
# A child interpreter that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT = 120.0
# Cold set-ups per run; their trimmed mean is reported.
SETUP_REPEATS = 10
# Seconds of wall time between two speed samples, for work done in this
# process and for work done in child interpreters.
SPEED_INTERVAL = 0.05
CHILD_SPEED_INTERVAL = 1.0
# Reported times are in seconds at the host speed where reference_kernel
# takes REFERENCE_SECONDS of CPU, or, for work done in child interpreters,
# where reference_child takes CHILD_REFERENCE_SECONDS.
REFERENCE_SECONDS = 0.002
CHILD_REFERENCE_SECONDS = 0.2


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest tenth of the values."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return mean(ordered[cut:len(ordered) - cut])


def children_cpu() -> float:
    """User plus system CPU seconds of every child that has been waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def reference_kernel() -> int:
    """A fixed piece of work that uses no tubecat code: dict, tuple and
    complex arithmetic in the interpreter, plus small numpy products, the
    mix the library's diagram work is made of.  About 2 ms of CPU."""
    import numpy as np

    table: dict = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0j) + complex(i, -i) * 0.5
    m = np.arange(64, dtype=complex).reshape(8, 8) / 64
    for _ in range(40):
        m = m @ m.conj().T / 8 + np.eye(8)
    return len(table) + int(abs(m[0, 0]) > 0)


def reference_child():
    """A fresh interpreter that imports numpy and exits: start-up, module
    loading and page faults, the work every CLI command begins with, and no
    tubecat code.  About 0.2 s of CPU."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT)


class Speed:
    """Samples the host's speed while a run goes on.

    The host runs the same code at speeds up to 2x apart, in states that
    change within a second and drift over minutes.  ``tick`` is called
    between operations; at most every SPEED_INTERVAL seconds of wall time it
    times ``reference_kernel`` in CPU seconds, so the samples are spread
    over the run like the work they are compared with.  With ``children``
    the work runs in child interpreters, which the in-process kernel does
    not follow (its spread over ten seeds of `cli` was 0.07-0.09), so a
    sample times ``reference_child`` instead, as children's CPU seconds.
    ``clock`` is the clock of the work and of the samples; ``spent`` is what
    the samples took on it, which the pass time leaves out.
    """

    def __init__(self, children=False):
        self.children = children
        self.clock = children_cpu if children else process_time
        self._kernel = reference_child if children else reference_kernel
        self._interval = CHILD_SPEED_INTERVAL if children else SPEED_INTERVAL
        self._reference = CHILD_REFERENCE_SECONDS if children else REFERENCE_SECONDS
        self.samples: list = []
        self.spent = 0.0
        self._next = 0.0

    def tick(self):
        if perf_counter() >= self._next:
            self.sample()

    def sample(self) -> float:
        """Time the kernel once, with the collector off: a collection of the
        workload's garbage is not the host's speed."""
        gc.disable()
        try:
            t0 = self.clock()
            self._kernel()
            took = self.clock() - t0
        finally:
            gc.enable()
        self.samples.append(took)
        self.spent += took
        self._next = perf_counter() + self._interval
        return took

    def reference_seconds(self, cpu: float, samples) -> float:
        """``cpu`` seconds of work done while ``samples`` were taken, as
        seconds at the reference speed."""
        return cpu * self._reference / mean(samples)

    def factor(self) -> float:
        """What CPU seconds anywhere in this run are multiplied by to give
        reference seconds: the reference over the run's mean sample,
        leaving out the slowest and fastest tenth."""
        return self._reference / trimmed_mean(self.samples)


class Tracer:
    """In-memory spans: name, input, pass id, parent index, start, end.

    Spans are recorded only while ``active`` is set, so the same workload
    code runs traced and untraced passes.
    """

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.pass_id = None
        self._open: list = []

    @contextmanager
    def span(self, name: str, input: str | None = None):
        if not self.active:
            yield
            return
        rec = {"name": name, "input": input, "pass": self.pass_id,
               "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def totals(self, name: str, passes, input: str | None = None) -> list:
        """Per pass id in ``passes``: summed self time of the matching spans."""
        own = self.self_times()
        out = {p: 0.0 for p in passes}
        for s, t in zip(self.spans, own):
            if (s["name"] == name and s["pass"] in out
                    and (input is None or s["input"] == input)):
                out[s["pass"]] += t
        return [out[p] for p in passes]

    def dump(self) -> list:
        own = self.self_times()
        return [dict(s, self=t) for s, t in zip(self.spans, own)]


class Ledger:
    """Counts operations and records every failure by name.

    An operation fails if it raises, if its output misses the oracle, if a
    residual it reports exceeds the oracle's limit, or if it is skipped
    because a stage it needs failed.  A raise that ``is_refusal`` accepts
    is a refusal: the program declined, and the run stays correct.  Every
    other raise and every oracle miss is a wrong answer and makes the run
    incorrect.  A skip is counted as failed, never as wrong; the failure it
    follows is counted on its own.
    """

    def __init__(self, workload: str, tracer: Tracer, is_refusal=lambda exc: False,
                 speed: Speed | None = None):
        self.workload = workload
        self.tracer = tracer
        self.speed = speed
        self.is_refusal = is_refusal
        self.passes: list = []  # pass id of every attempted operation
        self.wrong = 0
        self.failures: list = []

    @property
    def attempted(self) -> int:
        return len(self.passes)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def failed_ratio(self, fixed_passes: int) -> float:
        """Failed over attempted, counting only a fixed set of operations:
        those before the passes, in the first ``fixed_passes`` passes, and
        in the phase after them.  How many passes fit in the run does not
        change it."""
        def counted(pass_id):
            return pass_id is None or pass_id == AFTER or pass_id < fixed_passes
        attempted = sum(1 for p in self.passes if counted(p))
        failed = sum(1 for f in self.failures if counted(f["pass"]))
        return failed / attempted

    def _fail(self, input, stage, error, detail, wrong):
        self.wrong += wrong
        self.failures.append({"workload": self.workload, "input": input,
                              "stage": stage, "error": error, "detail": detail,
                              "wrong": wrong, "pass": self.tracer.pass_id})

    def run(self, stage: str, input: str, fn, *args, check=None):
        """Call fn(*args) inside a span; return its result, or None if it raised.

        ``check(result)`` runs outside the span and returns None or the
        reason the result is wrong.
        """
        self.passes.append(self.tracer.pass_id)
        try:
            return self._run(stage, input, fn, args, check)
        finally:
            if self.speed is not None:
                self.speed.tick()

    def _run(self, stage, input, fn, args, check):
        with self.tracer.span(stage, input):
            try:
                out = fn(*args)
            except Exception as exc:  # a failed operation is data, the run goes on
                detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                self._fail(input, stage, type(exc).__name__, detail,
                           wrong=not self.is_refusal(exc))
                return None
        try:
            problem = check(out) if check is not None else None
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem:
            self._fail(input, stage, "OracleMismatch", problem, wrong=True)
        return out

    def skip(self, input: str, stages, cause: str):
        """Count each of ``stages`` as attempted and failed: not run because
        ``cause`` failed."""
        for stage in stages:
            self.passes.append(self.tracer.pass_id)
            self._fail(input, stage, "Skipped", f"not run: {cause} failed", wrong=False)

    def summary(self) -> list:
        """Failures grouped by (input, stage, error, wrong), with a count and
        one detail."""
        groups: dict = {}
        for f in self.failures:
            key = (f["input"], f["stage"], f["error"], f["wrong"])
            if key not in groups:
                groups[key] = dict(f, count=0)
                del groups[key]["pass"]
            groups[key]["count"] += 1
        return list(groups.values())


@dataclass
class Passes:
    fixed: int          # passes that every run makes: warm-up plus minimum timed
    # reference seconds of each untraced timed pass, and of each traced pass
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    traced_ids: list = field(default_factory=list)  # pass ids of the traced passes
    cpu: list = field(default_factory=list)         # CPU seconds of each timed pass
    setup: list = field(default_factory=list)       # reference seconds of each set-up
    peak_rss_mib: float = 0.0
    result: object = None                           # what the last pass returned


def run_passes(run_pass, setup_once, tracer: Tracer, speed: Speed, deadline: float,
               warmup: int, min_timed: int) -> Passes:
    """Closed loop of passes until about ``deadline`` (a ``perf_counter`` time).

    ``setup_once()`` measures one cold set-up and returns its CPU seconds,
    or None if it failed.  One is run before the passes and discarded, so
    bytecode caches exist; the SETUP_REPEATS that count run in even shares
    after each of the first ``warmup + min_timed`` passes, untimed.

    A pass is timed in CPU seconds on ``speed.clock``: of this process, or,
    when ``speed.children``, of the child processes it waited for.  All the
    work is single-threaded (BLAS is pinned to one thread), so CPU time is
    the wall time less the time the process was not running.  The host's speed changes within a
    second, so each pass and each set-up is then converted to reference
    seconds with the speed samples taken during it, from one just before
    to one just after (``Speed.reference_seconds``).

    The first ``warmup`` passes are run untimed.  A traced run alternates
    traced and untraced passes, so both sides see the same machine state
    and their difference is the tracing overhead.  A pass is not started
    when the median pass would end it past ``deadline``, once ``min_timed``
    passes are in.

    Peak RSS (of this process, or of its largest child) is read once ``warmup + min_timed`` passes
    have run, a fixed amount of work: engines of loaded specs are never
    freed, so RSS keeps growing with every pass and a later reading would
    depend on how many passes fit before the deadline.
    """
    traced_run = tracer.active
    clock = speed.clock
    rusage_who = resource.RUSAGE_CHILDREN if speed.children else resource.RUSAGE_SELF
    out = Passes(fixed=warmup + min_timed)
    setup_once()
    setups_left, per_pass = SETUP_REPEATS, -(-SETUP_REPEATS // out.fixed)
    speed.sample()
    k = 0
    while True:
        timed = k >= warmup
        tracer.active = traced_run and timed and (k - warmup) % 2 == 0
        tracer.pass_id = k
        # drop the last pass's results and garbage before the next one starts
        out.result = None
        gc.collect()
        first = len(speed.samples) - 1  # the sample just before this pass
        t0, spent0 = clock(), speed.spent
        with tracer.span("pass"):
            out.result = run_pass()
        took = clock() - t0 - (speed.spent - spent0)
        speed.sample()
        seconds = speed.reference_seconds(took, speed.samples[first:])
        if tracer.active:
            out.traced.append(seconds)
            out.traced_ids.append(k)
        elif timed:
            out.plain.append(seconds)
        if timed:
            out.cpu.append(took)
        tracer.active = False
        for _ in range(min(per_pass, setups_left)):
            setups_left -= 1
            took = setup_once()
            speed.sample()
            if took is not None:
                out.setup.append(speed.reference_seconds(took, speed.samples[-2:]))
        k += 1
        if k == out.fixed:
            out.peak_rss_mib = resource.getrusage(rusage_who).ru_maxrss / 1024
        if len(out.cpu) >= min_timed and perf_counter() + median(out.cpu) > deadline:
            break
    tracer.active = traced_run
    tracer.pass_id = AFTER
    return out


# ---- child processes -----------------------------------------------------------

def child_env(root: Path) -> dict:
    """Environment for child interpreters: this checkout's src first, and no
    user catalog directories, so names resolve to the shipped files."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TUBECAT_CATALOG_DIR", None)
    return env


def run_child(args: list, root: Path):
    """Run ``python args...`` to completion; returns (CPU seconds, result).

    ``subprocess.run`` kills and reaps the child if it overruns the timeout.
    """
    t0 = children_cpu()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=child_env(root),
                          capture_output=True, timeout=CHILD_TIMEOUT)
    return children_cpu() - t0, proc


def probe_setup(workload: str, root: Path) -> float:
    """CPU seconds of ``import tubecat`` plus input loading in a fresh
    interpreter."""
    script = str(Path(__file__).resolve().parent / "setup_probe.py")
    _, proc = run_child([script, workload], root)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
    return float(proc.stdout.decode().split()[-1])


# ---- run facts ------------------------------------------------------------------

def _blas() -> tuple:
    """(BLAS name, threads) as the loaded numpy reports them; threads is -1
    when the library cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        name = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, -1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = root / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_facts(root: Path, workload: str, seed: int, usable_cpus: list) -> dict:
    import numpy as np

    import tubecat

    blas, threads = _blas()
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "tubecat": tubecat.__version__,
        "blas": blas, "blas_threads": threads,
        "nproc": os.cpu_count(), "cpus_usable": len(usable_cpus),
        "cpu_pinned": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "commit": _git_commit(root),
    }
