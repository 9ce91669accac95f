"""Shared machinery for the benchmark: spans, checks, summaries, host record.

Nothing here imports the program under test, so a workload module can
be loaded by the fresh-interpreter set-up probe before the clock that
matters starts.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: per-run scratch space inside the checkout (the benchmark writes nowhere else)
SCRATCH = ROOT / ".perfbench_tmp"

_NULL = contextlib.nullcontext()


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    A span is ``(id, name, start, end, parent, job)``: *name* is
    ``"<layer>:<call>"``, *parent* the enclosing span on the same thread,
    and *job* an identifier shared by every span of one serve job.
    Spans stay in memory until the run ends.  Disabled, :meth:`span`
    hands back one shared null context, so untraced runs pay a method
    call per boundary and nothing else.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: "list[tuple]" = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def span(self, name: str, job=None):
        return self._span(name, job) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str, job):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent, job))

    def self_times(self) -> "dict[str, float]":
        """Seconds of self time per layer: a span's duration minus the
        part of it its child spans cover (children nest, so their
        durations are disjoint sub-intervals)."""
        child_time: "dict[int, float]" = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        layers: "dict[str, float]" = {}
        for sid, name, start, end, _, _ in self.spans:
            layer = name.split(":", 1)[0]
            own = (end - start) - child_time.get(sid, 0.0)
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def durations(self, name: str) -> "list[float]":
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def root_seconds(self) -> float:
        """Summed duration of the benchmark's own root spans (one per
        thread that drives the workload)."""
        return sum(
            end - start
            for _, name, start, end, parent, _ in self.spans
            if parent is None and name.startswith("bench:")
        )


def span_cost_s(samples: int = 20000) -> float:
    """Host cost of one enabled span, measured on a private tracer."""
    tracer = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("bench:probe"):
            pass
    return (time.perf_counter() - t0) / samples


class Checks:
    """Operations attempted and failures seen.  A failure is an
    operation that raised, was refused, or whose output check did not
    hold; it is never dropped silently."""

    def __init__(self):
        self.attempted = 0
        self.failures: "list[str]" = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.failures.append(what)

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    @property
    def failed(self) -> int:
        return min(len(self.failures), max(self.attempted, 1))


class Ops:
    """Latencies of the workload's user-facing operations, by kind and
    program, each with its cost: the latency over the
    :func:`yardstick_s` time taken around it."""

    def __init__(self):
        self.samples: "list[tuple[str, str, float, float]]" = []
        self._lock = threading.Lock()

    def add(self, kind: str, program: str, seconds: float, cost: float) -> None:
        with self._lock:
            self.samples.append((kind, program, seconds, cost))

    def of(self, kind: str) -> "list[float]":
        return [s for k, _, s, _ in self.samples if k == kind]

    def all(self) -> "list[float]":
        return [s for _, _, s, _ in self.samples]

    def cost(self, kind: str) -> float:
        """The median cost of *kind* on each program it ran on, combined
        across programs by geometric mean, so every program weighs the
        same however many samples it has."""
        programs = sorted({p for k, p, _, _ in self.samples if k == kind})
        if not programs:
            raise RuntimeError(f"no {kind} operation was timed")
        logs = [
            math.log(statistics.median(
                c for k, p, _, c in self.samples if k == kind and p == program
            ))
            for program in programs
        ]
        return math.exp(sum(logs) / len(logs))


class _Machine:
    __slots__ = ("stack", "pc")

    def __init__(self):
        self.stack = [0] * 64
        self.pc = 0

    def step(self, op: int) -> None:
        stack = self.stack
        if op == 0:
            stack[self.pc & 63] += 1
        elif op == 1:
            stack[(self.pc + 1) & 63] = stack[self.pc & 63] * 2
        else:
            stack[(self.pc + 2) & 63] ^= op
        self.pc += 1


_YARDSTICK_OPS = (0, 1, 2, 3) * 4500
#: ~40k small ints as JSON: decoding them allocates as a checkpoint load does
_YARDSTICK_JSON = json.dumps(list(range(0, 3_000_000, 75))).encode()


def _best_of_three(fn) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _dispatch_loop() -> None:
    machine = _Machine()
    for op in _YARDSTICK_OPS:
        machine.step(op)


def _yardstick_once() -> float:
    return math.sqrt(
        _best_of_three(_dispatch_loop)
        * _best_of_three(lambda: json.loads(_YARDSTICK_JSON))
    )


def yardstick_s(width: int = 1) -> float:
    """Seconds a fixed piece of work, independent of the program under
    test, takes right now: the geometric mean of a toy dispatch loop and
    a JSON decode of small ints (the bulk of a checkpoint load), each
    the best of three runs of a few milliseconds, so one interruption
    does not count.  On shared hosts CPU speed drifts by 10-30% within a
    minute; an operation's cost (latency over the yardstick time around
    it) cancels part of that drift, so it varies less from run to run
    than its latency.  The two halves track compute-bound and
    allocation-bound operations; neither alone tracked both.

    ``width=2`` runs it on two CPUs at once (a forked child beside
    this process) and returns the slower: an operation spread over two
    worker processes is held back by whichever CPU is slower."""
    if width == 1:
        return _yardstick_once()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: measure, report, exit without any clean-up
        os.close(read_fd)
        os.write(write_fd, struct.pack("d", _yardstick_once()))
        os._exit(0)
    os.close(write_fd)
    try:
        mine = _yardstick_once()
        theirs = struct.unpack("d", os.read(read_fd, 8))[0]
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    return max(mine, theirs)


#: the yardstick time set-up seconds are scaled to (see ``setup_s`` in
#: NOTES.md): about the median yardstick on the host the bounds were set on
REFERENCE_YARDSTICK_S = 0.004


class Timing:
    seconds = 0.0


class Run:
    """Everything one benchmark invocation shares with its workload."""

    def __init__(self, seed: int, seconds: float, trace: bool, tmp: Path):
        self.seed = seed
        self.seconds = seconds
        self.traced = trace
        self.tmp = tmp
        self.tracer = Tracer(trace)
        self.checks = Checks()
        self.ops = Ops()
        #: workload-specific metrics, printed beside the end-to-end ones:
        #: name -> (value, unit)
        self.extra: "dict[str, tuple]" = {}
        #: per-layer metrics (traced runs): name -> (value, unit)
        self.layers: "dict[str, tuple]" = {}
        #: set by the workload: timed wall seconds, the workload's
        #: trace-byte figure and its processes' peak RSS
        self.wall = 0.0
        self.trace_bytes = 0
        self.peak_rss_mb = 0.0
        #: layer -> self seconds, filled by the traced run
        self.self_times: "dict[str, float]" = {}

    @contextlib.contextmanager
    def op(self, kind: str, call: str, program: str = "", width: int = 1, job=None):
        """Time one user-facing operation of *kind* on *program* and open
        its span; the yielded :class:`Timing` holds the latency once the
        block ends.  *width* is the number of CPUs the operation keeps
        busy (see :func:`yardstick_s`).  An exception counts the
        operation as failed and propagates."""
        self.checks.attempt()
        timing = Timing()
        width = min(width, os.cpu_count() or 1)
        with self.tracer.span("bench.yardstick:yardstick_s"):
            before = yardstick_s(width)
        t0 = time.perf_counter()
        try:
            with self.tracer.span(call, job):
                yield timing
        except Exception as exc:
            self.checks.fail(f"{kind}: {type(exc).__name__}: {exc}")
            raise
        timing.seconds = time.perf_counter() - t0
        with self.tracer.span("bench.yardstick:yardstick_s"):
            yardstick = (before + yardstick_s(width)) / 2
        self.ops.add(kind, program, timing.seconds, timing.seconds / yardstick)

    def span(self, call: str, job=None):
        return self.tracer.span(call, job)

    def metric(self, name: str, value, unit: str) -> None:
        self.extra[name] = (value, unit)

    def layer(self, name: str, value, unit: str) -> None:
        self.layers[name] = (value, unit)


# ---------------------------------------------------------------------------
# summaries


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def tail_label(values) -> str:
    """The highest percentile with at least ten samples beyond it, with
    the sample count — or a note that there are too few samples."""
    n = len(values)
    if n <= 10:
        return f"n={n}: too few samples for a tail percentile"
    level = int(100 * (n - 10) / n)
    cut = sorted(values)[max(0, min(n - 1, (level * n) // 100))]
    return f"p{level}={cut * 1000:.1f} ms (n={n})"


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def rss_mb_of(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# host record and fresh interpreters


def host_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": model,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "bytecode_cache": "off" if sys.dont_write_bytecode else "on",
    }


def child_env() -> dict:
    """The environment every subprocess gets: the checkout's ``src`` on
    the path and temp files under the run's scratch directory.  The
    bytecode-cache setting is passed through as found."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_python_s(code: str) -> float:
    """Wall time of ``python -c code`` in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - t0


def fresh_recording(workload: str, label: str, seed: int, out: Path) -> bytes:
    """The trace bytes of program *label* recorded with *seed* by
    ``fresh_record.py`` in a fresh interpreter, with no tracer loaded."""
    probe = Path(__file__).resolve().parent / "fresh_record.py"
    subprocess.run(
        [sys.executable, str(probe), workload, label, str(seed), str(out)],
        env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return out.read_bytes()


def setup_seconds(workload: str, seed: int) -> "tuple[float, float]":
    """Fresh interpreter start until the workload's first timed call is
    ready, and the :func:`yardstick_s` time around it: runs
    ``setup_probe.py`` and stops the clock when it prints its ready line
    (the probe then tears down and exits)."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    before = yardstick_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(probe), workload, str(seed)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed ({code}): {line!r}")
    return elapsed, (before + yardstick_s()) / 2
