"""serve_mix: a closed loop of two clients against ``repro serve --workers 2``.

Each client waits for its reply before sending the next job, like
interactive tooling.  The seeded job mix puts writes beside reads:
about 30% ``record`` jobs with new seeds, about 60% ``replay`` /
``trace-stats`` jobs over traces recorded earlier (a hot set that fits
the daemon's 64-entry session pool and a tail that overflows it), and
about 10% ``doctor`` jobs, over ``bank``, ``server`` and ``sorter``.
A serial phase then runs the same job kinds as one-shot
``python -m repro.cli`` processes.  This loads process start and
imports, framing and the wire codec, admission and the session pool.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import subprocess
import sys
import threading
import time

from harness import Run, child_env, median, p90, rss_mb_of, tail_label
from repro.serve import ServeClient, spawn_serve_process
from repro.serve.protocol import decode_serve_payload, encode_serve_message

import checks
import layers

#: job programs: name -> (registered workload, build overrides, mix weight)
PROGRAMS = {
    "bank": ("racy_bank", {}, 5),
    "server": ("server", dict(n_requests=120, work_scale=40), 3),
    "sorter": ("sorter", dict(n_workers=4, chunk=200), 2),
}
#: traces recorded before the loop; the first HOT_SET are drawn 3 times
#: in 4, so they stay cached while the rest overflow the 64-entry pool
POOL_SIZE = 72
HOT_SET = 16
CLIENTS = 2
WORKERS = 2
#: record jobs whose trace bytes and stdout are compared with the
#: in-process path after the loop
PARITY_SAMPLES = 6
ONESHOT_SHARE = 0.25
JOB_KINDS = ("record", "replay", "trace-stats", "doctor")
#: operation kinds, in the order of the ``op_cost.N`` metrics: the
#: daemon's job kinds, then one-shot CLI records and one-shot reads
#: (replay, trace-stats, doctor)
KINDS = JOB_KINDS + ("oneshot_record", "oneshot_read")


def prepare(seed: int):
    from repro.workloads.registry import get_workload

    for workload, kwargs, _ in PROGRAMS.values():
        spec = get_workload(workload)
        spec.build(spec.merged_kwargs(kwargs))
    proc, address = spawn_serve_process(workers=WORKERS)
    ServeClient(address).close()

    def teardown():
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()

    return teardown


def _record_job(program: str, seed: int, out_name: str = "run.djv") -> dict:
    workload, kwargs, _ = PROGRAMS[program]
    return {
        "kind": "record", "workload": workload, "workload_args": dict(kwargs),
        "seed": seed, "out_name": out_name,
    }


class JobMix:
    """The seeded, endless job list both clients draw from in order."""

    def __init__(self, rng: random.Random, pool: list, parity_out: str):
        self.rng = rng
        self.pool = pool
        self.parity_out = parity_out
        self.names = [n for n, (_, _, w) in PROGRAMS.items() for _ in range(w)]
        self._lock = threading.Lock()
        self._index = itertools.count()

    def next(self) -> "tuple[int, dict, dict | None]":
        """``(index, job, pool entry the job reads or None)``."""
        with self._lock:
            index = next(self._index)
            u = self.rng.random()
            if u < 0.30:
                seed = (1 << 30) + self.rng.randrange(1 << 30)
                return index, _record_job(self.rng.choice(self.names), seed, self.parity_out), None
            hot = self.rng.random() < 0.75
            entry = self.rng.choice(self.pool[:HOT_SET] if hot else self.pool)
            if u < 0.70:
                kind = "replay"
            elif u < 0.90:
                kind = "trace-stats"
            else:
                kind = "doctor"
        workload, kwargs, _ = PROGRAMS[entry["program"]]
        job = {"kind": kind, "trace": entry["trace"]}
        if kind != "trace-stats":
            job.update(workload=workload, workload_args=dict(kwargs))
        if kind == "doctor":
            job["trace_name"] = "pool.djv"
        return index, job, entry


def _check_result(r: Run, job: dict, entry, result: dict) -> None:
    kind = job["kind"]
    if not r.checks.expect(result.get("exit") == 0, f"{kind} job exit {result.get('exit')}: {result.get('stderr')}"):
        return
    out = result["stdout"]
    if kind == "record":
        r.checks.expect(bool(result.get("trace")), "record job returned no trace")
    elif kind == "replay":
        r.checks.expect(
            f"-- cycles={entry['cycles']} " in out and "replay verified" in out,
            f"replay job of a {entry['program']} trace did not reproduce it",
        )
    elif kind == "trace-stats":
        r.checks.expect(
            f"file bytes:     {len(entry['trace'])}\n" in out,
            "trace-stats job misreported the file size",
        )


def _client(r: Run, address, mix: JobMix, deadline: float, done: list) -> None:
    with r.span("bench:client"):
        with r.span("serve:ServeClient.connect"):
            client = ServeClient(address)
        with client:
            while time.perf_counter() < deadline:
                index, job, entry = mix.next()
                try:
                    with r.op(job["kind"], "serve:ServeClient.submit", job=index):
                        result = client.submit(job, timeout=120)
                except Exception:  # counted as a failed job by r.op
                    continue
                _check_result(r, job, entry, result)
                done.append((index, job, result))


def _prerecord(r: Run, address, rng: random.Random) -> list:
    """The replay pool: POOL_SIZE traces recorded through the daemon by
    both clients before the timed loop."""
    names = [n for n, (_, _, w) in PROGRAMS.items() for _ in range(w)]
    wanted = [(rng.choice(names), rng.randrange(1, 1 << 30)) for _ in range(POOL_SIZE)]
    pool = [None] * POOL_SIZE

    def work(part):
        with ServeClient(address) as client:
            for i in part:
                program, seed = wanted[i]
                result = client.submit(_record_job(program, seed), timeout=120)
                if result["exit"] != 0:
                    raise RuntimeError(f"pool recording failed: {result['stderr']}")
                cycles = result["stdout"].split("-- cycles=", 1)[1].split()[0]
                pool[i] = {"program": program, "seed": seed, "trace": result["trace"],
                           "cycles": int(cycles)}

    threads = [threading.Thread(target=work, args=(range(c, POOL_SIZE, CLIENTS),))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    if any(entry is None for entry in pool):
        raise RuntimeError("the replay pool was not recorded")
    return pool


def _in_process_record(r: Run, job: dict) -> "tuple[str, bytes]":
    from repro.cli import main as cli_main

    argv = ["record", "--workload", job["workload"], "--seed", str(job["seed"]),
            "-o", job["out_name"]]
    for key, value in job["workload_args"].items():
        argv += ["-W", f"{key}={value}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    r.checks.expect(code == 0, f"in-process record exited {code}")
    with open(job["out_name"], "rb") as fh:
        return out.getvalue(), fh.read()


def _oneshot(r: Run, rng: random.Random, pool: list, deadline: float) -> list:
    """Serial one-shot CLI processes over the same job kinds."""
    latencies = []
    kinds = itertools.cycle(JOB_KINDS)
    path = r.tmp / "oneshot.djv"
    while time.perf_counter() < deadline or not latencies:
        kind = next(kinds)
        entry = rng.choice(pool)
        workload, kwargs, _ = PROGRAMS[entry["program"]]
        wargs = [a for k, v in kwargs.items() for a in ("-W", f"{k}={v}")]
        if kind == "record":
            argv = ["record", "--workload", workload, *wargs,
                    "--seed", str(entry["seed"]), "-o", str(path)]
        else:
            path.write_bytes(entry["trace"])
            argv = [kind, str(path)]
            if kind != "trace-stats":
                argv += ["--workload", workload, *wargs]
        op = "oneshot_record" if kind == "record" else "oneshot_read"
        with r.span("bench:oneshot"):
            with r.op(op, "cli:python -m repro.cli", entry["program"]) as t:
                proc = subprocess.run(
                    [sys.executable, "-m", "repro.cli", *argv], env=child_env(),
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
                )
        latencies.append(t.seconds)
        if r.checks.expect(proc.returncode == 0, f"one-shot {kind} exited {proc.returncode}: {proc.stderr[-200:]!r}") and kind == "record":
            checks.same_trace(r.checks, entry["trace"], path.read_bytes(), "one-shot record vs daemon")
    return latencies


def _framing(r: Run, done: list) -> None:
    """Time the wire codec on this run's own submit and result messages."""
    messages = []
    for index, job, result in done[:200]:
        messages.append({"op": "submit", "job": job})
        messages.append({"op": "result", "ok": True, "result": result})
    frames = []
    t0 = time.perf_counter()
    with r.span("bench:layer-probe"):
        with r.span("core.framing:encode_serve_message"):
            for message in messages:
                frames.append(encode_serve_message(message))
        t1 = time.perf_counter()
        with r.span("core.framing:decode_serve_payload"):
            for frame in frames:
                decode_serve_payload(frame[4:])
    t2 = time.perf_counter()
    r.metric("framing.encode_us", (t1 - t0) / len(messages) * 1e6, "us")
    r.metric("framing.decode_us", (t2 - t1) / len(frames) * 1e6, "us")
    r.metric("framing.bytes_per_job", sum(len(f) for f in frames) / (len(frames) / 2), "bytes")


def run(r: Run) -> None:
    rng = random.Random(r.seed)
    proc, address = spawn_serve_process(workers=WORKERS)
    try:
        pool = _prerecord(r, address, rng)
        mix = JobMix(rng, pool, str(r.tmp / "parity.djv"))
        done: list = []
        loop_s = r.seconds * (1 - ONESHOT_SHARE)
        t0 = time.perf_counter()
        clients = [
            threading.Thread(target=_client, args=(r, address, mix, t0 + loop_s, done))
            for _ in range(CLIENTS)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=loop_s + 180)
        r.wall = time.perf_counter() - t0
        with ServeClient(address) as client:
            health = client.health()
        r.peak_rss_mb = rss_mb_of(proc.pid)
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()

    t1 = time.perf_counter()
    oneshot = _oneshot(r, rng, pool, t1 + r.seconds * ONESHOT_SHARE)

    # outside every timed region: the daemon's record jobs must match the
    # in-process CLI path byte for byte, trace and stdout
    records = sorted(
        (d for d in done if d[1]["kind"] == "record" and d[2].get("exit") == 0),
        key=lambda d: d[0],
    )
    for _, job, result in records[:PARITY_SAMPLES]:
        stdout, blob = _in_process_record(r, job)
        checks.same_trace(r.checks, blob, result["trace"], "daemon record vs in-process")
        r.checks.expect(stdout == result["stdout"], "daemon record stdout differs from in-process")
    checks.self_check(r, pool[0]["trace"])

    r.trace_bytes = sum(len(d[2]["trace"]) for d in records) / len(records)
    jobs = [seconds for kind in JOB_KINDS for seconds in r.ops.of(kind)]
    r.metric("job_ms_p50", median(jobs) * 1000.0, "ms")
    r.metric("job_ms_p90", p90(jobs) * 1000.0, "ms")
    r.metric("job tail", tail_label(jobs), "")
    r.metric("jobs_per_s", len(jobs) / r.wall, "1/s")
    r.metric("oneshot_ms_p50", median(oneshot) * 1000.0, "ms")
    r.metric("oneshot samples", len(oneshot), "count")
    for kind in JOB_KINDS:
        samples = r.ops.of(kind)
        if samples:
            r.metric(f"serve.{kind.replace('-', '_')}_ms_p50", median(samples) * 1000.0, "ms")
    sessions = health.get("sessions", {})
    lookups = sessions.get("hits", 0) + sessions.get("misses", 0)
    r.metric("serve.sessions.hit_ratio", sessions.get("hits", 0) / lookups if lookups else 0.0, "ratio")
    supervisor = health["supervisor"]
    for key in ("rejected", "worker_restarts", "degraded_cold"):
        source = "jobs_rejected" if key == "rejected" else key
        r.metric(f"serve.supervisor.{key}", supervisor[source], "count")

    if r.traced:
        _framing(r, done)
        programs = []
        for label, (workload, kwargs, _) in PROGRAMS.items():
            from repro.workloads.registry import get_workload

            spec = get_workload(workload)
            resolved = spec.merged_kwargs(kwargs)
            programs.append((label, lambda s=spec, k=resolved: s.build(k), pool[0]["seed"]))
        layers.probe_common(r, programs)
