"""The server workload — the paper's motivating application shape.

A listener thread pulls request ids from a *non-deterministic* simulated
network native (``Net.recv()I`` — JNI per §2.5: only its return value
reaches the guest, and DejaVu records/replays it), enqueues them into a
monitor-guarded queue, and a pool of workers dequeues with timed waits,
"processes" each request (a compute loop whose length depends on the
request id), and prints a response line.  The interleaving of responses
is highly non-deterministic; their multiset is not.

``Net.recv`` also demonstrates a JNI *callback*: every 8th request it
schedules an upcall into ``Main.netStats(II)V`` with packet statistics —
the callback parameters are recorded and regenerated on replay.
"""

from __future__ import annotations

import random

from repro.api import GuestProgram
from repro.vm.native import NativeResult


def _served_update(served_window: int) -> str:
    if served_window <= 0:
        # getstatic/iadd/putstatic back to back: no yield point can fall
        # between the read and the write, so the increment is atomic on
        # green threads even though it is unsynchronized.
        return """\
    getstatic Main.served I
    iconst 1
    iadd
    putstatic Main.served I"""
    # Seeded atomicity bug: park the stale value in a local and burn a
    # stall loop before writing it back.  The loop back-edge carries a
    # yield point, so a preemption inside the window loses an update —
    # the bug `repro explore` hunts on this workload.
    return f"""\
    getstatic Main.served I
    istore 4
    iconst 0
    istore 5
svcstall:
    iload 5
    iconst {served_window}
    if_icmpge svcbump
    iinc 5 1
    goto svcstall
svcbump:
    iload 4
    iconst 1
    iadd
    putstatic Main.served I"""


def _source(
    n_workers: int, n_requests: int, work_scale: int, served_window: int
) -> str:
    return f"""
.class Queue
.field buf [I
.field head I
.field tail I
.field count I
.field closed I
.method init (I)V
    aload 0
    iload 1
    newarray
    putfield Queue.buf [I
    return
.end
.method push (I)V
    aload 0
    getfield Queue.buf [I
    aload 0
    getfield Queue.tail I
    iload 1
    iastore
    aload 0
    aload 0
    getfield Queue.tail I
    iconst 1
    iadd
    aload 0
    getfield Queue.buf [I
    arraylength
    irem
    putfield Queue.tail I
    aload 0
    aload 0
    getfield Queue.count I
    iconst 1
    iadd
    putfield Queue.count I
    aload 0
    invokestatic System.notifyAll(LObject;)V
    return
.end
.method pop ()I
    ; returns -1 when closed and drained
wait:
    aload 0
    getfield Queue.count I
    ifgt have
    aload 0
    getfield Queue.closed I
    ifeq block
    iconst -1
    ireturn
block:
    aload 0
    iconst 20
    invokestatic System.timedWait(LObject;I)V
    goto wait
have:
    aload 0
    getfield Queue.buf [I
    aload 0
    getfield Queue.head I
    iaload
    istore 1
    aload 0
    aload 0
    getfield Queue.head I
    iconst 1
    iadd
    aload 0
    getfield Queue.buf [I
    arraylength
    irem
    putfield Queue.head I
    aload 0
    aload 0
    getfield Queue.count I
    iconst 1
    isub
    putfield Queue.count I
    iload 1
    ireturn
.end

.class Net
.native static recv ()I

.class Listener
.super Thread
.method run ()V
    iconst 0
    istore 1
loop:
    iload 1
    iconst {n_requests}
    if_icmpge close
    invokestatic Net.recv()I
    istore 2
    getstatic Main.queue LQueue;
    monitorenter
    getstatic Main.queue LQueue;
    iload 2
    invokevirtual Queue.push(I)V
    getstatic Main.queue LQueue;
    monitorexit
    iinc 1 1
    goto loop
close:
    getstatic Main.queue LQueue;
    monitorenter
    getstatic Main.queue LQueue;
    iconst 1
    putfield Queue.closed I
    getstatic Main.queue LQueue;
    invokestatic System.notifyAll(LObject;)V
    getstatic Main.queue LQueue;
    monitorexit
    return
.end

.class Worker
.super Thread
.method run ()V
loop:
    getstatic Main.queue LQueue;
    monitorenter
    getstatic Main.queue LQueue;
    invokevirtual Queue.pop()I
    istore 1
    getstatic Main.queue LQueue;
    monitorexit
    iload 1
    iconst -1
    if_icmpeq done
    ; process: a compute loop scaled by (request % 7)
    iload 1
    iconst 7
    irem
    iconst {work_scale}
    imul
    istore 2
    iconst 0
    istore 3
work:
    iload 3
    iload 2
    if_icmpge respond
    iinc 3 1
    goto work
respond:
    ldc "resp:"
    invokestatic System.print(LString;)V
    iload 1
    invokestatic System.printInt(I)V
    ldc "\\n"
    invokestatic System.print(LString;)V
{_served_update(served_window)}
    goto loop
done:
    return
.end

.class Main
.field static queue LQueue;
.field static served I
.field static statPackets I
.field static statBytes I
.field static workers [LThread;
.method static netStats (II)V
    ; JNI callback target: accumulate native-reported statistics
    getstatic Main.statPackets I
    iload 0
    iadd
    putstatic Main.statPackets I
    getstatic Main.statBytes I
    iload 1
    iadd
    putstatic Main.statBytes I
    return
.end
.method static main ()V
    new Queue
    dup
    iconst 64
    invokevirtual Queue.init(I)V
    putstatic Main.queue LQueue;
    iconst {n_workers + 1}
    anewarray LThread;
    putstatic Main.workers [LThread;
    getstatic Main.workers [LThread;
    iconst 0
    new Listener
    aastore
    iconst 1
    istore 0
mkworkers:
    iload 0
    iconst {n_workers + 1}
    if_icmpge launch
    getstatic Main.workers [LThread;
    iload 0
    new Worker
    aastore
    iinc 0 1
    goto mkworkers
launch:
    iconst 0
    istore 0
startloop:
    iload 0
    iconst {n_workers + 1}
    if_icmpge joinall
    getstatic Main.workers [LThread;
    iload 0
    aaload
    invokestatic Thread.start(LThread;)V
    iinc 0 1
    goto startloop
joinall:
    iconst 0
    istore 0
joinloop:
    iload 0
    iconst {n_workers + 1}
    if_icmpge report
    getstatic Main.workers [LThread;
    iload 0
    aaload
    invokestatic Thread.join(LThread;)V
    iinc 0 1
    goto joinloop
report:
    ldc "served="
    invokestatic System.print(LString;)V
    getstatic Main.served I
    invokestatic System.printInt(I)V
    ldc " packets="
    invokestatic System.print(LString;)V
    getstatic Main.statPackets I
    invokestatic System.printInt(I)V
    ldc " bytes="
    invokestatic System.print(LString;)V
    getstatic Main.statBytes I
    invokestatic System.printInt(I)V
    return
.end
"""


class _NetSource:
    """Host side of the simulated network: jittered request ids + callbacks."""

    def __init__(self, seed: int | None):
        self._rng = random.Random(seed)
        self._count = 0

    def recv(self, ctx) -> NativeResult:
        self._count += 1
        request_id = 1000 + self._rng.randrange(0, 97)
        result = NativeResult(value=request_id)
        if self._count % 8 == 0:
            # JNI callback: parameters flow guest-ward and are recorded.
            result.upcalls.append(
                ("Main.netStats(II)V", (8, self._rng.randrange(100, 2000)))
            )
        return result


def server(
    n_workers: int = 3,
    n_requests: int = 40,
    seed: int | None = 0,
    work_scale: int = 10,
    served_window: int = 0,
) -> GuestProgram:
    """``served_window > 0`` seeds an atomicity bug into the workers'
    ``served`` counter update (a stall loop between read and write);
    the default keeps the increment preemption-atomic."""
    return GuestProgram.from_source(
        _source(n_workers, n_requests, work_scale, served_window),
        name="server",
        # every VM gets its own network stream, from the same seed
        natives=[("Net.recv()I", lambda: _NetSource(seed).recv, True)],
    )
