#!/usr/bin/env python3
"""Debug a replayed execution without perturbing it (Figures 3 and 4).

Three tiers, as in the paper:

1. the **application VM** replays a recorded racy-bank run under DejaVu;
2. the **tool VM** hosts the debugger core; all inspection flows through a
   read-only ptrace-style port and remote reflection — including the
   Figure-3 ``Debugger.lineNumberOf`` *guest* method, interpreted on the
   tool VM against remote objects;
3. a **frontend** talks to the debugger core over TCP with small typed
   packets.

At the end, the debugged replay is compared event-for-event against the
recording: inspection perturbed nothing.
"""

from repro.api import record
from repro.core import compare_runs
from repro.debugger import Debugger, DebuggerClient, DebuggerServer, ReplaySession
from repro.vm import SeededJitterTimer
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank


def main() -> None:
    program = racy_bank()
    config = VMConfig(semispace_words=60_000)

    print("== record the buggy run ==")
    session = record(program, config=config, timer=SeededJitterTimer(5, 40, 160))
    print(f"  recorded: {session.result.output_text}")

    print("\n== attach the three-tier debugger to a replay ==")
    replay_session = ReplaySession(program, session.trace, config=config)
    server = DebuggerServer(Debugger(replay_session)).start()
    print(f"  debugger core serving on {server.address}")

    with DebuggerClient(server.address) as client:
        # break where a teller updates the balance
        bp = client.request("break", method="Teller.run()V", bci=4)
        print(f"  breakpoint set: {bp}")

        for stop in range(3):
            status = client.request("cont")
            if status["status"] == "done":
                break
            top = status["top"]
            balance = client.request(
                "print_static", class_name="Main", field="balance"
            )["value"]
            line = client.request(
                "line_number_of", method_id=top["method_id"], offset=top["bci"]
            )["line"]
            threads = client.request("threads")
            print(
                f"  stop {stop}: {top['method']}@bci{top['bci']} "
                f"(line {line}, via guest reflection on the tool VM); "
                f"balance={balance}; threads="
                + ", ".join(f"{t['tid']}:{t['state']}" for t in threads)
            )
            print(f"    backtrace: {client.request('backtrace')}")

        final = client.request("finish")
        print(f"  replay finished: {final['output']}")
        print(
            f"  frontend traffic: {client.bytes_sent}B sent, "
            f"{client.bytes_received}B received (small packets, no images)"
        )
    server.stop()

    print("\n== perturbation check ==")
    report = compare_runs(session.result, replay_session.result)
    print(f"  debugged replay faithful: {report.faithful} — {report.detail}")
    print(f"  application VM words read via ptrace: {replay_session.port.reads}")
    print("  application VM instructions executed for the debugger: 0")


if __name__ == "__main__":
    main()
