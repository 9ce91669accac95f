"""The DejaVu-based debugger (§4 + Figure 4).

Three tiers, as in the paper:

1. the **application VM**, replaying under DejaVu — it executes nothing on
   the debugger's behalf;
2. the **tool VM / debugger core** (:class:`repro.debugger.core.Debugger`
   over a :class:`repro.debugger.session.ReplaySession`), which inspects
   the application VM via remote reflection only;
3. the **frontend** (:mod:`repro.debugger.frontend`), a thin client
   talking to the debugger core over TCP with small typed packets
   ("small packets of data rather than large images").
"""

from repro.debugger.control import DebugController
from repro.debugger.core import Debugger
from repro.debugger.session import ReplaySession
from repro.debugger.frontend import DebuggerClient, DebuggerServer

__all__ = [
    "DebugController",
    "Debugger",
    "DebuggerClient",
    "DebuggerServer",
    "ReplaySession",
]
