"""Every blocking call in ``src/repro`` has a deadline, or a stated reason.

An AST walk over the package lists each ``join()``, ``get()``,
``wait()``, ``accept()`` and ``recv()`` that can block forever:

* ``join``/``get``/``wait`` called with no argument at all (a positional
  timeout, ``block=False`` or ``timeout=`` bounds them; ``dict.get(k)``
  and ``str.join(xs)`` take arguments and are not blocking calls);
* socket ``accept()`` (no argument) and ``recv(bufsize)`` whose
  enclosing class (or, outside a class, enclosing function) never sets
  a deadline — no ``settimeout(...)`` and no
  ``create_connection(..., timeout=...)``.  A parser's
  ``accept(kind, text)`` takes arguments and is not a socket call.

Each call found must be in :data:`ALLOWED` with a one-line reason, and
each allow-list entry must still match a call, so the list cannot rot.
A new unbounded wait fails this test until it gets a deadline or an
entry here.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(path relative to src/repro, line, call)`` -> why no deadline is needed
ALLOWED = {
    ("campaign/pool.py", 190, "thread.join()"): (
        "host threads return once the shard queue drains or their host is "
        "quarantined; each item's reply waits under the campaign watchdog"
    ),
    ("serve/supervisor.py", 244, "self._queue.get()"): (
        "an idle worker parks here until a job arrives; shutdown() queues "
        "one stop sentinel per worker"
    ),
}

_ZERO_ARG = {"join", "get", "wait"}
#: socket method -> the positional-argument counts of its real signature
_SOCKET = {"accept": (0,), "recv": (1, 2)}


def _sets_deadline(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "settimeout":
            return True
        if name == "create_connection" and (
            len(node.args) > 1 or any(k.arg == "timeout" for k in node.keywords)
        ):
            return True
    return False


def _blocking_calls(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, scope: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) or (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not isinstance(scope, ast.ClassDef)
        ):
            scope = node
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            bare = not node.args and not node.keywords
            if (name in _ZERO_ARG and bare) or (
                len(node.args) in _SOCKET.get(name, ())
                and not node.keywords
                and not _sets_deadline(scope)
            ):
                found.append((node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, tree)
    return found


@functools.cache
def _all_blocking_calls() -> dict[tuple[str, int, str], None]:
    calls = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for line, text in _blocking_calls(path):
            calls[(rel, line, text)] = None
    return calls


def test_every_blocking_call_has_a_deadline_or_a_reason():
    unexplained = [key for key in _all_blocking_calls() if key not in ALLOWED]
    assert not unexplained, (
        "blocking calls without a timeout (give each a deadline, or an "
        f"ALLOWED entry with its reason): {unexplained}"
    )


def test_allow_list_names_only_live_calls():
    stale = [key for key in ALLOWED if key not in _all_blocking_calls()]
    assert not stale, f"ALLOWED entries that match no call any more: {stale}"


def test_every_reason_is_one_line():
    for key, reason in ALLOWED.items():
        assert reason.strip() and "\n" not in reason, key


def test_the_walk_sees_what_it_should(tmp_path):
    """The detector itself: bounded calls pass, unbounded ones are named."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import socket\n"
        "def f(q, t, d, xs):\n"
        "    q.get()\n"                      # 3: blocking
        "    q.get(timeout=1)\n"
        "    q.get(False)\n"
        "    d.get('k')\n"
        "    ','.join(xs)\n"
        "    t.join()\n"                     # 8: blocking
        "    t.join(2.0)\n"
        "def g(sock):\n"
        "    return sock.recv(10)\n"         # 11: no deadline in scope
        "def h(addr):\n"
        "    s = socket.create_connection(addr, timeout=5)\n"
        "    return s.recv(10)\n"
        "class Server:\n"
        "    def start(self):\n"
        "        self.sock.settimeout(0.2)\n"
        "    def loop(self):\n"
        "        return self.sock.accept()\n"
        "def parse(p):\n"
        "    return p.accept('kw', 'if')\n"
    )
    assert _blocking_calls(sample) == [
        (3, "q.get()"), (8, "t.join()"), (11, "sock.recv(10)"),
    ]
