"""The knowledge-query daemon: one thread per connection, a gate, drain.

* The **acceptor** (the main thread) owns the listening sockets (unix
  and/or TCP) and starts one thread per connection.
* Each **connection thread** reads and validates newline-delimited
  JSON frames, answers ``stats`` / ``healthz`` at once, passes other
  ops through the :class:`~repro.serve.queue.AdmissionGate` (a
  rejection is answered ``queue_full``, carrying the bound, or
  ``shutting_down``), runs them on the shared
  :class:`~repro.serve.session.QueryEngine` itself and writes each
  reply with ``sendall``: requests are answered in the order sent.
* The **drain**: SIGTERM/SIGINT closes the gate, so every frame read
  afterwards is answered ``shutting_down``, and the listeners.  Idle
  connections have their read side shut; a busy one shuts its own once
  its request is answered, so the frames it already received are
  answered too.  Running and waiting requests finish, the fork-pool is
  torn down, the journal gets a final ``health`` event and the socket
  file is unlinked.

Every finished request lands in ``serve_request_seconds``, timed from
the read of its frame to its terminal frame, and (with a journal) as
one ``serve_request`` event carrying its wire code.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import obs
from ..errors import ReproError
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    stream_event,
    validate_request,
)
from .queue import AdmissionGate, BudgetExceeded, QueryBudget
from .session import QueryEngine

__all__ = ["ServeConfig", "KnowledgeServer", "run_server", "DEFAULT_SOCKET"]

#: Default unix-socket path (relative to the working directory, next to
#: the disk cache the daemon keeps hot).
DEFAULT_SOCKET = ".repro_serve.sock"

#: Longest request frame, newline excluded; a longer one drops the
#: connection.
MAX_FRAME_BYTES = 1 << 20

#: Ops answered without admission (pure in-process reads).
_UNGATED_OPS = ("stats", "healthz")

#: A reply that makes no progress for this long (``SO_SNDTIMEO``: the
#: client stopped reading) ends its connection, so a stuck client holds
#: its thread for a bounded time and never stalls the drain.
_SEND_TIMEOUT = struct.pack("ll", 5, 0)


@dataclass
class ServeConfig:
    """Everything a daemon instance needs; CLI flags map 1:1 onto this."""

    socket_path: Optional[str] = DEFAULT_SOCKET
    host: str = "127.0.0.1"
    port: Optional[int] = None
    workers: int = 2
    max_queue: Optional[int] = None
    budget: Optional[QueryBudget] = None
    journal_path: Optional[str] = None
    fork_policy: str = "auto"
    #: Admit the ``debug_sleep`` op (tests and benchmarks only).
    debug: bool = False

    def __post_init__(self) -> None:
        if self.socket_path is None and self.port is None:
            raise ReproError("serve needs a unix socket path or a TCP port")
        if self.workers < 1:
            raise ReproError(f"need workers >= 1, got {self.workers}")


def _shut(connection: socket.socket, how: int = socket.SHUT_RD) -> None:
    """Shut *connection* (by default its reads, once what it has received
    is read); a connection already gone is left as it is."""
    try:
        connection.shutdown(how)
    except OSError:
        pass


class KnowledgeServer:
    """The daemon.  :meth:`start`, then :meth:`serve_forever`, which
    returns once :meth:`request_shutdown` has drained it."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.budget = (
            config.budget if config.budget is not None else QueryBudget.resolve()
        )
        self.engine = QueryEngine(
            budget=self.budget, fork_policy=config.fork_policy
        )
        self.gate = AdmissionGate(config.workers, config.max_queue)
        self.journal = None
        if config.journal_path:
            from ..obs.journal import TelemetryJournal

            self.journal = TelemetryJournal(
                config.journal_path, batch="serve", experiment="serve"
            )
        self._listeners: List[socket.socket] = []
        self._lock = threading.Lock()
        self._all_closed = threading.Condition(self._lock)
        #: Open connections, each mapped to whether it answers a frame.
        self._connections: Dict[socket.socket, bool] = {}
        self._started_monotonic = 0.0
        self._shutting_down = False
        self._why = ""
        self._requests_done = 0
        self._requests_failed = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the sockets; on the main thread, install the handlers."""
        self._started_monotonic = time.monotonic()
        if self.config.socket_path:
            self._prepare_socket_path(self.config.socket_path)
            listener = socket.socket(socket.AF_UNIX)
            listener.bind(self.config.socket_path)
            listener.listen(100)
            self._listeners.append(listener)
        if self.config.port is not None:
            self._listeners.append(
                socket.create_server(
                    (self.config.host, self.config.port), backlog=100
                )
            )
        for listener in self._listeners:
            listener.setblocking(False)
        self._wake_read, self._wake_write = socket.socketpair()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(
                    signum,
                    lambda s, _frame: self.request_shutdown(f"signal {s}"),
                )

    @staticmethod
    def _prepare_socket_path(path: str) -> None:
        """Unlink a stale socket file left by a crashed daemon.

        A *live* daemon's socket accepts connections; refuse to steal it.
        """
        if not os.path.exists(path):
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            return
        probe = socket.socket(socket.AF_UNIX)
        probe.settimeout(0.25)
        try:
            probe.connect(path)
        except OSError:
            os.unlink(path)  # stale: nobody home
        else:
            raise ReproError(
                f"socket {path!r} already has a live daemon; "
                f"stop it or pick another --socket"
            )
        finally:
            probe.close()

    def request_shutdown(self, why: str = "") -> None:
        """Begin the graceful drain; idempotent, callable from any thread
        and from a signal handler (it takes no lock the acceptor holds)."""
        if self._shutting_down:
            return
        self._why = why
        self._shutting_down = True
        self.gate.close()
        try:
            self._wake_write.send(b"\0")
        except OSError:
            pass

    def serve_forever(self) -> None:
        """Accept connections until :meth:`request_shutdown`, then drain."""
        with selectors.DefaultSelector() as selector:
            for listener in self._listeners:
                selector.register(listener, selectors.EVENT_READ)
            selector.register(self._wake_read, selectors.EVENT_READ)
            while not self._shutting_down:
                for key, _ in selector.select():
                    if key.fileobj is not self._wake_read:
                        self._accept(key.fileobj)
        self._drain()

    def _accept(self, listener: socket.socket) -> None:
        try:
            connection, _ = listener.accept()
        except OSError:
            return  # the client gave up before it was accepted
        connection.setblocking(True)
        connection.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDTIMEO, _SEND_TIMEOUT
        )
        if connection.family != socket.AF_UNIX:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self._connections[connection] = False
        try:
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="serve-connection",
                daemon=True,
            ).start()
        except RuntimeError:  # out of threads: drop this client, serve on
            with self._lock:
                del self._connections[connection]
            connection.close()

    def _drain(self) -> None:
        obs.count("serve_shutdowns")
        for listener in self._listeners:
            listener.close()
        with self._lock:
            idle = [c for c, busy in self._connections.items() if not busy]
        for connection in idle:
            _shut(connection)
        with self._all_closed:
            self._all_closed.wait_for(lambda: not self._connections)
        self.engine.close()
        if self.journal is not None:
            self.journal.emit(
                "health",
                snapshot={"why": self._why, "queue": self.gate.snapshot()},
            )
            self.journal.close()
        path = self.config.socket_path
        if path and os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:
                pass
        self._wake_read.close()
        self._wake_write.close()

    # -- one connection ----------------------------------------------------

    def _serve_connection(self, connection: socket.socket) -> None:
        obs.count("serve_connections")
        reader = connection.makefile("rb")
        try:
            while True:
                line = reader.readline(MAX_FRAME_BYTES + 1)
                over_long = len(line) > MAX_FRAME_BYTES and line[-1:] != b"\n"
                if not line or over_long:
                    break
                if line.strip():
                    self._set_busy(connection, True)
                    self._answer(connection, line)
                    self._set_busy(connection, False)
        except OSError:
            pass  # reset by the peer
        finally:
            with self._lock:
                del self._connections[connection]
                self._all_closed.notify_all()
            reader.close()
            connection.close()

    def _set_busy(self, connection: socket.socket, busy: bool) -> None:
        with self._lock:
            self._connections[connection] = busy
            draining = self._shutting_down
        if draining and not busy:
            _shut(connection)

    def _answer(self, connection: socket.socket, line: bytes) -> None:
        received = time.perf_counter()
        try:
            frame = decode_frame(line)
        except ProtocolError as error:
            reply = error_response(None, "bad_frame", str(error))
            self._send(connection, reply)
            self._finish("?", received, "bad_frame")
            return
        request_id = frame.get("id")
        problems = validate_request(frame)
        if problems:
            self._send(
                connection,
                error_response(
                    request_id, "bad_request", "; ".join(problems)
                ),
            )
            self._finish(str(frame.get("op")), received, "bad_request")
            return
        op = frame["op"]
        params = frame.get("params", {})
        if op == "debug_sleep" and not self.config.debug:
            self._send(
                connection,
                error_response(
                    request_id, "bad_request",
                    "debug_sleep is only admitted with --debug",
                ),
            )
            return
        if op in _UNGATED_OPS:
            result = (
                self._stats_result() if op == "stats" else self._healthz_result()
            )
            self._send(connection, ok_response(request_id, result))
            self._finish(op, received, "ok")
            return
        waited = self.gate.enter()
        if waited is None and self.gate.closed:
            code = "shutting_down"
            reply = error_response(
                request_id, code,
                "daemon is draining; retry against a fresh daemon",
            )
        elif waited is None:
            code = "queue_full"
            reply = error_response(
                request_id, code,
                f"request queue is at its bound "
                f"({self.gate.max_depth}); retry with backoff",
                max_depth=self.gate.max_depth,
            )
        else:
            obs.observe("serve_queue_wait_seconds", waited)
            try:
                reply, code = self._execute(connection, request_id, op, params)
            finally:
                self.gate.leave()
        self._send(connection, reply)
        self._finish(op, received, code)

    def _execute(self, connection, request_id, op: str, params):
        """Run one admitted request: ``(terminal frame, code)``."""

        def emit(event: Dict[str, Any]) -> None:
            self._send(connection, stream_event(request_id, event))

        extra: Dict[str, Any] = {}
        try:
            result = self.engine.execute(op, params, emit=emit)
        except BudgetExceeded as error:
            code, message = "budget_exceeded", error
            extra["limit"] = error.limit
        except ProtocolError as error:
            code, message = "bad_request", error
        except KeyError as error:
            code, message = "not_found", error.args[0] if error.args else error
        except ReproError as error:
            code, message = "internal", error
        except Exception as error:  # noqa: BLE001 — daemon must survive
            code, message = "internal", f"{type(error).__name__}: {error}"
        else:
            done = True if op == "monitor" else None
            return ok_response(request_id, result, done=done), "ok"
        return error_response(request_id, code, str(message), **extra), code

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _send(connection: socket.socket, frame: Dict[str, Any]) -> None:
        """Write one frame; a client gone mid-query is counted, not fatal,
        and the connection ends (its stream may hold part of a frame)."""
        try:
            connection.sendall(encode_frame(frame))
        except OSError:
            obs.count("serve_dead_client_writes")
            _shut(connection, socket.SHUT_RDWR)

    def _finish(self, op: str, received: float, code: str) -> None:
        seconds = time.perf_counter() - received
        ok = code == "ok"
        with self._lock:
            if ok:
                self._requests_done += 1
            else:
                self._requests_failed += 1
        obs.observe("serve_request_seconds", seconds)
        if self.journal is not None:
            self.journal.emit(
                "serve_request", op=op, seconds=seconds, ok=ok, code=code
            )

    # -- ungated ops -------------------------------------------------------

    def _stats_result(self) -> Dict[str, Any]:
        with self._lock:
            done, failed = self._requests_done, self._requests_failed
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "queue": self.gate.snapshot(),
            "requests_done": done,
            "requests_failed": failed,
            "budget": {
                "max_points": self.budget.max_points,
                "timeout": self.budget.timeout,
            },
            "cache": _json_safe(self.engine.provider.cache_info()),
            "obs": obs.snapshot(),
        }

    def _healthz_result(self) -> Dict[str, Any]:
        from ..obs.metrics import prometheus_text

        return {
            "ok": not self._shutting_down,
            "queue_depth": len(self.gate),
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "prometheus": prometheus_text(obs.snapshot()),
        }


def _json_safe(value: Any) -> Any:
    """Deep-copy *value* with non-JSON scalars (tuple keys) stringified."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def run_server(config: ServeConfig) -> int:
    """Run a daemon until SIGTERM/SIGINT; the blocking CLI entry point."""
    server = KnowledgeServer(config)
    server.start()
    where = []
    if config.socket_path:
        where.append(f"unix:{config.socket_path}")
    if config.port is not None:
        where.append(f"tcp:{config.host}:{config.port}")
    print(
        f"repro-eba serve: listening on {', '.join(where)} "
        f"({config.workers} queries at once, queue bound "
        f"{server.gate.max_depth}, budget "
        f"{server.budget.max_points} points / "
        f"{server.budget.timeout:g}s)",
        flush=True,
    )
    server.serve_forever()
    print("repro-eba serve: drained and stopped", flush=True)
    return 0
