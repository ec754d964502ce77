"""Knowledge-as-a-service: the long-lived query daemon (`repro-eba serve`).

The paper's characterization turns "can the processes decide yet?" into a
knowledge test, which is exactly the shape of an online query service —
yet a cold ``repro-eba`` invocation pays interpreter start-up, imports,
system build and index warm-up before answering a single formula.  This
package keeps all of that **resident**:

* :mod:`repro.serve.server` — the daemon speaking newline-delimited
  JSON over a unix socket (TCP optional): each connection's thread runs
  its requests and answers them in the order sent; graceful drain;
* :mod:`repro.serve.protocol` — the wire schema: request validation,
  error codes, the formula JSON AST, and frame encode/decode;
* :mod:`repro.serve.queue` — the admission gate (``--workers``
  requests run at once, at most ``--max-queue`` wait in arrival order;
  429-style rejection + ``serve_queue_depth`` gauge) and the
  :class:`~repro.serve.queue.QueryBudget` limits;
* :mod:`repro.serve.session` — the query engine: checks each cell
  against the point budget and resolves it through the hot
  :class:`~repro.model.provider.SystemProvider`, which builds a cell
  that is not in memory on the requesting thread and keeps it;
* :mod:`repro.serve.client` — the thin blocking client behind
  ``repro-eba query``, which falls back to in-process evaluation when no
  daemon is up.

Request types: ``eval`` (formula at a point/cell), ``explain``
(:mod:`repro.knowledge.explain` traces), ``extend`` (build the cell at
a given horizon, or find it in memory), ``monitor`` (stream
:mod:`repro.sim.monitor` K/E/C□ verdicts per observed round), ``stats``
and ``healthz`` (live
:mod:`repro.obs` snapshot + Prometheus text).
"""

from .client import ServeClient, ServeError, daemon_available
from .protocol import PROTOCOL_VERSION, build_formula
from .queue import AdmissionGate, QueryBudget
from .server import KnowledgeServer, ServeConfig, run_server
from .session import QueryEngine

__all__ = [
    "PROTOCOL_VERSION",
    "AdmissionGate",
    "KnowledgeServer",
    "QueryBudget",
    "QueryEngine",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "build_formula",
    "daemon_available",
    "run_server",
]
