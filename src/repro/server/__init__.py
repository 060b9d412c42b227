"""The plan server: a concurrent JSON-over-HTTP front end for planning.

This package turns the library into a daemon — the ROADMAP's serving
system finally *accepts traffic*:

* :mod:`repro.server.config` — :class:`ServerConfig`, the validated knobs,
* :mod:`repro.server.service` — :class:`PlanService`, the HTTP-free
  engine: the shared :class:`~repro.service.core.RequestCore` over a
  session, plus process pool, bounded admission and drain,
* :mod:`repro.server.app` — :class:`PlanServer`, the
  ``ThreadingHTTPServer`` front end with graceful drain,
* :mod:`repro.server.client` — :class:`ServerClient`, the stdlib client
  the benchmark's closed-loop load generator (and the tests) drive.

Start one from the command line with ``python -m repro serve``; see
``docs/architecture.md`` for how the layers compose.
"""

from repro.server.app import PlanServer
from repro.server.client import ServerClient, ServerError
from repro.server.config import ServerConfig
from repro.server.service import PlanService, RequestError
from repro.service.core import ServerMetrics

__all__ = [
    "PlanServer",
    "PlanService",
    "RequestError",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerMetrics",
]
