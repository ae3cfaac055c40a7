"""PQE-as-a-service: a crash-tolerant daemon over the warm engine.

The package turns the batch infrastructure of the earlier PRs into a
long-lived service (see ``docs/serving.md``):

- :mod:`~repro.serve.admission` — bounded queue, explicit 429/503
  rejections, queue wait charged against request deadlines;
- :mod:`~repro.serve.shedding` — pressure-driven *semantic* load
  shedding down the degradation ladder with widened ε;
- :mod:`~repro.serve.breaker` — per-query circuit breaker quarantining
  repeat worker-killers;
- :mod:`~repro.serve.server` — :class:`PQEServer`: HTTP endpoints,
  request path, the warm registry (one reduction cache every request
  shares, behind an optional disk tier), graceful drain.

Start one with ``repro serve --facts data.csv`` or embed
:class:`PQEServer` directly.
"""

from repro.serve.admission import AdmissionController, AdmissionTicket
from repro.serve.breaker import CircuitBreaker
from repro.serve.server import PQEServer, ServerConfig
from repro.serve.shedding import LoadShedder, SheddingDecision

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "CircuitBreaker",
    "LoadShedder",
    "PQEServer",
    "ServerConfig",
    "SheddingDecision",
]
