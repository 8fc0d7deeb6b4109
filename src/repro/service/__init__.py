"""The query service layer: async request coalescing over the plan layer.

Concurrent single-query requests against one database (or collection) that
arrive within a configurable window are coalesced into **one** call through
the batch entry points of the plan layer -- so N concurrent clients on one
document cost one backward + one forward scan of its `.arb` file, the
paper's k-independence guarantee turned into serving amortisation.  See
:mod:`repro.service.service` for the coalescing/fault-isolation machinery
and :mod:`repro.service.server` for the ops of ``arb serve`` (the wire
they travel on is :mod:`repro.wire`).
"""

from repro.service.request import ServiceResponse, ServiceStats
from repro.service.server import ArbServer, open_target, request_many, serve
from repro.service.service import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    DEFAULT_WINDOW,
    QueryService,
)

__all__ = [
    "QueryService",
    "ServiceResponse",
    "ServiceStats",
    "ArbServer",
    "open_target",
    "request_many",
    "serve",
    "DEFAULT_WINDOW",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_PENDING",
]
