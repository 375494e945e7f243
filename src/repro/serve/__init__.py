"""Online serving layer for entity-set expansion.

Turns the offline ``Expander`` stack into a long-lived query-at-a-time
service: :class:`ExpanderRegistry` amortises one-time fits,
:class:`ResultCache` absorbs repeated queries, and
:class:`ExpansionService` ties them together behind ``submit``, running each
uncached expand on the request's own thread; :class:`ExpansionHTTPServer`
exposes the whole thing over JSON/HTTP.

Quickstart::

    from repro import DatasetConfig, build_dataset
    from repro.serve import ExpansionService, ExpandRequest, ExpansionHTTPServer

    dataset = build_dataset(DatasetConfig.tiny())
    service = ExpansionService(dataset)
    response = service.submit(
        ExpandRequest(method="retexpan", query_id=dataset.queries[0].query_id)
    )
    with ExpansionHTTPServer(service, port=0).start() as server:
        print("serving on", server.url)
"""

from repro.api.options import ExpandOptions
from repro.config import ServiceConfig
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    ExpandRequest,
    ExpandResponse,
    MethodInfo,
    RankedEntityView,
)
from repro.serve.registry import DEFAULT_FACTORIES, ExpanderRegistry
from repro.serve.server import ExpansionHTTPServer
from repro.serve.service import ExpansionService

__all__ = [
    "ServiceConfig",
    "ResultCache",
    "ExpandOptions",
    "ExpandRequest",
    "ExpandResponse",
    "MethodInfo",
    "RankedEntityView",
    "ExpanderRegistry",
    "DEFAULT_FACTORIES",
    "ExpansionHTTPServer",
    "ExpansionService",
]
