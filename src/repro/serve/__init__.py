"""Query serving: protocol, micro-batching, caching, network front-end.

The compiled engine (:mod:`repro.core.compiled`) makes one process fast;
this package turns it into a servable system. :class:`SketchService` holds
a registry of named sketches, answers a compiled engine's query blocks in
the submitting thread (other sketches' blocks gather into micro-batches
for flush worker threads), caches answers keyed on quantized query
vectors, and exposes both async (``cached`` + ``submit_block -> Future``,
or ``submit``) and blocking (``ask``/``ask_many``) submission.
:class:`SketchServer` puts that service on a TCP socket behind
the versioned JSON-lines protocol (:mod:`repro.serve.protocol`), with
:class:`Client` as the matching blocking client. When one process's GIL
becomes the ceiling, :class:`SketchRouter` shards the same wire protocol
across worker processes (:mod:`repro.serve.router` /
:mod:`repro.serve.worker`), publishing the weight tensors once into
shared memory so the shards map one resident copy
(:mod:`repro.serve.shm`). ``repro serve`` / ``repro query`` are the
CLI front-ends.
"""

from repro.serve.batching import MicroBatcher
from repro.serve.cache import AnswerCache
from repro.serve.client import Client, ServerError
from repro.serve.router import (
    RouterHandle,
    SketchRouter,
    prepare_worker_artifact,
    start_router_thread,
)
from repro.serve.server import ServerHandle, SketchServer, start_server_thread
from repro.serve.service import ImmutableSketchError, SketchService, load_sketch
from repro.serve.shm import ShmPublisher, attach_sketch, publish_sketch

__all__ = [
    "AnswerCache",
    "Client",
    "ImmutableSketchError",
    "MicroBatcher",
    "RouterHandle",
    "ServerError",
    "ServerHandle",
    "ShmPublisher",
    "SketchRouter",
    "SketchServer",
    "SketchService",
    "attach_sketch",
    "load_sketch",
    "prepare_worker_artifact",
    "publish_sketch",
    "start_router_thread",
    "start_server_thread",
]
