"""Query serving: protocol, micro-batching, caching, network front-end.

The compiled engine (:mod:`repro.core.compiled`) makes one process fast;
this package turns it into a servable system. :class:`SketchService` holds
a registry of named sketches, answers a compiled engine's query blocks in
the submitting thread (other sketches' blocks gather into micro-batches
for flush worker threads), caches answers keyed on quantized query
vectors, and exposes both async (``cached`` + ``submit_block -> Future``,
or ``submit``) and blocking (``ask``/``ask_many``) submission.
:class:`SketchServer` puts that service on a TCP socket behind the
versioned JSON-lines protocol (:mod:`repro.serve.protocol`), with
:class:`Client` as the matching blocking client; one server process is
the whole serving tier. ``repro serve`` / ``repro query`` are the CLI
front-ends.
"""

from repro.serve.batching import MicroBatcher
from repro.serve.cache import AnswerCache
from repro.serve.client import Client, ServerError
from repro.serve.server import ServerHandle, SketchServer, start_server_thread
from repro.serve.service import ImmutableSketchError, SketchService, load_sketch

__all__ = [
    "AnswerCache",
    "Client",
    "ImmutableSketchError",
    "MicroBatcher",
    "ServerError",
    "ServerHandle",
    "SketchServer",
    "SketchService",
    "load_sketch",
    "start_server_thread",
]
