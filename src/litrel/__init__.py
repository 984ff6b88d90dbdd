"""Knowledge-graph embeddings with literal-enriched relation vectors.

Entity/relation triples plus numeric attribute triples go in; trained
embedding tables, filtered-ranking link-prediction reports, and node
classification predictions come out.  Relation embeddings are optionally
fused with per-relation aggregates of the head/tail entities' numeric
attributes before scoring.
"""

import os
import sys

# The block loops of training, ranking and KNN run on two threads, one per lane
# (litrel.scoring.LANES), so BLAS gets one thread: set before numpy loads, as
# BLAS reads these when it starts.  The lanes use threads only where BLAS is
# single-threaded; a numpy loaded before litrel keeps them on the calling thread.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(_name, "1")
SINGLE_THREADED_BLAS = all(os.environ.get(name) == "1" for name in BLAS_THREAD_VARIABLES)

from litrel.data import (  # noqa: E402
    KnowledgeGraph,
    LiteralMatrix,
    build_graph,
    load_literals,
    load_triples,
)
from litrel.errors import ConfigError, ParseError, TrainingError, ValidationError  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "KnowledgeGraph",
    "LiteralMatrix",
    "build_graph",
    "load_literals",
    "load_triples",
    "ParseError",
    "ValidationError",
    "ConfigError",
    "TrainingError",
]
