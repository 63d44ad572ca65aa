"""neuralstore - a learning content-addressable memory with a trace-driven simulator.

The package has three layers:

* the memory engine itself (:mod:`neuralstore.core`, :mod:`neuralstore.engine`,
  :mod:`neuralstore.codec`): cue and data neurons whose cue-to-data
  association weights, search orders and stored-data granularity adapt to
  the access pattern;
* a traditional content-addressable memory baseline
  (:mod:`neuralstore.cam`) with exact tag matching, linear scan cost and
  fixed data quality;
* a simulation harness (:mod:`neuralstore.workload`,
  :mod:`neuralstore.metrics`, :mod:`neuralstore.cli`) that generates seeded
  synthetic corpora and access traces, replays them against either engine,
  and aggregates per-operation cost, space and fidelity into reports.

Everything is deterministic given a configuration and a seed.
"""

from neuralstore.codec import (
    Payload,
    TruncationCodec,
    HistogramExtractor,
    cosine_similarity,
    psnr_fidelity,
)
from neuralstore.core import (
    ConfigurationError,
    CueNeuron,
    DataNeuron,
    Hive,
    HiveParams,
    Locality,
    Memory,
    SearchEntry,
    SnapshotFormatError,
)
from neuralstore.engine import (
    MemoryEngine,
    OpControls,
    OpOutcome,
    SearchParams,
    StorageFullError,
)
from neuralstore.cam import CamBaseline, CamEntry

__version__ = "0.1.0"

__all__ = [
    "CamBaseline",
    "CamEntry",
    "ConfigurationError",
    "CueNeuron",
    "DataNeuron",
    "Hive",
    "HiveParams",
    "HistogramExtractor",
    "Locality",
    "Memory",
    "MemoryEngine",
    "OpControls",
    "OpOutcome",
    "Payload",
    "SearchEntry",
    "SearchParams",
    "SnapshotFormatError",
    "StorageFullError",
    "TruncationCodec",
    "cosine_similarity",
    "psnr_fidelity",
]
