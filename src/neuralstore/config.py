"""Run configuration: JSON config files, scenario presets, engine builders.

A run is fully described by one JSON document with these sections::

    {
      "preset": "walkthrough",      // optional: null or absent is no preset
      "seed": 42,                   // required, >= 0; drives corpus/trace/replay
      "hive": { ... },              // hive hyperparameters (see HiveParams)
      "search": {"assoc_thresh": 0.0, "match_thresh": 0.95},
      "controls": {"search_limit": null, "weaken_on_fail": false},
      "workload": { ... },          // corpus/trace parameters (see WorkloadSpec)
      "compare": {"cap_fractions": [0.1, ..., 1.2], "warmup_ops": 500},
      "bootstrap": [{"item_id": "w0", "cues": ["wolf"]}, ...]  // pre-seeded state
    }

Cues are labels: a locality mapping admits data by the one key ``labels``
(``[{"labels": ["deer"]}, {}]``, the last locality catching the rest), and a
bootstrap entry's ``cues`` list holds at most one label string.  There are
as many localities as mappings, and as many classes as
``workload.class_labels``, the first of which is the priority class.  The
engine a run replays on is chosen by ``run --engine``, and a byte cap
override is applied by :func:`build_adapter`.

Unknown keys anywhere are rejected, every value must have the type its
field declares (an int passes for a float, a bool for nothing but a bool),
and every section is validated against its owning module's invariants
before an engine is built; cap fractions must be finite, positive and
strictly ascending.  A preset is named by ``--preset`` or else by the
file's ``preset``; a name that is not a known preset, the empty name
included, is refused.  A config that names no preset (a ``preset`` that is
``null`` or absent, and no ``--preset``) is the ``wildlife-deer`` run: the
standard hyperparameter set (eta 20, epsilon 1, phi 1, retention 500, decay
[0.5, 1], elasticity 80..1, match threshold 0.95, unbounded search, failure
decay off) with deer, the first class label, as the priority class, routed
to the first locality.
The ``walkthrough`` preset overlays a small scripted scenario.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from neuralstore.cam import CamBaseline
from neuralstore.core import (
    HIVE_PARAM_TYPES,
    ConfigurationError,
    HiveParams,
    check_fields,
)
from neuralstore.engine import (
    OP_CONTROL_TYPES,
    SEARCH_PARAM_TYPES,
    MemoryEngine,
    OpControls,
    SearchParams,
)
from neuralstore.workload import (
    CamReplayAdapter,
    Corpus,
    NsReplayAdapter,
    WorkloadSpec,
)

# the sections' dataclass defaults, but for the values set here: the
# wildlife-deer run
_BASE_PRESET = {
    "seed": 42,
    "hive": {**dataclasses.asdict(HiveParams()),
             "locality_mapping": [{"labels": ["deer"]}, {}]},
    "search": dataclasses.asdict(SearchParams()),
    "controls": dataclasses.asdict(OpControls()),
    "workload": {**{k: v for k, v in dataclasses.asdict(WorkloadSpec()).items()
                    if k != "seed"},     # comes from the top-level seed
                 "class_labels": ["deer", "background"],
                 "tail_retentions": 20},
    "compare": {
        "cap_fractions": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                          1.0, 1.1, 1.2],
        "warmup_ops": 500,
    },
    "bootstrap": [],
}


def _overlay(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _overlay(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


PRESETS: dict[str, dict] = {
    "wildlife-deer": {},
    "walkthrough": {
        "hive": {"memory_decay_rates": [10.0, 20.0],
                 "locality_mapping": [{"labels": ["wolf"]}, {}],
                 "eta": 10.0,
                 "retention_period": 1},
        "workload": {"kind": "walkthrough",
                     "n_items": 5,
                     "n_retrievals": 0,
                     "tail_retentions": 0,
                     "class_labels": ["wolf", "background"]},
        "bootstrap": [{"item_id": "w0", "cues": ["wolf"]},
                      {"item_id": "w1", "cues": ["wolf"]},
                      {"item_id": "bg", "cues": []}],
        "compare": {"warmup_ops": 0},
    },
}


@dataclass
class RunConfig:
    seed: int
    hive: HiveParams
    search: SearchParams
    controls: OpControls
    workload: WorkloadSpec
    cap_fractions: list[float]
    warmup_ops: int
    bootstrap: list[dict] = field(default_factory=list)

    def validate(self) -> None:
        self.hive.validate()
        self.search.validate()
        self.controls.validate()
        self.workload.validate()
        check_cap_fractions(self.cap_fractions, "compare.cap_fractions")
        if self.warmup_ops < 0:
            raise ConfigurationError("compare.warmup_ops must be >= 0")
        n = len(self.hive.locality_mapping)
        for i, entry in enumerate(self.bootstrap):
            if "item_id" not in entry:
                raise ConfigurationError(f"bootstrap[{i}] needs an item_id")
            cues = entry.get("cues", ())
            if len(cues) > 1:
                raise ConfigurationError(
                    f"bootstrap[{i}].cues must hold at most one label, got "
                    f"{list(cues)!r}")
            locality = entry.get("locality")
            if locality is not None and not 0 <= locality < n:
                raise ConfigurationError(
                    f"bootstrap[{i}].locality must be in [0, {n}), "
                    f"got {locality}")


def check_cap_fractions(fractions: list[float], name: str) -> None:
    """Reject cap fractions that are not finite, positive and strictly
    ascending, naming the field or option ``name`` they came from."""
    bad = [f for f in fractions if not 0.0 < f < math.inf]
    if bad:
        raise ConfigurationError(
            f"{name} must be finite and positive, got {bad[0]!r}")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ConfigurationError(
            f"{name} must be strictly ascending, got {fractions!r}")


def cap_bytes(fractions: list[float], full_bytes: int, name: str) -> list[int]:
    """The byte caps, ascending and without repeats, that ascending cap
    fractions give for a corpus of ``full_bytes`` (two fractions may round
    to one cap).  A fraction whose cap is not a finite number of bytes, or
    rounds to 0 bytes, is rejected naming the field or option ``name`` it
    came from."""
    caps = set()
    for f in fractions:
        cap = f * full_bytes
        if not cap < math.inf:
            raise ConfigurationError(
                f"{name}: {f!r} of {full_bytes} corpus bytes is not a "
                f"finite byte cap")
        cap = round(cap)
        if cap < 1:
            raise ConfigurationError(
                f"{name}: {f!r} of {full_bytes} corpus bytes rounds to a "
                f"0-byte cap")
        caps.add(cap)
    return sorted(caps)


# the declared type of every field of every config section
_SECTION_TYPES = {
    "hive": HIVE_PARAM_TYPES,
    "search": SEARCH_PARAM_TYPES,
    "controls": OP_CONTROL_TYPES,
    "workload": {k: v for k, v in typing.get_type_hints(WorkloadSpec).items()
                 if k != "seed"},
    "compare": {"cap_fractions": list[float], "warmup_ops": int},
}
_CONFIG_TYPES = {"seed": int, "bootstrap": list[dict],
                 **dict.fromkeys(_SECTION_TYPES, dict)}
_BOOTSTRAP_TYPES = {"item_id": str, "cues": list[str],
                    "locality": int | None}


def load_config(path: str | Path | None = None, preset: str | None = None,
                seed: int | None = None) -> RunConfig:
    """Build a validated RunConfig from preset + optional JSON file + seed
    override."""
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
    if preset is None:
        preset = doc.get("preset")
    if preset is None:
        preset = "wildlife-deer"
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    merged = _overlay(_overlay(_BASE_PRESET, PRESETS[preset]), doc)
    merged.pop("preset", None)

    if seed is not None:
        merged["seed"] = seed
    if merged.get("seed") is None:
        raise ConfigurationError("missing required field: seed")
    check_fields(None, merged, _CONFIG_TYPES)
    for section, hints in _SECTION_TYPES.items():
        check_fields(section, merged[section], hints)
    for i, entry in enumerate(merged["bootstrap"]):
        check_fields(f"bootstrap[{i}]", entry, _BOOTSTRAP_TYPES)

    hive = HiveParams(**merged["hive"])

    workload_kwargs = dict(merged["workload"])
    size_range = workload_kwargs.get("payload_size_range")
    if size_range is not None:
        workload_kwargs["payload_size_range"] = tuple(size_range)
    workload = WorkloadSpec(seed=merged["seed"], **workload_kwargs)

    config = RunConfig(
        seed=merged["seed"],
        hive=hive,
        search=SearchParams(**merged["search"]),
        controls=OpControls(**merged["controls"]),
        workload=workload,
        cap_fractions=list(merged["compare"]["cap_fractions"]),
        warmup_ops=merged["compare"]["warmup_ops"],
        bootstrap=list(merged["bootstrap"]),
    )
    config.validate()
    return config


def build_adapter(config: RunConfig, corpus: Corpus, engine: str = "ns",
                  capacity_bytes: int | None = None):
    """Construct a fresh replay adapter (ns or cam) for one run.

    ``capacity_bytes``, when given, overrides the config's
    ``hive.capacity_bytes`` for either engine; None keeps it."""
    params = config.hive
    if capacity_bytes is not None:
        params = dataclasses.replace(params, capacity_bytes=capacity_bytes)
        params.validate()
    if engine == "cam":
        return CamReplayAdapter(CamBaseline(capacity_bytes=params.capacity_bytes))
    if engine != "ns":
        raise ConfigurationError(f"unknown engine {engine!r}")
    ns = MemoryEngine(params, search=config.search, controls=config.controls)
    for i, entry in enumerate(config.bootstrap):
        item = corpus.by_id.get(entry["item_id"])
        if item is None:
            raise ConfigurationError(
                f"bootstrap[{i}].item_id {entry['item_id']!r} is not in the "
                f"corpus")
        cues = entry.get("cues", ())
        ns.bootstrap_store(item.data, cues[0] if cues else None,
                           locality_id=entry.get("locality"),
                           item_id=item.item_id)
    return NsReplayAdapter(ns)
