"""Run configuration: JSON config files, scenario presets, engine builders.

A run is fully described by one JSON document with these sections::

    {
      "preset": "default",          // optional; base values to overlay
      "seed": 42,                   // required; drives corpus/trace/replay
      "engine": "ns",               // ns | cam (default engine for `run`)
      "hive": { ... },              // hive hyperparameters (see HiveParams)
      "search": {"assoc_thresh": 0.0, "match_thresh": 0.95},
      "controls": {"search_limit": null, "update_order": true,
                   "weaken_on_fail": false},
      "cam": {"policy": "fifo", "key_by_label": false},
      "workload": { ... },          // corpus/trace parameters (see WorkloadSpec)
      "compare": {"cap_fractions": [0.1, ..., 1.2], "warmup_ops": 500},
      "bootstrap": [{"item_id": "w0", "cues": ["wolf"]}, ...]  // pre-seeded state
    }

Unknown keys anywhere are rejected, every value must have the type its
field declares (an int passes for a float, a bool for nothing but a bool),
and every section is validated against its owning module's invariants
before an engine is built.  Presets bundle
the standard hyperparameter set (eta 20, epsilon 1, phi 1, retention 500,
decay [0.5, 1], elasticity 80..1, match threshold 0.95, unbounded search,
order updates on, failure decay off) with scenario-specific locality
mappings and workloads.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from neuralstore.cam import CamBaseline
from neuralstore.core import (
    HIVE_PARAM_TYPES,
    ConfigurationError,
    HiveParams,
    fits_type,
    type_name,
)
from neuralstore.engine import MemoryEngine, OpControls, SearchParams
from neuralstore.workload import (
    CamReplayAdapter,
    Corpus,
    NsReplayAdapter,
    WorkloadSpec,
)

_BASE_PRESET = {
    "seed": 42,
    "engine": "ns",
    "hive": {
        "num_localities": 2,
        "memory_decay_rates": [0.5, 1.0],
        "association_decay_rates": [0.0, 0.0],
        "locality_mapping": [{"labels": ["class-0"]}, {}],
        "matching_metric": "cosine",
        "elasticity_schedules": [[80, 70, 60, 50, 40, 30, 20, 10, 1],
                                 [80, 70, 60, 50, 40, 30, 20, 10, 1]],
        "eta": 20.0,
        "epsilon": 1.0,
        "phi": 1.0,
        "retention_period": 500,
        "codec": "truncate",
        "extractor": "histogram",
        "feature_dim": 64,
        "extractor_seed": 7,
        "full_graph": False,
        "elasticity_mode": "ceiling",
        "strength_quality_map": "identity",
        "capacity_bytes": None,
    },
    "search": {"assoc_thresh": 0.0, "match_thresh": 0.95},
    "controls": {"search_limit": None, "update_order": True,
                 "weaken_on_fail": False},
    "cam": {"policy": "fifo", "key_by_label": False},
    "workload": {
        "kind": "clustered",
        "n_items": 200,
        "n_classes": 2,
        "class_labels": None,
        "priority_class": None,
        "priority_bias": 0.9,
        "n_retrievals": 5000,
        "payload_size_range": [1024, 4096],
        "items_per_cluster": 10,
        "use_fine_cue": True,
        "tail_retentions": 20,
        "tail_retention_window": 1,
    },
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
    "default": {},
    "wildlife-deer": {
        "hive": {"locality_mapping": [{"labels": ["deer"]}, {}]},
        "workload": {"class_labels": ["deer", "background"],
                     "priority_class": "deer"},
    },
    "wildlife-wolf": {
        "hive": {"locality_mapping": [{"labels": ["wolf", "fox"]}, {}]},
        "workload": {"class_labels": ["wolf", "background"],
                     "priority_class": "wolf"},
    },
    "uav-cars": {
        "hive": {"locality_mapping": [{"labels": ["car"]}, {}]},
        "workload": {"class_labels": ["car", "background"],
                     "priority_class": "car"},
    },
    "walkthrough": {
        "hive": {"memory_decay_rates": [10.0, 20.0],
                 "locality_mapping": [{"labels": ["wolf"]}, {}],
                 "eta": 10.0,
                 "retention_period": 1},
        "workload": {"kind": "walkthrough",
                     "n_items": 5,
                     "n_retrievals": 0,
                     "tail_retentions": 0,
                     "class_labels": ["wolf", "background"],
                     "priority_class": "wolf"},
        "bootstrap": [{"item_id": "w0", "cues": ["wolf"]},
                      {"item_id": "w1", "cues": ["wolf"]},
                      {"item_id": "bg", "cues": []}],
        "compare": {"warmup_ops": 0},
    },
}


@dataclass
class RunConfig:
    seed: int
    engine: str
    hive: HiveParams
    search: SearchParams
    controls: OpControls
    cam_policy: str
    cam_key_by_label: bool
    workload: WorkloadSpec
    cap_fractions: list[float]
    warmup_ops: int
    bootstrap: list[dict] = field(default_factory=list)
    preset: str = "default"

    def validate(self) -> None:
        if self.engine not in ("ns", "cam"):
            raise ConfigurationError(f"engine must be 'ns' or 'cam', got {self.engine!r}")
        self.hive.validate()
        self.search.validate()
        self.controls.validate()
        self.workload.validate()
        if self.cam_policy not in ("fifo", "lru"):
            raise ConfigurationError(f"unknown cam policy {self.cam_policy!r}")
        if any(f <= 0 for f in self.cap_fractions):
            raise ConfigurationError("cap_fractions must be positive")
        if any(b <= a for a, b in zip(self.cap_fractions, self.cap_fractions[1:])):
            raise ConfigurationError("cap_fractions must be strictly ascending")
        if self.warmup_ops < 0:
            raise ConfigurationError("warmup_ops must be >= 0")
        for entry in self.bootstrap:
            if "item_id" not in entry:
                raise ConfigurationError("bootstrap entries need an item_id")


def _check_keys(section: str, given: dict, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")


def _check_fields(section: str | None, given: dict, hints: dict) -> None:
    """Reject keys without a type hint and values that do not fit theirs."""
    _check_keys(section or "config", given, hints)
    for key, value in given.items():
        if not fits_type(value, hints[key]):
            name = key if section is None else f"{section}.{key}"
            raise ConfigurationError(
                f"{name} must be {type_name(hints[key])}, got {value!r}")


# the declared type of every field of every config section
_SECTION_TYPES = {
    "hive": HIVE_PARAM_TYPES,
    "search": typing.get_type_hints(SearchParams),
    "controls": typing.get_type_hints(OpControls),
    "cam": {"policy": str, "key_by_label": bool},
    "workload": {k: v for k, v in typing.get_type_hints(WorkloadSpec).items()
                 if k != "seed"},
    "compare": {"cap_fractions": list[float], "warmup_ops": int},
}
_CONFIG_TYPES = {"seed": int, "engine": str, "bootstrap": list[dict],
                 **dict.fromkeys(_SECTION_TYPES, dict)}
_MAPPING_TYPES = {"labels": list[str], "centroid": list[float],
                  "min_similarity": float}
_BOOTSTRAP_TYPES = {"item_id": str, "cues": list[str | list[float]],
                    "locality": int | None}


def load_config(path: str | Path | None = None, preset: str | None = None,
                seed: int | None = None, engine: str | None = None,
                capacity_bytes: int | None | str = "unset") -> RunConfig:
    """Build a validated RunConfig from preset + optional JSON file + overrides."""
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
    preset_name = preset or doc.get("preset") or "default"
    if preset_name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset_name!r}; known: {sorted(PRESETS)}")
    merged = _overlay(_overlay(_BASE_PRESET, PRESETS[preset_name]), doc)
    merged.pop("preset", None)

    if seed is not None:
        merged["seed"] = seed
    if merged.get("seed") is None:
        raise ConfigurationError("missing required field: seed")
    if engine is not None:
        merged["engine"] = engine
    _check_fields(None, merged, _CONFIG_TYPES)
    if capacity_bytes != "unset":
        merged["hive"]["capacity_bytes"] = capacity_bytes
    for section, hints in _SECTION_TYPES.items():
        _check_fields(section, merged[section], hints)
    for i, mapping in enumerate(merged["hive"]["locality_mapping"]):
        _check_fields(f"hive.locality_mapping[{i}]", mapping, _MAPPING_TYPES)
    for i, entry in enumerate(merged["bootstrap"]):
        _check_fields(f"bootstrap[{i}]", entry, _BOOTSTRAP_TYPES)

    hive_kwargs = dict(merged["hive"])
    schedules = hive_kwargs.get("elasticity_schedules")
    if schedules is not None:
        hive_kwargs["elasticity_schedules"] = [list(s) for s in schedules]
    hive = HiveParams(**hive_kwargs)

    workload_kwargs = dict(merged["workload"])
    size_range = workload_kwargs.get("payload_size_range")
    if size_range is not None:
        workload_kwargs["payload_size_range"] = tuple(size_range)
    workload = WorkloadSpec(seed=merged["seed"], **workload_kwargs)

    config = RunConfig(
        seed=merged["seed"],
        engine=merged["engine"],
        hive=hive,
        search=SearchParams(**merged["search"]),
        controls=OpControls(**merged["controls"]),
        cam_policy=merged["cam"]["policy"],
        cam_key_by_label=merged["cam"]["key_by_label"],
        workload=workload,
        cap_fractions=list(merged["compare"]["cap_fractions"]),
        warmup_ops=merged["compare"]["warmup_ops"],
        bootstrap=list(merged["bootstrap"]),
        preset=preset_name,
    )
    config.validate()
    return config


def build_adapter(config: RunConfig, corpus: Corpus, engine: str | None = None,
                  capacity_bytes: int | None | str = "unset"):
    """Construct a fresh replay adapter (ns or cam) for one run."""
    engine = engine or config.engine
    cap = config.hive.capacity_bytes if capacity_bytes == "unset" else capacity_bytes
    if engine == "cam":
        cam = CamBaseline(capacity_bytes=cap, policy=config.cam_policy)
        return CamReplayAdapter(cam, key_by_label=config.cam_key_by_label)
    if engine != "ns":
        raise ConfigurationError(f"unknown engine {engine!r}")
    params = dataclasses.replace(config.hive, capacity_bytes=cap)
    ns = MemoryEngine(params, search=config.search, controls=config.controls)
    for entry in config.bootstrap:
        item = corpus.get(entry["item_id"])
        ns.bootstrap_store(item.data, list(entry.get("cues", ())),
                           locality_id=entry.get("locality"),
                           item_id=item.item_id)
    return NsReplayAdapter(ns)
