"""Experiment configuration: plain key=value files with typed defaults.

Every field has a documented default; unknown keys are rejected. Registry
hyperparameters ride along under an ``hp.<model>.<key>`` prefix, e.g.
``hp.graph-walk.walk_len=60``. A serialized copy of the effective
configuration lands in every run directory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .ioutil import atomic_write, stable_hash
from .registry import (
    HYPERPARAMETERS,
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
    check_config,
    setting,
)
from .trainer import RunConfig, SearchSettings


@dataclass
class ExperimentConfig(SearchSettings):
    """A configuration file's keys: the search settings plus paths, corpus
    limits, the model menus and their hyperparameters."""

    # --- paths -------------------------------------------------------------
    corpus: str = ""                 # corpus container (from `ingest` or `gen-synth`)
    documents: str = ""              # raw documents JSONL (input to `ingest`)
    annotations: str = ""            # full annotation TSV, split internally
    val_annotations: str = ""        # pre-split validation TSV (overrides `annotations`)
    test_annotations: str = ""       # pre-split test TSV
    output_dir: str = ""             # run directory
    external_scores: str = ""        # extra scorers: "name=path.csv,name2=path2.csv"

    # --- corpus limits -----------------------------------------------------
    max_query_len: int = setting(100, low=1)
    max_candidate_len: int = setting(200, low=1)

    # --- the menus the search chooses from -----------------------------------
    unsup_models: str = ("bm25,text-embedding,graph-walk,graph-biased-walk,"
                         "graph-proximity-1,graph-proximity-2,graph-aggregation")
    sup_models: str = "representation,interaction,graph-aggregation"
    k_values: str = "10,20,30,40,50"

    # --- misc ----------------------------------------------------------------
    split_seed: int = setting(0, low=0)
    hp: dict = field(default_factory=dict)  # {model name: {hyperparameter: value}}

    # -------------------------------------------------------------------------

    def set_key(self, key: str, raw: str) -> None:
        if key.startswith("hp."):
            parts = key.split(".", 2)
            if len(parts) != 3 or not parts[1] or not parts[2]:
                raise ValueError(f"hyperparameter key must look like hp.<model>.<name>: {key!r}")
            self.hp.setdefault(parts[1], {})[parts[2]] = _parse_literal(raw)
            return
        schema = {f.name: f for f in fields(self)}
        if key not in schema or key == "hp":
            raise ValueError(f"unknown configuration key {key!r}")
        # every module declaring fields postpones annotations: types are names
        parse, noun = {"int": (int, "an integer"), "float": (float, "a number"),
                       "bool": (_parse_bool, "a boolean")}.get(schema[key].type, (str, ""))
        try:
            setattr(self, key, parse(raw))
        except ValueError:
            raise ValueError(f"{key} must be {noun}, not {raw!r}") from None

    @classmethod
    def from_file(cls, path: str | Path | None,
                  overrides: list[str] | None = None) -> "ExperimentConfig":
        """The defaults, then ``path``'s keys (when given), then each
        ``key=value`` override in turn, checked before it is returned."""
        config = cls()
        text = Path(path).read_text(encoding="utf-8") if path else ""
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            _set_item(config, stripped, f"{path}:{lineno}")
        for item in overrides or []:
            _set_item(config, item, "--set")
        built_in = {kind for kinds in HYPERPARAMETERS.values() for kind in kinds} - {"external"}
        externals = {entry.partition("=")[0] for entry in _split_names(config.external_scores)}
        check_config(config, [(name, name if name in built_in else "external" if name in externals
                               else None, params) for name, params in config.hp.items()])
        return config

    def save(self, path: str | Path) -> None:
        lines = [f"{f.name}={getattr(self, f.name)}"
                 for f in sorted(fields(self), key=lambda f: f.name) if f.name != "hp"]
        lines += [f"hp.{model}.{key}={json.dumps(value)}"
                  for model in sorted(self.hp) for key, value in sorted(self.hp[model].items())]
        with atomic_write(path) as fh:
            fh.write("\n".join(lines) + "\n")

    def content_hash(self) -> str:
        return stable_hash(asdict(self))

    # -------------------------------------------------------------------------

    def build_unsup_registry(self) -> UnsupModelRegistry:
        specs = []
        for name in _split_names(self.unsup_models):
            if name == "external":
                raise ValueError("unknown unsupervised model 'external' (see external_scores)")
            specs.append(UnsupModelSpec(name, name, dict(self.hp.get(name, {}))))
        for entry in _split_names(self.external_scores):
            name, _, path = entry.partition("=")
            if not name or not path:
                raise ValueError(f"external_scores entries look like name=path: {entry!r}")
            specs.append(UnsupModelSpec(name, "external", {"path": path}))
        return UnsupModelRegistry(specs)

    def build_sup_registry(self) -> SupModelRegistry:
        return SupModelRegistry([SupModelSpec(name, name, dict(self.hp.get(name, {})))
                                 for name in _split_names(self.sup_models)])

    def to_run_config(self) -> RunConfig:
        """The run's settings and menus."""
        return RunConfig(
            unsup_registry=self.build_unsup_registry(),
            sup_registry=self.build_sup_registry(),
            k_values=tuple(int(k) for k in _split_names(self.k_values)),
            **{f.name: getattr(self, f.name) for f in fields(SearchSettings)},
        )


def _set_item(config: ExperimentConfig, item: str, where: str) -> None:
    """Set the ``key=value`` ``item`` on ``config``; an error names ``where``."""
    if "=" not in item:
        raise ValueError(f"{where}: expected key=value, got {item!r}")
    key, _, raw = item.partition("=")
    try:
        config.set_key(key.strip(), raw.strip())
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_literal(raw: str):
    """Best-effort typed parse for hyperparameter values."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _split_names(csv: str) -> list[str]:
    return [tok.strip() for tok in csv.split(",") if tok.strip()]
