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

from .ioutil import stable_hash
from .registry import (
    SUP_KINDS,
    UNSUP_KINDS,
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
)
from .trainer import RunConfig


@dataclass
class ExperimentConfig:
    # --- paths -------------------------------------------------------------
    corpus: str = ""                 # corpus container (from `ingest` or `gen-synth`)
    documents: str = ""              # raw documents JSONL (input to `ingest`)
    annotations: str = ""            # full annotation TSV, split internally
    val_annotations: str = ""        # pre-split validation TSV (overrides `annotations`)
    test_annotations: str = ""       # pre-split test TSV
    output_dir: str = ""             # run directory
    external_scores: str = ""        # extra scorers: "name=path.csv,name2=path2.csv"

    # --- corpus limits -----------------------------------------------------
    max_query_len: int = 100
    max_candidate_len: int = 200

    # --- registries ----------------------------------------------------------
    unsup_models: str = ("bm25,text-embedding,graph-walk,graph-biased-walk,"
                         "graph-proximity-1,graph-proximity-2,graph-aggregation")
    sup_models: str = "representation,interaction,graph-aggregation"

    # --- search ------------------------------------------------------------
    k_values: str = "10,20,30,40,50"
    episodes: int = 200
    n_monte_carlo: int = 1
    episode_sup_epochs: int = 5
    final_sup_epochs: int = 30
    final_patience: int = 5
    early_stop_patience: int = 0     # 0 = run the full episode budget
    controller_lr: float = 0.5
    controller_hidden: int = 32
    use_baseline: bool = True
    baseline_decay: float = 0.9
    entropy_coef: float = 0.0
    best_selection: str = "reward"   # or "greedy"

    # --- supervised training -------------------------------------------------
    sup_lr: float = 0.005
    sup_optimizer: str = "adam"
    sup_batch_size: int = 32
    n_neg_per_pos: int = 2

    # --- evaluation ----------------------------------------------------------
    eval_negatives: int = 99
    normalize_scores: bool = True          # per-query min-max before averaging
    kernel_negative_exponent: bool = True  # standard RBF form; False reproduces
                                           # the unbounded printed variant

    # --- shared embedding backbone -------------------------------------------
    backbone_dim: int = 32
    backbone_window: int = 5
    backbone_neg: int = 5
    backbone_epochs: int = 3
    backbone_lr: float = 0.05
    graph_sample_size: int = 10

    # --- misc ----------------------------------------------------------------
    split_seed: int = 0
    seed: int = 0
    pretrain_seed: int = -1  # -1 follows `seed`; set to share pretrained
                             # scorers and eval lists across search seeds
    workers: int = 0                 # pretraining processes; 0 = one per available CPU
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
        ftype = schema[key].type
        if ftype in ("int", int):
            value = int(raw)
        elif ftype in ("float", float):
            value = float(raw)
        elif ftype in ("bool", bool):
            value = _parse_bool(raw)
        else:
            value = raw
        setattr(self, key, value)

    @classmethod
    def from_file(cls, path: str | Path, overrides: list[str] | None = None) -> "ExperimentConfig":
        config = cls()
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            config.set_key(key.strip(), raw.strip())
        for item in overrides or []:
            key, _, raw = item.partition("=")
            config.set_key(key.strip(), raw.strip())
        return config

    def save(self, path: str | Path) -> None:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name == "hp":
                continue
            lines.append(f"{f.name}={getattr(self, f.name)}")
        for model in sorted(self.hp):
            for key in sorted(self.hp[model]):
                lines.append(f"hp.{model}.{key}={json.dumps(self.hp[model][key])}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def content_hash(self) -> str:
        return stable_hash(asdict(self))

    # -------------------------------------------------------------------------

    def k_values_tuple(self) -> tuple[int, ...]:
        values = tuple(int(v) for v in self.k_values.split(",") if v.strip())
        if not values:
            raise ValueError("k_values is empty")
        return values

    def build_unsup_registry(self) -> UnsupModelRegistry:
        specs = []
        for name in _split_names(self.unsup_models):
            if name not in UNSUP_KINDS or name == "external":
                raise ValueError(f"unknown unsupervised model {name!r}")
            specs.append(UnsupModelSpec(name, name, dict(self.hp.get(name, {}))))
        for entry in _split_names(self.external_scores):
            name, _, path = entry.partition("=")
            if not name or not path:
                raise ValueError(f"external_scores entries look like name=path: {entry!r}")
            specs.append(UnsupModelSpec(name, "external", {"path": path}))
        return UnsupModelRegistry(specs)

    def build_sup_registry(self) -> SupModelRegistry:
        specs = []
        for name in _split_names(self.sup_models):
            if name not in SUP_KINDS:
                raise ValueError(f"unknown supervised model {name!r}")
            params = dict(self.hp.get(name, {}))
            if name == "interaction":
                params.setdefault("negative_exponent", self.kernel_negative_exponent)
            specs.append(SupModelSpec(name, name, params))
        return SupModelRegistry(specs)

    def to_run_config(self) -> RunConfig:
        return RunConfig(
            unsup_registry=self.build_unsup_registry(),
            sup_registry=self.build_sup_registry(),
            k_values=self.k_values_tuple(),
            episodes=self.episodes,
            n_monte_carlo=self.n_monte_carlo,
            episode_sup_epochs=self.episode_sup_epochs,
            final_sup_epochs=self.final_sup_epochs,
            final_patience=self.final_patience,
            early_stop_patience=self.early_stop_patience,
            controller_lr=self.controller_lr,
            controller_hidden=self.controller_hidden,
            use_baseline=self.use_baseline,
            baseline_decay=self.baseline_decay,
            entropy_coef=self.entropy_coef,
            best_selection=self.best_selection,
            sup_lr=self.sup_lr,
            sup_optimizer=self.sup_optimizer,
            sup_batch_size=self.sup_batch_size,
            n_neg_per_pos=self.n_neg_per_pos,
            eval_negatives=self.eval_negatives,
            normalize_scores=self.normalize_scores,
            backbone_dim=self.backbone_dim,
            backbone_window=self.backbone_window,
            backbone_neg=self.backbone_neg,
            backbone_epochs=self.backbone_epochs,
            backbone_lr=self.backbone_lr,
            graph_sample_size=self.graph_sample_size,
            workers=self.workers,
            seed=self.seed,
            pretrain_seed=None if self.pretrain_seed < 0 else self.pretrain_seed,
        )


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
