"""Joint training loop: pretrain scorers once, then alternate sampling a
pipeline, training its rankers on pseudo labels, and updating the policy
with the validation reward. Ends by retraining the best configuration and
evaluating it on the held-out test split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .controller import (
    BaselineState,
    Clamp,
    Configuration,
    ControllerParams,
    EpisodeLog,
    action_log_prob,
    greedy_decode,
    sample_configuration,
)
from .corpus import AnnotationSet, Corpus
from .embeddings import EmbeddingTable, train_text_embeddings
from .graph import build_graph
from .ioutil import canonical_json, derive_seed, stable_hash, write_json
from .metrics import all_metrics, build_eval_lists, mrr, score_lists_with_matrix
from .nncore import OptimizerState, zero_grads
from .pseudo_labels import aggregate, sample_training_pairs, top_k_labels
from .registry import SupModelRegistry, UnsupModelRegistry, compute_score_matrix
from .scores import ScoreMatrix
from .sup_rankers import (
    RankerBackbone,
    create_sup_model,
    save_checkpoint,
    score_lists_with_ensemble,
    train_supervised,
)

log = logging.getLogger(__name__)

REPORT_FORMAT_VERSION = 1


@dataclass
class RunConfig:
    """Everything a search run needs besides the data itself."""

    unsup_registry: UnsupModelRegistry
    sup_registry: SupModelRegistry
    k_values: tuple[int, ...] = (10, 20, 30, 40, 50)
    episodes: int = 200
    n_monte_carlo: int = 1  # configurations sampled per controller update
    episode_sup_epochs: int = 5
    final_sup_epochs: int = 30
    final_patience: int = 5
    early_stop_patience: int = 0  # 0 disables early stopping of the search
    controller_lr: float = 0.5
    controller_hidden: int = 32
    use_baseline: bool = True
    baseline_decay: float = 0.9
    entropy_coef: float = 0.0
    best_selection: str = "reward"  # or "greedy"
    sup_lr: float = 0.005
    sup_optimizer: str = "adam"
    sup_batch_size: int = 32
    n_neg_per_pos: int = 2
    eval_negatives: int = 99
    normalize_scores: bool = True
    backbone_dim: int = 32
    backbone_window: int = 5
    backbone_neg: int = 5
    backbone_epochs: int = 3
    backbone_lr: float = 0.05
    graph_sample_size: int = 10
    workers: int = 1  # parallel pretraining of independent scorers
    seed: int = 0
    pretrain_seed: int | None = None  # fix to share pretrained scorers,
                                      # the backbone, and eval lists across
                                      # search seeds; defaults to `seed`

    def __post_init__(self):
        if self.episodes < 1 or self.n_monte_carlo < 1:
            raise ValueError("episode budget and sample count must be >= 1")
        if self.episode_sup_epochs < 1 or self.final_sup_epochs < 1:
            raise ValueError("supervised epoch budgets must be >= 1")
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if self.best_selection not in ("reward", "greedy"):
            raise ValueError(f"unknown best_selection {self.best_selection!r}")

    @property
    def effective_pretrain_seed(self) -> int:
        return self.seed if self.pretrain_seed is None else self.pretrain_seed

    def signature(self) -> dict:
        return {
            "unsup": [(m.name, m.kind, m.params) for m in self.unsup_registry],
            "sup": [(m.name, m.kind, m.params) for m in self.sup_registry],
            "k_values": list(self.k_values),
            "seed": self.seed,
            "backbone": [self.backbone_dim, self.backbone_window, self.backbone_neg,
                         self.backbone_epochs, self.backbone_lr],
        }


@dataclass
class RunResult:
    episodes: list[EpisodeLog]
    best_config: Configuration
    best_reward: float
    best_episode: int
    validation_metrics: dict
    test_metrics: dict | None
    report: dict
    checkpoint_paths: dict = field(default_factory=dict)


def _needs_graph(config: RunConfig) -> bool:
    return any(m.kind.startswith("graph-") for m in config.unsup_registry) or any(
        m.kind == "graph-aggregation" for m in config.sup_registry
    )


def run_cache_dir(output_dir: str | Path) -> Path:
    """A run directory's pretrain cache: ``search`` reads it, ``pretrain``
    fills it."""
    return Path(output_dir) / "cache"


def cache_entry(cache_dir: str | Path | None, prefix: str, key: dict) -> Path | None:
    """Where the cache keeps one pretrained entry, ``<prefix>_<hash>.bin``.

    ``key`` must cover everything the entry depends on (corpus content,
    hyperparameters, derived seed), so a hit is bit-identical to
    recomputation. None when there is no cache.
    """
    if cache_dir is None:
        return None
    return Path(cache_dir) / f"{prefix}_{stable_hash(key)[:16]}.bin"


def _pretrain_job(args):
    spec, corpus, graph, seed = args
    try:
        return compute_score_matrix(spec, corpus, graph, seed)
    except Exception as exc:
        raise RuntimeError(f"pretraining failed for model {spec.name!r}: {exc}") from exc


def pretrain_all(
    corpus: Corpus,
    graph,
    registry: UnsupModelRegistry,
    cache_dir: str | Path | None,
    master_seed: int,
    workers: int = 1,
) -> list[ScoreMatrix]:
    """One score matrix per registered model, cache-aware.

    The cache key covers the corpus content, the model's kind and
    hyperparameters, and its derived seed, so a hit is guaranteed to be
    bit-identical to recomputation. Models are independent; with workers > 1
    the missing ones pretrain in parallel processes, which cannot change the
    results for a fixed seed.
    """
    corpus_hash = corpus.content_hash()
    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)

    plan = []
    for spec in registry:
        seed = derive_seed(master_seed, "unsup", spec.name)
        cache_path = cache_entry(cache_dir, f"unsup_{spec.name}", {
            "corpus": corpus_hash, "model": spec.name, "hp": spec.hp_hash(), "seed": seed})
        plan.append((spec, seed, cache_path))

    results: dict[str, ScoreMatrix] = {}
    missing = []
    for spec, seed, cache_path in plan:
        if cache_path is not None and cache_path.exists():
            log.info("cache hit for unsupervised model %s", spec.name)
            results[spec.name] = ScoreMatrix.load_cache(cache_path)
        else:
            missing.append((spec, corpus, graph, seed))

    if missing:
        if workers > 1 and len(missing) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                computed = list(pool.map(_pretrain_job, missing))
        else:
            computed = [_pretrain_job(job) for job in missing]
        for (spec, _, _, _), matrix in zip(missing, computed):
            results[spec.name] = matrix

    matrices = []
    for spec, seed, cache_path in plan:
        matrix = results[spec.name]
        if matrix.query_ids != tuple(corpus.query_ids) or matrix.candidate_ids != tuple(
            corpus.candidate_ids
        ):
            raise RuntimeError(f"model {spec.name!r} produced a mismatched score matrix")
        if cache_path is not None and not cache_path.exists():
            matrix.save_cache(cache_path)
            matrix.save_csv(cache_path.with_suffix(".csv"))
        matrices.append(matrix)
    return matrices


def build_backbone(corpus: Corpus, graph, config: RunConfig,
                   cache_dir: str | Path | None = None) -> RankerBackbone:
    """Train (or load) the frozen word embeddings shared by all rankers."""
    seed = derive_seed(config.effective_pretrain_seed, "backbone")
    table = None
    cache_path = cache_entry(cache_dir, "backbone", {
        "corpus": corpus.content_hash(), "seed": seed,
        "hp": [config.backbone_dim, config.backbone_window, config.backbone_neg,
               config.backbone_epochs, config.backbone_lr],
    })
    if cache_path is not None and cache_path.exists():
        log.info("cache hit for embedding backbone")
        table = EmbeddingTable.load(cache_path)
    if table is None:
        table = train_text_embeddings(
            corpus, dim=config.backbone_dim, window=config.backbone_window,
            neg=config.backbone_neg, epochs=config.backbone_epochs,
            lr=config.backbone_lr, seed=seed,
        )
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            table.save(cache_path)
    return backbone_from_table(corpus, table, graph, config)


def pretrain(corpus: Corpus, config: RunConfig, cache_dir: str | Path | None):
    """Everything a search trains before its first episode: the graph (when a
    model needs it), every scorer's score matrix and the rankers' backbone,
    all seeded from the effective pretrain seed. Returns (matrices,
    backbone). ``weakrank pretrain`` runs exactly this into the cache a
    later search reads."""
    graph = build_graph(corpus) if _needs_graph(config) else None
    matrices = pretrain_all(corpus, graph, config.unsup_registry, cache_dir,
                            config.effective_pretrain_seed, workers=config.workers)
    return matrices, build_backbone(corpus, graph, config, cache_dir)


def backbone_from_table(corpus: Corpus, table: EmbeddingTable, graph,
                        config: RunConfig) -> RankerBackbone:
    """The rankers' backbone over a trained table. Search and ``score`` both
    build it here, so the graph ranker's neighbour sample comes from the
    same seed in both."""
    return RankerBackbone(
        corpus, table, graph=graph,
        graph_sample_size=config.graph_sample_size,
        graph_seed=derive_seed(config.effective_pretrain_seed, "backbone-graph"),
    )


def _config_signature(config: Configuration) -> str:
    return canonical_json(config.to_dict())


def _train_selected_models(
    mask, labels_k: int, agg, backbone, config: RunConfig, epochs: int,
    seed_label: str, eval_fn_builder=None, patience: int = 0,
):
    """Train the rankers a mask selects on the top-k pseudo labels of ``agg``."""
    labels = top_k_labels(agg, labels_k)
    sig = seed_label
    triples = sample_training_pairs(
        labels, config.n_neg_per_pos, seed=derive_seed(config.seed, "pairs", sig)
    )
    models = []
    opt_states = []
    for selected, spec in zip(mask, config.sup_registry):
        if not selected:
            continue
        model_seed = derive_seed(config.seed, "sup-init", spec.name, sig)
        model = create_sup_model(spec, backbone, model_seed)
        opt = OptimizerState(config.sup_optimizer, lr=spec.params.get("lr", config.sup_lr))
        train_supervised(
            model, triples,
            epochs=epochs,
            lr=opt.lr,
            seed=derive_seed(config.seed, "sup-train", spec.name, sig),
            batch_size=config.sup_batch_size,
            eval_fn=None if eval_fn_builder is None else eval_fn_builder(spec),
            patience=patience,
            optimizer_state=opt,
        )
        models.append(model)
        opt_states.append(opt)
    return models, opt_states


def run_episode(
    matrices: list[ScoreMatrix],
    controller: ControllerParams,
    backbone: RankerBackbone,
    val_lists,
    config: RunConfig,
    episode: int,
    sample_rng: np.random.Generator,
    clamp: Clamp | None = None,
    baseline_value: float = 0.0,
    reward_cache: dict | None = None,
) -> EpisodeLog:
    """Sample a configuration, train its rankers, and score it on validation.

    Rewards are a deterministic function of the sampled configuration (all
    seeds derive from it), so identical configurations earn identical
    rewards; ``reward_cache`` may exploit that.
    """
    cfg, log_prob = sample_configuration(controller, sample_rng, config.k_values, clamp=clamp)
    sig = _config_signature(cfg)
    if reward_cache is not None and sig in reward_cache:
        r_unsup, r_sup = reward_cache[sig]
    else:
        agg = aggregate(matrices, cfg.unsup_mask, normalize=config.normalize_scores)
        r_unsup = mrr(val_lists, score_lists_with_matrix(val_lists, agg))
        models, _ = _train_selected_models(
            cfg.sup_mask, cfg.k_value, agg, backbone, config,
            epochs=config.episode_sup_epochs, seed_label=sig,
        )
        r_sup = mrr(val_lists, score_lists_with_ensemble(val_lists, models))
        if reward_cache is not None:
            reward_cache[sig] = (r_unsup, r_sup)
    reward = r_unsup + r_sup
    if not 0.0 <= reward <= 2.0:
        raise RuntimeError(f"episode reward {reward} outside [0, 2]")
    return EpisodeLog(episode, cfg, log_prob, r_unsup, r_sup, reward, baseline_value)


def joint_train(
    corpus: Corpus,
    val_annotations: AnnotationSet,
    test_annotations: AnnotationSet | None,
    config: RunConfig,
    workdir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    clamp: Clamp | None = None,
) -> RunResult:
    """The full search: pretrain, episode loop, best-config retrain, test eval.

    Test annotations influence nothing until the final evaluation; passing
    None (or an empty set) skips it and leaves the test block of the report
    null.
    """
    if not val_annotations.pairs:
        raise ValueError("validation annotation split is empty")
    val_annotations.validate_against(corpus)
    if test_annotations is not None and test_annotations.pairs:
        test_annotations.validate_against(corpus)
        overlap = set(val_annotations.query_ids) & set(test_annotations.query_ids)
        if overlap:
            raise ValueError(f"validation and test splits share queries: {sorted(overlap)[:5]}")
    n_cand = len(corpus.candidates)
    for k in config.k_values:
        if not 1 <= k < n_cand:
            raise ValueError(f"k value {k} out of range for {n_cand} candidates")

    workdir = Path(workdir) if workdir is not None else None
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
        if cache_dir is None:
            cache_dir = run_cache_dir(workdir)

    matrices, backbone = pretrain(corpus, config, cache_dir)
    val_lists = build_eval_lists(
        val_annotations, corpus,
        seed=derive_seed(config.effective_pretrain_seed, "val-lists"),
        n_negatives=config.eval_negatives,
    )

    controller = ControllerParams(
        len(config.unsup_registry), len(config.k_values), len(config.sup_registry),
        hidden=config.controller_hidden, seed=derive_seed(config.seed, "controller"),
    )
    baseline = BaselineState(decay=config.baseline_decay)
    reward_cache: dict = {}
    episodes: list[EpisodeLog] = []
    episodes_path = workdir / "episodes.jsonl" if workdir is not None else None
    if episodes_path is not None:
        episodes_path.write_text("")

    best_entry: EpisodeLog | None = None
    stale = 0
    for ep in range(config.episodes):
        sample_rng = np.random.default_rng(derive_seed(config.seed, "episode", ep))
        batch: list[EpisodeLog] = []
        for mc in range(config.n_monte_carlo):
            entry = run_episode(
                matrices, controller, backbone, val_lists, config,
                episode=ep, sample_rng=sample_rng, clamp=clamp,
                baseline_value=baseline.value if baseline.value is not None else 0.0,
                reward_cache=reward_cache,
            )
            batch.append(entry)

        mean_reward = float(np.mean([e.reward for e in batch]))
        if config.use_baseline and baseline.value is None:
            baseline.value = mean_reward
        b = baseline.value if config.use_baseline else 0.0
        for entry in batch:
            entry.baseline = b
        tensors = controller.tensors()
        zero_grads(tensors)
        for entry in batch:
            action_log_prob(
                controller, entry.config, clamp=clamp,
                grad_scale=(entry.reward - b) / config.n_monte_carlo,
                entropy_scale=config.entropy_coef / config.n_monte_carlo,
            )
        for p in tensors:
            if not np.all(np.isfinite(p.grad)):
                raise RuntimeError(f"non-finite controller gradient in {p.name!r}")
            p.value += config.controller_lr * p.grad
        if config.use_baseline:
            baseline.update(mean_reward)

        for entry in batch:
            episodes.append(entry)
            if episodes_path is not None:
                with open(episodes_path, "a", encoding="utf-8") as fh:
                    fh.write(canonical_json(entry.to_dict()) + "\n")
            if best_entry is None or entry.reward > best_entry.reward:
                best_entry = entry
                stale = 0
            else:
                stale += 1
        if config.early_stop_patience and stale >= config.early_stop_patience:
            log.info("search early-stopped after %d episodes", ep + 1)
            break

    assert best_entry is not None
    if config.best_selection == "greedy":
        best_config = greedy_decode(controller, config.k_values, clamp=clamp)
    else:
        best_config = best_entry.config

    # final retrain of the winning configuration at the larger budget
    agg = aggregate(matrices, best_config.unsup_mask, normalize=config.normalize_scores)

    def eval_fn_builder(spec):
        def eval_fn(model):
            return mrr(val_lists, score_lists_with_ensemble(val_lists, [model]))

        return eval_fn

    final_models, final_opts = _train_selected_models(
        best_config.sup_mask, best_config.k_value, agg, backbone, config,
        epochs=config.final_sup_epochs, seed_label="final:" + _config_signature(best_config),
        eval_fn_builder=eval_fn_builder, patience=config.final_patience,
    )

    validation_metrics = all_metrics(val_lists, score_lists_with_ensemble(val_lists, final_models))
    test_metrics = None
    if test_annotations is not None and test_annotations.pairs:
        test_lists = build_eval_lists(
            test_annotations, corpus,
            seed=derive_seed(config.effective_pretrain_seed, "test-lists"),
            n_negatives=config.eval_negatives,
        )
        test_metrics = all_metrics(test_lists, score_lists_with_ensemble(test_lists, final_models))

    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "best_config": best_config.to_dict(),
        "best_reward": best_entry.reward,
        "best_episode": best_entry.episode,
        "episodes_run": len(episodes),
        "validation": validation_metrics,
        "test": test_metrics,
    }

    checkpoint_paths = {}
    if workdir is not None:
        write_json(workdir / "best_config.json", best_config.to_dict())
        ckpt_dir = workdir / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        backbone.raw_table.save(ckpt_dir / "backbone.bin")
        config_hash = stable_hash(config.signature())
        for model, opt in zip(final_models, final_opts):
            path = ckpt_dir / f"{model.spec.name}.ckpt"
            save_checkpoint(model, path, config_hash=config_hash, optimizer_state=opt)
            checkpoint_paths[model.spec.name] = str(path)
        write_json(workdir / "report.json", report)

    return RunResult(
        episodes, best_config, best_entry.reward, best_entry.episode,
        validation_metrics, test_metrics, report, checkpoint_paths,
    )


def _mask_for(registry, fixed) -> tuple[int, ...]:
    """Normalize a fixed choice into a mask.

    Accepts a single model name, a single index, a list of names, or a full
    0/1 mask whose length matches the registry.
    """
    if isinstance(fixed, str):
        fixed = [fixed]
    elif isinstance(fixed, int):
        fixed = [fixed]
    fixed = list(fixed)
    mask = [0] * len(registry)
    if all(isinstance(v, str) for v in fixed):
        for name in fixed:
            mask[registry.index_of(name)] = 1
    elif len(fixed) == len(registry) and set(fixed) <= {0, 1}:
        mask = [int(v) for v in fixed]
    elif len(fixed) == 1:
        mask[int(fixed[0])] = 1
    else:
        raise ValueError(
            "fixed choice must be a name, an index, a list of names, or a full 0/1 mask"
        )
    if sum(mask) < 1:
        raise ValueError("fixed choice selects no models")
    return tuple(mask)


def clamp_for_ablation(mode: str, fixed, config: RunConfig) -> Clamp:
    if mode == "fix-unsup":
        return Clamp(unsup_mask=_mask_for(config.unsup_registry, fixed))
    if mode == "fix-k":
        k = int(fixed)
        if k not in config.k_values:
            raise ValueError(f"fixed k {k} not in k_values {config.k_values}")
        return Clamp(k_index=config.k_values.index(k))
    if mode == "fix-sup":
        return Clamp(sup_mask=_mask_for(config.sup_registry, fixed))
    raise ValueError(f"unknown ablation mode {mode!r}")


def ablation_run(
    corpus: Corpus,
    val_annotations: AnnotationSet,
    test_annotations: AnnotationSet | None,
    mode: str,
    fixed,
    config: RunConfig,
    workdir: str | Path | None = None,
    cache_dir: str | Path | None = None,
) -> RunResult:
    """Search with one controller step clamped to a fixed choice."""
    clamp = clamp_for_ablation(mode, fixed, config)
    return joint_train(
        corpus, val_annotations, test_annotations, config,
        workdir=workdir, cache_dir=cache_dir, clamp=clamp,
    )


def sweep_k(
    corpus: Corpus,
    val_annotations: AnnotationSet,
    test_annotations: AnnotationSet | None,
    config: RunConfig,
    workdir: str | Path | None = None,
    cache_dir: str | Path | None = None,
) -> dict[int, RunResult]:
    """fix-k ablation run for every k in the grid."""
    results = {}
    for k in config.k_values:
        sub = Path(workdir) / f"k_{k}" if workdir is not None else None
        results[k] = ablation_run(
            corpus, val_annotations, test_annotations, "fix-k", k, config,
            workdir=sub, cache_dir=cache_dir,
        )
    return results
