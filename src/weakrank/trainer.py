"""Joint training loop: pretrain scorers once, then alternate sampling a
pipeline, training its rankers on pseudo labels, and updating the policy
with the validation reward. Ends by retraining the best configuration and
evaluating it on the held-out test split.
"""

from __future__ import annotations

import logging
import os
import pickle
import traceback
from collections.abc import Callable, Sequence
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
from .metrics import (
    all_metrics,
    build_eval_lists,
    check_eval_lists,
    mrr,
    score_lists_with_matrix,
)
from .nncore import OptimizerState, zero_grads
from .pseudo_labels import aggregate, sample_training_pairs, top_k_labels
from .registry import SupModelRegistry, UnsupModelRegistry, compute_score_matrix, needs_graph
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
class SearchSettings:
    """The search's plain-valued settings, each declared once with its
    default. ``RunConfig`` adds the built registries and k grid;
    ``ExperimentConfig`` adds what a configuration file names."""

    # --- search ------------------------------------------------------------
    episodes: int = 200
    n_monte_carlo: int = 1           # configurations sampled per controller update
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
    normalize_scores: bool = True    # per-query min-max before averaging

    # --- shared embedding backbone -------------------------------------------
    backbone_dim: int = 32
    backbone_window: int = 5
    backbone_neg: int = 5
    backbone_epochs: int = 3
    backbone_lr: float = 0.05
    graph_sample_size: int = 10

    # --- seeds and processes -------------------------------------------------
    seed: int = 0
    pretrain_seed: int = -1  # -1 follows `seed`; fix to share pretrained scorers,
                             # the backbone and eval lists across search seeds
    workers: int = 0  # pretraining processes, this one included; 0 = one per
                      # available CPU; any value gives the same results


@dataclass(kw_only=True)
class RunConfig(SearchSettings):
    """Everything a search run needs besides the data itself."""

    unsup_registry: UnsupModelRegistry
    sup_registry: SupModelRegistry
    k_values: tuple[int, ...] = (10, 20, 30, 40, 50)

    def __post_init__(self):
        for name in ("episodes", "n_monte_carlo", "episode_sup_epochs", "final_sup_epochs",
                     "sup_batch_size", "n_neg_per_pos", "controller_hidden", "backbone_dim",
                     "backbone_window", "backbone_neg", "backbone_epochs", "graph_sample_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("final_patience", "early_stop_patience", "eval_negatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("controller_lr", "sup_lr", "backbone_lr"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        OptimizerState(self.sup_optimizer, lr=self.sup_lr)  # rejects an unknown optimizer
        if not 0.0 <= self.baseline_decay <= 1.0:
            raise ValueError("baseline_decay must be in [0, 1]")
        if not np.isfinite(self.entropy_coef):
            raise ValueError("entropy_coef must be finite")
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if self.best_selection not in ("reward", "greedy"):
            raise ValueError(f"unknown best_selection {self.best_selection!r}")
        resolve_workers(self.workers)

    @property
    def effective_pretrain_seed(self) -> int:
        return self.seed if self.pretrain_seed < 0 else self.pretrain_seed

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


# Relative pretraining time of each job kind, in hundredths of a second at
# reference speed: `perfbench/run.py --workload pretrain-cold --seed 7
# --trace 1`, run on one CPU so that every job runs in the traced process
# (host speed 0.95; the backbone is the rest of `pretrain_all`'s busy time).
# It only decides which process runs a job, never what the job computes. At
# the README's scale the aggregation scorer costs the most instead.
JOB_COST = {
    "graph-biased-walk": 66, "graph-walk": 63, "graph-proximity-1": 38,
    "graph-proximity-2": 37, "text-embedding": 24, "backbone": 24,
    "graph-aggregation": 23, "bm25": 0, "external": 0,
}


@dataclass(frozen=True)
class PretrainJob:
    """One cache miss: ``fn(*args)`` trains ``name``; ``kind`` ranks its cost."""

    name: str
    kind: str
    fn: Callable
    args: tuple


def resolve_workers(workers: int) -> int:
    """The pretraining process count ``workers`` asks for: itself when
    positive, one per CPU this process may run on when 0."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_jobs(jobs: list[PretrainJob], processes: int) -> list[list[int]]:
    """Job indices per process, process 0 being the caller's: longest
    processing time first over ``JOB_COST``, each job to the least loaded
    process, ties to the earlier job and the lower process. The split is a
    function of the job kinds alone, so a run always splits the same way,
    and the caller's share is never empty while there is a job."""
    shares: list[list[int]] = [[] for _ in range(max(1, min(processes, len(jobs))))]
    loads = [0] * len(shares)
    for i in sorted(range(len(jobs)), key=lambda i: -JOB_COST[jobs[i].kind]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += JOB_COST[jobs[i].kind]
    return shares


def _failure(job: PretrainJob, reason) -> str:
    return f"pretraining failed for model {job.name!r}: {reason}"


def _run_job(job: PretrainJob):
    try:
        return job.fn(*job.args)
    except Exception as exc:
        raise RuntimeError(_failure(job, exc)) from exc


def _fork_helper(jobs: list[PretrainJob], share: list[int]):
    """Run ``share`` in a forked process that inherits the jobs' inputs and
    pickles back through a pipe only its results, or its first failure's
    message and traceback. The helper leaves through ``os._exit``: it never unwinds into
    the caller's stack, never runs exit handlers and never writes the cache."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                out = [_run_job(jobs[i]) for i in share]
            except RuntimeError as exc:
                out = (str(exc), traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(out, fh, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb"), share


def run_jobs(jobs: list[PretrainJob], workers: int) -> list:
    """Each job's result, in job order, computed across ``workers`` processes
    (0: one per available CPU): this one and forked helpers, split by
    ``split_jobs``. Every job seeds itself, so the results are the same for
    any worker count. A failing job raises a RuntimeError naming its model,
    after every helper has been reaped. Without ``os.fork`` the jobs run in
    series here."""
    processes = resolve_workers(workers) if hasattr(os, "fork") else 1
    shares = split_jobs(jobs, processes)
    results = [None] * len(jobs)
    helpers, exit_codes = [], {}
    try:
        for share in shares[1:]:
            if share:
                helpers.append(_fork_helper(jobs, share))
        for i in shares[0]:
            results[i] = _run_job(jobs[i])
        sent = [reader.read() for _, reader, _ in helpers]
    finally:
        for pid, reader, _ in helpers:
            reader.close()
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for (pid, _, share), data in zip(helpers, sent):
        if exit_codes[pid] != 0:
            raise RuntimeError(_failure(
                jobs[share[0]], f"its helper process exited with code {exit_codes[pid]}"))
        out = pickle.loads(data)
        if isinstance(out, tuple):  # (message, the helper's traceback)
            raise RuntimeError(out[0]) from RuntimeError(out[1])
        for i, result in zip(share, out):
            results[i] = result
    return results


def pretrain_all(
    corpus: Corpus,
    graph,
    registry: UnsupModelRegistry,
    cache_dir: str | Path | None,
    master_seed: int,
    workers: int = 0,
    extra: Sequence[PretrainJob] = (),
) -> list:
    """One score matrix per registered model, cache-aware, followed by the
    result of each ``extra`` job.

    The cache key covers the corpus content, the model's kind and
    hyperparameters, and its derived seed, so a hit is guaranteed to be
    bit-identical to recomputation. An ``external`` matrix is never cached:
    its CSV is the stored matrix, read afresh on every call. The missing
    models and the ``extra`` jobs (``pretrain`` adds the backbone's) run
    through ``run_jobs`` across ``workers`` processes, which cannot change
    the results for a fixed seed. Only this process writes the cache, in
    registry order.
    """
    corpus_hash = corpus.content_hash()
    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)

    plan = []
    for spec in registry:
        seed = derive_seed(master_seed, "unsup", spec.name)
        hp_hash = stable_hash({"kind": spec.kind, "params": spec.params})
        cache_path = None if spec.kind == "external" else cache_entry(
            cache_dir, f"unsup_{spec.name}",
            {"corpus": corpus_hash, "model": spec.name, "hp": hp_hash, "seed": seed})
        plan.append((spec, seed, cache_path))

    jobs = [PretrainJob(spec.name, spec.kind, compute_score_matrix, (spec, corpus, graph, seed))
            for spec, seed, cache_path in plan if not _cached(cache_path)]
    results = run_jobs(jobs + list(extra), workers)
    trained = {job.name: matrix for job, matrix in zip(jobs, results)}

    matrices = []
    for spec, seed, cache_path in plan:
        matrix = trained.get(spec.name)
        if matrix is None:
            log.info("cache hit for unsupervised model %s", spec.name)
            matrix = ScoreMatrix.load_cache(cache_path)
        if (matrix.query_ids, matrix.candidate_ids) != (corpus.query_ids, corpus.candidate_ids):
            raise RuntimeError(f"model {spec.name!r} produced a mismatched score matrix")
        if cache_path is not None and not cache_path.exists():
            matrix.save_cache(cache_path)
            matrix.save_csv(cache_path.with_suffix(".csv"))
        matrices.append(matrix)
    return matrices + results[len(jobs):]


def _cached(cache_path: Path | None) -> bool:
    return cache_path is not None and cache_path.exists()


def _backbone_entry(corpus: Corpus, config: RunConfig, cache_dir) -> Path | None:
    return cache_entry(cache_dir, "backbone", {
        "corpus": corpus.content_hash(),
        "seed": derive_seed(config.effective_pretrain_seed, "backbone"),
        "hp": [config.backbone_dim, config.backbone_window, config.backbone_neg,
               config.backbone_epochs, config.backbone_lr],
    })


def _train_backbone_table(corpus: Corpus, config: RunConfig) -> EmbeddingTable:
    return train_text_embeddings(
        corpus, dim=config.backbone_dim, window=config.backbone_window,
        neg=config.backbone_neg, epochs=config.backbone_epochs,
        lr=config.backbone_lr, seed=derive_seed(config.effective_pretrain_seed, "backbone"),
    )


def build_backbone(corpus: Corpus, graph, config: RunConfig,
                   cache_dir: str | Path | None = None,
                   table: EmbeddingTable | None = None) -> RankerBackbone:
    """The rankers' backbone over the frozen word embeddings: ``table`` when
    ``pretrain`` has trained it, else the cached table, else one trained
    here. A table not yet in the cache is written to it."""
    cache_path = _backbone_entry(corpus, config, cache_dir)
    if table is None and _cached(cache_path):
        log.info("cache hit for embedding backbone")
        table = EmbeddingTable.load(cache_path)
    else:
        if table is None:
            table = _train_backbone_table(corpus, config)
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            table.save(cache_path)
    return backbone_from_table(corpus, table, graph, config)


def pretrain(corpus: Corpus, config: RunConfig, cache_dir: str | Path | None):
    """Everything a search trains before its first episode: the graph (when a
    model needs it), every scorer's score matrix and the rankers' backbone,
    all seeded from the effective pretrain seed. Returns (matrices,
    backbone). ``weakrank pretrain`` runs exactly this into the cache a
    later search reads.

    Every cache miss, each scorer and the backbone, is one job;
    ``pretrain_all`` runs them together through ``run_jobs``, split between
    this process and helpers forked once the corpus and graph exist,
    ``config.workers`` processes in all (0: one per available CPU). A warm
    cache forks nothing.
    """
    uses_graph = needs_graph([*config.unsup_registry, *config.sup_registry])
    graph = build_graph(corpus) if uses_graph else None
    backbone_job = [] if _cached(_backbone_entry(corpus, config, cache_dir)) else [
        PretrainJob("backbone", "backbone", _train_backbone_table, (corpus, config))]
    matrices = pretrain_all(corpus, graph, config.unsup_registry, cache_dir,
                            config.effective_pretrain_seed, config.workers, extra=backbone_job)
    table = matrices.pop() if backbone_job else None
    return matrices, build_backbone(corpus, graph, config, cache_dir, table=table)


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
    seed_label: str, eval_fn=None, patience: int = 0,
):
    """Train the rankers a mask selects on the top-k pseudo labels of ``agg``."""
    triples = sample_training_pairs(
        top_k_labels(agg, labels_k), labels_k, config.n_neg_per_pos,
        seed=derive_seed(config.seed, "pairs", seed_label),
    )
    models = []
    for selected, spec in zip(mask, config.sup_registry):
        if not selected:
            continue
        model_seed = derive_seed(config.seed, "sup-init", spec.name, seed_label)
        model = create_sup_model(spec, backbone, model_seed)
        train_supervised(
            model, triples,
            epochs=epochs,
            lr=spec.hyperparameters(config)["lr"],
            seed=derive_seed(config.seed, "sup-train", spec.name, seed_label),
            batch_size=config.sup_batch_size,
            eval_fn=eval_fn,
            patience=patience,
            algorithm=config.sup_optimizer,
        )
        models.append(model)
    return models


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
        models = _train_selected_models(
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


def check_search_inputs(corpus: Corpus, val_annotations: AnnotationSet,
                        test_annotations: AnnotationSet | None, config: RunConfig) -> None:
    """Raise the errors a search on these inputs would, before any work:
    a k outside the candidate count, or an empty, unknown-id, overlapping or
    too small annotation split (one whose evaluation lists cannot be drawn)."""
    if not val_annotations.pairs:
        raise ValueError("validation annotation split is empty")
    n_cand = len(corpus.candidates)
    for k in config.k_values:
        if not 1 <= k < n_cand:
            raise ValueError(f"k value {k} out of range for {n_cand} candidates")
    check_eval_lists(val_annotations, corpus, config.eval_negatives)
    if test_annotations is not None and test_annotations.pairs:
        overlap = set(val_annotations.query_ids) & set(test_annotations.query_ids)
        if overlap:
            raise ValueError(f"validation and test splits share queries: {sorted(overlap)[:5]}")
        check_eval_lists(test_annotations, corpus, config.eval_negatives)


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
    check_search_inputs(corpus, val_annotations, test_annotations, config)
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

    def eval_fn(model):
        return mrr(val_lists, score_lists_with_ensemble(val_lists, [model]))

    final_models = _train_selected_models(
        best_config.sup_mask, best_config.k_value, agg, backbone, config,
        epochs=config.final_sup_epochs, seed_label="final:" + _config_signature(best_config),
        eval_fn=eval_fn, patience=config.final_patience,
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
        for model in final_models:
            path = ckpt_dir / f"{model.spec.name}.ckpt"
            save_checkpoint(model, path, config_hash=config_hash)
            checkpoint_paths[model.spec.name] = str(path)
        write_json(workdir / "report.json", report)

    return RunResult(
        episodes, best_config, best_entry.reward, best_entry.episode,
        validation_metrics, test_metrics, report, checkpoint_paths,
    )


def _mask_for(registry, fixed) -> tuple[int, ...]:
    """The mask selecting ``fixed``, one model name or a list of names."""
    names = list(fixed) if isinstance(fixed, (list, tuple)) else [fixed]
    for name in names:
        if name not in registry.names:
            raise ValueError(f"unknown model {name!r}: choose from {', '.join(registry.names)}")
    if not names:
        raise ValueError("fixed choice selects no models")
    return tuple(int(name in names) for name in registry.names)


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
