"""Joint training loop: pretrain scorers once, then alternate sampling a
pipeline, training its rankers on pseudo labels, and updating the policy
with the validation reward. Ends by retraining the best configuration and
evaluating it on the held-out test split.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
import time
import traceback
from collections.abc import Callable
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
from .ioutil import (
    canonical_json,
    derive_seed,
    load_arrays,
    save_arrays,
    stable_hash,
    write_json,
)
from .metrics import (
    all_metrics,
    build_eval_lists,
    check_eval_lists,
    mrr,
    score_lists_with_matrix,
)
from .nncore import OPTIMIZERS, OptimizerState, optimizer_step, zero_grads
from .pseudo_labels import aggregate, sample_training_pairs, top_k_labels
from .registry import (
    HYPERPARAMETERS,
    SupModelRegistry,
    UnsupModelRegistry,
    check_config,
    compute_score_matrix,
    needs_graph,
    setting,
)
from .scores import ScoreMatrix
from .sup_rankers import (
    PHI_VERSION,
    RankerBackbone,
    create_sup_model,
    kernel_bank,
    save_checkpoint,
    score_lists_with_ensemble,
    train_supervised,
)

log = logging.getLogger(__name__)

REPORT_FORMAT_VERSION = 1


@dataclass
class SearchSettings:
    """The search's plain-valued settings, each declared once with its
    default and its rule. ``RunConfig`` adds the built registries and k
    grid; ``ExperimentConfig`` adds what a configuration file names."""

    # --- search ------------------------------------------------------------
    episodes: int = setting(200, low=1)
    n_monte_carlo: int = setting(1, low=1)  # configurations sampled per controller update
    episode_sup_epochs: int = setting(5, low=1)
    final_sup_epochs: int = setting(30, low=1)
    final_patience: int = setting(5, low=0)
    early_stop_patience: int = setting(0, low=0)  # 0 = run the full episode budget
    controller_lr: float = setting(0.5, above=0)
    controller_hidden: int = setting(32, low=1)
    use_baseline: bool = setting(True)
    baseline_decay: float = setting(0.9, low=0, high=1)
    entropy_coef: float = setting(0.0)
    best_selection: str = setting("reward", members=("reward", "greedy"))

    # --- supervised training -------------------------------------------------
    sup_lr: float = setting(0.005, above=0)
    sup_optimizer: str = setting("adam", members=OPTIMIZERS)
    sup_batch_size: int = setting(32, low=1)
    n_neg_per_pos: int = setting(2, low=1)

    # --- evaluation ----------------------------------------------------------
    eval_negatives: int = setting(99, low=0)
    normalize_scores: bool = setting(True)  # per-query min-max before averaging

    # --- shared embedding backbone -------------------------------------------
    backbone_dim: int = setting(32, low=1)
    backbone_window: int = setting(5, low=1)
    backbone_neg: int = setting(5, low=1)
    backbone_epochs: int = setting(3, low=1)
    backbone_lr: float = setting(0.05, above=0)
    graph_sample_size: int = setting(10, low=1)

    # --- seeds and processes -------------------------------------------------
    seed: int = setting(0, low=0)
    pretrain_seed: int = setting(-1, low=-1)  # -1 follows `seed`; fix to share scorers,
                                              # backbone and eval lists across seeds
    workers: int = setting(0, low=0)  # processes that run the pretraining and member jobs,
                                      # this one included; 0 = one per CPU; results never
                                      # depend on it


@dataclass(kw_only=True)
class RunConfig(SearchSettings):
    """Everything a search run needs besides the data itself, checked when built."""

    unsup_registry: UnsupModelRegistry
    sup_registry: SupModelRegistry
    k_values: tuple[int, ...] = setting((10, 20, 30, 40, 50), low=1, distinct=True)

    def __post_init__(self):
        check_config(self, [(m.name, m.kind, m.params) for m in self.unsup_registry
                            + self.sup_registry if m.kind != "external"])

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


# Time of each job kind, in hundredths of a second, each job run alone in
# one process on the `perfbench/run.py --workload pretrain-cold --seed 41`
# inputs (the least of 3 runs, not corrected for host speed). A `sup:` kind
# trains that ranker at the episode budget. The text-embedding scorer is no
# job: it scores with the `backbone` job's table. The cost only decides
# which process runs a job, never what the job computes. At the README's
# scale the aggregation scorer costs the most instead. Each member, one
# ranker of one configuration, is one `sup:` job, the episode's own and its
# predicted configurations' alike, so the split weighs them all together.
JOB_COST = {
    "graph-biased-walk": 86, "graph-walk": 85, "graph-proximity-1": 51,
    "graph-proximity-2": 51, "backbone": 31,
    "graph-aggregation": 28, "bm25": 0, "external": 0,
    "sup:graph-aggregation": 20, "sup:representation": 10, "sup:interaction": 2,
}
# Bump a scorer kind's version whenever its output changes, so that its
# cache entries miss; a key holds the version only once it is above 0.
SCORER_VERSION = {**dict.fromkeys(HYPERPARAMETERS["unsupervised"], 0),
                  "graph-aggregation": 1,  # 1: the sparse neighbor sample
                  "text-embedding": 1}  # 1: the backbone's seed label
# The text table's settings, the `backbone_*` keys, in its cache key's order.
_TEXT_SETTINGS = ("dim", "window", "neg", "epochs", "lr")


@dataclass(frozen=True)
class Job:
    """``fn(*args)`` trains ``name`` during ``stage``; ``kind`` ranks its cost.
    An optional job's failure leaves its result None instead of raising."""

    name: str
    kind: str
    fn: Callable
    args: tuple
    stage: str = "pretraining"
    optional: bool = False


def resolve_workers(workers: int) -> int:
    """The process count ``workers`` asks for: itself when positive, one
    per CPU this process may run on when 0; 1 without ``os.fork``."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    if workers:
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_jobs(jobs: list[Job], processes: int) -> list[list[int]]:
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


def _failure(job: Job, reason) -> str:
    return f"{job.stage} failed for model {job.name!r}: {reason}"


def _run_job(job: Job) -> tuple:
    """The job's result and its seconds; an optional job that fails gives None."""
    start = time.perf_counter()
    try:
        return job.fn(*job.args), time.perf_counter() - start
    except Exception as exc:
        if not job.optional:
            raise RuntimeError(_failure(job, exc)) from exc
        log.debug("%s", _failure(job, exc))
        return None, time.perf_counter() - start


_SENT_FAILURE = 2  # a helper's exit code once it has sent its failure


class _HelperFailed(BaseException):
    """A helper holding a required job, its pid the one argument, exited
    non-zero while the command's own share ran. A BaseException, so that no
    job's ``except Exception`` takes it for its own failure."""


def _fork_helper(jobs: list[Job], share: list[int]) -> tuple:
    """Run ``share`` in a forked process that inherits the jobs' inputs and
    pickles back through a pipe only its results, or its first failure's
    message and traceback, exiting with ``_SENT_FAILURE``: (pid, the pipe's
    reading end, ``share``). The helper leaves through ``os._exit``: it
    never unwinds into the caller's stack, never runs exit handlers and
    never writes the cache."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
            os.close(read_fd)
            try:
                out = ([_run_job(jobs[i]) for i in share], None)
            except RuntimeError as exc:
                out = (None, (str(exc), traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(out, fh, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0 if out[1] is None else _SENT_FAILURE
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb"), share


def _helper_results(jobs: list[Job], share: list[int], code: int, data: bytes) -> list | None:
    """What a helper that exited with ``code`` sent: its (result, seconds)
    per job of ``share``, or None when it died holding only optional jobs.
    A required job's failure raises its message, a helper's death the
    message of its first required job."""
    if code == _SENT_FAILURE:
        message, helper_traceback = pickle.loads(data)[1]
        raise RuntimeError(message) from RuntimeError(helper_traceback)
    if code != 0:
        required = [i for i in share if not jobs[i].optional]
        if required:
            raise RuntimeError(_failure(
                jobs[required[0]], f"its helper process exited with code {code}"))
        log.debug("a helper of optional jobs exited with code %d", code)
        return None
    return pickle.loads(data)[0]


def run_jobs(jobs: list[Job], workers: int) -> list:
    """Each job's result, in job order, computed across ``workers`` processes
    (0: one per available CPU): this one and forked helpers, split by
    ``split_jobs``: every pretraining job, and every member a search trains.
    Every job seeds itself, so the results are the same for any worker
    count. A failing required job raises a RuntimeError naming its stage and
    model; an optional one, whether it raises or its helper dies, leaves its
    result None. A helper holding a required job that exits non-zero while
    this process's own share runs raises at once: a SIGCHLD handler, in the
    main thread, looks at the helpers without reaping them. Every helper is
    reaped before this returns or raises, and killed first when this
    process's share raises or a helper fails. Without ``os.fork`` the jobs
    run here in turn. Each pretraining job logs its seconds and its process
    (0: this one), and the call logs how long it waited for its helpers'
    results after its own share, at DEBUG for member jobs."""
    shares = split_jobs(jobs, resolve_workers(workers))
    results, seconds = [None] * len(jobs), [0.0] * len(jobs)
    helpers, exit_codes, sent = [], {}, {}
    watched: list[int] = []  # helpers holding a required job, while this share runs

    def on_child_exit(signum, frame):  # looks at each watched helper without reaping it
        for pid in watched:
            info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            if info is not None and (info.si_code, info.si_status) != (os.CLD_EXITED, 0):
                watched.clear()  # raise once: the other helpers are killed next
                raise _HelperFailed(pid)

    watching = len(shares) > 1 and threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGCHLD, on_child_exit) if watching else None
    failed = None
    try:
        try:
            if watching:  # no handler runs between a fork and its helper's entry
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGCHLD})
            try:
                for share in shares[1:]:
                    if share:
                        helpers.append(_fork_helper(jobs, share))
                        if any(not jobs[i].optional for i in share):
                            watched.append(helpers[-1][0])
            finally:
                if watching:
                    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
            for i in shares[0]:
                results[i], seconds[i] = _run_job(jobs[i])
            watched.clear()
            start = time.perf_counter()
            sent = {pid: reader.read() for pid, reader, _ in helpers}
            waited = time.perf_counter() - start
        except BaseException:
            watched.clear()
            for pid, _, _ in helpers:
                os.kill(pid, signal.SIGKILL)
            raise
    except _HelperFailed as exc:  # also when it came while another failure unwound
        failed = exc.args[0]
        for pid, reader, _ in helpers:
            if pid == failed:
                sent[pid] = reader.read()
            else:
                os.kill(pid, signal.SIGKILL)
    finally:
        if watching:  # None: a handler not installed from Python
            signal.signal(signal.SIGCHLD, signal.SIG_DFL if previous is None else previous)
        for pid, reader, _ in helpers:
            reader.close()
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, _, share in sorted(helpers, key=lambda helper: helper[0] != failed):
        out = _helper_results(jobs, share, exit_codes[pid], sent[pid])  # the failed one raises
        for i, (result, secs) in zip(share, out or ()):
            results[i], seconds[i] = result, secs
    for p, share in enumerate(shares):
        for i in share:
            if jobs[i].stage == "pretraining":
                log.info("pretraining job %s: %.3f s in process %d", jobs[i].name, seconds[i], p)
    if helpers:
        log.log(logging.INFO if any(job.stage == "pretraining" for job in jobs) else logging.DEBUG,
                "waited %.3f s for %d helper process(es) after this one's share", waited,
                len(helpers))
    return results


def pretrain_all(corpus: Corpus, graph, config: RunConfig,
                 cache_dir: str | Path | None) -> tuple[list, EmbeddingTable]:
    """One score matrix per registered scorer, and the run's one text table,
    cache-aware: (matrices, table).

    The cache key covers the corpus content, the model's kind and
    hyperparameters, and its derived seed, so a hit is guaranteed to be
    bit-identical to recomputation; a torn entry is a miss. An ``external``
    matrix is never cached: its CSV is the stored matrix, read afresh on
    every call. The text table is the backbone's, set by the ``backbone_*``
    settings alone: read from the cache or trained as the ``backbone`` job.
    A text-embedding scorer is scored here with it, and its key holds the
    backbone's. The missing models and the table run through ``run_jobs``
    across ``config.workers`` processes, which cannot change the results for
    a fixed seed. With ``graph`` None, the graph is built here when a missing
    model needs it. Only this process writes the cache: the scorers in
    registry order, then the table.
    """
    master_seed = config.effective_pretrain_seed
    corpus_hash = corpus.content_hash()
    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
    backbone_key = _backbone_key(corpus, config)
    table_path = cache_entry(cache_dir, "backbone", backbone_key)
    table = _read_entry(table_path, EmbeddingTable.load, "embedding backbone")
    cached = table is not None

    plan = []
    for spec in config.unsup_registry:
        seed = derive_seed(master_seed, "unsup", spec.name)
        hp_hash = stable_hash({"kind": spec.kind, "params": spec.params})
        key = {"corpus": corpus_hash, "model": spec.name, "hp": hp_hash, "seed": seed}
        if SCORER_VERSION[spec.kind]:  # at version 0, the key made before versions
            key["version"] = SCORER_VERSION[spec.kind]
        if spec.kind == "text-embedding":
            key["backbone"] = backbone_key
        cache_path = None if spec.kind == "external" else cache_entry(
            cache_dir, f"unsup_{spec.name}", key)
        matrix = _read_entry(cache_path, ScoreMatrix.load_cache, f"unsupervised model {spec.name}")
        plan.append((spec, seed, cache_path, matrix))

    missing = [(spec, seed) for spec, seed, _, matrix in plan if matrix is None]
    if graph is None and needs_graph([spec for spec, _ in missing]):
        graph = build_graph(corpus)
    jobs = [Job(spec.name, spec.kind, compute_score_matrix, (spec, corpus, graph, seed))
            for spec, seed in missing if spec.kind != "text-embedding"]
    if not cached:
        jobs.append(Job("backbone", "backbone", _train_text_table, (corpus, config)))
    results = run_jobs(jobs, config.workers)
    if not cached:
        table = results.pop()  # its own slot: an external scorer may be named backbone
    trained = {job.name: matrix for job, matrix in zip(jobs, results)}

    matrices = []
    for spec, seed, cache_path, matrix in plan:
        if matrix is None:
            matrix = (compute_score_matrix(spec, corpus, graph, seed, table)
                      if spec.kind == "text-embedding" else trained[spec.name])
            if cache_path is not None:
                matrix.save_cache(cache_path)
                matrix.save_csv(cache_path.with_suffix(".csv"))
        if (matrix.query_ids, matrix.candidate_ids) != (corpus.query_ids, corpus.candidate_ids):
            raise RuntimeError(f"model {spec.name!r} produced a mismatched score matrix")
        matrices.append(matrix)
    if not cached and table_path is not None:
        table.save(table_path)
    return matrices, table


def _read_entry(path: Path | None, load: Callable, what: str):
    """The cache entry at ``path`` as ``load`` reads it, or None on a miss:
    no cache, no file, or a torn file, which a WARNING names and the caller
    recomputes and replaces."""
    if path is None or not path.exists():
        return None
    try:
        value = load(path)
    except ValueError as exc:
        log.warning("recomputing the torn cache entry %s: %s", path, exc)
        return None
    log.info("cache hit for %s", what)
    return value


def _backbone_settings(config: SearchSettings) -> dict:
    """The text table's settings, ``backbone_*`` without its prefix."""
    return {key: getattr(config, f"backbone_{key}") for key in _TEXT_SETTINGS}


def _backbone_key(corpus: Corpus, config: RunConfig) -> dict:
    return {
        "corpus": corpus.content_hash(),
        "seed": derive_seed(config.effective_pretrain_seed, "backbone"),
        "hp": list(_backbone_settings(config).values()),
    }


def _phi_entry(cache_dir, backbone_key: dict, bank: tuple) -> Path | None:
    """Where the cache keeps the kernel features of ``bank`` over the
    backbone that ``backbone_key`` names."""
    mus, sigmas = bank
    # "negative_exponent" names the kernels' sign, once a setting: it stays in
    # the key so that entries keep the names they had then
    return cache_entry(cache_dir, "phi", {
        "backbone": backbone_key, "mus": list(mus), "sigmas": list(sigmas),
        "negative_exponent": True, "version": PHI_VERSION,
    })


def kernel_banks(specs) -> list[tuple]:
    """The distinct kernel banks (``kernel_bank``) of the interaction rankers
    among ``specs``, in order."""
    banks = []
    for spec in specs:
        if spec.kind == "interaction":
            hp = spec.hyperparameters()
            bank = kernel_bank(hp["mus"], hp["sigmas"])
            if bank not in banks:
                banks.append(bank)
    return banks


def read_kernel_features(backbone: RankerBackbone, banks: list[tuple], config: RunConfig,
                         cache_dir: str | Path | None) -> list[tuple]:
    """Put into ``backbone`` the features of each of ``banks`` that the cache
    holds; return the banks it lacks. Writes nothing."""
    def load(path, bank):
        phi = load_arrays(path)[0]["phi"]
        backbone.put_phi_features(bank, phi)  # a ValueError on a shape not the corpus's
        return phi

    key = _backbone_key(backbone.corpus, config)
    return [bank for bank in banks if _read_entry(
        _phi_entry(cache_dir, key, bank), lambda path: load(path, bank), "kernel features") is None]


def _train_text_table(corpus: Corpus, config: RunConfig) -> EmbeddingTable:
    """The run's one text table, the rankers' backbone that the
    text-embedding scorer also scores with."""
    return train_text_embeddings(corpus, **_backbone_settings(config),
                                 seed=derive_seed(config.effective_pretrain_seed, "backbone"))


def build_backbone(corpus: Corpus, graph, config: RunConfig, cache_dir: str | Path | None,
                   table: EmbeddingTable) -> RankerBackbone:
    """The rankers' backbone over ``table``, the word embeddings
    ``pretrain_all`` read or trained, holding the kernel features of every
    registered interaction ranker's bank: read from the cache, or pooled
    here and written to it."""
    backbone = backbone_from_table(corpus, table, graph, config)
    key = _backbone_key(corpus, config)
    for bank in read_kernel_features(backbone, kernel_banks(config.sup_registry), config,
                                     cache_dir):
        phi = backbone.phi_features(*bank)
        if cache_dir is not None:
            save_arrays(_phi_entry(cache_dir, key, bank), {"phi": phi})
    return backbone


def pretrain(corpus: Corpus, config: RunConfig, cache_dir: str | Path | None):
    """Everything a search trains before its first episode: every scorer's
    score matrix, the rankers' backbone and its kernel features, and the
    graph when a graph ranker is registered or a graph scorer misses the
    cache, all seeded from the effective pretrain seed. Returns (matrices,
    backbone). ``weakrank pretrain`` runs exactly this into the cache a
    later search reads. Every cache miss is one ``pretrain_all`` job; a warm
    cache forks nothing and builds no graph for scorers.
    """
    graph = build_graph(corpus) if needs_graph(config.sup_registry) else None
    matrices, table = pretrain_all(corpus, graph, config, cache_dir)
    return matrices, build_backbone(corpus, graph, config, cache_dir, table)


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


def _train_selected_models(plans, backbone, config: RunConfig, epochs: int, eval_fn=None,
                           patience: int = 0) -> list:
    """Each plan's trained rankers, or None for an optional plan whose
    member failed. A plan (seed label, mask, k, aggregate, optional) trains
    the rankers its mask selects on the top-k pseudo labels of its aggregate,
    each such member one job of a single ``run_jobs`` call. Models are
    created here, so forked helpers inherit the backbone's cached inputs; a
    job sends back only its model's flat parameter buffer."""
    plan_models, jobs = [], []
    for seed_label, mask, labels_k, agg, optional in plans:
        triples = sample_training_pairs(top_k_labels(agg, labels_k), labels_k, config.n_neg_per_pos,
                                        seed=derive_seed(config.seed, "pairs", seed_label))
        plan_models.append([create_sup_model(spec, backbone, derive_seed(
            config.seed, "sup-init", spec.name, seed_label))
            for selected, spec in zip(mask, config.sup_registry) if selected])
        jobs += [Job(model.spec.name, f"sup:{model.kind}", _train_ranker,
                     (model, triples, config, epochs, seed_label, eval_fn, patience),
                     "training", optional) for model in plan_models[-1]]
    results = iter(run_jobs(jobs, config.workers))
    trained = []
    for models in plan_models:
        values = [next(results) for _ in models]
        if any(v is None for v in values):
            models = None
        else:
            for model, v in zip(models, values):
                np.copyto(model.params().values, v)
                model.after_update()
        trained.append(models)
    return trained


def _train_ranker(model, triples, config: RunConfig, epochs: int, seed_label: str, eval_fn,
                  patience: int) -> np.ndarray:
    """One ranker's training job; it returns only the trained flat buffer."""
    train_supervised(model, triples, epochs=epochs, lr=model.spec.hyperparameters(config)["lr"],
                     seed=derive_seed(config.seed, "sup-train", model.spec.name, seed_label),
                     batch_size=config.sup_batch_size, eval_fn=eval_fn, patience=patience,
                     algorithm=config.sup_optimizer)
    return model.params().values


def configuration_rewards(cfgs: list[Configuration], matrices: list[ScoreMatrix],
                          backbone: RankerBackbone, val_lists, config: RunConfig) -> dict:
    """Each configuration's (unsupervised, supervised) rewards by signature:
    the validation MRR of its aggregated scorers, and of its rankers trained
    on their top-k pseudo labels, every member of ``cfgs`` in one
    ``_train_selected_models`` call. The first configuration's members are
    required; a later one whose member fails is left out. Every seed derives
    from the configuration, so the rewards are a function of it."""
    aggs = [aggregate(matrices, cfg.unsup_mask, normalize=config.normalize_scores) for cfg in cfgs]
    trained = _train_selected_models(
        [(_config_signature(cfg), cfg.sup_mask, cfg.k_value, agg, i > 0)
         for i, (cfg, agg) in enumerate(zip(cfgs, aggs))],
        backbone, config, epochs=config.episode_sup_epochs)
    return {_config_signature(cfg): (mrr(score_lists_with_matrix(val_lists, agg)),
                                     mrr(score_lists_with_ensemble(val_lists, models)))
            for cfg, agg, models in zip(cfgs, aggs, trained) if models is not None}


def _sample_rng(config: RunConfig, episode: int) -> np.random.Generator:
    """The generator an episode draws its configurations from."""
    return np.random.default_rng(derive_seed(config.seed, "episode", episode))


def predicted_configurations(controller: ControllerParams, config: RunConfig, episode: int,
                             clamp: Clamp, reward_cache: dict, current: str,
                             n: int) -> list[Configuration]:
    """Up to ``n`` configurations that the episodes after ``episode`` are
    predicted to draw, in draw order: each later episode's draws from its
    own ``_sample_rng``, under the current policy and clamp, that the cache
    lacks and that are not ``current``. The policy moves little per update,
    so later episodes often draw them."""
    predicted: dict = {}
    for ep in range(episode + 1, config.episodes):
        rng = _sample_rng(config, ep)
        for _ in range(config.n_monte_carlo):
            if len(predicted) >= n:
                return list(predicted.values())
            cfg = sample_configuration(controller, rng, config.k_values, clamp=clamp)[0]
            sig = _config_signature(cfg)
            if sig != current and sig not in reward_cache:
                predicted.setdefault(sig, cfg)
    return list(predicted.values())


def run_episode(
    matrices: list[ScoreMatrix],
    controller: ControllerParams,
    backbone: RankerBackbone,
    val_lists,
    config: RunConfig,
    episode: int,
    sample_rng: np.random.Generator,
    reward_cache: dict,
    clamp: Clamp = Clamp(),
) -> EpisodeLog:
    """Sample a configuration, train its rankers, and score it on validation.
    The entry's baseline is 0 until ``joint_train`` sets its batch's.

    Rewards are a deterministic function of the sampled configuration (all
    seeds derive from it), so identical configurations earn identical
    rewards; ``reward_cache`` maps each configuration's signature to its
    (unsupervised, supervised) rewards and is filled here. On a miss, the
    configuration's members and those of up to ``workers - 1`` predicted
    ones (``predicted_configurations``) train together in one
    ``configuration_rewards`` call. The episode's own members are required:
    a failure raises as it would in one process. A predicted configuration
    whose member fails is left out, and the episode that draws it trains it
    again.
    """
    cfg, log_prob = sample_configuration(controller, sample_rng, config.k_values, clamp=clamp)
    sig = _config_signature(cfg)
    if sig not in reward_cache:
        ahead = predicted_configurations(controller, config, episode, clamp, reward_cache, sig,
                                         resolve_workers(config.workers) - 1)
        reward_cache.update(configuration_rewards([cfg, *ahead], matrices, backbone, val_lists,
                                                  config))
    r_unsup, r_sup = reward_cache[sig]
    reward = r_unsup + r_sup
    if not 0.0 <= reward <= 2.0:
        raise RuntimeError(f"episode reward {reward} outside [0, 2]")
    return EpisodeLog(episode, cfg, log_prob, r_unsup, r_sup, reward, baseline=0.0)


def check_search_inputs(corpus: Corpus, val_annotations: AnnotationSet,
                        test_annotations: AnnotationSet | None, config: RunConfig) -> None:
    """Raise the errors a search on these inputs would, before any work:
    a k outside the candidate count, or an empty, unknown-id, overlapping or
    too small annotation split (one whose evaluation lists cannot be drawn)."""
    n_cand = len(corpus.candidates)
    if max(config.k_values) >= n_cand:
        raise ValueError(f"k value {max(config.k_values)} out of range for {n_cand} candidates")
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
    clamp: Clamp = Clamp(),
) -> RunResult:
    """The full search: pretrain, episode loop, best-config retrain, test eval.

    Test annotations influence nothing but the final evaluation and the
    report's per-scorer ``baselines``; passing None (or an empty set) skips
    both and leaves the test block and every baseline's ``test`` null.
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
    policy, policy_opt = controller.tensors(), OptimizerState("sgd", lr=config.controller_lr)
    baseline = BaselineState(decay=config.baseline_decay)
    reward_cache: dict = {}
    episodes: list[EpisodeLog] = []
    episodes_path = workdir / "episodes.jsonl" if workdir is not None else None
    if episodes_path is not None:
        episodes_path.write_text("")

    best_entry: EpisodeLog | None = None
    stale = 0
    ahead: set = set()  # configurations trained ahead that no episode has drawn yet
    trained_ahead = drawn_ahead = 0
    for ep in range(config.episodes):
        start = time.perf_counter()
        sample_rng = _sample_rng(config, ep)
        batch: list[EpisodeLog] = []
        cached, ahead_before = 0, trained_ahead
        for mc in range(config.n_monte_carlo):
            size = len(reward_cache)
            entry = run_episode(
                matrices, controller, backbone, val_lists, config,
                episode=ep, sample_rng=sample_rng, clamp=clamp, reward_cache=reward_cache,
            )
            batch.append(entry)
            sig = _config_signature(entry.config)
            cached += len(reward_cache) == size and sig not in ahead  # an earlier draw trained it
            drawn_ahead += sig in ahead
            ahead.discard(sig)
            new = [key for key in list(reward_cache)[size:] if key != sig]
            ahead.update(new)
            trained_ahead += len(new)

        mean_reward = float(np.mean([e.reward for e in batch]))
        if config.use_baseline and baseline.value is None:
            baseline.value = mean_reward
        b = baseline.value if config.use_baseline else 0.0
        for entry in batch:
            entry.baseline = b
        zero_grads(policy)
        entropy = 0.0
        for entry in batch:
            entropy += action_log_prob(
                controller, entry.config, clamp=clamp,
                grad_scale=-(entry.reward - b) / config.n_monte_carlo,
                entropy_scale=-config.entropy_coef / config.n_monte_carlo,
            )[1] / config.n_monte_carlo
        optimizer_step(policy, policy_opt)
        if config.use_baseline:
            baseline.update(mean_reward)

        improved = False
        for entry in batch:
            episodes.append(entry)
            if episodes_path is not None:
                with open(episodes_path, "a", encoding="utf-8") as fh:
                    fh.write(canonical_json(entry.to_dict()) + "\n")
            if best_entry is None or entry.reward > best_entry.reward:
                best_entry = entry
                improved = True
        stale = 0 if improved else stale + 1
        # done/budget, then ids as episodes.jsonl numbers them; seconds go to the log only
        log.info("%d/%d episodes: R %.4f, best %.4f at episode %d, cached %d/%d, "
                 "trained ahead %d, entropy %.4f, %.3f s", ep + 1, config.episodes,
                 mean_reward, best_entry.reward, best_entry.episode, cached, len(batch),
                 trained_ahead - ahead_before, entropy, time.perf_counter() - start)
        if config.early_stop_patience and stale >= config.early_stop_patience:
            log.info("search early-stopped after %d episodes", ep + 1)
            break
    log.info("configurations trained ahead: %d, drawn by a later episode: %d",
             trained_ahead, drawn_ahead)

    assert best_entry is not None
    if config.best_selection == "greedy":
        best_config = greedy_decode(controller, config.k_values, clamp=clamp)
    else:
        best_config = best_entry.config

    # final retrain of the winning configuration at the larger budget
    agg = aggregate(matrices, best_config.unsup_mask, normalize=config.normalize_scores)

    def eval_fn(model):
        return mrr(score_lists_with_ensemble(val_lists, [model]))

    final_models, = _train_selected_models(
        [("final:" + _config_signature(best_config), best_config.sup_mask,
          best_config.k_value, agg, False)],
        backbone, config, epochs=config.final_sup_epochs, eval_fn=eval_fn,
        patience=config.final_patience)

    validation_metrics = all_metrics(score_lists_with_ensemble(val_lists, final_models))
    test_lists = None
    if test_annotations is not None and test_annotations.pairs:
        test_lists = build_eval_lists(
            test_annotations, corpus,
            seed=derive_seed(config.effective_pretrain_seed, "test-lists"),
            n_negatives=config.eval_negatives,
        )
    test_metrics = None if test_lists is None else all_metrics(
        score_lists_with_ensemble(test_lists, final_models))

    def scorer_mrr(lists, matrix):
        return None if lists is None else mrr(score_lists_with_matrix(lists, matrix))

    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "best_config": best_config.to_dict(),
        "best_reward": best_entry.reward,
        "best_episode": best_entry.episode,
        "episodes_run": len(episodes),
        "validation": validation_metrics,
        "test": test_metrics,
        # each scorer of the menu alone, on the same lists: what the search must beat
        "baselines": {name: {"validation": scorer_mrr(val_lists, matrix),
                             "test": scorer_mrr(test_lists, matrix)}
                      for name, matrix in zip(config.unsup_registry.names, matrices)},
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
