"""Configuration objects for dataset construction, models, and experiments.

Every configurable component takes a dataclass config with validated fields;
``validate()`` is called by consumers before use so that bad values fail fast
with a :class:`~repro.exceptions.ConfigurationError` instead of producing
silently wrong results deep inside a training loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from repro.exceptions import ConfigurationError


@dataclass
class DatasetConfig:
    """Parameters of the synthetic UltraWiki construction pipeline.

    The defaults correspond to the ``small`` profile used by benchmarks; the
    paper-scale numbers are documented in DESIGN.md.
    """

    seed: int = 13
    #: number of fine-grained semantic classes to instantiate (max 10).
    num_fine_classes: int = 10
    #: entities generated per fine-grained class.
    entities_per_class: int = 180
    #: distractor entities sampled from "other Wikipedia pages".
    num_distractors: int = 700
    #: average number of context sentences per entity (scaled by popularity).
    sentences_per_entity: float = 6.0
    #: fraction of entities given long-tail (low) popularity.
    long_tail_fraction: float = 0.3
    #: minimum number of target entities for P and N (paper: n_thred = 6).
    min_targets: int = 6
    #: queries generated per ultra-fine-grained class (paper: 3).
    queries_per_class: int = 3
    #: inclusive range for the number of positive / negative seeds per query.
    min_seeds: int = 3
    max_seeds: int = 5
    #: maximum ultra-fine-grained classes per fine-grained class; the paper
    #: derives 261 classes from 10 fine-grained classes (~26 each).
    max_ultra_classes_per_fine_class: int = 26
    #: number of BM25-mined hard distractors to add per fine-grained class.
    hard_negatives_per_class: int = 30
    #: probability that Wikidata can answer an attribute query automatically
    #: (the remainder is "manually annotated" by the annotation simulator).
    wikidata_coverage: float = 0.7

    def validate(self) -> None:
        if not 1 <= self.num_fine_classes <= 10:
            raise ConfigurationError("num_fine_classes must be in [1, 10]")
        if self.entities_per_class < 20:
            raise ConfigurationError("entities_per_class must be >= 20")
        if self.min_seeds < 1 or self.max_seeds < self.min_seeds:
            raise ConfigurationError("invalid seed range")
        if self.min_targets < self.max_seeds + 1:
            raise ConfigurationError(
                "min_targets must exceed max_seeds so queries leave targets to rank"
            )
        if not 0.0 <= self.long_tail_fraction <= 1.0:
            raise ConfigurationError("long_tail_fraction must be in [0, 1]")
        if not 0.0 <= self.wikidata_coverage <= 1.0:
            raise ConfigurationError("wikidata_coverage must be in [0, 1]")
        if self.sentences_per_entity <= 0:
            raise ConfigurationError("sentences_per_entity must be positive")

    @classmethod
    def tiny(cls, seed: int = 13) -> "DatasetConfig":
        """A minimal profile for unit tests."""
        return cls(
            seed=seed,
            num_fine_classes=4,
            entities_per_class=60,
            num_distractors=120,
            sentences_per_entity=4.0,
            max_ultra_classes_per_fine_class=6,
            hard_negatives_per_class=10,
        )

    @classmethod
    def small(cls, seed: int = 13) -> "DatasetConfig":
        """The benchmark profile (all 10 classes, a few thousand entities)."""
        return cls(seed=seed)

    @classmethod
    def default(cls, seed: int = 13) -> "DatasetConfig":
        """A larger profile for closer-to-paper experiments."""
        return cls(
            seed=seed,
            entities_per_class=600,
            num_distractors=2500,
            sentences_per_entity=7.0,
        )

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EncoderConfig:
    """Hyper-parameters of the masked-entity context encoder (BERT substitute)."""

    seed: int = 17
    embedding_dim: int = 64
    hidden_dim: int = 96
    context_window: int = 8
    epochs: int = 3
    batch_size: int = 64
    learning_rate: float = 5e-3
    #: label smoothing factor eta in the entity-prediction loss (Eq. 4).
    label_smoothing: float = 0.1
    #: maximum sentences sampled per entity when building representations.
    max_sentences_per_entity: int = 20
    #: relative weight of the trained hidden state vs the pretrained entity
    #: feature in the combined representation (0 = pretrained only).
    hidden_weight: float = 0.35

    def validate(self) -> None:
        if self.embedding_dim <= 0 or self.hidden_dim <= 0:
            raise ConfigurationError("dimensions must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigurationError("label_smoothing must be in [0, 1)")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= self.hidden_weight <= 1.0:
            raise ConfigurationError("hidden_weight must be in [0, 1]")


@dataclass
class ContrastiveConfig:
    """Hyper-parameters of ultra-fine-grained contrastive learning (Section V-A.2)."""

    seed: int = 19
    projection_dim: int = 48
    temperature: float = 0.1
    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 5e-3
    #: |L_pos| and |L_neg|: entities mined by the oracle per query (paper: 10).
    mined_list_size: int = 10
    #: include hard negative pairs (L_pos x L_neg).
    use_hard_negatives: bool = True
    #: include normal negative pairs against other-class entities (L0').
    use_normal_negatives: bool = True
    #: include positive pairs within L_pos and within L_neg.
    use_intra_positive_pairs: bool = True
    #: number of other-class entities sampled as L0'.
    num_other_class_entities: int = 30

    def validate(self) -> None:
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        if self.projection_dim <= 0:
            raise ConfigurationError("projection_dim must be positive")
        if self.mined_list_size <= 0:
            raise ConfigurationError("mined_list_size must be positive")


@dataclass
class CausalLMConfig:
    """Hyper-parameters of the causal entity LM (LLaMA substitute)."""

    seed: int = 23
    #: n-gram order of the token LM.
    ngram_order: int = 3
    #: additive smoothing for n-gram probabilities.
    smoothing: float = 0.1
    #: dimensionality of entity co-occurrence embeddings.
    embedding_dim: int = 64
    #: interpolation weight of the entity-affinity component during
    #: prefix-constrained generation (0 = pure n-gram LM).
    affinity_weight: float = 0.85
    #: whether continued pre-training on the corpus is applied.
    further_pretrain: bool = True

    def validate(self) -> None:
        if self.ngram_order < 1:
            raise ConfigurationError("ngram_order must be >= 1")
        if self.smoothing <= 0:
            raise ConfigurationError("smoothing must be positive")
        if not 0.0 <= self.affinity_weight <= 1.0:
            raise ConfigurationError("affinity_weight must be in [0, 1]")


@dataclass
class OracleConfig:
    """Behaviour of the simulated GPT-4 oracle.

    The oracle answers attribute questions from ground truth but with
    popularity-dependent noise and a hallucination rate, reproducing the
    failure modes reported in Section VI-B(5).
    """

    seed: int = 29
    #: error probability for a perfectly popular entity.
    base_error_rate: float = 0.08
    #: additional error probability for a completely long-tail entity.
    long_tail_error_rate: float = 0.35
    #: probability of emitting a hallucinated (non-existent) entity name per slot.
    hallucination_rate: float = 0.1

    def validate(self) -> None:
        for name in ("base_error_rate", "long_tail_error_rate", "hallucination_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")


@dataclass
class RetExpanConfig:
    """End-to-end configuration of the RetExpan pipeline."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    #: expansion list size K (paper keeps top-K before re-ranking).
    expansion_size: int = 200
    #: segment length l for segmented re-ranking.
    segment_length: int = 20
    #: enable the entity-prediction auxiliary task (ablated in Table III).
    use_entity_prediction: bool = True
    #: enable ultra-fine-grained contrastive learning ("+ Contrast").
    use_contrastive: bool = False
    #: weight of the contrastive (projected-space) score when re-scoring L0.
    contrastive_weight: float = 0.5
    #: enable re-ranking with negative seeds (ablated in Table IV).
    use_negative_rerank: bool = True

    def validate(self) -> None:
        self.encoder.validate()
        self.contrastive.validate()
        if self.expansion_size <= 0:
            raise ConfigurationError("expansion_size must be positive")
        if self.segment_length <= 0:
            raise ConfigurationError("segment_length must be positive")
        if self.contrastive_weight < 0:
            raise ConfigurationError("contrastive_weight must be non-negative")


@dataclass
class GenExpanConfig:
    """End-to-end configuration of the GenExpan pipeline."""

    lm: CausalLMConfig = field(default_factory=CausalLMConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    #: number of expansion iterations.
    num_iterations: int = 7
    #: entities generated per iteration (beam width of constrained search).
    beam_width: int = 24
    #: entities kept per iteration after selection (top-p in the paper).
    selected_per_iteration: int = 24
    #: final ranked list size.
    expansion_size: int = 200
    #: segment length l for segmented re-ranking.
    segment_length: int = 20
    #: constrain decoding with the candidate prefix tree (ablated in Table III).
    use_prefix_constraint: bool = True
    #: continued pre-training on the corpus (ablated in Table III).
    use_further_pretrain: bool = True
    #: re-rank with negative seeds (ablated in Table IV).
    use_negative_rerank: bool = True
    #: chain-of-thought reasoning mode: "none", "gen", or "gt" combined with
    #: which pieces of reasoning are included (class name / pos attrs / neg attrs).
    cot_mode: str = "none"

    VALID_COT_MODES = (
        "none",
        "gt_class",
        "gen_class",
        "gen_class_gen_pos",
        "gen_class_gt_pos",
        "gen_class_gen_pos_gen_neg",
        "gen_class_gt_pos_gt_neg",
    )

    def validate(self) -> None:
        self.lm.validate()
        self.oracle.validate()
        if self.num_iterations <= 0:
            raise ConfigurationError("num_iterations must be positive")
        if self.beam_width <= 0 or self.selected_per_iteration <= 0:
            raise ConfigurationError("beam_width / selected_per_iteration must be positive")
        if self.expansion_size <= 0:
            raise ConfigurationError("expansion_size must be positive")
        if self.segment_length <= 0:
            raise ConfigurationError("segment_length must be positive")
        if self.cot_mode not in self.VALID_COT_MODES:
            raise ConfigurationError(
                f"cot_mode must be one of {self.VALID_COT_MODES}, got {self.cot_mode!r}"
            )


@dataclass
class EvaluationConfig:
    """Evaluation protocol parameters."""

    cutoffs: tuple[int, ...] = (10, 20, 50, 100)

    def validate(self) -> None:
        if not self.cutoffs or any(k <= 0 for k in self.cutoffs):
            raise ConfigurationError("cutoffs must be positive integers")


@dataclass
class ServiceConfig:
    """Parameters of the online expansion service (:mod:`repro.serve`)."""

    #: maximum number of cached expansion results (LRU-evicted).
    cache_capacity: int = 1024
    #: ranked-list size used when a request does not specify ``top_k``.
    default_top_k: int = 100
    #: bind address of the HTTP server.
    host: str = "127.0.0.1"
    #: TCP port of the HTTP server; 0 picks an ephemeral port.
    port: int = 8080
    #: directory of the persistent fitted-expander artifact store
    #: (:mod:`repro.store`); ``None`` keeps fits in-process only.
    store_dir: str | None = None
    #: emit one structured JSON access-log line per HTTP request (request_id,
    #: verb, route, status, latency_ms, cache hit) on the
    #: ``repro.serve.access`` logger instead of http.server's stderr chatter.
    access_log: bool = False
    #: ceiling on how long a request waits for another worker's in-flight
    #: fit (cold fits elect one leader through a lock file whenever a store
    #: is attached) before fitting locally anyway (liveness over
    #: single-payer).
    fit_lock_wait_seconds: float = 600.0
    #: record counters/gauges/latency histograms on the service's metrics
    #: registry (:mod:`repro.obs`); ``False`` swaps in no-op instruments —
    #: the mode the benchmark overhead guard measures its baseline with.
    metrics_enabled: bool = True
    #: emit a JSON slow-query log line (logger ``repro.obs.slowlog``) for
    #: every expand slower than this many milliseconds, with per-stage span
    #: timings attached; ``None`` disables the slow-query log.
    slow_query_ms: float | None = None
    #: API keyfile (JSON, see :mod:`repro.gate.tenants`) enabling the
    #: multi-tenant front door; ``None`` leaves the server open.  The file
    #: is re-statted for hot reload at most once a second.
    keyfile: str | None = None
    #: token-bucket quota (``"RATE"`` or ``"RATE:BURST"``, requests/second)
    #: applied to tenants without an explicit quota — and, with no keyfile,
    #: to the shared anonymous tenant; ``None`` disables quota enforcement
    #: for those callers.
    default_quota: str | None = None
    #: execution slots of the admission controller, the one bound on how
    #: many uncached expands run at once; requests past this concurrency
    #: wait in a bounded, two-lane queue (interactive traffic preempts
    #: batch/fit).  ``None`` disables admission control.
    admission_max_concurrent: int | None = None
    #: waiting requests past which new sheddable arrivals get an immediate
    #: retryable 503 instead of queueing.
    admission_queue_depth: int = 32
    #: longest a sheddable request waits for a slot before a 503.
    admission_timeout_seconds: float = 10.0

    def validate(self) -> None:
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise ConfigurationError("slow_query_ms must be non-negative or None")
        if self.store_dir is not None and not str(self.store_dir).strip():
            raise ConfigurationError("store_dir must be a non-empty path or None")
        if self.fit_lock_wait_seconds <= 0:
            raise ConfigurationError("fit_lock_wait_seconds must be positive")
        if self.cache_capacity < 0:
            raise ConfigurationError("cache_capacity must be non-negative")
        if self.default_top_k < 1:
            raise ConfigurationError("default_top_k must be >= 1")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.keyfile is not None and not str(self.keyfile).strip():
            raise ConfigurationError("keyfile must be a non-empty path or None")
        if self.default_quota is not None:
            from repro.gate.limiter import QuotaSpec

            QuotaSpec.parse(self.default_quota)  # raises ConfigurationError
        if self.admission_max_concurrent is not None and (
            self.admission_max_concurrent < 1
        ):
            raise ConfigurationError(
                "admission_max_concurrent must be >= 1 or None"
            )
        if self.admission_queue_depth < 0:
            raise ConfigurationError("admission_queue_depth must be non-negative")
        if self.admission_timeout_seconds <= 0:
            raise ConfigurationError("admission_timeout_seconds must be positive")


@dataclass
class ClusterConfig:
    """Parameters of the multi-worker deployment (:mod:`repro.cluster`).

    A cluster is a routing gateway in front of ``num_workers`` ``repro
    serve`` processes: workers listen on consecutive ports starting at
    ``worker_base_port``, the gateway consistent-hashes method-affine
    traffic across them, and the pool restarts crashed workers with
    exponential backoff (probe and backoff timings are
    :class:`~repro.cluster.WorkerPool`'s own defaults).  Per-worker serving
    behaviour (cache, admission, store) is each worker's own
    :class:`ServiceConfig`, which ``repro cluster serve`` hands a worker as
    ``repro serve`` flags on its command line.
    """

    #: number of serving worker processes behind the gateway.
    num_workers: int = 2
    #: bind address of the worker processes.
    worker_host: str = "127.0.0.1"
    #: workers listen on ``worker_base_port + i`` (must be explicit ports:
    #: the gateway needs to know every worker URL up front).
    worker_base_port: int = 8100
    #: bind address / port of the routing gateway; port 0 picks ephemeral.
    gateway_host: str = "127.0.0.1"
    gateway_port: int = 8080
    #: virtual nodes per worker on the consistent-hash ring.
    virtual_nodes: int = 64
    #: how long the gateway sidelines a worker after a failed proxy attempt
    #: before routing traffic at it again.
    failover_cooldown_seconds: float = 1.0
    #: socket timeout for gateway -> worker proxy calls (covers in-request
    #: cold fits, hence much larger than the pool's health timeout).
    proxy_timeout_seconds: float = 120.0
    #: emit one structured JSON access-log line per gateway request on the
    #: ``repro.cluster.access`` logger (mirrors ``ServiceConfig.access_log``).
    gateway_access_log: bool = False
    #: API keyfile enforced at the *gateway* (workers behind it stay open
    #: and trust the gateway's forwarded tenant header); ``None`` leaves
    #: the cluster front door open.  Re-statted at most once a second.
    keyfile: str | None = None
    #: gateway-enforced default quota (``"RATE"`` or ``"RATE:BURST"``).
    default_quota: str | None = None

    def validate(self) -> None:
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if not 1 <= self.worker_base_port <= 65535:
            raise ConfigurationError("worker_base_port must be in [1, 65535]")
        if self.worker_base_port + self.num_workers - 1 > 65535:
            raise ConfigurationError("worker ports exceed 65535")
        if not 0 <= self.gateway_port <= 65535:
            raise ConfigurationError("gateway_port must be in [0, 65535]")
        if self.virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be >= 1")
        if self.failover_cooldown_seconds < 0:
            raise ConfigurationError("failover_cooldown_seconds must be non-negative")
        if self.proxy_timeout_seconds <= 0:
            raise ConfigurationError("proxy_timeout_seconds must be positive")
        if self.keyfile is not None and not str(self.keyfile).strip():
            raise ConfigurationError("keyfile must be a non-empty path or None")
        if self.default_quota is not None:
            from repro.gate.limiter import QuotaSpec

            QuotaSpec.parse(self.default_quota)  # raises ConfigurationError

    def worker_port(self, index: int) -> int:
        return self.worker_base_port + index

    def worker_url(self, index: int) -> str:
        return f"http://{self.worker_host}:{self.worker_port(index)}"
