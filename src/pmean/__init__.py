"""Concatenated generalized-mean sentence embeddings.

Sentence vectors are built by pooling word embeddings with several
generalized means (arithmetic, min, max, and any real exponent) and
concatenating the pooled blocks across multiple embedding spaces. The
package also trains a bilingual tanh projection with a cosine ranking loss
and provides the logistic-regression evaluation harness used to compare
representations on labeled transfer tasks.
"""

__version__ = "0.1.0"

from .classifier import (
    EvalScore,
    SoftmaxModel,
    TrainProtocol,
    fit,
    fit_runs,
    metrics,
    score_runs,
    softmax_xent,
)
from .embeddings import (
    EmbeddingSpace,
    LookupResult,
    OovPolicy,
    TokenizerConfig,
    load_text_embeddings,
    lookup_sequence,
    save_text_embeddings,
    tokenize,
)
from .errors import DimensionError, FormatError, InputError, NumericalPolicyError
from .optim import AdamState, adam_step
from .evaluation import (
    EvalReport,
    ReportRow,
    TaskDataset,
    TaskResult,
    TransferPair,
    TransferResult,
    emit_report,
    evaluate_monolingual,
    evaluate_transfer,
    load_task,
    parse_report,
    save_task,
    sweep_pmeans,
)
from .pooling import (
    ConfigEntry,
    PooledConfig,
    PooledPart,
    SingularityPolicy,
    ZNormParams,
    embed_corpus,
    format_config,
    parse_config_text,
    power_mean,
    resolve_config,
    znorm_apply,
    znorm_fit,
)
from .projection import (
    ParallelCorpus,
    ProjectionModel,
    ProjectionTrainConfig,
    cosine,
    hinge_loss,
    hinge_loss_grads,
    init_projection,
    load_projection,
    project,
    project_space,
    save_projection,
    train_projection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
