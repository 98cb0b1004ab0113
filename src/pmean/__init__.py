"""Concatenated generalized-mean sentence embeddings.

Sentence vectors are built by pooling word embeddings with several
generalized means (arithmetic, min, max, and any real exponent) and
concatenating the pooled blocks across multiple embedding spaces. The
package also trains a bilingual tanh projection with a cosine ranking loss
and provides the logistic-regression evaluation harness used to compare
representations on labeled transfer tasks.
"""

__version__ = "0.1.0"

from .classifier import TrainProtocol
from .embeddings import EmbeddingSpace, load_text_embeddings
from .evaluation import evaluate_monolingual, load_task
from .pooling import PooledConfig, PooledPart, embed_corpus

# the names the README's API sketch uses; everything else is imported from its submodule
__all__ = [
    "EmbeddingSpace",
    "PooledConfig",
    "PooledPart",
    "TrainProtocol",
    "embed_corpus",
    "evaluate_monolingual",
    "load_task",
    "load_text_embeddings",
]
