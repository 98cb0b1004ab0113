"""Concatenated generalized-mean sentence embeddings.

Sentence vectors are built by pooling word embeddings with several
generalized means (arithmetic, min, max, and any real exponent) and
concatenating the pooled blocks across multiple embedding spaces. The
package also trains a bilingual tanh projection with a cosine ranking loss
and provides the logistic-regression evaluation harness used to compare
representations on labeled transfer tasks.
"""
from importlib import import_module

__version__ = "0.1.0"

# the names the README's API sketch uses, each mapped to the submodule that
# defines it and imported on first use (PEP 562), so that importing pmean, as
# `pmean --version` does, loads no numpy; everything else is imported from its
# submodule
_SOURCES = {
    "EmbeddingSpace": "embeddings",
    "PooledConfig": "pooling",
    "PooledPart": "pooling",
    "TrainProtocol": "settings",
    "embed_corpus": "pooling",
    "evaluate_monolingual": "evaluation",
    "load_task": "evaluation",
    "load_text_embeddings": "embeddings",
}
__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
