"""Bidirectional-GRU sequence labeler for clinical concept span annotation."""

from .chunking import (
    ChunkConfig,
    ChunkTable,
    PaddedChunk,
    chunk_count,
    chunk_sentence,
    chunk_table,
    merge_chunk_predictions,
)
from .corpus import (
    AnnotatedCorpus,
    AnnotatedSentence,
    ConceptSpan,
    RawToken,
    StatsReport,
    Vocabulary,
    build_vocab,
    corpus_stats,
    decode_iob,
    normalize_token,
    parse_corpus,
    serialize_corpus,
    stratified_split,
)
from .features import (
    CharCnnParams,
    EmbeddingTable,
    load_embeddings,
)
from .metrics import EvalResult, evaluation_report, prf, span_match_counts, token_accuracy
from .neural import (
    AdamState,
    DenseParams,
    GruDirectionParams,
    ModelDims,
    ModelParameters,
    adam_step,
    clip_gradients,
    dense_softmax,
    finite_difference_check,
)
from .tagger import (
    TrainConfig,
    TrainHistory,
    annotate_sentence,
    load_model,
    save_model,
    train,
)

__version__ = "0.1.0"
