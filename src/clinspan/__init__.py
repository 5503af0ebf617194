"""Bidirectional-GRU sequence labeler for clinical concept span annotation."""

from .chunking import ChunkConfig, PaddedChunk, chunk_count, chunk_sentence, merge_chunk_predictions
from .corpus import (
    AnnotatedCorpus,
    AnnotatedSentence,
    RawToken,
    StatsReport,
    Vocabulary,
    build_vocab,
    corpus_stats,
    normalize_token,
    parse_corpus,
    serialize_corpus,
    stratified_split,
)
from .features import (
    CharCnnParams,
    EmbeddingTable,
    FeatureMatrix,
    PosEmbedding,
    char_cnn_forward,
    featurize_chunk,
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
    apply_dropout,
    backward,
    clip_gradients,
    dense_softmax,
    finite_difference_check,
    masked_cross_entropy,
)
from .tagger import (
    ConceptSpan,
    TrainConfig,
    TrainHistory,
    annotate_sentence,
    decode_iob,
    load_model,
    save_model,
    spans_to_iob,
    train,
)

__version__ = "0.1.0"
