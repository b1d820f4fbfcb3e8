"""newsciv: incivility scoring, provocation prediction, and subtext mining
for news article/comment corpora.

The package is organized as a small numpy/scipy library:

* :mod:`newsciv.corpus` — data model, JSONL ingestion, filtering, splitting
* :mod:`newsciv.textproc` — tokens, stop lists, integer n-gram ids, vocabularies
* :mod:`newsciv.features` — TF-IDF vectorization into CSR matrices
* :mod:`newsciv.linmodel` — logistic regression on CSR matrices and
  evaluation metrics
* :mod:`newsciv.incivility` — comment scoring, article weights, labeling,
  and the provoking-article classifier
* :mod:`newsciv.lda` — latent Dirichlet allocation by blocked Gibbs sampling
* :mod:`newsciv.subtext` — two-phase content/comment phrase mining
* :mod:`newsciv.synthetic` — seeded planted-signal corpus generator
* :mod:`newsciv.cli` — the ``newsciv`` batch command-line interface
"""

from .corpus import (
    AnnotatedComment,
    Article,
    Comment,
    Corpus,
    CorpusError,
    filter_by_keywords,
    filter_by_tag,
    load_annotated,
    load_articles,
    load_comment_columns,
    load_comments,
    save_annotated,
    save_articles,
    save_comments,
    train_test_split,
)
from .features import (
    TfidfConfig,
    TfidfModel,
    fit_transform,
    load_tfidf,
    save_tfidf,
)
from .incivility import (
    ASPECTS,
    ArticleIncivility,
    AspectClassifiers,
    IncivilityScore,
    ProvokingClassifier,
    SourceThreshold,
    article_weight,
    article_weights,
    binarize_aspect,
    label_articles,
    label_by_source,
    predict_provoking,
    score_comment,
    score_comments,
    source_median,
    train_aspect_classifiers,
    train_provoking_classifier,
    weights_by_source,
)
from .lda import LdaConfig, LdaModel, TopicSummary, fit_lda, topic_terms, topics_by_size
from .linmodel import (
    EvalReport,
    LogisticModel,
    TrainConfig,
    evaluate,
    load_logistic,
    roc_auc,
    save_logistic,
    train_logistic,
)
from .subtext import SubtextReport, extract_topic_phrases, mine_subtext
from .synthetic import SyntheticConfig, generate_corpus
from .textproc import DEFAULT_STOPLIST, Vocabulary, tokenize

__version__ = "0.1.0"
