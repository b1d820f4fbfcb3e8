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

The package root exports only the ten names that README's quickstart and
the demos import; every other name is imported from its module.
"""

from .corpus import filter_by_tag
from .incivility import (article_weights, label_by_source, predict_provoking, score_comment,
                         train_aspect_classifiers, train_provoking_classifier)
from .subtext import mine_subtext
from .synthetic import SyntheticConfig, generate_corpus

__version__ = "0.1.0"
