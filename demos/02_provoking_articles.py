"""End-to-end provocation labeling and prediction.

The flow: score every comment, average per article into an incivility
weight, take each source's median weight as its labeling threshold
(articles strictly above it are "provoking"), then train a bigram
classifier that predicts the label from article text alone. The median
threshold keeps the two classes balanced by construction.
"""

from newsciv import (
    SyntheticConfig,
    article_weights,
    generate_corpus,
    label_by_source,
    predict_provoking,
    train_aspect_classifiers,
    train_provoking_classifier,
)
from newsciv.linmodel import TrainConfig

config = SyntheticConfig(n_articles=160, comments_per_article=12, n_annotated=600, seed=19)
articles, comments, annotated = generate_corpus(config)

classifiers, _ = train_aspect_classifiers(
    annotated, train_config=TrainConfig(max_iterations=200), split_seed=0
)

# One batch scores every comment and averages the scores per article.
_, weights = article_weights(classifiers, [c.text for c in comments],
                             [c.article_id for c in comments])
body_of = {a.id: a for a in articles}
thresholds, labeled = label_by_source(weights, [body_of[w.article_id].source for w in weights])
for threshold in thresholds:
    print(f"median incivility weight: {threshold.median_weight:.4f} "
          f"over {threshold.n_articles} articles")
positives = sum(1 for w in labeled if w.label)
print(f"articles labeled provoking: {positives}/{len(labeled)}")

pipeline, report = train_provoking_classifier(
    [body_of[w.article_id] for w in labeled],
    [bool(w.label) for w in labeled],
    train_config=TrainConfig(max_iterations=300),
    split_seed=1,
)
print(f"held-out prediction from article text alone: "
      f"auc={report.auc:.3f} accuracy={report.accuracy:.3f}")

marker = config.marker_bigram
proba_hot, _ = predict_provoking(pipeline, f"council {marker} budget hearing {marker}")
proba_calm, _ = predict_provoking(pipeline, "council budget hearing session docket")
print(f"body containing the planted marker scores {proba_hot:.3f}, "
      f"a calm body scores {proba_calm:.3f}")
