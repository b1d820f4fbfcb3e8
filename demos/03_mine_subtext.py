"""Mine the phrases commenters use that the articles' own topics do not.

Phase one fits a topic model on article bodies and collects the top
phrases of the top topics. Phase two fits the same model on the comments
with those phrases excluded, so whatever surfaces is vocabulary unique to
the reader community. The synthetic corpus plants one such phrase in
comments only, and the miner recovers it.
"""

from newsciv import SyntheticConfig, filter_by_tag, generate_corpus, mine_subtext
from newsciv.lda import LdaConfig
from newsciv.subtext import report_to_markdown

config = SyntheticConfig(n_articles=90, comments_per_article=6, n_annotated=1, seed=23)
articles, comments, _ = generate_corpus(config)

themed = filter_by_tag(articles, config.tag)
selected_ids = {a.id for a in themed}

report = mine_subtext(
    [a.body for a in themed],
    [c.text for c in comments if c.article_id in selected_ids],
    config=LdaConfig(n_topics=5, alpha=0.1, beta=0.01, iterations=200, seed=13),
    min_phrase_df=5,
)

print(f"planted comment-only phrase: {config.subtext_phrase!r}")
print(f"recovered in comment phrases: {config.subtext_phrase in report.comment_phrases}")
print(f"phrase sets disjoint: {not (report.content_phrases & report.comment_phrases)}")
print()
print(report_to_markdown(report))
