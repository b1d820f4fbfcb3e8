"""Reference LDA sampler for tests: the per-token collapsed Gibbs loop of
Griffiths & Steyvers (2004) that ``newsciv.lda`` ran before its blocked
sampler. It resamples every token's topic from leave-one-out counts, in
document and token order, drawing one batch of uniforms per sweep from the
model's stream.
"""

from __future__ import annotations

import numpy as np

from newsciv.lda import LdaModel


def collapsed_sweeps(model: LdaModel, n_sweeps: int) -> None:
    """Run ``n_sweeps`` collapsed sweeps on ``model``'s state in place,
    appending to ``model.log_likelihoods`` after each sweep like
    :meth:`LdaModel.sweep` does."""
    k = model.n_topics
    alpha = model.config.alpha
    beta = model.config.beta
    v_beta = beta * len(model.vocabulary)
    last = k - 1
    topic_range = range(k)

    doc_topic = model.doc_topic.tolist()
    term_topic = model.term_topic.tolist()
    totals = model.topic_totals.tolist()
    denom = [t + v_beta for t in totals]
    tokens = list(zip(model.docs.tolist(), model.words.tolist()))
    zs = model.z.tolist()
    cum = [0.0] * k

    for _ in range(n_sweeps):
        uniforms = model._rng.random(model.n_tokens).tolist()
        for i, (d, w) in enumerate(tokens):
            z = zs[i]
            dt = doc_topic[d]
            tt = term_topic[w]
            dt[z] -= 1
            tt[z] -= 1
            totals[z] -= 1
            denom[z] -= 1.0

            total = 0.0
            for j in topic_range:
                total += (dt[j] + alpha) * (tt[j] + beta) / denom[j]
                cum[j] = total
            target = uniforms[i] * total
            z = 0
            while z < last and cum[z] <= target:
                z += 1

            zs[i] = z
            dt[z] += 1
            tt[z] += 1
            totals[z] += 1
            denom[z] += 1.0

        model.z = np.array(zs, dtype=np.int64)
        model._recount()
        model.log_likelihoods.append(model.log_likelihood())
