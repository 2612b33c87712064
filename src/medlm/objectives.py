"""The three training objectives: next-token pre-training loss,
response-masked supervised fine-tuning loss, and preference optimization
against a frozen reference model.

Each objective is a coefficient-weighted sum of target log-probs over
one ragged batch, so all three go through one scorer: one
``model.forward_logits`` over the batch's sequences, of any lengths, and
one ``tensor.logprob_sums``. Each sequence is scored from its first
nonzero coefficient to its end, or at its last row, which then
contributes exactly 0, if it has none: the forward returns logits for
that suffix alone, so the last layer's queries, attention, feed-forward
block, the final norm, the head and the log-softmax skip the prompt
positions an SFT or DPO batch masks out. The CPT loss is the token mean
over every position of the batch, or of the whole batch a part of it
belongs to; the SFT loss is the batch mean of each example's token mean
over its response; a DPO batch scores each pair's chosen minus rejected
response log-prob. Means keep learning rates independent of sequence
length.
"""

from __future__ import annotations

import numpy as np

from . import model as M
from . import tensor as T
from .data import render_bare_prompt, render_prompt
from .errors import DataError, ShapeError


def _score(params, adapter, inputs, targets, coef, groups):
    """Sums of coef * log P(target) per group, a Tensor [max(groups) + 1],
    from one ragged forward. ``inputs``, ``targets`` and ``coef`` hold one
    array per sequence, ``groups`` one group. The forward takes the
    sequences stably ordered by (length, scored length), with their targets,
    coefficients and groups, so attention runs each shape as one product."""
    if not inputs:
        raise DataError("empty batch: no sequences to score")
    lengths = [len(x) for x in inputs]
    if not lengths == [len(t) for t in targets] == [len(c) for c in coef]:
        raise ShapeError(f"_score: targets and coefficients for sequences of lengths {lengths}")
    scored = [n - next(iter(np.flatnonzero(c)), n - 1) for n, c in zip(lengths, coef)]
    order = sorted(range(len(inputs)), key=lambda i: (lengths[i], scored[i]))
    lengths, scored = np.array(lengths)[order], np.array(scored)[order]
    tokens, targets, coef = (np.concatenate([a[i] for i in order])
                             for a in (inputs, targets, coef))
    keep = np.arange(tokens.size) >= np.repeat(np.cumsum(lengths) - scored, lengths)
    logits = M.forward_logits(params, adapter, tokens, lengths=lengths, scored=scored)
    return T.logprob_sums(logits, targets[keep], coef[keep],
                          np.repeat(np.asarray(groups)[order], lengths)[keep], max(groups) + 1)


def cpt_loss(params, adapter, blocks, n_positions=None):
    """Mean next-token NLL over every position of ``blocks``, a list of token
    blocks of any lengths, from one ragged forward. With ``n_positions`` the
    NLL sum is divided by it instead: the parts of a split batch, each given
    the whole batch's count, add up to the batch's mean."""
    n = n_positions or sum(len(b) - 1 for b in blocks)
    coef = [np.full(len(b) - 1, -1.0 / n) for b in blocks]
    nll = _score(params, adapter, [b[:-1] for b in blocks], [b[1:] for b in blocks], coef,
                 [0] * len(blocks))
    return T.tsum(nll)


def sft_tokens(ex, vocab):
    """(token ids, loss weights) for one example: response + EOS weighted 1,
    prompt positions weighted 0. Targets at index t are ids[t+1]."""
    prompt_ids = M.encode(vocab, render_prompt(ex))
    out_ids = M.encode(vocab, ex.output) + [M.EOS]
    ids = [M.BOS] + prompt_ids + out_ids
    weights = np.zeros(len(ids) - 1)
    weights[len(prompt_ids) :] = 1.0  # targets ids[t+1]: response starts there
    return ids, weights


def sft_loss(params, adapter, batch, vocab, target_override=None):
    """Batch mean of each example's mean NLL over its response tokens, from
    one ragged forward; prompt positions contribute 0.

    target_override replaces the batch's target ids (the examples' targets
    back to back; weights unchanged) and exists so masking can be verified:
    zero-weight targets never affect the value.
    """
    if not batch:
        raise DataError("sft_loss: empty batch")
    seqs, coef = [], []
    for ex in batch:
        ids, w = sft_tokens(ex, vocab)
        seqs.append(ids)
        coef.append(w * (-1.0 / (w.sum() * len(batch))))  # each example's sum to -1/B
    targets = ([ids[1:] for ids in seqs] if target_override is None else
               np.split(np.asarray(target_override), np.cumsum([len(x) - 1 for x in seqs])[:-1]))
    nll = _score(params, adapter, [ids[:-1] for ids in seqs], targets, coef, [0] * len(batch))
    return T.tsum(nll)


def sequence_logprob(params, adapter, sequences, paired=False):
    """Response log-prob sums from one ragged forward over ``sequences``, a
    list of (prompt ids, response ids): log P(response | prompt) per
    sequence, a Tensor [len(sequences)]. With ``paired``, consecutive
    sequences are a (chosen, rejected) pair and the result is each pair's
    chosen-minus-rejected difference, [len(sequences) // 2].

    Graph-recorded iff params/adapter require grad.
    """
    inputs, targets, coef = [], [], []
    for j, (prompt_ids, response_ids) in enumerate(sequences):
        if not len(prompt_ids):
            raise DataError(f"sequence_logprob: sequence {j} has an empty prompt")
        ids = list(prompt_ids) + list(response_ids)
        inputs.append(ids[:-1])
        targets.append(ids[1:])
        sign = -1.0 if paired and j % 2 else 1.0
        coef.append([0.0] * (len(prompt_ids) - 1) + [sign] * len(response_ids))
    per = 2 if paired else 1
    return _score(params, adapter, inputs, targets, coef, np.arange(len(sequences)) // per)


def _pair_sequences(pairs, vocab):
    """(prompt, chosen) then (prompt, rejected) ids per pair; prompts rendered
    with the SFT prompt template so DPO sees the same surface form as SFT."""
    seqs = []
    for pair in pairs:
        prompt_ids = [M.BOS] + M.encode(vocab, render_bare_prompt(pair.prompt))
        seqs += [(prompt_ids, M.encode(vocab, text) + [M.EOS])
                 for text in (pair.preferred, pair.rejected)]
    return seqs


def preference_margins(params, adapter, pairs, vocab, batch_size=8):
    """Chosen-minus-rejected response log-prob per pair, no grad: an array
    [len(pairs)], from one ragged forward per batch_size pairs."""
    with T.no_grad():
        return np.concatenate([
            sequence_logprob(params, adapter, _pair_sequences(pairs[i:i + batch_size], vocab),
                             paired=True).data
            for i in range(0, len(pairs), batch_size)])


def dpo_implicit_reward(params, adapter, beta, pairs, vocab, reference):
    """beta * (policy margin - reference margin) per pair, a Tensor
    [len(pairs)]: the chosen response's implicit reward minus the rejected
    one's. ``reference`` holds the frozen reference model's
    preference_margins for the same pairs.

    The partition term beta*log Z is prompt-only and cancels in the
    difference, so it is omitted here.
    """
    policy = sequence_logprob(params, adapter, _pair_sequences(pairs, vocab), paired=True)
    return beta * (policy - reference)


def dpo_loss(params, adapter, beta, pairs, vocab, reference):
    """Mean over pairs of -log sigmoid(reward margin); returns (loss, the
    reward margins as an array). ``reference`` as for dpo_implicit_reward."""
    rewards = dpo_implicit_reward(params, adapter, beta, pairs, vocab, reference)
    return (-1.0 / len(pairs)) * T.tsum(T.log_sigmoid(rewards)), rewards.data
