"""The three training objectives: next-token pre-training loss,
response-masked supervised fine-tuning loss, and preference optimization
against a frozen reference model.

All losses are token-mean per sequence and batch-mean per step, so
learning rates transfer across sequence lengths. Multiply by token
counts to recover summed losses. Each batch, of any sequence lengths, is
one ragged forward (``model.forward_logits`` with segment lengths).
"""

from __future__ import annotations

import numpy as np

from . import model as M
from . import tensor as T
from .errors import DataError


def cpt_loss(params, adapter, blocks, train_rng=None):
    """Mean next-token NLL over one packed block, or over a stack of
    equal-length blocks run as one ragged forward, one segment per block. A
    stack's loss is the batch mean of per-block token means, which for equal
    lengths is the mean over all of its positions."""
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.int64))
    inputs = blocks[:, :-1]
    logits = M.forward_logits(params, adapter, inputs.ravel(), train_rng=train_rng,
                              lengths=[inputs.shape[1]] * len(inputs))
    return T.cross_entropy_next_token(logits, blocks[:, 1:].ravel())


def sft_tokens(ex, vocab, renderer):
    """(token ids, loss weights) for one example: response + EOS weighted 1,
    prompt positions weighted 0. Targets at index t are ids[t+1]."""
    prompt_ids = M.encode(vocab, renderer(ex))
    out_ids = M.encode(vocab, ex.output) + [M.EOS]
    ids = [M.BOS] + prompt_ids + out_ids
    weights = np.zeros(len(ids) - 1)
    weights[len(prompt_ids) :] = 1.0  # targets ids[t+1]: response starts there
    return ids, weights


def sft_loss(params, adapter, batch, vocab, renderer=None, train_rng=None, target_override=None):
    """Batch mean of each example's mean NLL over its response tokens, from
    one ragged forward; prompt positions contribute 0.

    target_override replaces the batch's target ids (the examples' targets
    back to back; weights unchanged) and exists so masking can be verified:
    zero-weight targets never affect the value.
    """
    if renderer is None:
        from .data import render_prompt as renderer
    if not batch:
        raise DataError("sft_loss: empty batch")
    seqs, weights = [], []
    for ex in batch:
        ids, w = sft_tokens(ex, vocab, renderer)
        if len(ids) > params.config.max_seq_len + 1:
            raise DataError(
                f"sft_loss: rendered example length {len(ids)} exceeds context "
                f"{params.config.max_seq_len + 1}"
            )
        seqs.append(ids)
        weights.append(w / w.sum())  # each example's weights sum to 1
    targets = (np.concatenate([ids[1:] for ids in seqs]) if target_override is None
               else target_override)
    logits = M.forward_logits(params, adapter, np.concatenate([ids[:-1] for ids in seqs]),
                              train_rng=train_rng, lengths=[len(ids) - 1 for ids in seqs])
    return T.pick_nll(T.log_softmax_rows(logits), targets, np.concatenate(weights))


def sequence_logprob(params, adapter, sequences, paired=False, train_rng=None):
    """Response log-prob sums from one ragged forward over ``sequences``, a
    list of (prompt ids, response ids): log P(response | prompt) per
    sequence, a Tensor [len(sequences)]. With ``paired``, consecutive
    sequences are a (chosen, rejected) pair and the result is each pair's
    chosen-minus-rejected difference, [len(sequences) // 2].

    Graph-recorded iff params/adapter require grad.
    """
    inputs, targets, coef, lengths = [], [], [], []
    for j, (prompt_ids, response_ids) in enumerate(sequences):
        if not len(prompt_ids):
            raise DataError(f"sequence_logprob: sequence {j} has an empty prompt")
        ids = list(prompt_ids) + list(response_ids)
        if len(ids) > params.config.max_seq_len + 1:
            raise DataError(f"sequence_logprob: length {len(ids)} exceeds context")
        inputs += ids[:-1]
        targets += ids[1:]
        lengths.append(len(ids) - 1)
        sign = -1.0 if paired and j % 2 else 1.0
        coef += [0.0] * (len(prompt_ids) - 1) + [sign] * len(response_ids)
    per = 2 if paired else 1
    logits = M.forward_logits(params, adapter, inputs, train_rng=train_rng, lengths=lengths)
    return T.pick_sum(T.log_softmax_rows(logits), targets, np.array(coef),
                      np.repeat(np.arange(len(lengths)) // per, lengths), len(lengths) // per)


def _pair_sequences(pairs, vocab):
    """(prompt, chosen) then (prompt, rejected) ids per pair; prompts rendered
    with the SFT prompt template so DPO sees the same surface form as SFT."""
    from .data import render_bare_prompt

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


def dpo_implicit_reward(params, adapter, beta, pairs, vocab, reference, train_rng=None):
    """beta * (policy margin - reference margin) per pair, a Tensor
    [len(pairs)]: the chosen response's implicit reward minus the rejected
    one's. ``reference`` holds the frozen reference model's
    preference_margins for the same pairs.

    The partition term beta*log Z is prompt-only and cancels in the
    difference, so it is omitted here.
    """
    policy = sequence_logprob(params, adapter, _pair_sequences(pairs, vocab), paired=True,
                              train_rng=train_rng)
    return beta * (policy - reference)


def dpo_loss(params, adapter, beta, pairs, vocab, reference, train_rng=None):
    """Mean over pairs of -log sigmoid(reward margin); returns (loss, the
    reward margins as an array). ``reference`` as for dpo_implicit_reward."""
    if not pairs:
        raise DataError("dpo_loss: empty batch")
    rewards = dpo_implicit_reward(params, adapter, beta, pairs, vocab, reference, train_rng)
    return (-1.0 / len(pairs)) * T.tsum(T.log_sigmoid(rewards)), rewards.data
