"""The three training objectives: next-token pre-training loss,
response-masked supervised fine-tuning loss, and preference optimization
against a frozen reference model.

All losses are token-mean per sequence and batch-mean per step, so
learning rates transfer across sequence lengths. Multiply by token
counts to recover summed losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .errors import ConfigError, DataError
from .tensor import Tensor


@dataclass
class DpoConfig:
    beta: float
    reference_params: M.ModelParams
    reference_adapter: M.LoraAdapter | None = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ConfigError("DpoConfig: beta must be positive")


def cpt_loss(params, adapter, blocks, train_rng=None):
    """Mean next-token NLL over one packed block, or over a stack of
    equal-length blocks run as one ``[B, T]`` forward. A stack's loss is the
    batch mean of per-block token means, which for equal lengths is the mean
    over all of its positions."""
    blocks = np.asarray(blocks, dtype=np.int64)
    logits = M.forward_logits(params, adapter, blocks[..., :-1], train_rng=train_rng)
    return T.cross_entropy_next_token(logits, blocks[..., 1:])


def sft_tokens(ex, vocab, renderer):
    """(token ids, loss weights) for one example: response + EOS weighted 1,
    prompt positions weighted 0. Targets at index t are ids[t+1]."""
    prompt_ids = M.encode(vocab, renderer(ex))
    out_ids = M.encode(vocab, ex.output) + [M.EOS]
    ids = [M.BOS] + prompt_ids + out_ids
    weights = np.zeros(len(ids) - 1)
    weights[len(prompt_ids) :] = 1.0  # targets ids[t+1]: response starts there
    return ids, weights


def sft_loss(params, adapter, ex, vocab, renderer=None, train_rng=None, target_override=None):
    """Mean NLL over response tokens only; prompt positions contribute 0.

    target_override replaces the target id array (weights unchanged) and
    exists so masking can be verified: zero-weight targets never affect
    the value.
    """
    if renderer is None:
        from .data import render_prompt as renderer
    if not ex.output:
        raise DataError("sft_loss: empty output")
    ids, weights = sft_tokens(ex, vocab, renderer)
    if len(ids) > params.config.max_seq_len + 1:
        raise DataError(
            f"sft_loss: rendered example length {len(ids)} exceeds context "
            f"{params.config.max_seq_len + 1}"
        )
    targets = ids[1:] if target_override is None else list(target_override)
    logits = M.forward_logits(params, adapter, ids[:-1], train_rng=train_rng)
    return T.pick_nll(T.log_softmax_rows(logits), targets, weights)


def sequence_logprob(params, adapter, prompt_ids, response_ids, train_rng=None):
    """Sum over response tokens of log P(token | prompt, prior response tokens).

    Returns a scalar Tensor (graph-recorded iff params/adapter require grad).
    """
    if not response_ids:
        return Tensor(0.0)
    ids = list(prompt_ids) + list(response_ids)
    if len(ids) > params.config.max_seq_len + 1:
        raise DataError(f"sequence_logprob: length {len(ids)} exceeds context")
    logits = M.forward_logits(params, adapter, ids[:-1], train_rng=train_rng)
    start = len(prompt_ids) - 1  # row predicting the first response token
    resp_logits = T.slice_rows(logits, start, len(ids) - 1)
    return T.pick_logprob_sum(T.log_softmax_rows(resp_logits), response_ids)


def dpo_implicit_reward(params, adapter, cfg, prompt_ids, response_ids):
    """beta * (policy logprob - reference logprob) for one response.

    The partition term beta*log Z is prompt-only and cancels in the
    pairwise loss, so it is omitted here.
    """
    pol = sequence_logprob(params, adapter, prompt_ids, response_ids)
    with T.no_grad():
        ref = sequence_logprob(
            cfg.reference_params, cfg.reference_adapter, prompt_ids, response_ids
        )
    return cfg.beta * (pol - float(ref.data))


def dpo_loss(params, adapter, cfg, pairs, vocab, train_rng=None):
    """Mean over pairs of -log sigmoid(reward(preferred) - reward(rejected)).

    pairs: list of PreferencePair; prompts rendered with the SFT prompt
    template so DPO sees the same surface form as SFT.
    """
    if not pairs:
        raise DataError("dpo_loss: empty batch")
    from .data import render_bare_prompt

    total = None
    for pair in pairs:
        prompt_ids = [M.BOS] + M.encode(vocab, render_bare_prompt(pair.prompt))
        pref_ids = M.encode(vocab, pair.preferred) + [M.EOS]
        rej_ids = M.encode(vocab, pair.rejected) + [M.EOS]
        r_pref = dpo_implicit_reward(params, adapter, cfg, prompt_ids, pref_ids)
        r_rej = dpo_implicit_reward(params, adapter, cfg, prompt_ids, rej_ids)
        nll = -1.0 * T.log_sigmoid(r_pref - r_rej)
        total = nll if total is None else total + nll
    return (1.0 / len(pairs)) * total


def preference_margins(params, adapter, cfg, pairs, vocab):
    """Policy logprob(preferred) - logprob(rejected) per pair, no grad."""
    from .data import render_bare_prompt

    margins = []
    with T.no_grad():
        for pair in pairs:
            prompt_ids = [M.BOS] + M.encode(vocab, render_bare_prompt(pair.prompt))
            pref = sequence_logprob(
                params, adapter, prompt_ids, M.encode(vocab, pair.preferred) + [M.EOS]
            )
            rej = sequence_logprob(
                params, adapter, prompt_ids, M.encode(vocab, pair.rejected) + [M.EOS]
            )
            margins.append(float(pref.data) - float(rej.data))
    return margins
