"""Shared test utilities, most importantly the finite-difference gradient
oracle. The oracle is deliberately independent of the autodiff engine: it
only calls a closure mapping plain numpy parameter arrays to a float loss."""

from __future__ import annotations

import numpy as np


def numeric_gradient(fn, arrays, h=1e-5):
    """Central finite differences of ``fn`` at ``arrays``.

    fn: callable taking a dict name -> np.ndarray and returning a float.
    arrays: dict name -> np.ndarray (float64), not mutated.
    Returns a dict of gradient arrays of matching shapes.
    """
    grads = {}
    work = {k: v.copy() for k, v in arrays.items()}
    for name, a in work.items():
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = fn(work)
            flat[i] = orig - h
            lo = fn(work)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return grads


def relative_error(a, b, floor=1e-8):
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# -- naive channel-combination references ---------------------------------------
#
# Per-frame loops with their own softmax and normalization code, so the
# vectorized tape path in ``combinator``/``frontends`` is checked against an
# independent route. ``p`` maps wq, wk, wv, bq to numpy arrays (as
# ``combinator.attention_init`` returns them); values are complex (C, T, K)
# spectra.


def naive_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def naive_mvn(x):
    """Mean/std normalization over the frame axis of (C, T, K)."""
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True)
    return (x - mean) / (std + 1e-6)


def naive_weights(feats, p):
    """Frame-by-frame reference for the attention weight computation."""
    n_ch, n_frames, _ = feats.shape
    out = np.zeros((n_ch, n_frames))
    for t in range(n_frames):
        frame = feats[:, t, :]
        q = frame @ p["wq"] + p["bq"]
        k = frame @ p["wk"]
        v = frame @ p["wv"]
        att = naive_softmax(q @ k.T / np.sqrt(p["wq"].shape[1]), axis=-1)
        scores = att @ v
        out[:, t] = naive_softmax(scores[:, 0], axis=0)
    return out


def naive_parts(values, parts):
    """Normalized attention inputs of the two representation parts."""
    if parts == "mag_phase":
        return (naive_mvn(np.log(np.abs(values) + 1e-8)),
                naive_mvn(np.angle(values)))
    return naive_mvn(values.real), naive_mvn(values.imag)


def naive_complex_sum(values, w_first, w_second, parts):
    """(T, K) channel sum and complex (C, T) weights from a weight pair:
    w = a * exp(j*2*pi*b) for mag_phase, a + j*b for real_imag."""
    if parts == "mag_phase":
        w = w_first * np.exp(1j * 2 * np.pi * w_second)
    else:
        w = w_first + 1j * w_second
    out = np.zeros(values.shape[1:], dtype=complex)
    for c in range(values.shape[0]):
        out += w[c][:, None] * values[c]
    return out, w


def naive_sacc(values, p):
    """(T, K) convex magnitude combination and its real (C, T) weights."""
    mag = np.abs(values)
    w = naive_weights(naive_mvn(np.log(mag + 1e-8)), p)
    out = np.zeros(mag.shape[1:])
    for c in range(mag.shape[0]):
        out += w[c][:, None] * mag[c]
    return out, w


def naive_ecsacc(values, pm, pp, parts="mag_phase"):
    """Two banks, one per part; returns (T, K) values and (C, T) weights."""
    first, second = naive_parts(values, parts)
    return naive_complex_sum(values, naive_weights(first, pm),
                             naive_weights(second, pp), parts)


def naive_icsacc(values, p, parts="mag_phase"):
    """One bank over both parts with a split value head; returns (T, K)
    values and (C, T) weights."""
    first, second = naive_parts(values, parts)
    k = values.shape[2]
    feats = np.concatenate([first, second], axis=-1)
    n_ch, n_frames, _ = feats.shape
    wm = np.zeros((n_ch, n_frames))
    wp = np.zeros((n_ch, n_frames))
    for t in range(n_frames):
        frame = feats[:, t, :]
        q = frame @ p["wq"] + p["bq"]
        kk = frame @ p["wk"]
        att = naive_softmax(q @ kk.T / np.sqrt(p["wq"].shape[1]), axis=-1)
        v_mag = frame[:, :k] @ p["wv"][:k]
        v_phase = frame[:, k:] @ p["wv"][k:]
        wm[:, t] = naive_softmax((att @ v_mag)[:, 0], axis=0)
        wp[:, t] = naive_softmax((att @ v_phase)[:, 0], axis=0)
    return naive_complex_sum(values, wm, wp, parts)


# -- naive training loop --------------------------------------------------------


def naive_dual_steps(frontend, model, items, tcfg, icfg):
    """Step records of one ``trainer.train`` epoch from the per-duplicate
    loop: every masked duplicate is analysed again from its own samples with
    ``frontend.features``. Same draws, losses and Adam updates as ``train``;
    no validation. Returns [{"step", "epoch", "ce", "loss", "inv"}, ...]."""
    from arrayvad import autodiff as ad
    from arrayvad.checkpoint import named_tensors
    from arrayvad.seqmodel import tcn_forward
    from arrayvad.signal_io import mask_channels
    from arrayvad.trainer import (AdamState, _aligned_labels, _crop_item,
                                  adam_step, cross_entropy, dual_loss,
                                  invariant_loss, make_masked_duplicates)

    params = named_tensors(frontend, model)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(tcfg.seed)
    records = []
    for step in range(tcfg.steps_per_epoch):
        batch = rng.integers(0, len(items), size=tcfg.batch_size)
        ce_total = inv_total = None
        for offset, index in enumerate(batch):
            signal, labels = _crop_item(items[int(index)], tcfg.segment_s, rng)
            feats = frontend.features(signal)
            logits = tcn_forward(model, feats)
            ce = cross_entropy(logits, _aligned_labels(labels, logits.shape[0]))
            ids = np.asarray(signal.channel_ids)
            dups = [mask_channels(signal, ids[row])
                    for row in make_masked_duplicates(
                        signal, icfg, step=step * tcfg.batch_size + offset)]
            inv = invariant_loss(feats, [frontend.features(d) for d in dups])
            ce_total = ce if ce_total is None else ce_total + ce
            inv_total = inv if inv_total is None else inv_total + inv
        ce_mean = ce_total * (1.0 / len(batch))
        inv_mean = inv_total * (1.0 / len(batch))
        loss = dual_loss(ce_mean, inv_mean, icfg.lam)
        adam_step(params, ad.grad(loss, params), state, tcfg.lr)
        records.append({"step": step, "epoch": 0, "ce": float(ce_mean.data),
                        "loss": float(loss.data), "inv": float(inv_mean.data)})
    return records


# -- naive channel-masking evaluation -------------------------------------------


def naive_mvdr_features(signal, geometry, n_mels):
    """Log-mel of the MVDR output of ``signal``'s channels alone: STFT, the
    CDR mask of the microphones their channel ids name, MVDR, log-mel."""
    from arrayvad.beamform import cdr_mask, mvdr
    from arrayvad.spectral import LOG_EPS, mel_filterbank, stft

    spec = stft(signal)
    mag = np.abs(mvdr(spec, cdr_mask(spec, geometry, signal.channel_ids)).values)
    bank = mel_filterbank(n_mels, spec.n_bins, signal.sample_rate)
    return np.log(mag @ bank + LOG_EPS)


def naive_maskeval(frontend, model, signal, ref_labels, keep_sets, win_s=2.0,
                   hop_s=0.5):
    """``maskeval`` rows from a per-keep-set loop: each keep set's masked
    copy of ``signal`` goes through a plain window loop that analyses every
    window from its own samples; ``mvdr`` features come from
    ``naive_mvdr_features``, not from the frontend. Returns
    (rows, [posteriors per keep set])."""
    from arrayvad.cli import _score_pair
    from arrayvad.segeval import sliding_infer
    from arrayvad.seqmodel import posteriors, tcn_forward
    from arrayvad.signal_io import mask_channels

    def posterior_fn(window):
        if frontend.kind == "mvdr":
            feats = naive_mvdr_features(window, frontend.geometry,
                                        frontend.n_mels)
        else:
            feats = frontend.features(window).data
        return posteriors(tcn_forward(model, feats))

    rows, posts = [], []
    for keep in keep_sets:
        labels = sliding_infer(posterior_fn, mask_channels(signal, keep),
                               win_s=win_s, hop_s=hop_s)
        rows.append({"n_channels": len(keep), "keep": list(keep),
                     **_score_pair(ref_labels, labels)})
        posts.append(labels.posteriors)
    return rows, posts
