"""Numbered acceptance checks for the whole toolkit.

Each check prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite documents and enforces the
contract at its stated tolerances. Checks with a runtime budget measure
themselves and include the time in the line.
"""

import json
import time

import numpy as np

from arrayvad import autodiff as ad
from arrayvad.arraysim import SceneSpec, SourceSpec, synth_scene, toy_dataset
from arrayvad.beamform import (ArrayGeometry, aliasing_limit_hz, cdr_mask,
                               mvdr, narrowband_beampattern,
                               plane_wave_delays, srp_phat, steering_weights)
from arrayvad.cli import main as cli_main
from arrayvad.combinator import (attention_init, combine_mag_phase_graph,
                                 combine_real_graph, mvn_graph, weights_graph)
from arrayvad.frontends import make_frontend
from arrayvad.segeval import (FrameLabels, Segment, SegmentSet,
                              labels_from_segments, osd_metrics, parse_rttm,
                              segments_from_labels, vad_metrics, write_rttm)
from arrayvad.seqmodel import (TcnConfig, decisions, posteriors, tcn_forward,
                               tcn_init)
from arrayvad.signal_io import MultichannelSignal, mask_channels
from arrayvad.spectral import (LOG_EPS, ComplexSpectrogram, hilbert_basis,
                               log_compress, mel_filterbank, mvn, stft)
from arrayvad.trainer import InvariantConfig, TrainConfig, invariant_loss, train

RATE = 16000


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    print(line)
    assert ok, line


# -- criterion 1: gradient oracle ---------------------------------------------

_C, _T, _K, _D = 4, 6, 17, 8
_FD_H = 1e-5
_MEL17 = mel_filterbank(8, _K, RATE)

_ATTN_KEYS = ("wq", "wk", "wv", "bq", "bk", "bv")


def _attn_params(feat_dim, seed, prefix=""):
    init = attention_init(feat_dim, _D, seed)
    return {prefix + k: ad.parameter(v) for k, v in init.items()}


def _sub(params, prefix):
    return {k: params[prefix + k] for k in _ATTN_KEYS}


def _logmel_graph(x):
    return ad.tlog(x @ ad.Tensor(_MEL17) + LOG_EPS)


def _fd_check(loss_fn, params):
    """Max mixed relative/absolute FD error over every parameter entry."""
    grads = ad.grad(loss_fn(), params)
    worst, checked = 0.0, 0
    for name in params:
        flat = params[name].data.reshape(-1)
        g = np.asarray(grads[name]).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + _FD_H
            hi = float(loss_fn().data)
            flat[i] = keep - _FD_H
            lo = float(loss_fn().data)
            flat[i] = keep
            fd = (hi - lo) / (2.0 * _FD_H)
            err = abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1e-2)
            worst = max(worst, err)
            checked += 1
    return worst, checked


def _complex_sum(a, b, spec_t):
    """Complex channel sum of (T, C, K) ``spec_t`` with the weight columns
    (a, b) packed as w = a*exp(j*2*pi*b), as the mag/phase frontends do."""
    phase = b * (2.0 * np.pi)
    return combine_mag_phase_graph(a * phase.cos(), a * phase.sin(),
                                   ad.Tensor(spec_t.real),
                                   ad.Tensor(spec_t.imag))


def _rand_spec(rng):
    return (rng.normal(size=(_C, _T, _K))
            + 1j * rng.normal(size=(_C, _T, _K)))


def test_criterion_01_gradient_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    results = {}

    # SACC+STFT: simplex weights over magnitudes, log-mel output.
    z = _rand_spec(rng)
    mag = np.abs(z)
    mag_t = np.transpose(mag, (1, 0, 2))
    att_in = mvn(log_compress(mag_t))
    probe = rng.normal(size=(_T, 8))
    p_sacc = _attn_params(_K, seed=1)

    def sacc_loss():
        w = weights_graph(ad.Tensor(att_in), p_sacc)
        comb = combine_real_graph(w, ad.Tensor(mag_t))
        return ad.tsum(_logmel_graph(comb) * ad.Tensor(probe))

    results["sacc"] = _fd_check(sacc_loss, p_sacc)

    # Analytic bank: trainable FIR pair plus attention over filter outputs.
    kernel_len = 32
    frames = rng.normal(size=(_T, _C, kernel_len)) * 0.5
    basis_t = hilbert_basis(kernel_len).T
    probe_a = rng.normal(size=(_T, 2 * _K))
    p_ana = _attn_params(_K, seed=2)
    bound = 1.0 / np.sqrt(kernel_len)
    p_ana["real_ir"] = ad.parameter(
        rng.uniform(-bound, bound, size=(_K, kernel_len)))

    def analytic_loss():
        ft = ad.Tensor(frames)
        real_ir = p_ana["real_ir"]
        imag_ir = real_ir @ ad.Tensor(basis_t)
        re = ft @ ad.transpose(real_ir, (1, 0))
        im = ft @ ad.transpose(imag_ir, (1, 0))
        att = mvn_graph(ad.tlog(ad.complex_abs(re, im) + LOG_EPS))
        w = weights_graph(att, _sub(p_ana, ""))
        row = combine_real_graph(w, ad.concat([re, im], axis=-1))
        return ad.tsum(row * ad.Tensor(probe_a))

    results["analytic"] = _fd_check(analytic_loss, p_ana)

    # EcSACC: separate magnitude and phase attention banks.
    z2 = _rand_spec(rng)
    z2_t = np.transpose(z2, (1, 0, 2))
    first = mvn(log_compress(np.abs(z2_t)))
    second = mvn(np.angle(z2_t))
    probe2 = rng.normal(size=(_T, 8))
    p_ec = {}
    p_ec.update(_attn_params(_K, seed=3, prefix="mag/"))
    p_ec.update(_attn_params(_K, seed=4, prefix="phase/"))

    def ecsacc_loss():
        w1 = weights_graph(ad.Tensor(first), _sub(p_ec, "mag/"))
        w2 = weights_graph(ad.Tensor(second), _sub(p_ec, "phase/"))
        re, im = _complex_sum(w1, w2, z2_t)
        return ad.tsum(_logmel_graph(ad.complex_abs(re, im))
                       * ad.Tensor(probe2))

    results["ecsacc"] = _fd_check(ecsacc_loss, p_ec)

    # IcSACC: one double-width bank with a split value head.
    z3 = _rand_spec(rng)
    z3_t = np.transpose(z3, (1, 0, 2))
    cat_t = np.concatenate([mvn(log_compress(np.abs(z3_t))),
                            mvn(np.angle(z3_t))], axis=-1)
    probe3 = rng.normal(size=(_T, 8))
    p_ic = _attn_params(2 * _K, seed=5)

    def icsacc_loss():
        w = weights_graph(ad.Tensor(cat_t), p_ic, value_split=_K)
        re, im = _complex_sum(w[:, :, :1], w[:, :, 1:], z3_t)
        return ad.tsum(_logmel_graph(ad.complex_abs(re, im))
                       * ad.Tensor(probe3))

    results["icsacc"] = _fd_check(icsacc_loss, p_ic)

    # TCN classifier on a (T, K) feature block.
    model = tcn_init(TcnConfig(input_dim=_K, bottleneck=4, hidden=6,
                               layers_per_block=2, blocks=2, kernel=2),
                     seed=6)
    x_tcn = rng.normal(size=(_T, _K))
    target = rng.normal(size=(_T, 3))

    def tcn_loss():
        logits = tcn_forward(model, x_tcn)
        return ad.tsum(ad.softmax(logits, axis=-1) * ad.Tensor(target))

    results["tcn"] = _fd_check(tcn_loss, model.tensors)

    elapsed = time.monotonic() - t0
    worst = max(err for err, _ in results.values())
    total = sum(n for _, n in results.values())
    ok = worst <= 1e-4 and elapsed <= 60.0
    report(1, "gradient oracle", ok,
           f"max rel err {worst:.2e} over {total} entries in 5 pipelines, "
           f"{elapsed:.1f} s")


# -- criterion 2: simplex + permutation ---------------------------------------


def test_criterion_02_simplex_and_permutation():
    kinds = [
        {"kind": "sacc", "attn_dim": 8},
        {"kind": "ecsacc", "attn_dim": 8},
        {"kind": "icsacc", "attn_dim": 8},
        {"kind": "analytic", "attn_dim": 8, "n_filters": 8,
         "kernel_len": 64},
    ]
    worst_sum, worst_perm, n_inputs = 0.0, 0.0, 0
    for kind_index, cfg in enumerate(kinds):
        for trial in range(25):
            seed = 1000 + 100 * kind_index + trial
            rng = np.random.default_rng(seed)
            frontend = make_frontend(dict(cfg), seed=seed)
            signal = MultichannelSignal(
                0.1 * rng.normal(size=(_C, 4000)), RATE)
            comb = frontend.combined(signal)
            w = comb.weights.values
            mags = np.abs(w)
            assert mags.min() >= 0.0
            if comb.weights.kind == "real":
                assert w.min() >= 0.0
            worst_sum = max(worst_sum, np.abs(mags.sum(axis=0) - 1.0).max())
            perm = rng.permutation(_C)
            comb_p = frontend.combined(
                MultichannelSignal(signal.samples[perm], RATE))
            worst_perm = max(worst_perm,
                             np.abs(comb.values - comb_p.values).max())
            n_inputs += 1
    ok = worst_sum <= 1e-6 and worst_perm <= 1e-9
    report(2, "simplex + permutation", ok,
           f"{n_inputs} inputs, worst simplex dev {worst_sum:.2e}, "
           f"worst permutation dev {worst_perm:.2e}")


# -- criterion 3: beampattern steering ----------------------------------------


def test_criterion_03_beampattern_steering():
    geom = ArrayGeometry.uniform_circular(8, 0.1)
    f_sup = aliasing_limit_hz(geom)
    formula = geom.n_mics * geom.speed_of_sound / (4.0 * np.pi * geom.radius)
    thetas = np.deg2rad(np.arange(360.0))
    rng = np.random.default_rng(303)
    steer_hits, unit_ok = 0, True
    for _ in range(20):
        theta0 = int(rng.integers(0, 360))
        freq = float(rng.uniform(200.0, 0.98 * f_sup))
        w = steering_weights(geom, np.deg2rad(theta0), freq)
        response = np.abs(narrowband_beampattern(w, geom, freq, thetas))
        steer_hits += int(np.argmax(response) == theta0)
        unit_ok = unit_ok and abs(response[theta0] - 1.0) <= 1e-9
    f_sup_ok = abs(f_sup - formula) <= 1e-9 * formula
    ok = steer_hits == 20 and unit_ok and f_sup_ok
    report(3, "beampattern steering", ok,
           f"{steer_hits}/20 argmax exact, |B(theta0)|=1 to 1e-9, "
           f"f_sup {f_sup:.4f} Hz matches C*v/(4*pi*r)")


# -- criterion 4: SRP-PHAT localization ---------------------------------------


def test_criterion_04_srp_localization():
    t0 = time.monotonic()
    geom = ArrayGeometry.uniform_circular(8, 0.1)
    rng = np.random.default_rng(404)
    hits = 0
    for i in range(10):
        az_deg = int(rng.integers(0, 360))
        scene = SceneSpec(
            geometry=geom,
            duration_s=1.0,
            sources=(SourceSpec(azimuth=float(np.deg2rad(az_deg)), onset=0.05,
                                duration=0.9, tag="bandnoise",
                                level_db=-20.0),),
            noise="white",
            snr_db=20.0,
            seed=4400 + i,
        )
        signal, _ = synth_scene(scene)
        srp = srp_phat(stft(signal), geom)
        est = float(np.rad2deg(srp.azimuths[srp.peak_index]))
        miss = abs(est - az_deg)
        hits += int(min(miss, 360.0 - miss) <= 1.0 + 1e-9)
    elapsed = time.monotonic() - t0
    ok = hits >= 9 and elapsed <= 120.0
    report(4, "SRP-PHAT localization", ok,
           f"{hits}/10 scenes within 1 degree, {elapsed:.1f} s")


# -- criterion 5: MVDR distortionless + SNR gain ------------------------------


def _plane_wave_spec(geom, azimuth, rng, n_frames=120, n_bins=129):
    freqs = np.linspace(0.0, RATE / 2.0, n_bins)
    tau = plane_wave_delays(geom, azimuth)
    s = (rng.normal(size=(n_frames, n_bins))
         + 1j * rng.normal(size=(n_frames, n_bins)))
    ramps = np.exp(-2j * np.pi * freqs[None, None, :] * tau[:, None, None])
    return s[None, :, :] * ramps


def test_criterion_05_mvdr_distortionless_snr():
    geom = ArrayGeometry.uniform_circular(8, 0.1)
    gain_hits = 0
    worst_constraint = 0.0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        sig = _plane_wave_spec(geom, rng.uniform(0.0, 2.0 * np.pi), rng)
        noise = (rng.normal(size=sig.shape)
                 + 1j * rng.normal(size=sig.shape))
        noise *= np.sqrt((np.abs(sig) ** 2).mean()
                         / (np.abs(noise) ** 2).mean())
        spec = ComplexSpectrogram(sig + noise, RATE)
        result = mvdr(spec, cdr_mask(spec, geom))
        constraint = np.einsum("kc,kc->k", np.conj(result.filters),
                               result.steering)
        worst_constraint = max(worst_constraint,
                               np.abs(constraint - 1.0).max())
        out_sig = np.einsum("kc,ctk->tk", np.conj(result.filters), sig)
        out_noise = np.einsum("kc,ctk->tk", np.conj(result.filters), noise)
        snr_out = ((np.abs(out_sig) ** 2).sum()
                   / (np.abs(out_noise) ** 2).sum())
        per_ch = ((np.abs(sig) ** 2).sum(axis=(1, 2))
                  / (np.abs(noise) ** 2).sum(axis=(1, 2)))
        gain_hits += int(snr_out > per_ch.max())
    ok = worst_constraint <= 1e-6 and gain_hits >= 9
    report(5, "MVDR distortionless + SNR gain", ok,
           f"max |h^H d - 1| = {worst_constraint:.2e}, SNR gain in "
           f"{gain_hits}/10 seeds")


# -- criterion 6: invariance loss null case -----------------------------------


def test_criterion_06_invariant_loss_null():
    frontend = make_frontend({"kind": "sacc", "attn_dim": 8}, seed=6)
    scene = SceneSpec(
        geometry=ArrayGeometry.uniform_circular(4, 0.05),
        duration_s=0.5,
        sources=(SourceSpec(azimuth=1.0, onset=0.0, duration=0.5,
                            tag="bandnoise", level_db=-20.0),),
        noise="white",
        snr_db=15.0,
        seed=66,
    )
    signal, _ = synth_scene(scene)
    ref = frontend.features(signal)
    keep_all = mask_channels(signal, list(range(signal.n_channels)))
    null_val = float(invariant_loss(
        ref, [frontend.features(keep_all), frontend.features(signal)]).data)
    masked = mask_channels(signal, [0, 1])
    pos_val = float(invariant_loss(ref, [frontend.features(masked)]).data)
    ok = abs(null_val) <= 1e-12 and pos_val > 0.0
    report(6, "invariance loss null case", ok,
           f"all-channel value {null_val:.2e}, masked value {pos_val:.3e}")


# -- criterion 7: toy learning ------------------------------------------------


def _toy_template(n_mics, radius, snr_db=15.0):
    return SceneSpec(
        geometry=ArrayGeometry.uniform_circular(n_mics, radius),
        duration_s=0.64,
        sources=(),
        noise="white",
        snr_db=snr_db,
        seed=0,
    )


def _frame_stats(frontend, model, items):
    """(accuracy, majority baseline) over concatenated eval frames."""
    correct = total = 0
    counts = np.zeros(3, dtype=np.int64)
    for item in items:
        logits = tcn_forward(model, frontend.features(item.signal).data)
        hyp = decisions(posteriors(logits))
        ref = np.asarray(item.labels.labels, dtype=np.int64)[:hyp.size]
        correct += int((hyp == ref).sum())
        total += hyp.size
        counts += np.bincount(ref, minlength=3)
    return correct / total, counts.max() / total


def test_criterion_07_toy_learning():
    t0 = time.monotonic()
    items = list(toy_dataset(_toy_template(2, 0.05), 500, seed=11))
    train_items, val_items = items[:450], items[450:]
    accs, bases, initial_ces, final_ces = [], [], [], []
    for s in range(3):
        frontend = make_frontend({"kind": "sacc", "attn_dim": 8}, seed=10 + s)
        model = tcn_init(TcnConfig(input_dim=64, bottleneck=16, hidden=16,
                                   layers_per_block=2, blocks=2), seed=20 + s)
        tcfg = TrainConfig(batch_size=4, steps_per_epoch=200, max_epochs=1,
                           patience=1, lr=3e-3, segment_s=0.64, seed=s)
        result = train(frontend, model, train_items, val_items, tcfg)
        steps = [rec for rec in result.history if "ce" in rec]
        initial_ces.append(steps[0]["ce"])
        final_ces.append(steps[-1]["ce"])
        acc, base = _frame_stats(result.frontend, result.model, val_items)
        accs.append(acc)
        bases.append(base)
    elapsed = time.monotonic() - t0
    mean_acc = float(np.mean(accs))
    mean_base = float(np.mean(bases))
    mean_initial = float(np.mean(initial_ces))
    mean_final = float(np.mean(final_ces))
    ok = (mean_acc > mean_base and mean_final <= 0.5 * mean_initial
          and elapsed <= 300.0)
    report(7, "toy learning", ok,
           f"accuracy {mean_acc:.3f} vs baseline {mean_base:.3f}, CE "
           f"{mean_initial:.3f} -> {mean_final:.3f} over 200 steps x 3 "
           f"seeds, {elapsed:.1f} s")


# -- criterion 8: masking robustness of the dual loss -------------------------


def _osd_f1(frontend, model, items, keep=None):
    refs, hyps = [], []
    for item in items:
        signal = item.signal if keep is None else mask_channels(item.signal,
                                                                keep)
        logits = tcn_forward(model, frontend.features(signal).data)
        hyp = decisions(posteriors(logits))
        refs.append(np.asarray(item.labels.labels, dtype=np.int64)[:hyp.size])
        hyps.append(hyp)
    return osd_metrics(FrameLabels(np.concatenate(refs)),
                       FrameLabels(np.concatenate(hyps))).f1


def test_criterion_08_masking_robustness():
    items = list(toy_dataset(_toy_template(8, 0.1), 120, seed=88))
    train_items, val_items = items[:90], items[90:]
    wins = 0
    details = []
    for s in range(3):
        drops = {}
        for tag in ("dual", "ce"):
            icfg = (InvariantConfig(p=2, lam=0.7, min_keep=2, rng_seed=s)
                    if tag == "dual" else None)
            frontend = make_frontend({"kind": "sacc", "attn_dim": 8},
                                     seed=30 + s)
            model = tcn_init(TcnConfig(input_dim=64, bottleneck=16, hidden=16,
                                       layers_per_block=2, blocks=2),
                             seed=40 + s)
            tcfg = TrainConfig(batch_size=2, steps_per_epoch=150, max_epochs=1,
                               patience=1, lr=3e-3, segment_s=0.64, seed=s)
            result = train(frontend, model, train_items, val_items, tcfg, icfg)
            full = _osd_f1(result.frontend, result.model, val_items)
            two = _osd_f1(result.frontend, result.model, val_items,
                          keep=[0, 1])
            drops[tag] = full - two
        wins += int(drops["dual"] < drops["ce"])
        details.append(f"seed {s}: dual {drops['dual']:+.2f} vs "
                       f"ce {drops['ce']:+.2f}")
    ok = wins >= 2
    report(8, "masking robustness of the dual loss", ok,
           f"dual-loss OSD F1 drop smaller in {wins}/3 seeds "
           f"({'; '.join(details)})")


# -- criterion 9: metric identities -------------------------------------------


def test_criterion_09_metric_identities(tmp_path):
    rng = np.random.default_rng(909)
    duration = 2.0
    worst_ser, worst_f1 = 0.0, 0.0
    for trial in range(100):
        segments = []
        for spk in range(int(rng.integers(1, 4))):
            for _ in range(int(rng.integers(1, 3))):
                onset = int(rng.integers(0, 150)) / 100.0
                length = int(rng.integers(5, 50)) / 100.0
                length = min(length, duration - onset)
                segments.append(Segment(file_id="f", onset=onset,
                                        duration=length,
                                        speaker=f"spk{spk}"))
        segs = SegmentSet(tuple(segments))
        ref = labels_from_segments(segs, duration)

        # RTTM round trip must preserve the frame labels exactly.
        path = tmp_path / f"t{trial}.rttm"
        write_rttm(segs, path)
        from_file = labels_from_segments(parse_rttm(path), duration)
        assert (ref.labels == from_file.labels).all()

        # Hypothesis-segment encoding must reproduce its own labels.
        back = labels_from_segments(segments_from_labels(ref, "f"), duration)
        assert (ref.labels == back.labels).all()

        hyp = FrameLabels(rng.integers(0, 3, size=len(ref)))
        vm = vad_metrics(ref, hyp)
        worst_ser = max(worst_ser,
                        abs(vm.error_rate - (vm.false_alarm + vm.miss)))
        om = osd_metrics(ref, hyp)
        if not om.degenerate:
            pr = om.precision + om.recall
            expect = 0.0 if pr == 0.0 else 2.0 * om.precision * om.recall / pr
            worst_f1 = max(worst_f1, abs(om.f1 - expect))
    ok = worst_ser <= 1e-9 and worst_f1 <= 1e-9
    report(9, "metric identities", ok,
           f"100 segment sets, |SER-(FA+Miss)| <= {worst_ser:.1e}, "
           f"|F1-2PR/(P+R)| <= {worst_f1:.1e}")


# -- criterion 10: end-to-end determinism -------------------------------------


def _pipeline_once(root):
    root.mkdir()
    scene_cfg = root / "scene.json"
    scene_cfg.write_text(json.dumps({
        "geometry": {"n_mics": 4, "radius": 0.05},
        "duration_s": 2.0,
        "sources": [
            {"azimuth": 0.9, "onset": 0.2, "duration": 1.2, "tag": "ar2",
             "level_db": -20.0},
            {"azimuth": 2.5, "onset": 0.8, "duration": 1.1,
             "tag": "bandnoise", "level_db": -20.0},
        ],
        "noise": "white",
        "snr_db": 20.0,
        "seed": 5,
    }))
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps({
        "frontend": {"kind": "sacc", "attn_dim": 4, "seed": 3},
        "model": {"bottleneck": 8, "hidden": 8, "layers_per_block": 2,
                  "blocks": 1, "seed": 4},
        "train": {"batch_size": 2, "steps_per_epoch": 2, "max_epochs": 1,
                  "patience": 1, "segment_s": 0.64, "seed": 5},
        "data": {"template": {"geometry": {"n_mics": 4, "radius": 0.05},
                              "duration_s": 0.64, "noise": "white",
                              "snr_db": 15.0},
                 "n_train": 3, "n_val": 2, "seed": 1},
    }))
    steps = [
        ["simulate", "--config", str(scene_cfg), "--out", str(root / "sim")],
        ["train", "--config", str(train_cfg), "--out", str(root / "tr")],
        ["infer", "--checkpoint", str(root / "tr" / "model.ckpt"),
         "--wav", str(root / "sim" / "scene.wav"),
         "--out", str(root / "inf")],
        ["score", "--ref", str(root / "sim" / "scene.rttm"),
         "--hyp", str(root / "inf" / "hyp.rttm"),
         "--out", str(root / "sc")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, argv[0]


def test_criterion_10_pipeline_determinism(tmp_path, capsys):
    _pipeline_once(tmp_path / "a")
    _pipeline_once(tmp_path / "b")
    capsys.readouterr()  # swallow score stdout from both runs
    compared = []
    same = True
    for rel in ("sim/scene.wav", "sim/scene.rttm", "tr/model.ckpt",
                "inf/hyp.rttm", "sc/metrics.json"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        compared.append(rel)
        same = same and a == b
    report(10, "end-to-end determinism", same,
           f"byte-identical {', '.join(compared)} across two seeded runs")
