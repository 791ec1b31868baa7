"""Mutated-byte fuzzing of the three file readers: checkpoints, WAV files and
RTTM files. Whatever the bytes, a reader either returns or raises an
``ArrayVadError``; no other exception may escape."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrayvad.checkpoint import read_checkpoint, write_checkpoint
from arrayvad.errors import ArrayVadError
from arrayvad.segeval import labels_from_segments, parse_rttm
from arrayvad.signal_io import MultichannelSignal, WavReader, read_wav, write_wav

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

@st.composite
def mutations(draw, seeds):
    """A file drawn from ``seeds`` with a few bytes replaced, a few bytes
    spliced in and possibly a truncation."""
    data = bytearray(draw(seeds))
    for pos, value in draw(st.lists(st.tuples(
            st.integers(0, len(data) - 1), st.integers(0, 255)), max_size=6)):
        data[pos] = value
    pos = draw(st.integers(0, len(data)))
    data[pos:pos] = draw(st.binary(max_size=8))
    cut = draw(st.one_of(st.none(), st.integers(0, len(data))))
    return bytes(data if cut is None else data[:cut])


def _seed_bytes(tmp_path_factory, name, write):
    path = tmp_path_factory.mktemp("fuzz_seed") / name
    write(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def checkpoint_seed(tmp_path_factory):
    rng = np.random.default_rng(0)
    return _seed_bytes(tmp_path_factory, "seed.ckpt", lambda p: write_checkpoint(
        p, {"frontend/wq": rng.normal(size=(3, 2)), "model/b": rng.normal(size=2)},
        config={"frontend": {"kind": "sacc", "attn_dim": 2}}))


@pytest.fixture(scope="module")
def wav_seed(tmp_path_factory):
    samples = 0.3 * np.random.default_rng(1).standard_normal((3, 64))
    return _seed_bytes(tmp_path_factory, "seed.wav", lambda p: write_wav(
        MultichannelSignal(samples.clip(-1, 1), 16000), p))


# RTTM files whose onset and duration fields reach the edges: any float's
# repr (1e+300, inf, nan, negative), or a few chosen spellings.
_RTTM_NUMBER = st.one_of(st.floats().map(repr), st.sampled_from(
    ["0.000", "1.500", "1e12", "1e308", "-5", "1_0", "0x10", ""]))
_RTTM_LINE = st.builds(
    "SPEAKER f 1 {} {} <NA> <NA> {} <NA> <NA>\n".format,
    _RTTM_NUMBER, _RTTM_NUMBER, st.sampled_from("ab"))
RTTM_FILES = st.lists(_RTTM_LINE, min_size=1, max_size=3).map(
    lambda lines: "".join(lines).encode())


def _only_package_errors(tmp_path, data, read):
    path = tmp_path / "fuzzed"
    path.write_bytes(data)
    try:
        read(path)
    except ArrayVadError:
        pass


@FUZZ
@given(data=st.data())
def test_mutated_checkpoints_raise_only_package_errors(tmp_path, checkpoint_seed,
                                                       data):
    _only_package_errors(tmp_path, data.draw(mutations(st.just(checkpoint_seed))),
                         read_checkpoint)


def _read_windows(path):
    """The first, a middle and the end-aligned last 16-frame window of the
    file, each read on its own as sliding inference reads them."""
    reader = WavReader(path)
    n = reader.n_samples
    for start in (0, n // 3, n - 16):
        if 0 <= start <= n - 16:
            reader.read(start, 16)


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
@FUZZ
@given(data=st.data())
def test_mutated_wavs_raise_only_package_errors(tmp_path, wav_seed, data):
    mutated = data.draw(mutations(st.just(wav_seed)))
    _only_package_errors(tmp_path, mutated, read_wav)
    _only_package_errors(tmp_path, mutated, _read_windows)


def _labels_of_rttm(path):
    """``parse_rttm`` then ``labels_from_segments`` over the file's span, as
    ``arrayvad score`` runs them."""
    segs = parse_rttm(path)
    if len(segs):
        labels_from_segments(segs, max(seg.end for seg in segs))


@FUZZ
@given(data=st.data())
def test_mutated_rttms_raise_only_package_errors(tmp_path, data):
    _only_package_errors(tmp_path, data.draw(mutations(RTTM_FILES)),
                         _labels_of_rttm)
