"""Every file parser either accepts its input or raises DataError, whatever the bytes."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from mal2gcn import fcg
from mal2gcn.attack import POOL_HEADER, read_benign_pool
from mal2gcn.fcg import DataError, read_corpus
from mal2gcn.featurize import Vocabulary, read_vocabulary, vocabulary_digest
from mal2gcn.gcn import MODEL_HEADER, load_model

VOCAB = Vocabulary(("toka",), ("long string",), (1.0,), (1.0,), 1, 1)

COMMON_WORDS = ["\n", "\r\n", "\t", " ", "\\", "0", "1", "2", "-5.0", "0.5", "nan", "inf", "1e400", "x", "É", "\x00"]

# parser, a valid header that gets the fuzz past the first check, words of the format
PARSERS = {
    "corpus": (
        read_corpus,
        b"",
        ['{', '}', '[', ']', ':', ',', '"', 'null', '"graph_id"', '"label"', '"malware"', '"main"', '"nodes"',
         '"edges"', '"id"', '"apis"', '"strings"', '"n0"', '"n1"'],
    ),
    "vocab": (read_vocabulary, b"#mal2gcn-vocab v1 k_api=1 k_str=1\n", ["api", "string", "Tok", "long string", "k_api="]),
    "model": (
        lambda path: load_model(path, VOCAB),
        (
            f"{MODEL_HEADER}\ndims 2 1 1 1\nflags nonneg_gcn=1 nonneg_gclf=0\n"
            f"vocab_sha256 {vocabulary_digest(VOCAB)}\n"
        ).encode(),
        ["matrix ", "w_gcn1", "w_gcn2", "w_hidden", "b_hidden", "w_out", "b_out", "dims", "flags"],
    ),
    "pool": (read_benign_pool, f"{POOL_HEADER}\n".encode(), ["api", "string", "Tok", "long string"]),
}
# the model again, with the fuzz starting inside the first matrix's rows
PARSERS["model-rows"] = (PARSERS["model"][0], PARSERS["model"][1] + b"matrix w_gcn1 2 1\n0.5\n", PARSERS["model"][2])


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers") / "input"


@pytest.mark.parametrize("name", sorted(PARSERS))
@given(data=st.data())
def test_any_bytes_parse_or_raise_data_error(input_path, name, data):
    read, header, words = PARSERS[name]
    soup = st.lists(st.sampled_from(COMMON_WORDS + words), max_size=60).map(lambda parts: "".join(parts).encode())
    prefix = data.draw(st.sampled_from([b"", header]))
    body = data.draw(st.one_of(st.binary(max_size=200), soup))
    input_path.write_bytes(prefix + body)
    try:
        read(input_path)
    except DataError:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_reader_closes_its_file_when_it_refuses_a_line(input_path, monkeypatch, name):
    read, header, _ = PARSERS[name]
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(fcg, "open", tracked_open, raising=False)
    input_path.write_bytes(header + b"\x01 not a row\n" * 100)
    with pytest.raises(DataError) as refused:
        read(input_path)
    assert refused.tb is not None  # the traceback, still held, keeps the reader's frame and locals alive
    assert len(opened) == 1 and opened[0].closed
