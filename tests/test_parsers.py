"""Every file parser either accepts its input or raises DataError, whatever the bytes."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

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
