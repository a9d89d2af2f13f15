from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from mal2gcn.attack import POOL_HEADER, BenignPool, read_benign_pool, write_benign_pool
from mal2gcn.fcg import Corpus, DataError, Fcg, FormatError, FunctionNode
from mal2gcn.featurize import (
    Vocabulary,
    build_vocabulary,
    embed_graph,
    escape_token,
    normalize_token,
    read_vocabulary,
    serialize_vocabulary,
    unescape_token,
    vocabulary_digest,
    write_vocabulary,
)

from conftest import OTHER_LINE_BREAKS


class TestNormalizeToken:
    def test_api_is_lowercased(self):
        assert normalize_token("CreateFileW", "api") == "createfilew"

    def test_api_has_no_length_rules(self):
        assert normalize_token("ab", "api") == "ab"
        assert normalize_token("A" * 64, "api") == "a" * 64

    def test_short_string_dropped(self):
        assert normalize_token("abc", "string") is None

    def test_four_char_string_kept(self):
        assert normalize_token("abcd", "string") == "abcd"

    def test_long_string_truncated_to_30(self):
        assert normalize_token("a" * 31, "string") == "a" * 30
        assert normalize_token("a" * 30, "string") == "a" * 30

    def test_string_lowercased(self):
        assert normalize_token("Hello World", "string") == "hello world"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            normalize_token("x", "bytes")

    @given(st.text(max_size=60))
    def test_string_rule_properties(self, raw):
        result = normalize_token(raw, "string")
        if result is not None:
            assert 4 <= len(result) <= 30
            assert result == result.lower()


def presence_corpus():
    """100 malware + 100 benign single-node graphs exercising two api tokens.

    tok_alpha: present in 90 malware and 1 benign graph.
    tok_beta: present in 50 malware and 50 benign graphs.
    A filler token keeps every graph non-empty.
    """
    records = []
    for i in range(100):
        apis = ["tok_filler"]
        if i < 90:
            apis.append("tok_alpha")
        if i < 50:
            apis.append("tok_beta")
        records.append(Fcg(f"m{i}", "malware", "main", (FunctionNode("main", tuple(apis)),), ()))
    for i in range(100):
        apis = ["tok_filler"]
        if i < 1:
            apis.append("tok_alpha")
        if i < 50:
            apis.append("tok_beta")
        records.append(Fcg(f"b{i}", "benign", "main", (FunctionNode("main", tuple(apis)),), ()))
    return Corpus(tuple(records))


def chi2_oracle(present_mal, present_ben, n_mal, n_ben):
    """Independent chi-squared via the observed/expected cell sums."""
    observed = np.array(
        [[present_mal, n_mal - present_mal], [present_ben, n_ben - present_ben]], dtype=float
    )
    row = observed.sum(axis=1, keepdims=True)
    col = observed.sum(axis=0, keepdims=True)
    expected = row * col / observed.sum()
    if (expected == 0).any():
        return 0.0
    return float(((observed - expected) ** 2 / expected).sum())


class TestBuildVocabulary:
    def test_label_associated_token_outranks_uninformative_one(self):
        vocab = build_vocabulary(presence_corpus(), k_api=3, k_str=1)
        ranked = list(vocab.api_tokens)
        assert ranked.index("tok_alpha") < ranked.index("tok_beta")
        scores = dict(zip(vocab.api_tokens, vocab.api_scores))
        assert scores["tok_alpha"] == pytest.approx(chi2_oracle(90, 1, 100, 100), rel=1e-12)
        assert scores["tok_beta"] == pytest.approx(chi2_oracle(50, 50, 100, 100), abs=1e-12)
        assert scores["tok_beta"] == 0.0

    def test_shortfall_when_fewer_candidates_than_k(self):
        vocab = build_vocabulary(presence_corpus(), k_api=500, k_str=500)
        assert len(vocab.api_tokens) == 3
        assert vocab.api_shortfall == 497
        assert len(vocab.string_tokens) == 0
        assert vocab.string_shortfall == 500

    def test_deterministic_byte_for_byte(self):
        corpus = presence_corpus()
        a = serialize_vocabulary(build_vocabulary(corpus, 3, 1))
        b = serialize_vocabulary(build_vocabulary(corpus, 3, 1))
        assert a == b

    def test_permutation_invariant_in_record_order(self):
        corpus = presence_corpus()
        rng = np.random.default_rng(5)
        shuffled = Corpus(tuple(corpus.records[i] for i in rng.permutation(len(corpus))))
        assert serialize_vocabulary(build_vocabulary(corpus, 3, 1)) == serialize_vocabulary(
            build_vocabulary(shuffled, 3, 1)
        )

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary(Corpus(()), 5, 5)

    def test_single_label_rejected(self):
        records = tuple(
            Fcg(f"m{i}", "malware", "main", (FunctionNode("main", ("toka",)),), ()) for i in range(3)
        )
        with pytest.raises(DataError):
            build_vocabulary(Corpus(records), 5, 5)

    def test_unlabeled_record_rejected(self):
        records = (Fcg("u", None, "main", (FunctionNode("main", ("toka",)),), ()),)
        with pytest.raises(DataError):
            build_vocabulary(Corpus(records), 5, 5)

    def test_prefilter_caps_candidates(self):
        vocab = build_vocabulary(presence_corpus(), k_api=3, k_str=1, prefilter_per_kind=1)
        # only the most frequent api candidate (the filler, present everywhere) survives
        assert len(vocab.api_tokens) == 1
        assert vocab.api_tokens == ("tok_filler",)

    @pytest.mark.parametrize("prefilter", [0, -5])
    def test_prefilter_below_one_rejected(self, prefilter):
        # 0 selected nothing, and -5 silently dropped the 5 least frequent candidates
        with pytest.raises(ValueError, match="prefilter_per_kind must be >= 1"):
            build_vocabulary(presence_corpus(), k_api=3, k_str=1, prefilter_per_kind=prefilter)


def small_vocab():
    return Vocabulary(
        api_tokens=("createfilew", "regsetvaluea"),
        string_tokens=("hello world",),
        api_scores=(2.0, 1.0),
        string_scores=(1.0,),
        k_api=2,
        k_str=1,
    )


class TestEmbedGraph:
    def test_counts_per_node(self):
        vocab = small_vocab()
        g = Fcg(
            "g",
            "malware",
            "main",
            (FunctionNode("main", ("CreateFileW", "CreateFileW", "RegSetValueA"), ("hello world",)),),
            (),
        )
        fm = embed_graph(g, vocab)
        assert fm.counts.toarray().tolist() == [[2, 1, 1]]
        assert fm.node_order == ("main",)

    def test_out_of_vocabulary_tokens_ignored(self):
        g = Fcg("g", None, "main", (FunctionNode("main", ("NtUnknown",), ("some string",)),), ())
        fm = embed_graph(g, small_vocab())
        assert fm.counts.sum() == 0

    def test_short_string_never_counts_even_if_listed_in_vocab(self):
        # "abc" cannot survive normalization, so it contributes nothing even
        # when a (hand-made) vocabulary claims to contain it
        vocab = Vocabulary((), ("abc",), (), (1.0,), 0, 1)
        g = Fcg("g", None, "main", (FunctionNode("main", (), ("abc",)),), ())
        assert embed_graph(g, vocab).counts.sum() == 0

    def test_index_layout_api_block_then_string_block(self):
        vocab = small_vocab()
        g = Fcg("g", None, "main", (FunctionNode("main", ("regsetvaluea",), ("hello world",)),), ())
        fm = embed_graph(g, vocab)
        assert fm.d == 3
        assert fm.counts[0, 1] == 1  # api block
        assert fm.counts[0, 2] == 1  # string block starts at len(api_tokens)

    def test_adding_one_in_vocab_token_bumps_exactly_one_entry(self):
        vocab = small_vocab()
        base = Fcg("g", None, "main", (FunctionNode("main", ("CreateFileW",), ()),), ())
        more = Fcg("g", None, "main", (FunctionNode("main", ("CreateFileW", "RegSetValueA"), ()),), ())
        diff = embed_graph(more, vocab).counts.toarray() - embed_graph(base, vocab).counts.toarray()
        assert diff.sum() == 1
        assert (diff >= 0).all()

    def test_entries_non_negative_integers(self, small_corpus):
        corpus, _ = small_corpus
        vocab = build_vocabulary(corpus, 30, 30)
        for g in corpus.records[:10]:
            fm = embed_graph(g, vocab)
            assert fm.counts.dtype == np.int64
            assert (fm.counts.toarray() >= 0).all()


@dataclass(frozen=True)
class TokenTable:
    """One token-table format: its reader and writer, a valid header, what ends a row, and a constructor."""

    read: object
    write: object
    header: str
    row_end: str
    make: object  # (api tokens, string tokens) -> the object the file holds


TABLES = {
    "vocab": TokenTable(
        read_vocabulary,
        write_vocabulary,
        "#mal2gcn-vocab v1 k_api=1 k_str=1",
        "\t1.0",
        lambda apis, strings: Vocabulary(apis, strings, (1.0,) * len(apis), (1.0,) * len(strings), len(apis), len(strings)),
    ),
    "pool": TokenTable(read_benign_pool, write_benign_pool, POOL_HEADER, "", BenignPool),
}


@pytest.fixture(params=sorted(TABLES))
def table(request):
    return TABLES[request.param]


def write_table(table, tmp_path, *rows, header=None):
    """A file of `table`'s format: its header (or `header`), then each non-empty row with the format's row end."""
    path = tmp_path / "table.tsv"
    lines = [table.header if header is None else header] + [row and row + table.row_end for row in rows]
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


class TestTokenTableFile:
    """The vocabulary and the benign pool share one row format and one set of row checks."""

    def test_tokens_with_tabs_and_newlines_round_trip(self, table, tmp_path):
        held = table.make(("call\tsite", "back\\slash"), ("multi\nline string", "carriage\rreturn"))
        path = tmp_path / "table.tsv"
        table.write(held, path)
        assert table.read(path) == held

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=ascii)
    def test_tokens_with_other_line_breaks_round_trip(self, table, tmp_path, char):
        held = table.make((f"api{char}name",), (f"long{char}string", "after"))
        path = tmp_path / "table.tsv"
        table.write(held, path)
        assert path.read_text(encoding="utf-8").count("\n") == 4  # the header and three rows
        assert table.read(path) == held

    def test_reads_rows_around_empty_lines(self, table, tmp_path):
        path = write_table(table, tmp_path, "api\ttoka", "", "string\tlong string")
        assert table.read(path) == table.make(("toka",), ("long string",))

    @pytest.mark.parametrize("header", ["", "#mal2gcn-other v1", "api\ttoka"])
    def test_missing_header_rejected(self, table, tmp_path, header):
        path = write_table(table, tmp_path, "api\ttoka", header=header)
        with pytest.raises(FormatError, match="header"):
            table.read(path)

    def test_empty_file_rejected(self, table, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(FormatError, match="header"):
            table.read(path)

    @pytest.mark.parametrize(
        "rows, match",
        [
            (["api\ttoka\textra"], "line 2: expected"),
            (["api\ttoka", "api"], "line 3: expected"),
            (["bytes\ttoka"], "line 2: unknown kind 'bytes'"),
            (["string\tlong enough", "api\ttoka"], "line 3: api row after string rows"),
            (["api\tGetProcAddress"], "line 2: api token 'GetProcAddress' is not normalized"),
            (["string\tabc"], "line 2: string token 'abc' is not normalized"),
            (["string\t" + "x" * 31], "line 2: string token 'x{31}' is not normalized"),
            (["api\ttoka", "api\ttokb", "api\ttoka"], "line 4: repeated api token 'toka'"),
            (["string\tlong string", "", "string\tlong\\ string"], "line 4: repeated string token 'long string'"),
        ],
        ids=["extra-field", "missing-field", "unknown-kind", "api-after-string", "unnormalized-api",
             "short-string", "long-string", "repeated-api", "repeated-escaped-string"],
    )
    def test_bad_row_is_format_error_naming_the_line(self, table, tmp_path, rows, match):
        # a token that normalization changes can never match a graph token; a repeated
        # token would be a second feature column, or a doubled share of the pool's draws
        path = write_table(table, tmp_path, *rows)
        with pytest.raises(FormatError, match=f"^{path} {match}"):
            table.read(path)

    def test_same_token_of_both_kinds_allowed(self, table, tmp_path):
        path = write_table(table, tmp_path, "api\tlong string", "string\tlong string")
        assert table.read(path) == table.make(("long string",), ("long string",))


class TestVocabularyFile:
    def test_round_trip(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, path)
        back = read_vocabulary(path)
        assert back == vocab
        assert vocabulary_digest(back) == vocabulary_digest(vocab)

    def test_header_carries_configured_sizes(self, tmp_path):
        vocab = build_vocabulary(presence_corpus(), k_api=500, k_str=500)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "#mal2gcn-vocab v1 k_api=500 k_str=500"
        assert read_vocabulary(path).k_api == 500

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=ascii)
    def test_written_bytes_are_the_hashed_text(self, tmp_path, char):
        vocab = Vocabulary((f"api{char}name",), (f"long{char}string", "after"), (1.0,), (0.5, 0.25), 1, 2)
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, path)
        assert path.read_bytes() == serialize_vocabulary(vocab).encode("utf-8")

    @pytest.mark.parametrize(
        "header",
        [
            "#mal2gcn-vocab v1",
            "#mal2gcn-vocab v1 k_api=1",
            "#mal2gcn-vocab v1 k_api=x k_str=1",
            "#mal2gcn-vocab v1 k_api=-3 k_str=0 k_api=7",
            "#mal2gcn-vocab v1 k_api=1 k_str=1 k_str=1",
            "#mal2gcn-vocab v1 k_api=0 k_str=1",
        ],
    )
    def test_header_without_sizes_rejected(self, tmp_path, header):
        path = write_table(TABLES["vocab"], tmp_path, "api\ttoka", header=header)
        with pytest.raises(FormatError, match="header"):
            read_vocabulary(path)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["api\ttoka\t1.0", "api\ttokb\t1.0", "string\tlong string\t1.0"], 3),
            (["api\ttoka\t1.0", "string\tlong string\t1.0", "", "string\tlonger string\t1.0"], 5),
        ],
        ids=["api", "string"],
    )
    def test_more_rows_of_a_kind_than_its_header_size_rejected(self, tmp_path, rows, line):
        # build_vocabulary keeps at most k tokens of a kind, so a shortfall is never negative
        path = tmp_path / "vocab.tsv"
        path.write_text("\n".join(["#mal2gcn-vocab v1 k_api=1 k_str=1", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{path} line {line}: .* exceeds the header's size 1$"):
            read_vocabulary(path)

    def test_vocabulary_without_tokens_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("#mal2gcn-vocab v1 k_api=1 k_str=1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="no tokens"):
            read_vocabulary(path)

    @pytest.mark.parametrize("score", ["x", "nan", "inf", "-inf", "1e400", ""])
    def test_bad_score_rejected(self, tmp_path, score):
        path = tmp_path / "vocab.tsv"
        path.write_text(
            f"#mal2gcn-vocab v1 k_api=1 k_str=1\napi\ttoka\t1.0\nstring\tlong string\t{score}\n", encoding="utf-8"
        )
        with pytest.raises(FormatError, match=f"^{path} line 3: score"):
            read_vocabulary(path)

    @given(st.text(max_size=40))
    def test_escape_round_trip(self, token):
        assert unescape_token(escape_token(token)) == token
        assert "\n" not in escape_token(token)
        assert "\t" not in escape_token(token)
