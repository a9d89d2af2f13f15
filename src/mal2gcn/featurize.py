"""Token normalization, vocabulary selection, and bag-of-words node embedding.

Feature space layout is fixed: API tokens first, then string tokens, so index
i < len(api_tokens) addresses api_tokens[i] and the string block follows.
"""

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .fcg import Corpus, DataError, Fcg, FormatError, LABEL_MALWARE, read_lines

KIND_API = "api"
KIND_STRING = "string"

MIN_STRING_LEN = 4
MAX_STRING_LEN = 30

VOCAB_HEADER_PREFIX = "#mal2gcn-vocab v1"


def normalize_token(raw: str, kind: str) -> str | None:
    """Lowercase a raw token; strings additionally get the 4/30 length rules.

    API names carry no length rules.  Strings shorter than 4 characters are
    dropped (returns None); strings longer than 30 are truncated to the first
    30.  Lengths are counted in Unicode scalar values, after lowercasing.
    """
    lowered = raw.lower()
    if kind == KIND_API:
        return lowered
    if kind == KIND_STRING:
        if len(lowered) < MIN_STRING_LEN:
            return None
        return lowered[:MAX_STRING_LEN]
    raise ValueError(f"unknown token kind {kind!r}")


def _node_tokens(node, kind: str):
    raw = node.apis if kind == KIND_API else node.strings
    for token in raw:
        normalized = normalize_token(token, kind)
        if normalized is not None:
            yield normalized


@dataclass(frozen=True)
class Vocabulary:
    """Ordered API + string token lists with their selection scores.

    k_api/k_str are the configured sizes; the actual lists may be shorter when
    the corpus had fewer candidates (the shortfall is visible by comparison).
    """

    api_tokens: tuple[str, ...]
    string_tokens: tuple[str, ...]
    api_scores: tuple[float, ...]
    string_scores: tuple[float, ...]
    k_api: int
    k_str: int
    _api_index: dict = field(default_factory=dict, repr=False, compare=False)
    _string_index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._api_index.update({t: i for i, t in enumerate(self.api_tokens)})
        self._string_index.update({t: i for i, t in enumerate(self.string_tokens)})

    @property
    def size(self) -> int:
        return len(self.api_tokens) + len(self.string_tokens)

    def column(self, token: str, kind: str) -> int:
        """Feature column of a normalized token, or -1 when it is not in the vocabulary."""
        if kind == KIND_API:
            return self._api_index.get(token, -1)
        idx = self._string_index.get(token)
        return -1 if idx is None else len(self.api_tokens) + idx

    @property
    def api_shortfall(self) -> int:
        return self.k_api - len(self.api_tokens)

    @property
    def string_shortfall(self) -> int:
        return self.k_str - len(self.string_tokens)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-graph n x d token counts, one row per node, as CSR holding only the entries > 0."""

    n: int
    d: int
    counts: sparse.csr_matrix  # (n, d) int64
    node_order: tuple[str, ...]


def _chi2_presence(n_present_mal: int, n_present_ben: int, n_mal: int, n_ben: int) -> float:
    """Chi-squared association between per-graph token presence and the label.

    Standard 2x2 shortcut N(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)); a zero margin
    (token in every graph or in none) carries no signal and scores 0.
    """
    a = n_present_mal
    b = n_mal - n_present_mal
    c = n_present_ben
    d = n_ben - n_present_ben
    total = n_mal + n_ben
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    num = a * d - b * c
    return total * num * num / denom


def build_vocabulary(
    corpus: Corpus,
    k_api: int = 500,
    k_str: int = 500,
    *,
    prefilter_per_kind: int = 5000,
) -> Vocabulary:
    """Select the top-k tokens per kind by chi-squared label association.

    Candidates are pre-filtered to the `prefilter_per_kind` most frequent
    tokens per kind, scored on per-graph presence, and ranked by score with
    ties broken by higher total frequency then lexicographic order.
    Deterministic and invariant to corpus record order.
    """
    if k_api < 1 or k_str < 1:
        raise ValueError("k_api and k_str must be >= 1")
    if len(corpus) == 0:
        raise DataError("cannot build a vocabulary from an empty corpus")

    n_mal = 0
    n_ben = 0
    freq = {KIND_API: Counter(), KIND_STRING: Counter()}
    present_mal = {KIND_API: Counter(), KIND_STRING: Counter()}
    present_ben = {KIND_API: Counter(), KIND_STRING: Counter()}

    for g in corpus:
        if g.label is None:
            raise DataError(f"graph {g.graph_id} is unlabeled; vocabulary selection needs labels")
        is_mal = g.label == LABEL_MALWARE
        if is_mal:
            n_mal += 1
        else:
            n_ben += 1
        for kind in (KIND_API, KIND_STRING):
            graph_tokens: set[str] = set()
            for node in g.nodes:
                for token in _node_tokens(node, kind):
                    freq[kind][token] += 1
                    graph_tokens.add(token)
            target = present_mal[kind] if is_mal else present_ben[kind]
            for token in graph_tokens:
                target[token] += 1

    if n_mal == 0 or n_ben == 0:
        raise DataError("vocabulary selection needs both labels in the corpus")

    selected: dict[str, list[tuple[str, float]]] = {}
    for kind, k in ((KIND_API, k_api), (KIND_STRING, k_str)):
        candidates = sorted(freq[kind].items(), key=lambda item: (-item[1], item[0]))
        candidates = candidates[:prefilter_per_kind]
        scored = []
        for token, total in candidates:
            score = _chi2_presence(present_mal[kind][token], present_ben[kind][token], n_mal, n_ben)
            scored.append((token, score, total))
        scored.sort(key=lambda item: (-item[1], -item[2], item[0]))
        selected[kind] = [(token, score) for token, score, _ in scored[:k]]

    return Vocabulary(
        api_tokens=tuple(t for t, _ in selected[KIND_API]),
        string_tokens=tuple(t for t, _ in selected[KIND_STRING]),
        api_scores=tuple(s for _, s in selected[KIND_API]),
        string_scores=tuple(s for _, s in selected[KIND_STRING]),
        k_api=k_api,
        k_str=k_str,
    )


def embed_graph(g: Fcg, vocab: Vocabulary) -> FeatureMatrix:
    """Count in-vocabulary token occurrences per node; row i is g.nodes[i]."""
    n = len(g.nodes)
    d = vocab.size
    blocks = ((KIND_API, vocab._api_index, 0), (KIND_STRING, vocab._string_index, len(vocab.api_tokens)))
    keys = []  # row * d + col, once per occurrence
    for i, node in enumerate(g.nodes):
        for kind, index, offset in blocks:
            for token in _node_tokens(node, kind):
                idx = index.get(token)
                if idx is not None:
                    keys.append(i * d + offset + idx)
    keys, counts = np.unique(np.array(keys, dtype=np.int64), return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * d)  # row i's keys start at i * d
    matrix = sparse.csr_matrix((counts, keys % d, indptr), shape=(n, d))
    return FeatureMatrix(n=n, d=d, counts=matrix, node_order=g.node_ids())


# ---------------------------------------------------------------------------
# Vocabulary file: "#mal2gcn-vocab v1 k_api=<n> k_str=<n>" header, then
# kind<TAB>token<TAB>score rows in index order (api rows first).
# ---------------------------------------------------------------------------

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}


def escape_token(token: str) -> str:
    if not any(c in token for c in "\\\t\n\r"):
        return token
    return "".join(_ESCAPES.get(c, c) for c in token)


def unescape_token(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def serialize_vocabulary(vocab: Vocabulary) -> str:
    lines = [f"{VOCAB_HEADER_PREFIX} k_api={vocab.k_api} k_str={vocab.k_str}"]
    for token, score in zip(vocab.api_tokens, vocab.api_scores):
        lines.append(f"{KIND_API}\t{escape_token(token)}\t{float(score)!r}")
    for token, score in zip(vocab.string_tokens, vocab.string_scores):
        lines.append(f"{KIND_STRING}\t{escape_token(token)}\t{float(score)!r}")
    return "\n".join(lines) + "\n"


def vocabulary_digest(vocab: Vocabulary) -> str:
    """Content hash used to pin a model to the vocabulary it was trained on."""
    return hashlib.sha256(serialize_vocabulary(vocab).encode("utf-8")).hexdigest()


def write_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_vocabulary(vocab))


def read_vocabulary(path) -> Vocabulary:
    lines = read_lines(path)
    if not lines or not lines[0].startswith(VOCAB_HEADER_PREFIX):
        raise FormatError(f"{path}: missing vocabulary header")
    try:
        fields = dict(part.split("=", 1) for part in lines[0][len(VOCAB_HEADER_PREFIX):].split())
        k_api = int(fields["k_api"])
        k_str = int(fields["k_str"])
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{path}: malformed vocabulary header") from exc

    api: list[tuple[str, float]] = []
    strings: list[tuple[str, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path} line {lineno}: expected kind<TAB>token<TAB>score")
        kind, token, score_text = parts
        try:
            score = float(score_text)
        except ValueError as exc:
            raise FormatError(f"{path} line {lineno}: bad score {score_text!r}") from exc
        if not math.isfinite(score):
            raise FormatError(f"{path} line {lineno}: non-finite score")
        if kind not in (KIND_API, KIND_STRING):
            raise FormatError(f"{path} line {lineno}: unknown kind {kind!r}")
        token = unescape_token(token)
        if normalize_token(token, kind) != token:
            # no graph token can ever match it
            raise FormatError(f"{path} line {lineno}: {kind} token {token!r} is not normalized")
        if kind == KIND_API:
            if strings:
                raise FormatError(f"{path} line {lineno}: api row after string rows")
            api.append((token, score))
        else:
            strings.append((token, score))

    vocab = Vocabulary(
        api_tokens=tuple(t for t, _ in api),
        string_tokens=tuple(t for t, _ in strings),
        api_scores=tuple(s for _, s in api),
        string_scores=tuple(s for _, s in strings),
        k_api=k_api,
        k_str=k_str,
    )
    if len(set(vocab.api_tokens)) != len(vocab.api_tokens) or len(set(vocab.string_tokens)) != len(
        vocab.string_tokens
    ):
        raise FormatError(f"{path}: duplicate tokens in vocabulary")
    return vocab
