"""Function-call-graph data model, validation, normalization, and interchange I/O.

The interchange format is newline-delimited JSON, one graph per line:

    {"graph_id": "...", "label": "malware"|"benign"|null, "main": "...",
     "nodes": [{"id": "...", "apis": [...], "strings": [...]}, ...],
     "edges": [["caller", "callee"], ...]}

All types are immutable after construction and safe to share across workers.
Parsed strings are interned: a corpus holds one object per distinct token or
node id, and each edge endpoint is its node's id object, so a parsed corpus
grows with its distinct strings, not with its token occurrences.
"""

import json
import logging
import sys
from dataclasses import dataclass, field

logger = logging.getLogger("mal2gcn")

LABEL_MALWARE = "malware"
LABEL_BENIGN = "benign"

_RECORD_KEYS = {"graph_id", "label", "main", "nodes", "edges"}
_NODE_KEYS = {"id", "apis", "strings"}


class DataError(Exception):
    """Input violates a data contract (bad label, unknown id, empty corpus, ...)."""


class FormatError(DataError):
    """An interchange or report file is malformed."""


@dataclass(frozen=True, slots=True)
class FunctionNode:
    """One function: its id, the API names it calls, and the strings it references.

    Token lists keep duplicates and original case; normalization happens at
    featurization time.
    """

    id: str
    apis: tuple[str, ...] = ()
    strings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "apis", tuple(self.apis))
        object.__setattr__(self, "strings", tuple(self.strings))

    @property
    def token_count(self) -> int:
        return len(self.apis) + len(self.strings)


@dataclass(frozen=True)
class Fcg:
    """A labeled directed function call graph; edge (a, b) means a calls b."""

    graph_id: str
    label: str | None
    main_id: str
    nodes: tuple[FunctionNode, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        # a tuple of 2-tuples, as record_to_fcg and normalize_fcg pass, is kept as it is
        if type(self.edges) is not tuple or not all(type(e) is tuple and len(e) == 2 for e in self.edges):
            object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_token_count(self) -> int:
        return sum(node.token_count for node in self.nodes)

    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


@dataclass(frozen=True)
class Corpus:
    """Ordered graph collection plus free-form provenance metadata."""

    records: tuple[Fcg, ...]
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class ValidationResult:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_fcg(g: Fcg) -> ValidationResult:
    """Check structural invariants; isolation is a warning because normalize_fcg repairs it."""
    errors: list[str] = []
    warnings: list[str] = []

    seen: set[str] = set()
    for node in g.nodes:
        if not node.id:
            errors.append("empty node id")
        elif node.id in seen:
            errors.append(f"duplicate id {node.id}")
        seen.add(node.id)

    if g.main_id not in seen:
        errors.append(f"main id {g.main_id} is not a node")

    if g.label is not None and g.label not in (LABEL_MALWARE, LABEL_BENIGN):
        errors.append(f"invalid label {g.label!r}")

    touched: set[str] = set()
    for caller, callee in g.edges:
        for endpoint in (caller, callee):
            if endpoint not in seen:
                errors.append(f"unknown edge endpoint {endpoint}")
        if caller != callee:
            touched.add(caller)
            touched.add(callee)

    for node in g.nodes:
        if node.id != g.main_id and node.id not in touched:
            warnings.append(f"isolated node {node.id}")

    return ValidationResult(tuple(errors), tuple(warnings))


def normalize_fcg(g: Fcg) -> Fcg:
    """Return a structurally canonical copy of the graph.

    Drops self-edges, deduplicates edges (first occurrence wins), and gives
    every otherwise isolated non-main node an edge main -> node so that it
    participates in neighborhood aggregation.  Idempotent.
    """
    result = validate_fcg(g)
    if not result.ok:
        raise DataError(f"graph {g.graph_id}: " + "; ".join(result.errors))

    edges: list[tuple[str, str]] = []
    seen_edges: set[tuple[str, str]] = set()
    touched: set[str] = set()
    for edge in g.edges:
        caller, callee = edge
        if caller == callee or edge in seen_edges:
            continue
        seen_edges.add(edge)
        edges.append(edge)
        touched.add(caller)
        touched.add(callee)

    for node in g.nodes:
        if node.id != g.main_id and node.id not in touched:
            edges.append((g.main_id, node.id))

    return Fcg(g.graph_id, g.label, g.main_id, g.nodes, tuple(edges))


# ---------------------------------------------------------------------------
# Interchange format
# ---------------------------------------------------------------------------


def _missing_keys(obj: dict, expected: set[str], where: str, strict: bool) -> list[str]:
    """The expected fields obj lacks, sorted; its unknown fields are a FormatError if strict, else logged."""
    if obj.keys() == expected:  # the common case builds no set
        return []
    unknown = obj.keys() - expected
    if unknown:
        names = ", ".join(sorted(unknown))
        if strict:
            raise FormatError(f"{where}: unknown field(s) {names}")
        logger.warning("%s: ignoring unknown field(s) %s", where, names)
    return sorted(expected - obj.keys())


def _interned(items) -> tuple[str, ...] | None:
    """The items of a JSON array of strings, interned; None if `items` is anything else."""
    if isinstance(items, list):
        try:
            return tuple(map(sys.intern, items))
        except TypeError:  # sys.intern takes only str
            pass
    return None


def record_to_fcg(obj: dict, where: str = "record", strict: bool = True) -> Fcg:
    """Decode one interchange object into an Fcg, checking field names and types.

    Every token, node id and edge endpoint must be a str, and is interned.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    missing = _missing_keys(obj, _RECORD_KEYS, where, strict)
    if missing:
        raise FormatError(f"{where}: missing field(s) {', '.join(missing)}")

    label = obj["label"]
    if label is not None and label not in (LABEL_MALWARE, LABEL_BENIGN):
        raise FormatError(f"{where}: label must be 'malware', 'benign', or null")

    if not isinstance(obj["nodes"], list) or not isinstance(obj["edges"], list):
        raise FormatError(f"{where}: nodes and edges must be arrays")

    nodes = []
    for k, node_obj in enumerate(obj["nodes"]):
        node_where = f"{where} node {k}"
        if not isinstance(node_obj, dict):
            raise FormatError(f"{node_where}: expected an object")
        if _missing_keys(node_obj, _NODE_KEYS, node_where, strict):
            raise FormatError(f"{node_where}: missing field(s)")
        if type(node_obj["id"]) is not str:
            raise FormatError(f"{node_where}: id must be a string")
        apis = _interned(node_obj["apis"])
        strings = _interned(node_obj["strings"])
        if apis is None or strings is None:
            key = "apis" if apis is None else "strings"
            raise FormatError(f"{node_where}: {key} must be an array of strings")
        nodes.append(FunctionNode(sys.intern(node_obj["id"]), apis, strings))

    edges = []
    for k, pair in enumerate(obj["edges"]):
        edge = _interned(pair)
        if edge is None or len(edge) != 2:
            raise FormatError(f"{where} edge {k}: expected a [caller, callee] string pair")
        edges.append(edge)

    if not isinstance(obj["graph_id"], str) or not isinstance(obj["main"], str):
        raise FormatError(f"{where}: graph_id and main must be strings")

    return Fcg(obj["graph_id"], label, obj["main"], tuple(nodes), tuple(edges))


def fcg_to_record(g: Fcg) -> dict:
    return {
        "graph_id": g.graph_id,
        "label": g.label,
        "main": g.main_id,
        "nodes": [{"id": n.id, "apis": list(n.apis), "strings": list(n.strings)} for n in g.nodes],
        "edges": [[a, b] for a, b in g.edges],
    }


def write_corpus(corpus: Corpus, path) -> None:
    write_lines(path, (json.dumps(fcg_to_record(g), ensure_ascii=False, separators=(",", ":")) for g in corpus.records))


def write_lines(path, lines) -> None:
    """Write each of `lines`, then a newline, to a UTF-8 text file; `lines` is any iterable, consumed as written."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def read_lines(path):
    """Yield the lines of a UTF-8 text file as write_lines wrote them, decoding as it reads.

    Only a newline ends a line, so a line keeps any other character, such as
    U+0085 or U+2028, at which str.splitlines would split it.  Bytes that are
    not UTF-8 raise a FormatError when they are reached.  The file is closed
    once it is read through, on that error, or when the generator is closed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                yield line.removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8") from exc


def report_lines(header: str, meta: dict | None) -> list[str]:
    """A report's preamble: its header line, then one `# key=value` line per meta entry."""
    return [header, *(f"# {key}={value}" for key, value in (meta or {}).items())]


def read_corpus(path, strict: bool = True) -> Corpus:
    """Read an interchange file; every record must pass validation (isolation aside)."""
    records: list[Fcg] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path} line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{where}: invalid JSON ({exc.msg})") from exc
        except RecursionError as exc:
            raise FormatError(f"{where}: JSON nested too deeply") from exc
        g = record_to_fcg(obj, where=where, strict=strict)
        result = validate_fcg(g)
        if not result.ok:
            raise FormatError(f"{where} (graph {g.graph_id}): " + "; ".join(result.errors))
        records.append(g)
    return Corpus(tuple(records), {"source": str(path)})
