import json

import pytest
from hypothesis import given

from mal2gcn.fcg import (
    Corpus,
    DataError,
    Fcg,
    FormatError,
    FunctionNode,
    fcg_to_record,
    normalize_fcg,
    read_corpus,
    read_lines,
    record_to_fcg,
    validate_fcg,
    write_corpus,
    write_lines,
)

from conftest import OTHER_LINE_BREAKS, fcgs


def graph(nodes, edges, main="main", label="malware"):
    return Fcg("g", label, main, tuple(FunctionNode(n) for n in nodes), tuple(edges))


class TestValidate:
    def test_edge_to_missing_node_is_a_violation(self):
        g = graph(["main", "f1"], [("main", "f9")])
        result = validate_fcg(g)
        assert not result.ok
        assert any("unknown edge endpoint f9" in e for e in result.errors)

    def test_minimal_single_node_graph_is_ok(self):
        g = graph(["main"], [])
        assert validate_fcg(g).ok

    def test_duplicate_node_id_is_a_violation(self):
        g = graph(["main", "f1", "f1"], [])
        result = validate_fcg(g)
        assert any("duplicate id f1" in e for e in result.errors)

    def test_missing_main_is_a_violation(self):
        g = graph(["f1"], [], main="nope")
        assert not validate_fcg(g).ok

    def test_invalid_label_is_a_violation(self):
        g = graph(["main"], [], label="suspicious")
        assert any("label" in e for e in validate_fcg(g).errors)

    def test_isolation_is_a_warning_not_an_error(self):
        g = graph(["main", "f1"], [])
        result = validate_fcg(g)
        assert result.ok
        assert any("isolated node f1" in w for w in result.warnings)

    def test_self_edge_only_node_counts_as_isolated(self):
        g = graph(["main", "f1"], [("f1", "f1")])
        assert any("isolated node f1" in w for w in validate_fcg(g).warnings)


class TestNormalize:
    def test_isolated_node_gets_edge_from_main(self):
        g = graph(["main", "f1"], [])
        assert normalize_fcg(g).edges == (("main", "f1"),)

    def test_lone_main_is_unchanged(self):
        g = graph(["main"], [])
        assert normalize_fcg(g) == g

    def test_dedup_and_self_edge_removal(self):
        g = graph(["main", "f1"], [("main", "f1"), ("main", "f1"), ("f1", "f1")])
        assert normalize_fcg(g).edges == (("main", "f1"),)

    def test_raises_on_invalid_graph(self):
        g = graph(["main"], [("main", "ghost")])
        with pytest.raises(DataError):
            normalize_fcg(g)

    @given(fcgs())
    def test_idempotent(self, g):
        once = normalize_fcg(g)
        assert normalize_fcg(once) == once

    @given(fcgs())
    def test_never_removes_nodes_and_leaves_no_isolated_nodes(self, g):
        normalized = normalize_fcg(g)
        assert normalized.nodes == g.nodes
        assert not validate_fcg(normalized).warnings

    @given(fcgs())
    def test_preserves_connectivity(self, g):
        def components(graph):
            adj = {n.id: set() for n in graph.nodes}
            for a, b in graph.edges:
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
            seen, comps = set(), {}
            for start in adj:
                if start in seen:
                    continue
                stack, comp = [start], len(comps)
                while stack:
                    u = stack.pop()
                    if u in seen:
                        continue
                    seen.add(u)
                    comps[u] = comp
                    stack.extend(adj[u])
            return comps

        before = components(g)
        after = components(normalize_fcg(g))
        for a in before:
            for b in before:
                if before[a] == before[b]:
                    assert after[a] == after[b]


class TestInterchange:
    @given(fcgs())
    def test_round_trip_preserves_everything(self, g):
        line = json.dumps(fcg_to_record(g), ensure_ascii=False, separators=(",", ":"))
        assert record_to_fcg(json.loads(line)) == g

    def test_file_round_trip(self, tmp_path):
        g = Fcg(
            "g1",
            "malware",
            "main",
            (FunctionNode("main", ("A", "A"), ("hello",)), FunctionNode("f1")),
            (("main", "f1"), ("f1", "main")),
        )
        path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus((g,)), path)
        assert read_corpus(path).records == (g,)

    def test_record_shape(self):
        g = Fcg("g1", None, "main", (FunctionNode("main", ("A",), ("hello",)),), ())
        record = fcg_to_record(g)
        assert set(record) == {"graph_id", "label", "main", "nodes", "edges"}
        assert record["label"] is None
        assert record["nodes"][0] == {"id": "main", "apis": ["A"], "strings": ["hello"]}

    def test_unknown_field_is_error_in_strict_mode(self):
        obj = fcg_to_record(graph(["main"], []))
        obj["extra"] = 1
        with pytest.raises(FormatError, match="unknown field"):
            record_to_fcg(obj, strict=True)

    def test_unknown_field_is_warning_in_lenient_mode(self, caplog):
        obj = fcg_to_record(graph(["main"], []))
        obj["extra"] = 1
        with caplog.at_level("WARNING", logger="mal2gcn"):
            g = record_to_fcg(obj, strict=False)
        assert g.graph_id == "g"
        assert any("unknown field" in r.message for r in caplog.records)

    def test_missing_field_is_error_in_both_modes(self):
        obj = fcg_to_record(graph(["main"], []))
        del obj["main"]
        for strict in (True, False):
            with pytest.raises(FormatError, match="missing"):
                record_to_fcg(obj, strict=strict)

    @pytest.mark.parametrize(
        "in_node, drop, add, strict, message",
        [
            (False, ("main", "edges"), (), True, "record: missing field(s) edges, main"),
            (False, ("main",), ("extra",), False, "record: missing field(s) main"),
            (False, (), ("zeta", "extra"), True, "record: unknown field(s) extra, zeta"),
            (True, ("apis",), (), True, "record node 0: missing field(s)"),
            (True, ("apis",), ("x",), False, "record node 0: missing field(s)"),
            (True, (), ("x",), True, "record node 0: unknown field(s) x"),
        ],
    )
    def test_field_errors_name_the_fields(self, in_node, drop, add, strict, message):
        record = fcg_to_record(graph(["main"], []))
        obj = record["nodes"][0] if in_node else record
        for key in drop:
            del obj[key]
        obj.update(dict.fromkeys(add, 1))
        with pytest.raises(FormatError) as exc:
            record_to_fcg(record, strict=strict)
        assert str(exc.value) == message

    def test_bad_label_rejected(self):
        obj = fcg_to_record(graph(["main"], []))
        obj["label"] = "weird"
        with pytest.raises(FormatError, match="label"):
            record_to_fcg(obj)

    def test_bad_edge_arity_rejected(self):
        obj = fcg_to_record(graph(["main"], []))
        obj["edges"] = [["main"]]
        with pytest.raises(FormatError, match="edge"):
            record_to_fcg(obj)

    def test_invalid_json_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"graph_id": broken\n', encoding="utf-8")
        with pytest.raises(FormatError, match="line 1"):
            read_corpus(path)

    def test_referential_integrity_checked_on_read(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = fcg_to_record(graph(["main"], [("main", "ghost")]))
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match="ghost"):
            read_corpus(path)

    def test_unicode_tokens_survive(self, tmp_path):
        g = Fcg(
            "gU",
            "benign",
            "main",
            (FunctionNode("main", ("GetWindowTextW",), ("héllo wörld \t line",)),),
            (),
        )
        path = tmp_path / "u.jsonl"
        write_corpus(Corpus((g,)), path)
        assert read_corpus(path).records[0] == g

    @pytest.mark.parametrize(
        "field, bad",
        [("apis", ["A", 7]), ("strings", [None]), ("id", 3)],
    )
    def test_non_string_token_or_id_is_a_format_error(self, field, bad):
        obj = fcg_to_record(graph(["main"], []))
        obj["nodes"][0][field] = bad
        with pytest.raises(FormatError, match="string"):
            record_to_fcg(obj)


class TestTextLines:
    def test_lines_end_only_at_newline(self, tmp_path):
        lines = ["header", "", *(f"a{c}b" for c in OTHER_LINE_BREAKS), "last"]
        path = tmp_path / "lines.txt"
        write_lines(path, iter(lines))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert list(read_lines(path)) == lines

    @pytest.mark.parametrize("text, lines", [("", []), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""]), ("\n", [""])])
    def test_only_one_final_newline_is_dropped(self, tmp_path, text, lines):
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode("utf-8"))
        assert list(read_lines(path)) == lines


class TestInterning:
    """A parsed corpus holds one object per distinct string, however often it occurs."""

    def test_equal_tokens_and_ids_share_one_object_across_nodes_and_graphs(self, tmp_path):
        # built by concatenation so that no two equal strings start as the same object
        def s(text):
            return "".join(list(text))

        def node(node_id):
            return FunctionNode(s(node_id), (s("CreateFileW"), s("CreateFileW")), (s("hello world"),))

        graphs = [
            Fcg(s(f"g{k}"), "benign", s("main"), (node("main"), node("f1")), ((s("main"), s("f1")),))
            for k in range(2)
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(tuple(graphs)), path)
        records = read_corpus(path).records

        apis = [api for g in records for n in g.nodes for api in n.apis]
        strings = [text for g in records for n in g.nodes for text in n.strings]
        assert len(apis) == 8 and all(api is apis[0] for api in apis)
        assert len(strings) == 4 and all(text is strings[0] for text in strings)
        assert records[0].nodes[0].id is records[1].nodes[0].id
        for g in records:
            ids = {n.id: n.id for n in g.nodes}
            for caller, callee in g.edges:
                assert caller is ids[caller] and callee is ids[callee]

    def test_edge_tuples_are_kept_not_copied(self):
        edges = (("main", "f1"), ("f1", "f2"), ("f1", "f2"))
        g = graph(["main", "f1", "f2"], edges)
        assert g.edges is edges
        assert all(a is b for a, b in zip(normalize_fcg(g).edges, edges))
        # any other container of pairs becomes a tuple of 2-tuples
        assert graph(["main", "f1"], [["main", "f1"]]).edges == (("main", "f1"),)

    def test_nodes_carry_no_instance_dict(self):
        node = FunctionNode("main", ("A",), ("b",))
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.id = "other"
