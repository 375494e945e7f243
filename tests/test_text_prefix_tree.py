"""Tests for the prefix tree used by constrained decoding."""

import pytest

from repro.text.prefix_tree import PrefixTree
from repro.text.tokenizer import WordTokenizer


def build_tree():
    tree = PrefixTree()
    tree.insert(["vexo", "mobile"], "Vexo Mobile")
    tree.insert(["vexo", "wireless"], "Vexo Wireless")
    tree.insert(["nuvia"], "Nuvia")
    tree.insert(["nuvia", "telecom"], "Nuvia Telecom")
    return tree


class TestPrefixTree:
    def test_len_counts_entities(self):
        assert len(build_tree()) == 4

    def test_insert_empty_tokens_raises(self):
        with pytest.raises(ValueError):
            PrefixTree().insert([], "x")

    def test_allowed_next_from_root(self):
        assert build_tree().allowed_next([]) == ["nuvia", "vexo"]

    def test_allowed_next_mid_path(self):
        assert build_tree().allowed_next(["vexo"]) == ["mobile", "wireless"]

    def test_allowed_next_invalid_prefix_empty(self):
        assert build_tree().allowed_next(["zzz"]) == []

    def test_is_complete_at_leaf(self):
        tree = build_tree()
        assert tree.is_complete(["vexo", "mobile"])
        assert not tree.is_complete(["vexo"])

    def test_prefix_entity_also_complete(self):
        # "nuvia" is both a complete entity and a prefix of "nuvia telecom".
        tree = build_tree()
        assert tree.is_complete(["nuvia"])
        assert tree.is_complete(["nuvia", "telecom"])

    def test_entity_at(self):
        tree = build_tree()
        assert tree.entity_at(["vexo", "wireless"]) == "Vexo Wireless"
        assert tree.entity_at(["vexo"]) is None
        assert tree.entity_at(["missing"]) is None

    def test_contains_prefix(self):
        tree = build_tree()
        assert tree.contains_prefix(["vexo"])
        assert not tree.contains_prefix(["vexo", "phone"])

    def test_contains_dunder_checks_complete(self):
        tree = build_tree()
        assert ["nuvia"] in tree
        assert ["vexo"] not in tree

    def test_entities_with_prefix(self):
        tree = build_tree()
        assert tree.entities_with_prefix(["vexo"]) == ["Vexo Mobile", "Vexo Wireless"]
        assert tree.entities_with_prefix([]) == [
            "Nuvia",
            "Nuvia Telecom",
            "Vexo Mobile",
            "Vexo Wireless",
        ]

    def test_entities_with_invalid_prefix_empty(self):
        assert build_tree().entities_with_prefix(["qqq"]) == []

    def test_reinsert_same_path_does_not_double_count(self):
        tree = build_tree()
        tree.insert(["nuvia"], "Nuvia")
        assert len(tree) == 4

    def test_from_entities_uses_tokenizer(self):
        tree = PrefixTree.from_entities(["Vexo Mobile", "Nuvia"], WordTokenizer())
        assert tree.is_complete(["vexo", "mobile"])
        assert tree.is_complete(["nuvia"])

    def test_every_root_to_leaf_path_is_an_entity(self):
        tree = build_tree()
        for name in tree.entities_with_prefix([]):
            tokens = name.lower().split()
            assert tree.entity_at(tokens) == name


class TestCompiledPrefixTree:
    def test_rows_follow_the_tree(self):
        # "wireless" has no token id; "Nuvia Telecom" has no position.
        token_ids = {"mobile": 0, "nuvia": 1, "telecom": 2, "vexo": 3}
        positions = {"Vexo Mobile": 10, "Nuvia": 11, "Vexo Wireless": 12}
        compiled = build_tree().compile(token_ids, 99, positions, width=2)
        offsets, nodes, tokens = (
            compiled.child_offsets.tolist(),
            compiled.child_nodes.tolist(),
            compiled.child_tokens.tolist(),
        )

        def children(node):
            span = slice(offsets[node], offsets[node + 1])
            return list(zip(tokens[span], nodes[span]))

        (nuvia_token, nuvia), (vexo_token, vexo) = children(0)
        assert (nuvia_token, vexo_token) == (1, 3)
        (mobile_token, mobile), (wireless_token, wireless) = children(vexo)
        assert (mobile_token, wireless_token) == (0, 99)
        ((telecom_token, telecom),) = children(nuvia)
        assert telecom_token == 2
        assert compiled.terminals[0] is None and compiled.terminals[vexo] is None
        assert compiled.terminals[nuvia] == "Nuvia"
        assert compiled.terminals[wireless] == "Vexo Wireless"
        assert children(mobile) == children(telecom) == []
        # the first two reachable names, those with a position, -1 padded
        assert compiled.reachable[0].tolist() == [11, -1]  # Nuvia, Nuvia Telecom
        assert compiled.reachable[vexo].tolist() == [10, 12]
        assert compiled.reachable[telecom].tolist() == [-1, -1]

    def test_insert_bumps_the_version(self):
        tree = build_tree()
        version = tree.version
        tree.insert(["nuvia"], "Nuvia")  # even a re-insert may rename a path
        assert tree.version == version + 1
        tree.insert(["zeta"], "Zeta")
        assert tree.version == version + 2
