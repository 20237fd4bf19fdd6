"""Conversion of schema-1 certificate files, the layout of the files in
``golden/``, to the current schema.

Schema 1 nested each derivation and refutation tree as JSON objects.
Schema 2 stores each as a post-order table, children before their parent
and the root last, with children named by their table index; a
``truncated_right_order`` also records the words it orders positive.
"""

import json


def _table(root, children, relink) -> list:
    """The post-order table of a nested tree: ``relink(node, indices)`` is
    the node's entry, given the table indices of its children."""
    table, done, todo = [], [], [(root, False)]
    while todo:
        node, expanded = todo.pop()
        kids = children(node)
        if not expanded:
            todo.append((node, True))
            todo.extend((kid, False) for kid in reversed(kids))
            continue
        cut = len(done) - len(kids)
        table.append(relink(node, done[cut:]))
        del done[cut:]
        done.append(len(table) - 1)
    return table


def _tree_children(node) -> list:
    return [node["positive"], node["negative"]] if node["kind"] == "branch" else []


def _tree_entry(node, indices) -> dict:
    if node["kind"] != "branch":
        return node
    positive, negative = indices
    return {**node, "positive": positive, "negative": negative}


def convert(doc: dict, words=None) -> dict:
    """The schema-2 form of a schema-1 document.  A ``truncated_right_order``
    needs ``words``, the texts of the words its query orders positive."""
    doc = json.loads(json.dumps(doc))
    assert doc["schema_version"] == 1
    doc["schema_version"] = 2
    if doc["kind"] == "proof":
        for conjunct in doc["conjuncts"]:
            conjunct["nodes"] = _table(
                conjunct.pop("derivation"),
                lambda node: node["premises"],
                lambda node, indices: {**node, "premises": indices},
            )
    elif doc["kind"] == "refutation":
        doc["tree"] = _table(doc["tree"], _tree_children, _tree_entry)
    elif doc["kind"] == "truncated_right_order":
        doc["words"] = list(words)
    return doc
