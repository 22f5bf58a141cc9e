"""Every span that a per-layer benchmark metric reads is still wrapped.

perfbench/tracing.py wraps `liemoment` functions by name and skips a name
that no longer exists, so a renamed function would silently read as zero
calls.  This test reads perfbench/run.py and perfbench/tracing.py (it
neither imports nor edits them) and checks that each span a metric reads
has at least one (module, function) entry in tracing.SPANS that resolves
in `liemoment`, or is wrapped by tracing.py directly.
"""

import ast
import importlib
import os
import re

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
        text = fh.read()
    return text, ast.parse(text)


def _assigned(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError("tracing.py no longer assigns %s" % name)


def test_every_metric_span_resolves_in_liemoment():
    run_text, run_tree = _tree("run.py")
    per_layer = next(node for node in run_tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "per_layer")
    source = ast.get_source_segment(run_text, per_layer)
    read = set(re.findall(r'\b(?:calls|total|spans\.get)\("([\w.]+)"', source))

    _, tracing = _tree("tracing.py")
    spans = ast.literal_eval(_assigned(tracing, "SPANS"))
    counters = _assigned(tracing, "COUNTERS")
    read |= {key.value for key in counters.keys}
    # spans that tracing.py wraps itself, outside SPANS (the JSON encoder)
    direct = {node.args[0].value for node in ast.walk(tracing)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "wrap" and node.args
              and isinstance(node.args[0], ast.Constant)}
    assert "polyhedra.dd" in read and "cli.run" in read and len(read) >= 15

    resolved = set(direct)
    for module, function, span in spans:
        target = getattr(importlib.import_module("liemoment." + module), function, None)
        if callable(target):
            resolved.add(span)
    assert sorted(read - resolved) == []
