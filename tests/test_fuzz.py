"""Fuzzed CLI requests: golden-corpus requests with one field replaced or dropped.

The field is the command, the group, or one key or value anywhere inside
the payload.  Replacement values are bounded JSON: ints in [-3, 3], short
strings, and lists or dicts nested at most three deep; groups are of rank
at most 3, or over the group rank limit.  Every request is answered
in-process through ``cli.main``; each must exit 0, 2, 3 or 4, a refusal
must print nothing on stdout and one JSON error line on stderr, and no
exception may escape.  The examples are derandomized, so every run sends
the same requests.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from liemoment import cli
from liemoment.rootsys import MAX_RANK

from test_golden import REQUESTS, answer

_BASES = []
for _, _text in REQUESTS:
    try:
        _doc = json.loads(_text)
    except ValueError:
        continue
    if isinstance(_doc, dict):
        _BASES.append(_doc)

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4)
            | st.sampled_from(["1/2", "-3/2", "1/0", "2/1"]))


def _nested(depth):
    if depth == 0:
        return _SCALARS
    inner = _nested(depth - 1)
    return (_SCALARS | st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3))


_VALUES = _nested(3)
_GROUPS = st.sampled_from([
    "A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2", "T1", "T2", "T3",
    "A1xA1", "A2xA1", "A1xT1", "A2xT1", "A1xA1xA1", "T0",
    "A%d" % (MAX_RANK + 1), "B%dxT1" % MAX_RANK, "A1000", "T100000000",
])
_COMMANDS = st.sampled_from(sorted(set(cli._COMMANDS) | {"render"}))


def _mutate_inside(data, node):
    """Replace, drop or rename one entry somewhere inside a nonempty container."""
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else list(range(len(node)))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    actions = ["replace", "drop"] + (["rename"] if isinstance(node, dict) else [])
    action = data.draw(st.sampled_from(actions))
    if action == "replace":
        node[key] = data.draw(_VALUES)
    elif action == "drop":
        del node[key]
    else:
        node[data.draw(st.text(max_size=4))] = node.pop(key)


@settings(max_examples=1500, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.data())
def test_mutated_golden_requests_exit_cleanly(data):
    request = copy.deepcopy(data.draw(st.sampled_from(_BASES)))
    field = data.draw(st.sampled_from(["command", "group", "payload"]))
    payload = request.get("payload")
    if field == "payload" and isinstance(payload, dict) and payload:
        _mutate_inside(data, payload)
    elif field in request and data.draw(st.booleans()):
        del request[field]
    else:
        request[field] = data.draw({"command": _COMMANDS | _VALUES,
                                    "group": _GROUPS | _VALUES,
                                    "payload": _VALUES}[field])
    out = answer(json.dumps(request, sort_keys=True))
    assert out["rc"] in (0, 2, 3, 4), out
    if out["rc"]:
        assert out["stdout"] == ""
        lines = out["stderr"].splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}, out
    else:
        assert out["stdout"]
