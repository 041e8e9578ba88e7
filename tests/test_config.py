import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difading.cli import SCHEMAS
from difading.config import ConfigError, Field, parse_config_text, resolve

_KEYS = sorted({key for schema in SCHEMAS.values() for key in schema})
_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0x10", "1_000", "true", "yes", ",,",
                     "1, nan", "2, 3", "٣", " ", "#", "= =", "1" * 5000]),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_LINES = st.one_of(
    st.text(max_size=30),
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SCHEMAS)), st.lists(_LINES, max_size=6))
def test_parser_raises_nothing_but_config_error(command, lines):
    text = "\n".join(lines)
    try:
        values = parse_config_text(text, SCHEMAS[command])
    except ConfigError:
        return
    assert set(values) <= set(SCHEMAS[command])


def test_resolve_checks_both_ends_of_each_interval_and_every_list_item():
    schema = {"n": Field("ints", interval="[2, 5]"), "b": Field("float", 0.0, "[0, 1)"),
              "s": Field("float", 1.0, "(0, inf)"), "kind": Field("str", "a", choices=("a", "b"))}
    assert resolve(schema, {"n": [2, 5], "b": 0.0, "kind": "b"}, {}) == {
        "n": [2, 5], "b": 0.0, "s": 1.0, "kind": "b"}
    refused = [({"n": [1]}, "'n'"), ({"n": [2, 6]}, "'n'"), ({"n": []}, "missing required"),
               ({"n": [2], "b": 1.0}, "'b'"), ({"n": [2], "s": 0.0}, "'s'"),
               ({"n": [2], "kind": "c"}, "'kind'")]
    for values, named in refused:
        with pytest.raises(ConfigError, match=named):
            resolve(schema, values, {})


def test_pack_block_length_limit_is_checked_without_running():
    schema = SCHEMAS["pack"]
    assert resolve(schema, {"n": 21845}, {})["n"] == 21845
    with pytest.raises(ConfigError, match=r"'n': 21846 is outside \[2, 21845\]"):
        resolve(schema, {"n": 21846}, {})
