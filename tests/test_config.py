from hypothesis import given, settings
from hypothesis import strategies as st

from difading.cli import SCHEMAS
from difading.config import ConfigError, parse_config_text

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
