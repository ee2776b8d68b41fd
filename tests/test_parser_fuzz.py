"""Fuzzing of the hMETIS and label parsers (needs hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypermod import FormatError, load_labels, loads  # noqa: E402
from hypermod.hypergraph import read_label_rows  # noqa: E402


# Tokens for near-valid files. Every integer that can parse as a valid
# header n is small: a huge valid n makes the loader allocate n labels.
TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from([
        "99999999999999999999", "-99999999999999999999",
        "9223372036854775808", "-9223372036854775809",
        "1.5", "2.0", "nan", "inf", "-inf", "1e400", "0", "-0", "x", "%",
        "1_0", "٣", "",
    ]),
    st.text(max_size=3),
)
LINES = st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=6)
TEXTS = st.one_of(st.text(), LINES.map("\n".join))


class TestParserFuzz:
    """Malformed input raises FormatError and nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(TEXTS)
    @example("1 99999999999999999999\n99999999999999999999 1\n")
    @example("1 9223372036854775808\n1 2\n")
    @example("99999999999999999999 2\n1 2\n")
    @example("1 2 1\n1e400 1 2\n")
    def test_loads(self, text):
        try:
            loads(text)
        except FormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(TEXTS)
    @example("1\n99999999999999999999\n")
    @example("-9223372036854775809\n")
    def test_load_labels(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        path.write_text(text, encoding="utf-8")
        try:
            load_labels(path)
        except FormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(TEXTS, st.sampled_from([(1,), (1, 2)]))
    @example("1\t0\n2\t99999999999999999999\n", (1, 2))
    @example("1\t0\n2\n", (1, 2))
    @example("1 2 3\n", (1, 2))
    def test_read_label_rows(self, tmp_path_factory, text, widths):
        path = tmp_path_factory.mktemp("rows") / "rows.txt"
        path.write_text(text, encoding="utf-8")
        try:
            rows = read_label_rows(path, widths)
        except FormatError:
            return
        assert rows.dtype == "int64"
        assert rows.ndim == 2 and rows.shape[1] in widths
