"""load_csv's vectorised pass against its line reader: for every file the
two give the same Dataset bytes, or the same DataFormatError message and
line."""

import codecs
import csv
import locale
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kernelbcd import kernels
from kernelbcd.cli import EXIT_DATA, main
from kernelbcd.errors import DataFormatError
from kernelbcd.kernels import _fast_csv, load_csv


def outcome(path, has_header):
    """What load_csv makes of a file: the Dataset's bytes, or the error's
    message and line."""
    try:
        data = load_csv(path, has_header=has_header)
    except DataFormatError as exc:
        return ("error", str(exc), exc.line)
    assert data.X.flags.c_contiguous and data.labels.dtype == np.int64
    return ("data", data.X.shape, data.X.tobytes(), data.labels.tobytes(), data.k)


def line_reader_outcome(path, has_header):
    with mock.patch.object(kernels, "_fast_csv", lambda body, has_header: None):
        return outcome(path, has_header)


GOOD = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "+1", ".5", "1.", "1e5", "1E-5", "+2.5e+3", "-.25"]),
)
ODD = st.sampled_from([
    "", " 1", "1 ", '"1"', '"1,2"', '"', "1_0", "nan", "inf", "-inf", "NaN",
    "0x1p3", "0x10", "1e999", "-1e999", "1e19", "9223372036854775808",
    "9223372036854775807", "9.3e18", "-1", "1.5", "e", ".", "-", "1e", "1-2",
    "--1", "1\r2", "\t2", "é",
])
CLASS_IDS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["0.0", "3e0", "-0", "+2"]))
# labels that are plain numbers but not class ids
ODD_LABELS = st.sampled_from(["1.5", "-1", "-2.5e0", "1e19", "9.3e18", "1e999", "1e-5"])
ENDS = st.sampled_from(["\n", "\r\n", "\r"])
HEADERS = st.sampled_from(
    ["a,b,label", 'x,"y\nz",l', '"a,b,label', 'a,"b",c', "", "1,2,3", "é,b", "a\0b,c"]
)


@st.composite
def csv_texts(draw):
    """CSV text of plain numbers.  In an odd file about one cell in eight is
    an odd token, one label in eight is a plain number but no class id, and
    one row in four is ragged, so that many odd files break just one of the
    fast pass's rules."""
    width = draw(st.integers(1, 4))
    odd = draw(st.booleans())

    def cell(tokens):
        return draw(ODD if odd and draw(st.integers(0, 7)) == 0 else tokens)

    lines = [draw(HEADERS)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank line
            continue
        w = width
        if odd and draw(st.integers(0, 3)) == 0:
            w += draw(st.sampled_from([-1, 1]))
        label = draw(ODD_LABELS) if odd and draw(st.integers(0, 7)) == 0 else cell(CLASS_IDS)
        cells = [cell(GOOD) for _ in range(w - 1)] + [label]
        lines.append(",".join(cells))
    text = "".join(line + draw(ENDS) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), has_header=st.booleans())
@example(text="1,2,0\r\n3,4,1\r\n", has_header=False)
@example(text="a,b,c\r1,2,0\r3,4,1", has_header=True)
@example(text="1,2,1e19\n", has_header=False)
@example(text="1,2,0\n1,2,1.5\n", has_header=False)
@example(text="1,2,0\n1,2,-1\n", has_header=False)
@example(text="1,2,0\n1,2\n", has_header=False)
@example(text="1\n2\n", has_header=False)
@example(text='"a,b\n1,2,0\n', has_header=True)
@example(text="1,1e999,0\n", has_header=False)
@example(text="\n\r\n", has_header=False)
@example(text='"a\n,b",c\n1,2,0\n', has_header=True)
def test_fast_pass_matches_the_line_reader(text, has_header, tmp_path_factory):
    path = os.path.join(tmp_path_factory.getbasetemp(), "diff.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    with open(path, "rb") as fh:
        event("fast" if _fast_csv(fh.read(), has_header) is not None else "line reader")
    assert outcome(path, has_header) == line_reader_outcome(path, has_header)


def test_csv_writer_file_takes_the_fast_pass(tmp_path):
    # csv.writer ends rows in \r\n, as the files it writes for the benchmark do
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 4))
    labels = rng.integers(0, 3, 50)
    path = tmp_path / "train.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "d", "label"])
        for row, label in zip(X, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    body = path.read_bytes()
    assert b"\r\n" in body
    fast = _fast_csv(body, has_header=True)
    assert fast is not None
    assert fast.X.tobytes() == X.tobytes()
    assert np.array_equal(fast.labels, labels) and fast.k == labels.max() + 1
    assert outcome(path, True) == line_reader_outcome(path, True)


@pytest.mark.parametrize("label", ["1e19", "9223372036854775808", "1e300"])
def test_oversized_label_reports_its_line(label, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(f"1.0,2.0,0\n1.0,2.0,{label}\n")
    assert _fast_csv(path.read_bytes(), False) is None
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: label {label!r} does not fit in a 64-bit integer"


def test_largest_label_below_2_63_loads(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,0\n2.0,9.2e18\n")
    data = load_csv(path)
    assert data.labels.tolist() == [0, 9200000000000000000]
    assert outcome(path, False) == line_reader_outcome(path, False)


def test_cli_oversized_label_exits_with_data_error(tmp_path, capsys):
    path = tmp_path / "train.csv"
    path.write_text("1.0,2.0,0\n1.0,2.0,1e19\n")
    code = main(["solve", "--train", str(path), "--method", "full", "--b", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "line 2: label '1e19' does not fit" in capsys.readouterr().err


def test_field_past_the_csv_limit_is_a_data_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0,0\n1.0," + "1" * 40 + ",1\n")
    limit = csv.field_size_limit()
    csv.field_size_limit(32)
    try:
        assert _fast_csv(path.read_bytes(), False) is None
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
    finally:
        csv.field_size_limit(limit)
    assert exc.value.line == 2 and "field larger than field limit" in str(exc.value)


@pytest.mark.parametrize("text", ["", "\r\n\n", "a,b,label\n", "a,b\r\n\r\n\r"])
def test_file_without_digits_is_no_data(text, tmp_path):
    # with no digit the fast pass never calls loadtxt, which would warn
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert _fast_csv(path.read_bytes(), has_header=True) is None
    with pytest.raises(DataFormatError, match="no data rows found"):
        load_csv(path, has_header=True)


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="the line reader decodes with the locale's encoding",
)
def test_undecodable_header_goes_to_the_line_reader(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xff\xfe,b\n1,2,0\n")
    assert _fast_csv(path.read_bytes(), has_header=True) is None
    with pytest.raises(DataFormatError, match="cannot decode"):
        load_csv(path, has_header=True)
