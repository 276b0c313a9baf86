import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fallsense import sisfall
from fallsense.sisfall import (
    AnnotationError,
    CalibrationError,
    IntegrityError,
    IngestError,
    TrialId,
    TrialParseError,
    annotate_trial,
    calibrate_trial,
    load_subjects,
    parse_trial_file,
    read_annotation_spans,
    verify_corpus,
)

from conftest import make_trial_text


class TestTrialId:
    def test_parse_filename(self):
        tid = TrialId.parse("F01_SA05_R03.txt")
        assert tid == TrialId("F01", "SA05", 3)
        assert str(tid) == "F01_SA05_R03"
        assert tid.is_fall

    def test_adl_code(self):
        assert not TrialId("D19", "SE15", 5).is_fall

    @pytest.mark.parametrize("bad", ["F16_SA01_R01", "F01_SB01_R01",
                                     "F01_SA01_R06", "F01_SA01_R00",
                                     "walk.txt"])
    def test_rejects_bad_ids(self, bad):
        with pytest.raises(IngestError):
            TrialId.parse(bad)


class TestParseTrialFile:
    def test_zero_row(self):
        records = parse_trial_file("0,0,0,0,0,0,0,0,0")
        assert records.shape == (1, 9)
        assert np.all(records == 0)

    def test_fifteen_second_trial(self):
        rows = np.arange(3000 * 9).reshape(3000, 9) % 100
        records = parse_trial_file(make_trial_text(rows))
        assert records.shape[0] == 3000  # 15 s at 200 Hz

    def test_trailing_semicolon_and_blank_lines(self):
        records = parse_trial_file("1,2,3,4,5,6,7,8,9;\n\n9,8,7,6,5,4,3,2,1;\n")
        assert records.shape == (2, 9)

    def test_malformed_field_reports_line(self):
        with pytest.raises(TrialParseError, match="line 2"):
            parse_trial_file("1,2,3,4,5,6,7,8,9\n1,2,three,4,5,6,7,8,9")

    def test_wrong_field_count(self):
        with pytest.raises(TrialParseError, match="line 1"):
            parse_trial_file("1,2,3")

    def test_empty_file(self):
        with pytest.raises(TrialParseError, match="empty"):
            parse_trial_file("")

    @pytest.mark.parametrize("count", ["99999999999", "2147483648",
                                       "-2147483649", "1" + "0" * 30])
    def test_count_outside_int32_reports_line(self, count):
        text = f"1,2,3,4,5,6,7,8,9;\n\n1,2,3,4,5,6,7,8,{count};\n"
        with pytest.raises(TrialParseError, match="line 3: count outside"):
            parse_trial_file(text)

    def test_int32_ends_parse(self):
        records = parse_trial_file("2147483647,-2147483648,+7,-0,0,1,2,3,4")
        assert records.tolist() == [[2 ** 31 - 1, -2 ** 31, 7, 0, 0, 1, 2,
                                     3, 4]]

    @pytest.mark.parametrize("field", ["1_0", "_10", "1__0", "\u0663",
                                       "\u00a01", "+", "-", "1-", "0x1",
                                       "1e3", "1.0", "++1", "- 1"])
    def test_field_is_sign_and_ascii_digits(self, field):
        # int() reads "1_0" as 10 and Arabic-Indic digits as digits
        with pytest.raises(TrialParseError, match="line 2: non-integer"):
            parse_trial_file(f"1,2,3,4,5,6,7,8,9\n1,2,3,4,5,6,7,8,{field}")


_FIELD = re.compile(r"[+-]?[0-9]+")


def ref_parse_trial(text: str):
    """Rows of trial text parsed line by line, or None where the parser
    must refuse it."""
    rows = []
    for line in text.splitlines():
        line = line.strip().rstrip(";").strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 9 or not all(_FIELD.fullmatch(f) for f in fields):
            return None
        row = [int(f) for f in fields]
        if not all(-2 ** 31 <= v < 2 ** 31 for v in row):
            return None
        rows.append(row)
    return rows or None


_ascii = st.characters(min_codepoint=0, max_codepoint=127)
_counts = st.lists(st.integers(-2 ** 31, 2 ** 31 - 1), min_size=9,
                   max_size=9).map(lambda row: [str(v) for v in row])
_odd_fields = st.one_of(
    st.integers(-2 ** 40, 2 ** 40).map(lambda v: f" {v:+d}\t"),
    st.integers(-2 ** 40, 2 ** 40).map(lambda v: f"{v:_d}"),
    st.text(st.sampled_from("0123456789+-_ \t;.e"), max_size=6),
    st.text(_ascii, max_size=4))


@st.composite
def _lines(draw):
    """A row of int32 counts, one with a field replaced by an odd one,
    or any ASCII line."""
    kind = draw(st.sampled_from(["counts", "odd_field", "any"]))
    if kind == "any":
        return draw(st.text(_ascii, max_size=30))
    fields = draw(_counts)
    if kind == "odd_field":
        fields[draw(st.integers(0, 8))] = draw(_odd_fields)
    return ",".join(fields) + draw(st.sampled_from(["", ";", " ; "]))


_trial_texts = st.one_of(
    st.lists(_lines(), max_size=6).map("\n".join),
    st.text(_ascii, max_size=80))


class TestParseTrialFileFuzz:
    @given(_trial_texts, st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_parses_as_per_line_reference_or_refuses(self, text, as_bytes):
        want = ref_parse_trial(text)
        data = text.encode("ascii") if as_bytes else text
        if want is None:
            with pytest.raises(TrialParseError):
                parse_trial_file(data)
            return
        got = parse_trial_file(data)
        assert got.dtype == np.int32 and got.shape == (len(want), 9)
        assert got.tolist() == want


def line_parse_trial_file(data: bytes | str) -> np.ndarray:
    """The line-by-line trial parser ``parse_trial_file`` replaced: the
    reference for its arrays and its error messages."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TrialParseError(f"trial file is not text: {exc}") from None
    rows: list[list[int]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        line = line.strip().rstrip(";").strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 9:
            raise TrialParseError(
                f"line {lineno}: expected 9 fields, got {len(fields)}")
        try:
            # int() also reads digit-group underscores and non-ASCII digits
            if "_" in line or not line.isascii():
                raise ValueError
            rows.append([int(f) for f in fields])
        except ValueError:
            raise TrialParseError(
                f"line {lineno}: non-integer field in {line!r}") from None
        linenos.append(lineno)
    if not rows:
        raise TrialParseError("empty trial file")
    try:
        return np.array(rows, dtype=np.int32)
    except OverflowError:
        info = np.iinfo(np.int32)
        bad = next(i for i, row in enumerate(rows)
                   if not info.min <= min(row) <= max(row) <= info.max)
        raise TrialParseError(
            f"line {linenos[bad]}: count outside int32 in {rows[bad]}"
        ) from None


def _outcome(parse, data):
    try:
        return parse(data)
    except TrialParseError as exc:
        return str(exc)


# Whitespace str.strip() removes and int() does not ("\x1c"-"\x1f"),
# line breaks of str.splitlines(), non-ASCII spaces and digits.
_odd_chars = st.sampled_from(
    list("\x1c\x1d\x1e\x1f\x0b\x0c\r\x85\xa0\u2028\u3000\u0663_;, \t+-"))
_rows_with_odd_chars = st.lists(
    st.lists(st.one_of(st.integers(-2 ** 33, 2 ** 33).map(str),
                       st.text(_odd_chars, max_size=2),
                       st.tuples(st.text(_odd_chars, max_size=2),
                                 st.integers(-99, 99),
                                 st.text(_odd_chars, max_size=2)
                                 ).map(lambda p: f"{p[0]}{p[1]}{p[2]}")),
             min_size=7, max_size=10).map(",".join),
    max_size=5).map("\n".join)


class TestParseTrialFileMatchesLineParser:
    """``parse_trial_file`` gives the line-by-line parser's array, or its
    error message, on any text."""

    @given(st.one_of(_trial_texts, _rows_with_odd_chars,
                     st.text(max_size=40)), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_same_array_or_same_message(self, text, as_bytes):
        data = text.encode("utf-8") if as_bytes else text
        want = _outcome(line_parse_trial_file, data)
        got = _outcome(parse_trial_file, data)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("text", [
        "1,2,3,4,5,6,7,8,9\n\xa0\n",            # a stripped non-ASCII line
        "\x1f1,2,3,4,5,6,7,8, 9\x1f;\x1f",       # strip() takes "\x1f"
        "1,2,3,4,5,6,7,8,9\x1f\x1f",
        "1,\x1f2\x1f,3,4,5,6,7,8,9",              # int() alone would not
        "1,2\x1f3,3,4,5,6,7,8,9",
        "1,2,3,4,5,6,7,8,9\x1c1,2,3,4,5,6,7,8,9",  # a line break
        "2147483648,0,0,0,0,0,0,0,0\n1,2,3\n",     # field count first
        "1,2,3,4,5,6,7,8\n1,2,3,4,5,6,7,8,9,10",    # 18 fields, misaligned
        "1,2,3,4,5,6,7,8,9,1\n2,3,4,5,6,7,8,9",
        "2147483648,0,0,0,0,0,0,0,0\n" + "9" * 20 + ",0,0,0,0,0,0,0,0",
    ])
    def test_edge_cases(self, text):
        want = _outcome(line_parse_trial_file, text)
        got = _outcome(parse_trial_file, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)


class TestCalibrate:
    def test_zero_counts_map_to_zero(self):
        s = calibrate_trial(np.zeros((1, 9), dtype=int))
        assert np.all(s.accel_adxl345 == 0)
        assert np.all(s.gyro_itg3200 == 0)
        assert np.all(s.accel_mma8451q == 0)

    def test_adxl345_scale(self):
        # +/-16 g at 13 bits: 256 counts = 1 g
        s = calibrate_trial(np.array([[256, 0, 0, 0, 0, 0, 0, 0, 0]]))
        assert s.accel_adxl345[0, 0] == pytest.approx(1.0)

    def test_itg3200_scale(self):
        # +/-2000 deg/s at 16 bits: 16384 counts = 1000 deg/s
        s = calibrate_trial(np.array([[0, 0, 0, 16384, 0, 0, 0, 0, 0]]))
        assert s.gyro_itg3200[0, 0] == pytest.approx(1000.0)

    def test_linear_in_counts(self):
        r = np.array([[100, -50, 3, 1000, -200, 7, 40, -40, 11]])
        a = calibrate_trial(r)
        b = calibrate_trial(2 * r)
        assert np.allclose(b.accel_adxl345, 2 * a.accel_adxl345)
        assert np.allclose(b.gyro_itg3200, 2 * a.gyro_itg3200)
        assert np.allclose(b.accel_mma8451q, 2 * a.accel_mma8451q)

    def test_out_of_range_counts(self):
        bad = np.zeros((3, 9), dtype=int)
        bad[1, 0] = 5000  # beyond signed 13-bit
        with pytest.raises(CalibrationError, match="ADXL345"):
            calibrate_trial(bad)

    @pytest.mark.parametrize("column, sensor", [
        (1, "ADXL345"), (4, "ITG3200"), (8, "MMA8451Q")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts(self, column, sensor, bad):
        records = np.zeros((5, 9))
        records[2, column] = bad
        with pytest.raises(CalibrationError, match=f"{sensor}: non-finite"):
            calibrate_trial(records)

    def test_parse_then_calibrate_preserves_count(self):
        rows = np.arange(600 * 9).reshape(600, 9) % 64
        records = parse_trial_file(make_trial_text(rows))
        trial = calibrate_trial(records, trial_id=TrialId("D01", "SA01", 1))
        assert len(trial) == records.shape[0]


class TestSubjects:
    CSV = (
        "subject_id,age,height_cm,weight_kg,gender\n"
        "SA01,30,175,70,M\n"
        "SA02,25,160,55,F\n"
    )

    def test_load_and_gender_encoding(self, tmp_path):
        p = tmp_path / "subjects.csv"
        p.write_text(self.CSV)
        profiles = load_subjects(p)
        assert len(profiles) == 2
        assert profiles["SA01"].gender == 1.0
        assert profiles["SA02"].gender == 0.0
        assert np.allclose(profiles["SA01"].static_vector(),
                           [30, 175, 70, 1.0])

    def test_duplicate_subject(self, tmp_path):
        p = tmp_path / "subjects.csv"
        p.write_text(self.CSV + "SA01,31,175,70,M\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            load_subjects(p)

    def test_missing_profile(self, tmp_path):
        p = tmp_path / "subjects.csv"
        p.write_text(self.CSV)
        profiles = load_subjects(p)
        with pytest.raises(IntegrityError, match="no subject profile"):
            sisfall.require_profile(profiles, TrialId("F01", "SA03", 1))

    def test_full_roster(self, tmp_path):
        rows = ["subject_id,age,height_cm,weight_kg,gender"]
        for i, sid in enumerate(
                sisfall.ADULT_SUBJECTS + sisfall.ELDERLY_SUBJECTS):
            rows.append(f"{sid},{25 + i},170,70,{'M' if i % 2 else 'F'}")
        p = tmp_path / "subjects.csv"
        p.write_text("\n".join(rows))
        assert len(load_subjects(p)) == 38


def _trial(n=3000, activity="F01"):
    records = np.zeros((n, 9), dtype=np.int32)
    return calibrate_trial(records, trial_id=TrialId(activity, "SA01", 1))


class TestAnnotations:
    def test_span_arithmetic(self):
        annotated = annotate_trial(_trial(), (1000, 1200))
        assert int((annotated.labels == sisfall.FALL).sum()) == 201
        assert int((annotated.labels == sisfall.BACKGROUND).sum()) == 2799
        assert annotated.fall_span() == (1000, 1200)

    def test_no_span_all_background(self):
        annotated = annotate_trial(_trial(), None)
        assert np.all(annotated.labels == sisfall.BACKGROUND)
        assert annotated.fall_span() is None

    def test_out_of_range_span(self):
        with pytest.raises(AnnotationError, match="outside"):
            annotate_trial(_trial(), (2900, 3100))

    def test_span_on_adl_trial(self):
        with pytest.raises(AnnotationError, match="ADL"):
            annotate_trial(_trial(activity="D05"), (10, 20))

    def test_multiple_spans_rejected(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("trial_id,start_index,end_index\n"
                     "F01_SA01_R01,100,200\n"
                     "F01_SA01_R01,300,400\n")
        with pytest.raises(AnnotationError, match="multiple"):
            read_annotation_spans(p)

    def test_import_annotations(self, tmp_path):
        p = tmp_path / "ann.csv"
        p.write_text("trial_id,start_index,end_index\nF01_SA01_R01,5,9\n")
        spans = read_annotation_spans(p)
        annotated = annotate_trial(_trial(n=20), spans.get("F01_SA01_R01"))
        assert annotated.fall_span() == (5, 9)
        assert len(annotated.labels) == 20

    def test_labels_align_with_samples(self):
        annotated = annotate_trial(_trial(n=50), (3, 7))
        assert len(annotated.labels) == len(annotated.trial)


def _write_trial_file(path, n=10):
    rows = np.zeros((n, 9), dtype=int)
    path.write_text(make_trial_text(rows))


class TestVerifyCorpus:
    def _build(self, root):
        for subject, activities in [("SA01", ["F01", "D01"]),
                                    ("SE01", ["D01"])]:
            d = root / subject
            d.mkdir()
            for act in activities:
                for rep in (1, 2, 3, 4, 5):
                    _write_trial_file(d / f"{act}_{subject}_R{rep:02d}.txt")

    def test_counts(self, tmp_path):
        self._build(tmp_path)
        s = verify_corpus(tmp_path)
        assert s.fall_trials == 5
        assert s.adl_trials == 10
        assert s.total_trials == 15
        assert s.per_subject == {"SA01": 10, "SE01": 5}
        assert s.per_activity == {"F01": 5, "D01": 10}
        assert not s.missing

    def test_empty_root(self, tmp_path):
        s = verify_corpus(tmp_path / "nowhere")
        assert s.total_trials == 0
        assert s.warnings

    def test_missing_repetitions_warn(self, tmp_path):
        d = tmp_path / "SE02"
        d.mkdir()
        _write_trial_file(d / "D01_SE02_R01.txt")
        s = verify_corpus(tmp_path)
        assert s.adl_trials == 1
        assert any("SE02" in w for w in s.warnings)
        assert "D01_SE02_R02" in s.missing

    def test_extra_files_flagged(self, tmp_path):
        d = tmp_path / "SA01"
        d.mkdir()
        (d / "notes.txt").write_text("hello")
        _write_trial_file(d / "F01_SA01_R01.txt")
        s = verify_corpus(tmp_path)
        assert any("notes.txt" in e for e in s.extra_files)

    def test_unreadable_listed_not_fatal(self, tmp_path):
        d = tmp_path / "SA01"
        d.mkdir()
        (d / "F01_SA01_R01.txt").write_text("")  # empty = unreadable
        _write_trial_file(d / "F01_SA01_R02.txt")
        s = verify_corpus(tmp_path)
        assert s.fall_trials == 1
        assert len(s.unreadable) == 1

    def test_deterministic(self, tmp_path):
        self._build(tmp_path)
        assert verify_corpus(tmp_path) == verify_corpus(tmp_path)
