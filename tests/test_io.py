"""CSV ingestion, the bundled datasets, and summary round-trips."""

import io

import pytest

from common_cv.errors import (
    InvalidCountError,
    MalformedHeaderError,
    NonNumericValueError,
    TooFewGroupsError,
    TooFewObservationsError,
    ValidationError,
    ZeroVarianceError,
)
from common_cv.estimators import feltz_miller_estimate, new_estimate
from common_cv.io import (
    load_hospital_survival,
    load_mcv_surveys,
    read_raw_csv,
    read_summary_csv,
    write_summary_csv,
)
from common_cv.model import SampleSummary, Study

RAW = "group,value\na,1.0\na,2.0\nb,3.5\nb,4.5\nb,5.5\n"
SUMMARY = "group,n,mean,sd\na,10,1.5,0.25\nb,12,2.5,0.5\n"


class TestBundledDatasets:
    def test_surveys_fields(self, surveys):
        assert [g.label for g in surveys.groups] == ["1995", "1996"]
        assert [g.n for g in surveys.groups] == [63, 72]
        assert [g.mean for g in surveys.groups] == [84.13, 85.68]
        assert [g.sd for g in surveys.groups] == [3.390, 2.946]

    def test_hospital_shape(self, hospital):
        assert [g.label for g in hospital.groups] == [
            "hospital1",
            "hospital2",
            "hospital3",
            "hospital4",
        ]
        assert [g.n for g in hospital.groups] == [5, 4, 3, 10]

    def test_loaders_return_fresh_equal_studies(self):
        assert load_mcv_surveys() == load_mcv_surveys()
        assert load_hospital_survival() == load_hospital_survival()


class TestRawParsing:
    def test_basic(self):
        study = read_raw_csv(io.StringIO(RAW))
        assert [g.label for g in study.groups] == ["a", "b"]
        assert [g.n for g in study.groups] == [2, 3]
        assert [g.mean for g in study.groups] == [1.5, 4.5]

    def test_groups_in_first_appearance_order(self):
        text = "group,value\nz,1.0\na,5.0\nz,2.0\na,6.0\nz,3.0\n"
        study = read_raw_csv(io.StringIO(text))
        assert [g.label for g in study.groups] == ["z", "a"]
        assert study.groups[0].n == 3

    def test_crlf_line_endings(self):
        plain = read_raw_csv(io.StringIO(RAW))
        crlf = read_raw_csv(io.StringIO(RAW.replace("\n", "\r\n")))
        assert crlf == plain

    def test_blank_lines_ignored(self):
        text = "group,value\n\na,1.0\na,2.0\n\nb,3.5\nb,4.5\nb,5.5\n\n\n"
        assert read_raw_csv(io.StringIO(text)) == read_raw_csv(io.StringIO(RAW))

    def test_header_whitespace_tolerated(self):
        text = " group , value \na,1.0\na,2.0\nb,3.5\nb,4.5\nb,5.5\n"
        assert read_raw_csv(io.StringIO(text)) == read_raw_csv(io.StringIO(RAW))

    def test_empty_input(self):
        with pytest.raises(MalformedHeaderError, match="empty input"):
            read_raw_csv(io.StringIO(""))

    def test_wrong_header(self):
        with pytest.raises(MalformedHeaderError, match="group,value"):
            read_raw_csv(io.StringIO(SUMMARY))

    def test_extra_header_column(self):
        with pytest.raises(MalformedHeaderError):
            read_raw_csv(io.StringIO("group,value,weight\na,1.0\n"))

    def test_field_count_mismatch_names_line(self):
        text = "group,value\na,1.0\na,2.0,oops\n"
        with pytest.raises(ValidationError, match="line 3"):
            read_raw_csv(io.StringIO(text))

    def test_non_numeric_value(self):
        text = "group,value\na,1.0\na,fast\n"
        with pytest.raises(NonNumericValueError, match="not a number"):
            read_raw_csv(io.StringIO(text))

    @pytest.mark.parametrize("field", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_value(self, field):
        text = f"group,value\na,1.0\na,{field}\nb,2.0\nb,3.0\n"
        with pytest.raises(NonNumericValueError, match="finite"):
            read_raw_csv(io.StringIO(text))

    def test_empty_group_label(self):
        text = "group,value\na,1.0\n,2.0\n"
        with pytest.raises(ValidationError, match="empty group label"):
            read_raw_csv(io.StringIO(text))

    def test_single_observation_group(self):
        text = "group,value\na,1.0\na,2.0\nb,3.5\n"
        with pytest.raises(TooFewObservationsError):
            read_raw_csv(io.StringIO(text))

    def test_single_group(self):
        text = "group,value\na,1.0\na,2.0\n"
        with pytest.raises(TooFewGroupsError):
            read_raw_csv(io.StringIO(text))


class TestSummaryParsing:
    def test_basic(self):
        study = read_summary_csv(io.StringIO(SUMMARY))
        assert study.groups == (
            SampleSummary(n=10, mean=1.5, sd=0.25, label="a"),
            SampleSummary(n=12, mean=2.5, sd=0.5, label="b"),
        )

    def test_field_whitespace_tolerated(self):
        text = "group,n,mean,sd\n a , 10 , 1.5 , 0.25 \nb,12,2.5,0.5\n"
        assert read_summary_csv(io.StringIO(text)) == read_summary_csv(io.StringIO(SUMMARY))

    def test_wrong_header(self):
        with pytest.raises(MalformedHeaderError, match="group,n,mean,sd"):
            read_summary_csv(io.StringIO(RAW))

    @pytest.mark.parametrize("n_field", ["5.5", "ten", ""])
    def test_n_must_be_integer(self, n_field):
        text = f"group,n,mean,sd\na,{n_field},1.5,0.25\nb,12,2.5,0.5\n"
        with pytest.raises(InvalidCountError, match="integer"):
            read_summary_csv(io.StringIO(text))

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_n_must_be_at_least_two(self, n):
        text = f"group,n,mean,sd\na,{n},1.5,0.25\nb,12,2.5,0.5\n"
        with pytest.raises(InvalidCountError, match=">= 2"):
            read_summary_csv(io.StringIO(text))

    @pytest.mark.parametrize("mean,sd", [("x", "0.25"), ("1.5", "inf"), ("nan", "0.25")])
    def test_non_numeric_mean_or_sd(self, mean, sd):
        text = f"group,n,mean,sd\na,10,{mean},{sd}\nb,12,2.5,0.5\n"
        with pytest.raises(NonNumericValueError):
            read_summary_csv(io.StringIO(text))

    def test_zero_sd_rejected(self):
        text = "group,n,mean,sd\na,10,1.5,0.0\nb,12,2.5,0.5\n"
        with pytest.raises(ZeroVarianceError):
            read_summary_csv(io.StringIO(text))

    def test_empty_label(self):
        text = "group,n,mean,sd\n,10,1.5,0.25\n"
        with pytest.raises(ValidationError, match="empty group label"):
            read_summary_csv(io.StringIO(text))

    def test_field_count_mismatch(self):
        text = "group,n,mean,sd\na,10,1.5\n"
        with pytest.raises(ValidationError, match="expected 4 fields"):
            read_summary_csv(io.StringIO(text))


class TestRoundTrip:
    def test_path_round_trip_is_exact(self, tmp_path, hospital):
        path = tmp_path / "hospital.csv"
        write_summary_csv(hospital, path)
        assert read_summary_csv(path) == hospital

    def test_awkward_floats_survive(self, tmp_path):
        # means and sds without short decimal representations
        study = Study(
            groups=(
                SampleSummary(n=7, mean=0.1 + 0.2, sd=1.0 / 3.0, label="a"),
                SampleSummary(n=9, mean=2.0 / 7.0, sd=0.123456789012345678, label="b"),
            )
        )
        path = tmp_path / "awkward.csv"
        write_summary_csv(study, path)
        back = read_summary_csv(path)
        assert back == study
        assert new_estimate(back) == new_estimate(study)
        assert feltz_miller_estimate(back) == feltz_miller_estimate(study)

    def test_unlabeled_groups_written_with_positional_names(self, tmp_path):
        study = Study(
            groups=(
                SampleSummary(n=5, mean=3.0, sd=0.5),
                SampleSummary(n=6, mean=4.0, sd=0.75),
            )
        )
        path = tmp_path / "unlabeled.csv"
        write_summary_csv(study, path)
        back = read_summary_csv(path)
        assert [g.label for g in back.groups] == ["group1", "group2"]
        assert [(g.n, g.mean, g.sd) for g in back.groups] == [
            (5, 3.0, 0.5),
            (6, 4.0, 0.75),
        ]

    def test_any_iterable_of_groups_written(self, tmp_path):
        path = tmp_path / "records.csv"
        records = [(5, 1.0, 0.2, "a"), (6, 2.0, 0.3, "b")]
        write_summary_csv(records, path)
        assert read_summary_csv(path) == Study(groups=records)
        write_summary_csv(iter(records), path)  # read once
        assert read_summary_csv(path) == Study(groups=records)

    @pytest.mark.parametrize("groups, error", [([], TooFewGroupsError), (5, ValidationError)])
    def test_bad_study_writes_no_file(self, tmp_path, groups, error):
        path = tmp_path / "bad.csv"
        with pytest.raises(error):
            write_summary_csv(groups, path)
        assert not path.exists()

    @pytest.mark.parametrize("through", ["text", "binary", "path"])
    def test_labels_with_line_breaks_commas_and_quotes(self, tmp_path, through):
        study = Study(groups=tuple(
            SampleSummary(n=5 + i, mean=1.0 + i, sd=0.5, label=label)
            for i, label in enumerate(["a\nb", "c,d", 'say "hi"', "e\r\nf", "g\x1ch\u2028i"])
        ))
        buf = io.StringIO()
        write_summary_csv(study, buf)
        path = tmp_path / "labels.csv"
        write_summary_csv(study, path)
        source = {"text": io.StringIO(buf.getvalue()), "binary": io.BytesIO(buf.getvalue().encode()), "path": path}
        assert read_summary_csv(source[through]) == study

    def test_error_after_a_record_spanning_lines_names_its_line(self):
        with pytest.raises(NonNumericValueError, match="line 4"):
            read_raw_csv(io.StringIO('group,value\n"a\nb",1.0\nc,x\n'))

    def test_write_to_file_like_leaves_it_open(self, surveys):
        buf = io.StringIO()
        write_summary_csv(surveys, buf)
        text = buf.getvalue()  # raises if the buffer was closed
        assert text.startswith("group,n,mean,sd\n")
        assert read_summary_csv(io.StringIO(text)) == surveys

    def test_byte_order_mark_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        path = tmp_path / "summary.csv"
        path.write_text("\ufeff" + SUMMARY, encoding="utf-8")
        expected = read_summary_csv(io.StringIO(SUMMARY))
        assert read_summary_csv(path) == expected
        assert read_summary_csv(io.StringIO("\ufeff" + SUMMARY)) == expected

    def test_non_utf8_file_is_validation_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(SUMMARY.replace("a,", "\xe9,").encode("latin-1"))
        with pytest.raises(ValidationError, match="not UTF-8"):
            read_summary_csv(path)

    def test_file_like_and_path_inputs_agree(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW)
        assert read_raw_csv(path) == read_raw_csv(io.StringIO(RAW))
        assert read_raw_csv(str(path)) == read_raw_csv(io.StringIO(RAW))
