import csv
import io

import numpy as np
import pytest

from causalmed.data import (
    Binary,
    Categorical,
    CellState,
    Column,
    Continuous,
    Dataset,
    DescriptiveTable,
    ExclusionCounts,
    NONRESPONSE,
    NONRESPONSE_TOKEN,
    RecodeRule,
    VariableRoles,
    describe,
    filter_analysis_rows,
    ingest_csv,
    recode,
    row_patterns,
    sgm_survey_rules,
    write_csv,
)
from causalmed.errors import DataError, InputError, RecodeError


def _ingest_text(text, schema, **kwargs):
    return ingest_csv(io.StringIO(text), schema, **kwargs)


class TestIngest:
    def test_empty_cell_becomes_missing(self):
        ds = _ingest_text(
            "a,b\n1,x\n,y\n3,x\n",
            {"a": Continuous(), "b": Categorical(("x", "y"), "x")},
            missing_tokens={""},
        )
        assert ds.n_rows == 3
        assert int((ds["a"].state == CellState.MISSING).sum()) == 1
        assert int((ds["b"].state == CellState.MISSING).sum()) == 0

    def test_undeclared_level_names_row_and_column(self):
        with pytest.raises(DataError, match=r"row 2.*'b'.*'purple'"):
            _ingest_text("a,b\n1,x\n2,purple\n", {"a": Continuous(), "b": Categorical(("x", "y"), "x")})

    def test_synthetic_survey_extract_shape(self):
        header = (
            "orientation,depression,poverty_ratio,support_freq,support_change,"
            "age,sex,race,education,year,weight"
        )
        lines = [
            "straight,No,2.5,Always,About the same,40,Male,White,HS,2020,1.2",
            "bisexual,Yes,1.1,Rarely,Less support,25,Female,Asian,BA,2021,0.8",
            "gay/lesbian,Yes,4.0,Usually,More support,33,Male,Black,BA,2020,1.0",
            "straight,No,6.2,Always,About the same,58,Female,White,MA,2021,1.5",
            "something else,No,0.9,Never,Less support,47,Female,Other,HS,2020,0.7",
        ]
        schema = {
            "orientation": Categorical(
                ("straight", "gay/lesbian", "bisexual", "something else"), "straight"
            ),
            "depression": Categorical(("Yes", "No"), "No"),
            "poverty_ratio": Continuous(),
            "support_freq": Categorical(("Always", "Usually", "Sometimes", "Rarely", "Never"), "Always"),
            "support_change": Categorical(("More support", "Less support", "About the same"), "More support"),
            "age": Continuous(),
            "sex": Binary(("Male", "Female"), "Male"),
            "race": Categorical(("AIAN", "Asian", "Black", "Other", "White"), "White"),
            "education": Categorical(("HS", "BA", "MA"), "HS"),
            "year": Binary(("2020", "2021"), "2020"),
            "weight": Continuous(),
        }
        ds = _ingest_text(header + "\n" + "\n".join(lines) + "\n", schema, weight_column="weight")
        assert len(ds.names) == 11
        assert ds.n_rows == 5

    def test_header_must_cover_schema(self):
        with pytest.raises(DataError, match="'b' not in header"):
            _ingest_text("a\n1\n", {"a": Continuous(), "b": Continuous()})

    def test_duplicated_schema_column_rejected(self):
        with pytest.raises(DataError, match="'a' appears 2 times in header"):
            _ingest_text("a,b,a\n1,2,3\n", {"a": Continuous(), "b": Continuous()})
        # A duplicated column outside the schema is not read, and passes.
        ds = _ingest_text("a,b,b\n1,2,3\n", {"a": Continuous()})
        assert ds["a"].values.tolist() == [1.0]

    def test_unparseable_number_names_row_and_column(self):
        with pytest.raises(DataError, match=r"row 1.*'a'.*'abc'"):
            _ingest_text("a\nabc\n", {"a": Continuous()})

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_number_names_row_and_column(self, token):
        with pytest.raises(DataError, match=r"column 'age': non-finite observed value at row 3$"):
            _ingest_text(f"age,w\n1,1\n2,1\n{token},1\n", {"age": Continuous(), "w": Continuous()})

    def test_missing_tokens_as_one_string_rejected(self):
        # A string is an iterable of characters: "NA" would read "N" as missing.
        with pytest.raises(InputError, match="missing_tokens"):
            _ingest_text("a\nNA\n", {"a": Continuous()}, missing_tokens="NA")

    def test_missing_token_that_is_a_declared_level_rejected(self):
        schema = {"a": Continuous(), "b": Categorical(("x", "NA"), "x")}
        with pytest.raises(InputError, match="missing token 'NA' is a declared level of column 'b'"):
            _ingest_text("a,b\n1,NA\n", schema, missing_tokens=("", "NA"))

    def test_missing_token_that_is_the_nonresponse_token_rejected(self):
        with pytest.raises(InputError, match="missing token '__NR__' is the non-response token"):
            _ingest_text(f"a\n{NONRESPONSE_TOKEN}\n", {"a": Binary()}, missing_tokens=("", NONRESPONSE_TOKEN))

    def test_missing_token_clashing_with_nothing_accepted(self):
        # A numeric code in a continuous column and a label no discrete
        # column declares are both plain missing tokens.
        schema = {"age": Continuous(), "b": Categorical(("x", "y"), "x")}
        ds = _ingest_text("age,b\n-9,x\n40,NA\n", schema, missing_tokens=("", "-9", "NA"))
        assert ds["age"].state.tolist() == [CellState.MISSING, CellState.OBSERVED]
        assert ds["b"].state.tolist() == [CellState.OBSERVED, CellState.MISSING]

    def test_byte_order_mark_dropped_from_header(self, tmp_path):
        schema = {"a": Continuous(), "b": Binary()}
        want = _ingest_text("a,b\n1,0\n", schema)
        assert _ingest_text("\ufeffa,b\n1,0\n", schema) == want
        path = tmp_path / "bom.csv"
        path.write_text("a,b\n1,0\n", encoding="utf-8-sig")
        assert ingest_csv(path, schema) == want

    def test_byte_order_mark_before_quoted_header_field(self, tmp_path):
        schema = {"a": Continuous(), "b": Binary()}
        want = _ingest_text("a,b\n1,0\n", schema)
        assert _ingest_text('\ufeff"a",b\n1,0\n', schema) == want
        path = tmp_path / "bom.csv"
        path.write_text('"a","b"\n1,0\n', encoding="utf-8-sig")
        assert ingest_csv(path, schema) == want

    @pytest.mark.parametrize("text", ["", "\ufeff"])
    def test_empty_file_has_no_header_row(self, text):
        with pytest.raises(DataError, match="^empty file: no header row$"):
            _ingest_text(text, {"a": Continuous()})

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv("/nonexistent/path.csv", {"a": Continuous()})

    def test_ragged_row(self):
        with pytest.raises(DataError, match="row 1"):
            _ingest_text("a,b\n1\n", {"a": Continuous(), "b": Continuous()})


class TestRoundTrip:
    def test_write_then_ingest_restores_dataset(self, tmp_path):
        # Missing and non-response cells in continuous, categorical and
        # binary columns, read back with ingest_csv's default tokens.
        kindc = Categorical(("lo", "hi"), "lo")
        ds = Dataset(
            {
                "x": Column.build(Continuous(), [1.25, None, 3e-7, NONRESPONSE, 0.1 + 0.2]),
                "g": Column.build(kindc, ["lo", "hi", None, "hi", NONRESPONSE]),
                "q": Column.build(Binary(), [NONRESPONSE, "1", "0", None, "1"]),
                "w": Column.build(Continuous(), [1.0, 2.0, 0.5, 1.0, 1.0]),
            },
            weight_column="w",
        )
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        schema = {"x": Continuous(), "g": kindc, "q": Binary(), "w": Continuous()}
        back = ingest_csv(path, schema, weight_column="w")
        assert back == ds

    def test_write_csv_bytes_exact(self):
        kindc = Categorical(("lo", "hi, quoted"), "lo")
        ds = Dataset(
            {
                "x": Column.build(Continuous(), [1.25, None, 3e-7, NONRESPONSE, 0.1 + 0.2]),
                "g": Column.build(kindc, ["lo", "hi, quoted", None, "hi, quoted", NONRESPONSE]),
                "w": Column.build(Continuous(), [1.0, 2.0, 0.5, -0.0, 1e22]),
            }
        )
        buf = io.StringIO()
        write_csv(ds, buf)
        assert buf.getvalue() == (
            "x,g,w\r\n"
            '1.25,lo,1.0\r\n'
            ',"hi, quoted",2.0\r\n'
            "3e-07,,0.5\r\n"
            '__NR__,"hi, quoted",-0.0\r\n'
            "0.30000000000000004,__NR__,1e+22\r\n"
        )

    def test_write_csv_matches_cell_by_cell_reference(self):
        rng = np.random.default_rng(11)
        n = 400
        kinds = {"x": Continuous(), "g": Categorical(("a", "b", "c"), "a"), "q": Binary()}
        states = {name: rng.choice(3, n, p=[0.8, 0.1, 0.1]).astype(np.uint8) for name in kinds}
        values = {
            "x": rng.normal(0, 1e3, n) * 10.0 ** rng.integers(-9, 9, n),
            "g": rng.integers(0, 3, n),
            "q": rng.integers(0, 2, n),
        }
        ds = Dataset({name: Column(kind, values[name], states[name]) for name, kind in kinds.items()})
        tokens = {CellState.MISSING: "", CellState.NONRESPONSE: "__NR__"}
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(ds.names)
        for i in range(n):
            row = []
            for col in ds.columns.values():
                if col.state[i] != CellState.OBSERVED:
                    row.append(tokens[col.state[i]])
                elif isinstance(col.kind, Continuous):
                    row.append(repr(float(col.values[i])))
                else:
                    row.append(col.kind.levels[col.values[i]])
            writer.writerow(row)
        got = io.StringIO()
        write_csv(ds, got)
        assert got.getvalue() == want.getvalue()

    def test_unwritable_path_is_data_error(self, tmp_path):
        ds = Dataset({"x": Column.build(Continuous(), [1.0])})
        with pytest.raises(DataError, match="cannot write"):
            write_csv(ds, tmp_path / "no_such_dir" / "out.csv")


class TestRecode:
    SCHEMA = {
        "orientation": Categorical(
            ("straight", "gay/lesbian", "bisexual", "something else", "Refused", "don't know"),
            "straight",
        ),
        "depression": Categorical(("Yes", "No", "Refused"), "No"),
    }

    def _dataset(self, orientation_cells, depression_cells):
        return Dataset(
            {
                "orientation": Column.build(self.SCHEMA["orientation"], orientation_cells),
                "depression": Column.build(self.SCHEMA["depression"], depression_cells),
            }
        )

    def test_sgm_coding(self):
        ds = self._dataset(
            ["bisexual", "straight", "Refused", "gay/lesbian", "something else", "don't know"],
            ["Yes", "No", "Yes", "No", "Refused", "Yes"],
        )
        out = recode(ds, sgm_survey_rules())
        assert out["orientation"] == Column.build(Binary(), ["1", "0", NONRESPONSE, "1", "1", NONRESPONSE])
        assert out["depression"] == Column.build(Binary(), ["1", "0", "1", "0", NONRESPONSE, "1"])

    def test_unmapped_label_error(self):
        kind = Categorical(("a", "b", "zzz"), "a")
        ds = Dataset({"v": Column.build(kind, ["a", "zzz"])})
        rule = RecodeRule(Binary(), {"a": "0", "b": "1"})
        with pytest.raises(RecodeError, match="'zzz'"):
            recode(ds, {"v": rule})

    def test_unmapped_label_that_never_occurs_is_fine(self):
        kind = Categorical(("a", "b", "zzz"), "a")
        ds = Dataset({"v": Column.build(kind, ["a", "b"])})
        out = recode(ds, {"v": RecodeRule(Binary(), {"a": "0", "b": "1"})})
        assert out["v"] == Column.build(Binary(), ["0", "1"])

    def test_unmapped_last_label_with_unobserved_cells_is_fine(self):
        # An unobserved cell holds code -1, which indexes the last source
        # level, here the unmapped "z": only observed cells may be unmapped.
        ds = Dataset({"v": Column.build(Categorical(("a", "b", "z"), "a"), ["a", None, "b", NONRESPONSE])})
        out = recode(ds, {"v": RecodeRule(Binary(), {"a": "0", "b": "1"})})
        assert out["v"] == Column.build(Binary(), ["0", None, "1", NONRESPONSE])

    def test_idempotent_on_recoded_data(self):
        ds = self._dataset(["bisexual", "straight", "Refused"], ["Yes", "No", "No"])
        rules = sgm_survey_rules()
        once = recode(ds, rules)
        twice = recode(once, rules)
        assert twice == once

    def test_row_order_preserved(self):
        ds = self._dataset(
            ["straight", "bisexual", "straight", "gay/lesbian"], ["No", "Yes", "Yes", "No"]
        )
        out = recode(ds, sgm_survey_rules())
        assert out["orientation"] == Column.build(Binary(), ["0", "1", "0", "1"])

    @pytest.mark.parametrize(
        "target", [CellState.OBSERVED, None, "2", 1], ids=["observed-state", "none", "undeclared", "int"]
    )
    def test_rule_target_must_be_level_or_unobserved_state(self, target):
        with pytest.raises(InputError, match="recode target"):
            RecodeRule(Binary(), {"a": "0", "b": target})

    def test_rule_needs_a_level_target(self):
        with pytest.raises(InputError, match="at least one label to a level"):
            RecodeRule(Binary(), {"a": CellState.MISSING, "b": CellState.NONRESPONSE})

    def test_missing_target(self):
        ds = Dataset({"v": Column.build(Categorical(("a", "b", "c"), "a"), ["a", "c", NONRESPONSE, "b"])})
        out = recode(ds, {"v": RecodeRule(Binary(), {"a": "0", "b": "1", "c": CellState.MISSING})})
        assert out["v"] == Column.build(Binary(), ["0", None, NONRESPONSE, "1"])


def _roles_dataset(q_cells, y_cells, x_cells):
    return (
        Dataset(
            {
                "q": Column.build(Binary(), q_cells),
                "y": Column.build(Binary(), y_cells),
                "x": Column.build(Continuous(), x_cells),
            }
        ),
        VariableRoles(exposure="q", outcome="y", baseline_support="x"),
    )


class TestFilter:
    def test_nonresponse_rows_dropped_and_counted(self):
        q = ["1", "0", NONRESPONSE, "1", "0", "1", NONRESPONSE, "0", "1", "0"]
        ds, roles = _roles_dataset(q, ["1"] * 10, [1.0] * 10)
        out, counts = filter_analysis_rows(ds, roles, "complete_case")
        assert out.n_rows == 8
        assert counts == ExclusionCounts(nonresponse=2, missing=0, retained=8)

    def test_no_missing_returns_identical_dataset(self):
        ds, roles = _roles_dataset(["1", "0"], ["0", "1"], [1.0, 2.0])
        out, counts = filter_analysis_rows(ds, roles, "complete_case")
        assert out == ds
        assert counts.retained == 2

    def test_large_synthetic_exclusion_counts(self):
        n, flagged = 61050, 18719
        q = ["0"] * n
        y = ["1"] * n
        x = [1.0] * n
        for i in range(flagged):
            if i % 3 == 0:
                q[i] = NONRESPONSE
            else:
                x[i] = None
        ds, roles = _roles_dataset(q, y, x)
        out, counts = filter_analysis_rows(ds, roles, "complete_case")
        assert out.n_rows == 42331
        assert counts.retained == 42331
        assert counts.nonresponse + counts.missing == flagged

    def test_empty_result_is_error(self):
        ds, roles = _roles_dataset([NONRESPONSE, NONRESPONSE], ["1", "0"], [1.0, 2.0])
        with pytest.raises(DataError, match="no analyzable rows"):
            filter_analysis_rows(ds, roles, "complete_case")

    def test_unknown_policy(self):
        ds, roles = _roles_dataset(["1"], ["1"], [1.0])
        with pytest.raises(InputError):
            filter_analysis_rows(ds, roles, "bogus")


class TestDescribe:
    def test_continuous_means_by_stratum(self):
        ds = Dataset(
            {
                "g": Column.build(Binary(("A", "B"), "A"), ["A", "A", "B"]),
                "v": Column.build(Continuous(), [1.0, 3.0, 5.0]),
            }
        )
        table = describe(ds, "g", ["v"])
        by_stratum = {r.stratum: r for r in table.rows}
        assert by_stratum["A"].mean == pytest.approx(2.0)
        assert by_stratum["B"].mean == pytest.approx(5.0)
        assert by_stratum["A"].n == 2

    def test_single_level_stratum_is_100pct(self):
        ds = Dataset(
            {
                "g": Column.build(Binary(("A", "B"), "A"), ["A", "A", "B"]),
                "v": Column.build(Binary(("No", "Yes"), "No"), ["Yes", "Yes", "No"]),
            }
        )
        table = describe(ds, "g", ["v"])
        row = next(r for r in table.rows if r.stratum == "A" and r.level == "Yes")
        assert row.pct == pytest.approx(100.0)
        assert row.n == 2

    def test_depression_prevalence_cell(self):
        n_sgm, n_dep = 1881, 808
        g = ["1"] * n_sgm + ["0"] * 100
        v = ["Yes"] * n_dep + ["No"] * (n_sgm - n_dep) + ["No"] * 100
        ds = Dataset(
            {
                "g": Column.build(Binary(), g),
                "dep": Column.build(Binary(("No", "Yes"), "No"), v),
            }
        )
        table = describe(ds, "g", ["dep"])
        row = next(r for r in table.rows if r.stratum == "1" and r.level == "Yes")
        assert row.n == 808
        assert round(row.pct, 2) == 42.96

    def test_percentages_sum_to_100(self):
        rng = np.random.default_rng(7)
        kind = Categorical(("a", "b", "c"), "a")
        cells = [("a", "b", "c")[i] for i in rng.integers(0, 3, size=500)]
        miss = rng.random(500) < 0.1
        cells = [None if m else c for c, m in zip(cells, miss)]
        ds = Dataset(
            {
                "g": Column.build(Binary(), [("0", "1")[i] for i in rng.integers(0, 2, size=500)]),
                "v": Column.build(kind, cells),
            }
        )
        table = describe(ds, "g", ["v"])
        for stratum in ("0", "1"):
            total = sum(r.pct for r in table.rows if r.stratum == stratum and r.pct is not None)
            assert total == pytest.approx(100.0, abs=0.01)

    def test_weighted_continuous_in_zero_weight_stratum_has_no_mean(self):
        ds = Dataset(
            {
                "g": Column.build(Binary(("A", "B"), "A"), ["A", "A", "B", "B"]),
                "v": Column.build(Continuous(), [1.0, 3.0, 5.0, 7.0]),
                "d": Column.build(Binary(), ["0", "1", "0", "1"]),
                "w": Column.build(Continuous(), [1.0, 3.0, 0.0, 0.0]),
            },
            weight_column="w",
        )
        rows = describe(ds, "g", ["v", "d"], weighted=True).rows
        a, b = (next(r for r in rows if r.variable == "v" and r.stratum == s) for s in ("A", "B"))
        assert a.mean == pytest.approx(2.5)
        assert (b.n, b.mean, b.sd) == (2, None, None)
        assert all(r.pct is None for r in rows if r.variable == "d" and r.stratum == "B")

    def test_unknown_column(self):
        ds = Dataset({"g": Column.build(Binary(), ["0", "1"])})
        with pytest.raises(InputError):
            describe(ds, "g", ["nope"])


class TestDatasetInvariants:
    def test_kind_protocol(self):
        # Every kind has levels; a binary kind is a categorical one, yet
        # unequal to the categorical with the same levels.
        assert isinstance(Binary(), Categorical)
        assert Continuous().levels is None
        assert Binary(("0", "1"), "0") != Categorical(("0", "1"), "0")
        codes, state = np.array([0, 1]), np.zeros(2, dtype=np.uint8)
        assert Column(Binary(), codes, state) != Column(Categorical(("0", "1"), "0"), codes, state)

    @pytest.mark.parametrize(
        ("roles", "column"),
        [
            ({"mediators": ("m",), "covariates": ("m",)}, "m"),
            ({"covariates": ("q",)}, "q"),
            ({"baseline_support": "y"}, "y"),
        ],
    )
    def test_column_in_two_roles_rejected(self, roles, column):
        with pytest.raises(InputError, match=f"column '{column}' is named in more than one role"):
            VariableRoles(**{"exposure": "q", "outcome": "y", "baseline_support": "x", **roles})

    @pytest.mark.parametrize("role", ["mediators", "covariates"])
    def test_role_list_as_one_string_rejected(self, role):
        with pytest.raises(InputError, match=f"{role} must be a collection of column names"):
            VariableRoles(exposure="q", outcome="y", baseline_support="x", **{role: "m1"})

    def test_build_unparseable_number_names_row(self):
        with pytest.raises(DataError, match=r"row 2: cannot parse 'abc' as a number"):
            Column.build(Continuous(), [1.0, "abc"])

    def test_build_number_too_large_for_a_float_names_row(self):
        with pytest.raises(DataError, match=r"row 1: cannot parse 10+ as a number"):
            Column.build(Continuous(), [10**400])

    @pytest.mark.parametrize("cell", ["inf", float("nan")])
    def test_non_finite_value_names_row_from_one(self, cell):
        with pytest.raises(DataError, match="non-finite observed value at row 1$"):
            Column.build(Continuous(), [cell])

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            Dataset(
                {"w": Column.build(Continuous(), [1.0, -0.5])},
                weight_column="w",
            )

    def test_weight_column_must_be_complete(self):
        with pytest.raises(DataError, match="unobserved"):
            Dataset({"w": Column.build(Continuous(), [1.0, None])}, weight_column="w")

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError, match="unequal"):
            Dataset(
                {
                    "a": Column.build(Continuous(), [1.0]),
                    "b": Column.build(Continuous(), [1.0, 2.0]),
                }
            )

    def test_reference_must_be_level(self):
        with pytest.raises(InputError):
            Categorical(("a", "b"), "c")
        with pytest.raises(InputError):
            Binary(("a", "a"), "a")

    @pytest.mark.parametrize("token", ["", NONRESPONSE_TOKEN])
    def test_unobserved_tokens_reserved_as_levels(self, token):
        # write_csv writes exactly these tokens for missing and non-response cells.
        with pytest.raises(InputError, match="reserved"):
            Categorical(("a", token), "a")
        with pytest.raises(InputError, match="reserved"):
            Binary(("a", token), "a")

    @pytest.mark.parametrize("codes", [[0, 65536, 65537], [0, -65536, 1]])
    def test_codes_out_of_range_before_narrowing_rejected(self, codes):
        with pytest.raises(DataError, match="outside declared levels"):
            Column(Categorical(("a", "b"), "a"), np.asarray(codes), np.zeros(3, dtype=np.uint8))

    @pytest.mark.parametrize("codes", [[0.5, 1.7], [0.0, np.nan]])
    def test_non_integer_codes_rejected(self, codes):
        with pytest.raises(DataError, match="finite integers"):
            Column(Categorical(("a", "b"), "a"), np.asarray(codes), np.zeros(2, dtype=np.uint8))

    def test_integral_float_codes_accepted(self):
        col = Column(Categorical(("a", "b"), "a"), np.array([1.0, 0.0]), np.zeros(2, dtype=np.uint8))
        assert col.values.tolist() == [1, 0]

    def test_take_preserves_kinds(self):
        ds = Dataset(
            {
                "a": Column.build(Continuous(), [1.0, 2.0, 3.0]),
                "g": Column.build(Binary(), ["0", "1", None]),
            }
        )
        sub = ds.take(np.array([2, 0]))
        assert sub.n_rows == 2
        assert sub["g"].state[0] == CellState.MISSING
        assert sub["a"].values[1] == 1.0


def _cells(tokens):
    """Column.build's cells for the CSV tokens of one column."""
    return [None if t == "" else NONRESPONSE if t == NONRESPONSE_TOKEN else t for t in tokens]


def _ingest_column(kind, tokens):
    """Ingest one column of tokens; a leading index column keeps an empty
    token from making a blank line."""
    return _ingest_text("k,c\n" + "".join(f"{i},{t}\n" for i, t in enumerate(tokens)), {"c": kind})["c"]


class TestBuildIngestParity:
    CASES = {
        "continuous": (Continuous(), ["1.5", "", "2", NONRESPONSE_TOKEN, "2.0", "-1e-3"]),
        "categorical": (Categorical(("lo", "mid", "hi"), "lo"), ["hi", NONRESPONSE_TOKEN, "lo", "", "mid"]),
        "binary": (Binary(("no", "yes"), "no"), ["", "yes", "no", NONRESPONSE_TOKEN, "yes"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_cells_give_equal_columns(self, case):
        kind, tokens = self.CASES[case]
        built = Column.build(kind, _cells(tokens))
        assert built == _ingest_column(kind, tokens)
        assert (built.state == CellState.MISSING).sum() == 1
        assert (built.state == CellState.NONRESPONSE).sum() == 1

    def test_continuous_two_stays_observed(self):
        # NONRESPONSE is an IntEnum equal to 2; a cell 2 is still a value.
        built = Column.build(Continuous(), [2, 2.0, NONRESPONSE])
        assert built == _ingest_column(Continuous(), ["2", "2.0", NONRESPONSE_TOKEN])
        assert built.state.tolist() == [CellState.OBSERVED, CellState.OBSERVED, CellState.NONRESPONSE]
        assert built.values[:2].tolist() == [2.0, 2.0]

    @pytest.mark.parametrize(
        ("kind", "tokens", "build_message", "ingest_message"),
        [
            (
                Continuous(),
                ["1", "abc"],
                r"^row 2: cannot parse 'abc' as a number$",
                r"^row 2, column 'c': cannot parse 'abc' as a number$",
            ),
            (
                Categorical(("lo", "hi"), "lo"),
                ["lo", "purple"],
                r"^row 2: 'purple' is not a declared level$",
                r"^row 2, column 'c': 'purple' is not a declared level$",
            ),
            (
                Continuous(),
                ["1", "1_000"],
                r"^row 2: cannot parse '1_000' as a number$",
                r"^row 2, column 'c': cannot parse '1_000' as a number$",
            ),
            (
                Continuous(),
                ["1", "1_5"],
                r"^row 2: cannot parse '1_5' as a number$",
                r"^row 2, column 'c': cannot parse '1_5' as a number$",
            ),
            (
                Continuous(),
                ["1", "-inf"],
                r"^non-finite observed value at row 2$",
                r"^column 'c': non-finite observed value at row 2$",
            ),
        ],
        ids=["unparseable-number", "undeclared-level", "digit-separator", "digit-separator-inside", "non-finite"],
    )
    def test_same_error_names_the_row(self, kind, tokens, build_message, ingest_message):
        with pytest.raises(DataError, match=build_message):
            Column.build(kind, _cells(tokens))
        with pytest.raises(DataError, match=ingest_message):
            _ingest_column(kind, tokens)


class TestRowPatterns:
    @pytest.mark.parametrize("n_columns, n_levels", [(3, 2), (4, 5), (21, 10)])
    def test_equals_unique_rows_of_stacked_codes(self, n_columns, n_levels):
        # 21 columns of 10 levels have a radix product past int64, which
        # renumbers the digits on the way.
        rng = np.random.default_rng(n_columns)
        kind = Categorical(tuple(str(i) for i in range(n_levels)), "0")
        codes = rng.integers(0, n_levels, (300, n_columns))
        codes[150:] = codes[rng.integers(0, 150, 150)]  # repeated rows
        columns = [Column(kind, c, np.zeros(300, dtype=np.uint8)) for c in codes.T]
        first, pattern = row_patterns(columns, 300)
        _, want_first, want_pattern = np.unique(codes, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(first, want_first)
        assert np.array_equal(pattern, want_pattern.ravel())

    def test_no_columns_is_one_pattern(self):
        first, pattern = row_patterns([], 4)
        assert first.tolist() == [0] and pattern.tolist() == [0, 0, 0, 0]
