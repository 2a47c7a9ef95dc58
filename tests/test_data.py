"""CSV ingestion, schema fitting, encoding, splitting, dataset persistence."""

import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import reference_encode, reference_fit_schema, write_pump_shaped_csvs
from helpers import table_from_rows as table

from attentab import data as data_mod
from attentab.cli import main as cli_main
from attentab.container import DATASET_MAGIC, read_container, write_container
from attentab.data import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_DROP,
    MISSING_TOKENS,
    EncodedDataset,
    FeatureSchema,
    NumericColumn,
    encode,
    fit_schema,
    inspect,
    join_on_id,
    load_csv,
    load_dataset,
    save_dataset,
    stratified_split,
)
from attentab.errors import (
    AttentabError,
    ConfigError,
    EncodingError,
    IngestionError,
    LabelError,
    PersistenceError,
    SchemaError,
    SplitError,
)
from attentab.synthetic import dataset_from_arrays


# numeric edge texts: whitespace, underscores, non-finite, overflow, signed zero
CELL_TEXTS = [
    "a", "b", "c", "1", "2", "10", "0.5", "2.5", " 2 ", "1_0", "inf", "NAN", "1e400", "-0.0", "0",
]


# quoted commas, double quotes, embedded CR/LF, non-ASCII and astral text;
# only characters UTF-8 can encode, since every case is written to a file
HOSTILE_TEXT = st.text(st.sampled_from(',"\r\n é中😀') | st.characters(codec="utf-8"), max_size=6)
PRESENT_TEXT = (st.sampled_from(CELL_TEXTS) | HOSTILE_TEXT).filter(
    lambda t: t not in MISSING_TOKENS
)


def rfc4180(grid, terminator):
    """CSV text quoted by hand: csv.writer (Python 3.11) leaves a field
    holding a lone \\r unquoted when the line terminator is \\n."""

    def field(cell):
        if any(c in cell for c in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    return "".join(",".join(map(field, row)) + terminator for row in grid)


def load_csv_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        return load_csv(str(path))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def col(schema, name):
    return next(c for c in schema.columns if c.name == name)


class TestLoadCsv:
    def test_quoted_field_with_comma(self, tmp_path):
        path = write(tmp_path / "t.csv", 'id,place\n1,"Dar es Salaam, TZ"\n')
        t = load_csv(path)
        assert t.columns == ["id", "place"]
        assert t.column("id") == ("1",)
        assert t.column("place") == ("Dar es Salaam, TZ",)

    def test_missing_tokens_become_none(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b,c\n,NaN,nan\nx,y,z\n")
        t = load_csv(path)
        assert t.column("a") == (None, "x")
        assert t.column("b") == (None, "y")
        assert t.column("c") == (None, "z")

    def test_ragged_row_names_the_line(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,2\n3\n")
        with pytest.raises(IngestionError, match="line 3"):
            load_csv(path)

    def test_header_only_file_has_one_empty_column_per_name(self, tmp_path):
        t = load_csv(write(tmp_path / "t.csv", "id,x,label\n"))
        assert t.n_rows == 0
        assert t.columns == ["id", "x", "label"]
        assert [t.column(name) for name in t.columns] == [(), (), ()]
        with pytest.raises(SchemaError, match="cannot fit a schema on an empty table"):
            fit_schema(t, "label")

    def test_unreadable_path_named(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        with pytest.raises(IngestionError, match="nope.csv"):
            load_csv(missing)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="header"):
            load_csv(write(tmp_path / "t.csv", ""))

    def test_byte_order_mark_does_not_rename_the_key(self, tmp_path):
        values = tmp_path / "values.csv"
        labels = tmp_path / "labels.csv"
        values.write_text("id,place\r\n1,north\r\n2,south\r\n", encoding="utf-8-sig")
        labels.write_text("id,status\r\n2,bad\r\n1,good\r\n", encoding="utf-8-sig")
        joined = join_on_id(load_csv(str(values)), load_csv(str(labels)))
        assert joined.columns == ["id", "place", "status"]
        assert joined.column("id") == ("1", "2")
        assert joined.column("place") == ("north", "south")
        assert joined.column("status") == ("good", "bad")

    def test_repeated_header_name_rejected(self, tmp_path):
        path = write(tmp_path / "t.csv", "id,a,a,b\n1,x,1.5,y\n2,z,6.5,y\n")
        with pytest.raises(IngestionError, match="'a'"):
            load_csv(path)

    def test_equal_texts_share_one_object(self, tmp_path):
        """Across text columns only: a column of numbers keeps floats and
        one joined string, and its texts are rebuilt on each read."""
        path = write(tmp_path / "t.csv", "a,b\nnorth,north\nnorth,NaN\n")
        t = load_csv(path)
        assert t.column("a") == ("north", "north")
        assert t.column("b") == ("north", None)
        assert t.column("a")[0] is t.column("b")[0] is t.column("a")[1]

    def test_numeric_column_keeps_its_texts(self, tmp_path):
        texts = ["1.50", " 2 ", "1_0", "", "-0.0", "nan", "NaN"]
        path = write(tmp_path / "t.csv", "x,y\n" + "".join(f"{t},a\n" for t in texts))
        t = load_csv(path)
        assert isinstance(t.cells[0], NumericColumn)
        assert t.column("x") == ("1.50", " 2 ", "1_0", None, "-0.0", None, None)
        assert t.cells[0].values.tolist() == [1.5, 2.0, 10.0, 0.0, -0.0, 0.0, 0.0]
        assert t.cells[0].missing.tolist() == [False] * 3 + [True, False, True, True]

    @pytest.mark.parametrize(
        "body, match",
        [
            (b"id,x\n1,\xff\n", r"t\.csv: text after line 0 is not valid UTF-8"),
            (b"id,x\n1," + b"7" * 131_073 + b"\n", r"t\.csv: line 2: field larger than field limit"),
            (b'id,x\n1,"abc', r"t\.csv: line 2: unexpected end of data"),
            (b'id,x\n1,"b"c\n', r"t\.csv: line 2: ',' expected after '\"'"),
        ],
        ids=["not-utf8", "oversized-field", "cut-off-quoted-field", "text-after-quote"],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, body, match):
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        with pytest.raises(IngestionError, match=match):
            load_csv(str(path))

    @given(
        st.lists(
            st.lists(
                st.sampled_from(CELL_TEXTS + sorted(MISSING_TOKENS)) | HOSTILE_TEXT,
                min_size=3,
                max_size=3,
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_cells_match_the_per_cell_rule(self, grid):
        expected = [[None if c in MISSING_TOKENS else c for c in row] for row in grid]
        for terminator in ("\r\n", "\n"):
            t = load_csv_text(rfc4180([["a", "b", "c"]] + grid, terminator))
            assert t.n_rows == len(expected), terminator
            for j, name in enumerate(t.columns):
                assert t.column(name) == tuple(row[j] for row in expected), terminator

    @given(
        st.lists(PRESENT_TEXT, min_size=1, max_size=8),
        st.lists(PRESENT_TEXT, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_hostile_cells_encode_one_code_per_text(self, fitted, served):
        # the anchor never parses as a number, so the column is categorical
        fitted = ['x,"y"\r\nz'] + fitted
        seen = set(fitted)
        for terminator in ("\r\n", "\n"):
            def rows(texts):
                grid = [["id", "c", "label"]] + [[str(i), t, "p"] for i, t in enumerate(texts)]
                return load_csv_text(rfc4180(grid, terminator))

            fit = rows(fitted)
            schema = fit_schema(fit, "label")
            c = col(schema, "c")
            assert c.kind == KIND_CATEGORICAL
            assert set(c.encoding) == seen
            codes = encode(fit, schema).features[:, 0]
            code_of = dict(zip(fitted, codes))
            assert len(set(code_of.values())) == len(seen)  # one code per distinct text
            assert [code_of[t] for t in fitted] == list(codes)  # equal texts share it
            served_codes = encode(rows(fitted + served), schema).features[len(fitted) :, 0]
            for text, code in zip(served, served_codes, strict=True):
                assert code == code_of.get(text, c.cardinality), (text, terminator)


class TestJoin:
    def test_join_follows_values_order(self):
        values = table(["id", "x"], [["2", "b"], ["1", "a"]])
        labels = table(["id", "y"], [["1", "yes"], ["2", "no"]])
        joined = join_on_id(values, labels)
        assert joined.columns == ["id", "x", "y"]
        assert joined.n_rows == 2
        # the values columns are the values table's own tuples, not copies
        assert joined.column("id") is values.column("id")
        assert joined.column("x") is values.column("x")
        assert joined.column("y") == ("no", "yes")

    def test_duplicate_label_key(self):
        values = table(["id", "x"], [["1", "a"]])
        labels = table(["id", "y"], [["1", "u"], ["1", "v"]])
        with pytest.raises(IngestionError, match="duplicate"):
            join_on_id(values, labels)

    def test_unmatched_value_row(self):
        values = table(["id", "x"], [["1", "a"], ["3", "c"]])
        labels = table(["id", "y"], [["1", "u"]])
        with pytest.raises(IngestionError, match="'3'"):
            join_on_id(values, labels)

    @pytest.mark.parametrize("missing", ["", "NaN", "nan"])
    def test_missing_key_in_values_rejected(self, tmp_path, missing):
        values = write(tmp_path / "v.csv", f"id,x\n1,a\n{missing},b\n2,c\n")
        labels = write(tmp_path / "l.csv", "id,y\n1,u\n2,v\n")
        with pytest.raises(IngestionError, match="values table: data row 2 has no 'id'"):
            join_on_id(load_csv(values), load_csv(labels))

    def test_missing_key_in_labels_rejected(self, tmp_path):
        # two id-less value rows used to join the one id-less label row
        values = write(tmp_path / "v.csv", "id,x\n1,a\n,b\n,c\n")
        labels = write(tmp_path / "l.csv", "id,y\n1,u\n,v\n")
        with pytest.raises(IngestionError, match="labels table: data row 2 has no 'id'"):
            join_on_id(load_csv(values), load_csv(labels))

    def test_missing_key_column(self):
        with pytest.raises(IngestionError, match="join key"):
            join_on_id(table(["a"], []), table(["id"], []))

    def test_column_in_both_tables_rejected(self):
        values = table(["id", "x", "status"], [["1", "a", "old"]])
        labels = table(["status", "id"], [["new", "1"]])
        with pytest.raises(IngestionError, match="'status'"):
            join_on_id(values, labels)


class TestKindInference:
    def base(self, rows, **kw):
        t = table(["x", "label"], [[v, "yes"] for v in rows])
        return col(fit_schema(t, "label", **kw), "x")

    def test_decimal_notation_is_continuous(self):
        assert self.base(["1.5", "2.0", "3.25"]).kind == KIND_CONTINUOUS

    def test_scientific_notation_is_continuous(self):
        assert self.base(["1e3", "2E-2", "5e0"]).kind == KIND_CONTINUOUS

    def test_small_integer_vocabulary_is_categorical(self):
        c = self.base(["1", "2", "1", "2"])
        assert c.kind == KIND_CATEGORICAL
        assert c.cardinality == 2

    def test_many_distinct_integers_are_continuous(self):
        c = self.base(["1", "2", "3", "4"], continuous_distinct_threshold=3)
        assert c.kind == KIND_CONTINUOUS

    def test_any_non_numeric_forces_categorical(self):
        assert self.base(["1.5", "soft", "3.0"]).kind == KIND_CATEGORICAL

    def test_non_finite_literal_forces_categorical(self):
        assert self.base(["1.5", "inf", "3.0"]).kind == KIND_CATEGORICAL


class TestFitSchema:
    def fixture_table(self):
        rows = [
            ["1", "a", "1.0", "x", "yes"],
            ["2", "b", None, "x", "no"],
            ["3", "a", "3.0", None, "yes"],
            ["4", None, None, "y", "yes"],
            ["5", "a", None, "x", "no"],
            ["6", "c", None, "x", "yes"],
        ]
        return table(["id", "cat", "mostly_gone", "flag", "label"], rows)

    def test_high_missing_column_dropped_with_reason(self):
        schema = fit_schema(self.fixture_table(), "label")
        c = col(schema, "mostly_gone")  # 4/6 missing
        assert c.kind == KIND_DROP
        assert "0.6667" in c.drop_reason and "0.5" in c.drop_reason
        assert c.inferred_kind == KIND_CONTINUOUS

    def test_id_column_dropped(self):
        c = col(fit_schema(self.fixture_table(), "label"), "id")
        assert c.kind == KIND_DROP
        assert c.drop_reason == "identifier column"

    def test_light_missing_column_gets_modal_imputation(self):
        schema = fit_schema(self.fixture_table(), "label")
        c = col(schema, "cat")
        assert c.kind == KIND_CATEGORICAL
        assert c.imputation == "a"  # 3 of 5 observed values
        assert abs(c.missing_fraction - 1 / 6) < 1e-12

    def test_no_missing_means_no_imputation(self):
        t = table(["x", "label"], [["u", "yes"], ["v", "no"]])
        assert col(fit_schema(t, "label"), "x").imputation is None

    def test_mode_tie_breaks_by_first_appearance(self):
        t = table(["x", "label"], [["b", "y"], ["a", "y"], [None, "y"], ["a", "y"], ["b", "y"]])
        assert col(fit_schema(t, "label"), "x").imputation == "b"

    def test_median_strategy_for_continuous(self):
        t = table(
            ["x", "label"],
            [["1.0", "y"], ["9.0", "y"], ["2.0", "y"], [None, "y"]],
        )
        c = col(fit_schema(t, "label", impute_strategy="median"), "x")
        assert float(c.imputation) == 2.0

    def test_median_strategy_still_uses_mode_for_categorical(self):
        t = table(["x", "label"], [["u", "y"], ["u", "y"], [None, "y"]])
        c = col(fit_schema(t, "label", impute_strategy="median"), "x")
        assert c.imputation == "u"

    def test_all_missing_column_dropped_with_warning(self, caplog):
        t = table(["gone", "label"], [[None, "y"], [None, "n"]])
        with caplog.at_level("WARNING"):
            schema = fit_schema(t, "label")
        c = col(schema, "gone")
        assert c.kind == KIND_DROP and c.drop_reason == "all values missing"
        assert any("gone" in r.message for r in caplog.records)

    def test_missing_target_value_rejected(self):
        t = table(["x", "label"], [["u", "y"], ["v", None]])
        with pytest.raises(SchemaError, match="target"):
            fit_schema(t, "label")

    def test_absent_target_column_rejected(self):
        with pytest.raises(SchemaError):
            fit_schema(table(["x"], [["u"]]), "label")

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            fit_schema(table(["x", "label"], []), "label")

    def test_bad_options_rejected(self):
        t = table(["x", "label"], [["u", "y"]])
        with pytest.raises(ConfigError):
            fit_schema(t, "label", encode_order="random")
        with pytest.raises(ConfigError):
            fit_schema(t, "label", impute_strategy="zero")
        for bad in ("0.5", -1, 1.5):
            with pytest.raises(ConfigError, match="drop_threshold"):
                fit_schema(t, "label", drop_threshold=bad)
        with pytest.raises(ConfigError, match="continuous_distinct_threshold"):
            fit_schema(t, "label", continuous_distinct_threshold=True)

    def test_labels_sorted_alphabetically(self):
        t = table(
            ["x", "label"],
            [["u", "non functional"], ["v", "functional"], ["w", "functional needs repair"]],
        )
        schema = fit_schema(t, "label")
        assert schema.labels == [
            "functional",
            "functional needs repair",
            "non functional",
        ]

    def test_first_appearance_encoding(self):
        t = table(["x", "label"], [["a", "y"], ["b", "y"], ["a", "y"]])
        assert col(fit_schema(t, "label"), "x").encoding == {"a": 0, "b": 1}

    def test_alphabetical_encoding(self):
        t = table(["x", "label"], [["b", "y"], ["a", "y"], ["c", "y"]])
        c = col(fit_schema(t, "label", encode_order="alphabetical"), "x")
        assert c.encoding == {"a": 0, "b": 1, "c": 2}


class TestEncode:
    def schema_and_table(self):
        t = table(
            ["id", "cat", "num", "label"],
            [
                ["1", "a", "1.5", "no"],
                ["2", "b", "2.5", "yes"],
                ["3", "a", None, "no"],
            ],
        )
        return fit_schema(t, "label", impute_strategy="median"), t

    def test_codes_and_floats(self):
        schema, t = self.schema_and_table()
        ds = encode(t, schema)
        np.testing.assert_array_equal(ds.features[:, 0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(ds.features[:, 1], [1.5, 2.5, 2.0])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])  # sorted: no=0, yes=1
        np.testing.assert_array_equal(ds.class_counts, [2, 1])

    def test_unseen_category_maps_to_reserved_code(self):
        schema, _ = self.schema_and_table()
        fresh = table(
            ["id", "cat", "num", "label"],
            [["9", "zebra", "1.0", "yes"]],
        )
        ds = encode(fresh, schema)
        assert ds.features[0, 0] == col(schema, "cat").cardinality

    def test_encode_is_deterministic(self):
        schema, t = self.schema_and_table()
        a, b = encode(t, schema), encode(t, schema)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_unknown_label_rejected(self):
        schema, _ = self.schema_and_table()
        bad = table(["id", "cat", "num", "label"], [["9", "a", "1.0", "maybe"]])
        with pytest.raises(LabelError, match="maybe"):
            encode(bad, schema)

    def test_unparseable_continuous_value(self):
        schema, _ = self.schema_and_table()
        bad = table(["id", "cat", "num", "label"], [["9", "a", "soft", "yes"]])
        with pytest.raises(EncodingError, match="num"):
            encode(bad, schema)

    @pytest.mark.parametrize("text", ["inf", "1e999", "NAN", "-Infinity"])
    def test_non_finite_continuous_value_names_column_and_text(self, text):
        schema, _ = self.schema_and_table()
        rows = [["8", "a", "1.0", "no"], ["9", "b", text, "yes"], ["10", "a", "-inf", "no"]]
        with pytest.raises(EncodingError, match=f"^column 'num': non-finite value '{text}'$"):
            encode(table(["id", "cat", "num", "label"], rows), schema)

    def test_non_finite_imputation_names_its_text(self):
        schema, _ = self.schema_and_table()
        col(schema, "num").imputation = "inf"
        missing = table(["id", "cat", "num", "label"], [["8", "a", "1.0", "no"], ["9", "b", None, "no"]])
        with pytest.raises(EncodingError, match="^column 'num': non-finite value 'inf'$"):
            encode(missing, schema)


@st.composite
def fit_cases(draw):
    """A small id/features/label table, fit options, and a second table to
    encode with the fitted schema (unseen categories, unseen labels, texts
    a continuous column cannot parse, missing cells without imputation)."""
    n_cols = draw(st.integers(1, 4))
    pools = [
        draw(st.lists(st.sampled_from(CELL_TEXTS), min_size=1, max_size=4, unique=True))
        for _ in range(n_cols)
    ]

    def rows(n, extra, labels):
        cells = [st.sampled_from(pool + [None] + extra) for pool in pools]
        return [
            [str(i)] + [draw(c) for c in cells] + [draw(st.sampled_from(labels))]
            for i in range(n)
        ]

    columns = ["id"] + [f"c{j}" for j in range(n_cols)] + ["label"]
    fit_labels = ["x", "y", "z"] if draw(st.integers(0, 9)) else ["x", "y", None]
    fit_rows = rows(draw(st.integers(1, 10)), [], fit_labels)
    unseen = draw(st.lists(st.sampled_from(CELL_TEXTS), max_size=2))
    encode_labels = ["x", "y", "z"] + (["w"] if draw(st.booleans()) else [])
    encode_rows = rows(draw(st.integers(1, 10)), unseen, encode_labels)
    options = {
        "drop_threshold": draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        "encode_order": draw(st.sampled_from(["first-appearance", "alphabetical"])),
        "impute_strategy": draw(st.sampled_from(["mode", "median"])),
        "continuous_distinct_threshold": draw(st.sampled_from([0, 1, 2, 3, 100])),
    }
    return table(columns, fit_rows), options, table(columns, encode_rows)


def outcome(fn, *args, **kw):
    """The result, or the (class, message) of the typed error raised."""
    try:
        return fn(*args, **kw)
    except AttentabError as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    """Equal (class, message) errors, or equal schema JSON and byte-equal arrays."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    elif isinstance(want, FeatureSchema):
        assert got.to_json() == want.to_json()
    else:
        assert_same(got.schema, want.schema)
        for name in ("features", "labels", "class_counts"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestMatchesPerCellReference:
    """fit_schema and encode against the per-cell code they replaced."""

    @given(fit_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_schema_arrays_and_errors(self, case):
        fit_table, options, encode_table = case
        got = outcome(fit_schema, fit_table, "label", **options)
        want = outcome(reference_fit_schema, fit_table, "label", **options)
        assert_same(got, want)
        if isinstance(want, FeatureSchema):
            for t in (fit_table, encode_table):
                assert_same(outcome(encode, t, got), outcome(reference_encode, t, want))


def write_table(path, t, terminator):
    """A RawTable of texts as a CSV file; missing cells cycle through the
    missing tokens row by row."""
    tokens = sorted(MISSING_TOKENS)
    rows = zip(*(t.column(name) for name in t.columns))
    grid = [t.columns] + [
        [tokens[i % len(tokens)] if c is None else c for c in row] for i, row in enumerate(rows)
    ]
    path.write_bytes(rfc4180(grid, terminator).encode("utf-8"))
    return str(path)


TYPED_EXAMPLES = [  # (columns, rows, the columns load_csv types)
    # a numeric target and a numeric id
    (
        ["id", "c0", "label"],
        [["1", "0.5", "0"], ["2", None, "1.5"], ["3", "2.5", "0"]],
        ["id", "c0", "label"],
    ),
    # an all-missing column next to a float column
    (
        ["id", "c0", "c1", "label"],
        [["1", None, "1.5", "x"], ["2", None, None, "y"]],
        ["id", "c0", "c1"],
    ),
    # "-0.0" next to "0": one float, two texts, at the top count
    (
        ["id", "c0", "label"],
        [["1", "-0.0", "x"], ["2", "0", "y"], ["3", "2.5", "x"], ["4", None, "y"]],
        ["id", "c0"],
    ),
    # "1.5" and "1.50" at the top count before a float whose rows carry one text
    (
        ["id", "c0", "label"],
        [["1", "1.5", "x"], ["2", "1.50", "y"], ["3", "2", "x"], ["4", "2", "y"], ["5", None, "x"]],
        ["id", "c0"],
    ),
]


class TestTypedColumnsMatchPerCellReference:
    """The same oracle on tables loaded from CSV, where numeric columns are
    typed and a column may turn to texts in a later block."""

    @staticmethod
    def check(tmp_path, block, case):
        fit_table, options, encode_table = case
        want = outcome(reference_fit_schema, fit_table, "label", **options)
        for terminator in ("\r\n", "\n"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(data_mod, "LOAD_BLOCK", block)
                fit_loaded = load_csv(write_table(tmp_path / "fit.csv", fit_table, terminator))
                encode_loaded = load_csv(write_table(tmp_path / "enc.csv", encode_table, terminator))
            got = outcome(fit_schema, fit_loaded, "label", **options)
            assert_same(got, want)
            if isinstance(want, FeatureSchema):
                for loaded, t in ((fit_loaded, fit_table), (encode_loaded, encode_table)):
                    assert_same(outcome(encode, loaded, got), outcome(reference_encode, t, want))
        return fit_loaded

    @given(st.integers(1, 3), fit_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_schema_arrays_and_errors(self, block, case):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp), block, case)

    @pytest.mark.parametrize("columns, rows, typed", TYPED_EXAMPLES)
    @pytest.mark.parametrize("strategy", ["mode", "median"])
    def test_typed_examples(self, tmp_path, columns, rows, typed, strategy):
        t = table(columns, rows)
        options = {"impute_strategy": strategy, "drop_threshold": 1.0}
        loaded = self.check(tmp_path, 2, (t, options, t))
        numeric = [n for n, c in zip(loaded.columns, loaded.cells) if isinstance(c, NumericColumn)]
        assert numeric == typed


class TestPreprocessMemory:
    @staticmethod
    def peak_per_raw_cell(tmp_path):
        """Traced peak of load_csv -> join_on_id -> fit_schema -> encode on
        5,000 pump-shaped rows, each stage's output kept alive as the CLI
        keeps it, in bytes per raw cell of the two files."""
        n = 5000
        values, labels = tmp_path / "values.csv", tmp_path / "labels.csv"
        write_pump_shaped_csvs(values, labels, n)
        tracemalloc.start()
        try:
            v, lab = load_csv(str(values)), load_csv(str(labels))
            joined = join_on_id(v, lab)
            ds = encode(joined, fit_schema(joined, "status_group"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (n, 36)
        return peak / (n * (len(v.columns) + len(lab.columns)))

    def test_peak_is_bounded_per_raw_cell(self, tmp_path):
        # 52.6 bytes per raw cell with the row-major table, whose value rows
        # and joined rows lived side by side; 39.9 with one tuple of texts
        # per column, set while load_csv held its index of distinct texts
        assert self.peak_per_raw_cell(tmp_path) < 46

    def test_typed_columns_keep_no_texts(self, tmp_path):
        # measured 22.3, set by encode's matrix over the tables; load_csv
        # peaks at 18.7 with the continuous and id columns held as floats
        # and one string of joined texts each
        assert self.peak_per_raw_cell(tmp_path) < 30


class TestSchemaPersistence:
    def test_json_round_trip_preserves_everything(self, tmp_path):
        t = table(
            ["id", "cat", "num", "label"],
            [["1", "a", "1.5", "y"], ["2", None, "2.5", "n"]],
        )
        schema = fit_schema(t, "label")
        path = tmp_path / "schema.json"
        schema.save(str(path))
        loaded = FeatureSchema.load(str(path))
        assert loaded.to_dict() == schema.to_dict()
        assert loaded.hash() == schema.hash()

    @pytest.mark.parametrize(
        "text, match",
        [
            (None, r"cannot read schema .*schema\.json"),
            ("{not json", r"schema\.json: .*JSONDecodeError"),
            ("{}", r"schema\.json: .*KeyError: 'columns'"),
        ],
        ids=["missing_file", "not_json", "no_columns"],
    )
    def test_load_errors_name_the_file(self, tmp_path, text, match):
        path = tmp_path / "schema.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(PersistenceError, match=match):
            FeatureSchema.load(str(path))

    def test_hash_distinguishes_schemas(self):
        t1 = table(["x", "label"], [["a", "y"], ["b", "n"]])
        t2 = table(["x", "label"], [["b", "y"], ["a", "n"]])
        assert fit_schema(t1, "label").hash() != fit_schema(t2, "label").hash()


def toy_dataset(n_per_class=(50, 50), seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, c) for c, n in enumerate(n_per_class)])
    t = table(
        ["x", "label"],
        [[repr(float(rng.normal())), f"c{int(l)}"] for l in labels],
    )
    schema = fit_schema(t, "label")
    return encode(t, schema)


class TestSplit:
    def test_deterministic_and_seed_sensitive(self):
        ds = toy_dataset()
        a = stratified_split(ds, 0.2, seed=7)
        b = stratified_split(ds, 0.2, seed=7)
        c = stratified_split(ds, 0.2, seed=8)
        np.testing.assert_array_equal(a.val_indices, b.val_indices)
        assert not np.array_equal(a.val_indices, c.val_indices)

    def test_partition_is_disjoint_and_complete(self):
        ds = toy_dataset((60, 40))
        s = stratified_split(ds, 0.25, seed=1)
        merged = np.concatenate([s.train_indices, s.val_indices])
        np.testing.assert_array_equal(np.sort(merged), np.arange(ds.n_rows))

    def test_per_class_validation_counts(self):
        ds = toy_dataset((50, 50))
        s = stratified_split(ds, 0.2, seed=3)
        val_labels = ds.labels[s.val_indices]
        assert (val_labels == 0).sum() == 10 and (val_labels == 1).sum() == 10

    def test_tiny_class_keeps_one_row_on_each_side(self):
        ds = toy_dataset((20, 2))
        s = stratified_split(ds, 0.1, seed=0)
        val_labels = ds.labels[s.val_indices]
        train_labels = ds.labels[s.train_indices]
        assert (val_labels == 1).sum() == 1 and (train_labels == 1).sum() == 1

    def test_singleton_class_rejected(self):
        ds = toy_dataset((5, 1))
        with pytest.raises(SplitError, match="c1"):
            stratified_split(ds, 0.2, seed=0)

    def test_fraction_bounds(self):
        ds = toy_dataset()
        with pytest.raises(ConfigError):
            stratified_split(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            stratified_split(ds, 1.0, seed=0)


class TestInspectAndPersistence:
    def test_inspect_mentions_the_essentials(self):
        t = table(
            ["id", "cat", "gone", "label"],
            [
                ["1", "a", None, "yes"],
                ["2", "b", None, "no"],
                ["3", "a", None, "yes"],
            ],
        )
        schema = fit_schema(t, "label")
        text = inspect(encode(t, schema))
        for needle in ("rows: 3", "cat", "categorical", "gone", "label", "yes", "no"):
            assert needle in text

    def test_dataset_round_trip_bit_exact(self, tmp_path):
        ds = toy_dataset((30, 20))
        path = str(tmp_path / "d.attd")
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert isinstance(loaded, EncodedDataset)
        assert loaded.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.class_counts, ds.class_counts)
        assert loaded.labels.dtype == np.int64
        assert loaded.schema.to_dict() == ds.schema.to_dict()

    def test_tampered_magic_rejected(self, tmp_path):
        ds = toy_dataset((5, 5))
        path = tmp_path / "d.attd"
        save_dataset(str(path), ds)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError):
            load_dataset(str(path))

    def test_missing_array_names_the_file(self, tmp_path):
        ds = toy_dataset((5, 5))
        path = str(tmp_path / "d.attd")
        header = {"schema": ds.schema.to_dict()}
        write_container(path, DATASET_MAGIC, header, [("labels", ds.labels.astype(float))])
        with pytest.raises(PersistenceError, match="d.attd.*features"):
            load_dataset(path)

    def test_mistyped_schema_names_the_file(self, tmp_path):
        ds = toy_dataset((5, 5))
        path = str(tmp_path / "d.attd")
        schema = ds.schema.to_dict()
        schema["columns"][0]["colour"] = "red"  # unknown ColumnSchema field
        save_dataset(path, ds)
        arrays = list(read_container(path, DATASET_MAGIC)[1].items())
        write_container(path, DATASET_MAGIC, {"schema": schema}, arrays)
        with pytest.raises(PersistenceError, match="d.attd"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h, a: a.update(labels=a["labels"][:-3]), "labels must be 30 whole"),
            (lambda h, a: a["labels"].__setitem__(4, 7.0), r"in \[0, 3\)"),
            (lambda h, a: a.update(labels=a["labels"] + 0.5), "whole numbers"),
            (lambda h, a: a["class_counts"].__setitem__(0, 11.0), "class_counts"),
            (lambda h, a: a.update(features=a["features"][1:]), "header gives"),
            (lambda h, a: h.update(n_features=2) or a.update(features=np.ones((30, 2))), "schema 1 "),
        ],
        ids=["labels_short", "label_out_of_range", "fractional_labels", "stale_class_counts",
             "features_off_header", "features_off_schema"],
    )
    def test_inconsistent_container_names_the_file(self, tmp_path, edit, match):
        # each of these used to load: misaligned rows, rows that silently
        # left both splits, truncated labels, inf% in inspect
        path = str(tmp_path / "d.attd")
        save_dataset(path, toy_dataset((10, 10, 10)))
        header, arrays = read_container(path, DATASET_MAGIC)
        edit(header, arrays)
        write_container(path, DATASET_MAGIC, header, list(arrays.items()))
        with pytest.raises(PersistenceError, match=f"d.attd: .*{match}"):
            load_dataset(path)


class TestContainerManifest:
    @pytest.mark.parametrize(
        "entry",
        [
            {"shape": [1]},
            {"name": 7, "shape": [1]},
            {"name": "a"},
            {"name": "a", "shape": 1},
            {"name": "a", "shape": [-1]},
            {"name": "a", "shape": [1.0]},
            {"name": "a", "shape": [True]},
            "a",
        ],
    )
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "c.attd"
        path.write_bytes(raw_container({"arrays": [entry]}, b"\0" * 8))
        with pytest.raises(PersistenceError, match="c.attd"):
            read_container(str(path), DATASET_MAGIC)

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "c.attd"
        manifest = [{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}]
        path.write_bytes(raw_container({"arrays": manifest}, b"\0" * 16))
        with pytest.raises(PersistenceError, match="'a' listed twice"):
            read_container(str(path), DATASET_MAGIC)

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "c.attd"
        path.write_bytes(raw_container([1, 2], b""))
        with pytest.raises(PersistenceError, match="manifest"):
            read_container(str(path), DATASET_MAGIC)

    @pytest.mark.parametrize("shape", [[2**40], [2**40, 2**40]])
    def test_oversized_shape_is_truncation_not_allocation(self, tmp_path, shape):
        path = tmp_path / "c.attd"
        path.write_bytes(raw_container({"arrays": [{"name": "a", "shape": shape}]}, b"\0" * 8))
        with pytest.raises(PersistenceError, match="truncated blob for array 'a'"):
            read_container(str(path), DATASET_MAGIC)

    @pytest.mark.parametrize(
        "arr",
        [np.arange(12.0).reshape(3, 4).T, np.arange(24.0).reshape(4, 6)[:, ::2], np.arange(6).reshape(2, 3)],
        ids=["fortran_view", "strided_view", "int64"],
    )
    def test_any_layout_writes_the_bytes_of_its_float64_copy(self, tmp_path, arr):
        got, want = tmp_path / "got.attd", tmp_path / "want.attd"
        write_container(str(got), DATASET_MAGIC, {}, [("a", arr)])
        write_container(str(want), DATASET_MAGIC, {}, [("a", np.ascontiguousarray(arr, dtype=np.float64))])
        assert got.read_bytes() == want.read_bytes()
        loaded = read_container(str(got), DATASET_MAGIC)[1]["a"]
        assert loaded.flags.c_contiguous and loaded.flags.writeable and loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, arr)


class TestPersistenceMemory:
    """Traced peaks in units of the feature matrix's bytes M, on a dataset
    of 20,000 x 40 floats (6.1 MiB). Measured: save 2.08 M when the whole
    file was built as one bytes object, 0.04 M streamed; load 2.05 M when
    the whole file was read and then each array copied, 1.06 M read in
    place; inspect 2.13 M and 1.14 M the same way."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        ds = dataset_from_arrays(rng.standard_normal((20_000, 40)), rng.integers(0, 3, 20_000))
        path = str(tmp_path_factory.mktemp("memory") / "d.attd")
        save_dataset(path, ds)
        return ds, path

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_save_holds_no_copy_of_the_matrix(self, saved, tmp_path):
        ds, _ = saved
        assert self.traced_peak(save_dataset, str(tmp_path / "d.attd"), ds) < 0.5 * ds.features.nbytes

    def test_load_holds_one_copy_of_the_matrix(self, saved):
        ds, path = saved
        assert self.traced_peak(load_dataset, path) < 1.5 * ds.features.nbytes

    def test_inspect_holds_one_copy_of_the_matrix(self, saved, capsys):
        ds, path = saved
        assert self.traced_peak(cli_main, ["inspect", "--dataset", path]) < 1.5 * ds.features.nbytes
        assert "rows: 20000" in capsys.readouterr().out


def raw_container(header, blobs: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    return DATASET_MAGIC + struct.pack("<Q", len(text)) + text + blobs
