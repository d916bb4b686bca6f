"""Dataset loading, label statistics, and the seeded split."""

import csv
import io
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentibench import (
    Corpus,
    DatasetError,
    label_frequencies,
    load_dataset,
    POLARITIES,
    parse_polarity,
    seeded_permutation,
    train_test_split,
)
from helpers import FIXTURE_CSV, FIXTURE_COUNTS, FIXTURE_LABELS, make_corpus


def synthetic_corpus(n, seed=0):
    rng = random.Random(seed)
    labels = ["negative", "neutral", "positive"]
    return make_corpus((f"tweet number {i}", rng.choice(labels)) for i in range(n))


class TestParsePolarity:
    def test_three_variants(self):
        assert parse_polarity("negative") == "negative"
        assert parse_polarity(" Neutral ") == "neutral"
        assert parse_polarity("POSITIVE") == "positive"

    def test_returns_the_shared_polarity_object(self):
        assert parse_polarity(" Negative ") is POLARITIES[0]
        assert parse_polarity("NEUTRAL") is POLARITIES[1]
        assert parse_polarity("positive\t") is POLARITIES[2]

    def test_anything_else_is_an_error(self):
        for bad in ("pos", "negativ", "", "4", "mixed"):
            with pytest.raises(ValueError):
                parse_polarity(bad)


class TestLoadDataset:
    def test_fixture_row_count_and_order(self):
        corpus = load_dataset(FIXTURE_CSV)
        assert len(corpus) == 10
        assert corpus.labels == FIXTURE_LABELS
        assert corpus.ids == array("q", range(1, 11))

    def test_quoted_fields_survive(self):
        corpus = load_dataset(FIXTURE_CSV)
        assert '"never again"' in corpus.texts[9]
        assert "snacks, and friendly crew" in corpus.texts[1]

    def test_lean_columns(self):
        # one integer array of ids, and labels that are the three shared strings
        corpus = load_dataset(FIXTURE_CSV)
        assert corpus.ids.typecode == "q"
        assert {id(label) for label in corpus.labels} == {id(p) for p in POLARITIES}

    def test_blank_lines_keep_row_numbering(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("text,airline_sentiment\na,negative\n\nb,positive\n\n\nc,neutral\n")
        corpus = load_dataset(str(path))
        assert corpus.ids == array("q", [1, 3, 6])
        assert corpus.texts == ["a", "b", "c"]

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("tweet_id,airline_sentiment,text\n")
        corpus = load_dataset(str(path))
        assert len(corpus) == 0

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_bytes(b"")
        with pytest.raises(DatasetError, match="file is empty, expected a header row"):
            load_dataset(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot open"):
            load_dataset(str(tmp_path / "nope.csv"))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,text\nx,hello\n")
        with pytest.raises(DatasetError, match="airline_sentiment"):
            load_dataset(str(path))

    def test_unparseable_label_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "text,airline_sentiment\n"
            "fine tweet,negative\n"
            "ok tweet,positive\n"
            "broken tweet,angry\n"
        )
        with pytest.raises(DatasetError, match="row 3"):
            load_dataset(str(path))

    def test_malformed_quoting(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text('text,airline_sentiment\n"bad quote"field,negative\n')
        with pytest.raises(DatasetError, match="malformed CSV"):
            load_dataset(str(path))

    def test_unterminated_quote(self, tmp_path):
        path = tmp_path / "unterminated.csv"
        path.write_text('text,airline_sentiment\n"runs off the end,negative\n')
        with pytest.raises(DatasetError, match="malformed CSV"):
            load_dataset(str(path))

    @pytest.mark.parametrize("body, row", [
        ('good,positive\nbad,negative\n"x"y,neutral\n', 3),
        ('"multi\nline",positive\n"x"y,neutral\n', 2),  # data row 1 spans two lines
    ], ids=["third-row", "after-two-line-row"])
    def test_malformed_csv_names_data_row_and_file_line(self, tmp_path, body, row):
        path = tmp_path / "quotes.csv"
        path.write_text("text,airline_sentiment\n" + body)
        with pytest.raises(DatasetError, match=rf": row {row}: malformed CSV \(line 4\): "):
            load_dataset(str(path))

    def test_malformed_header_is_named(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text('"te"xt,airline_sentiment\ngood,positive\n')
        with pytest.raises(DatasetError, match=r": header: malformed CSV \(line 1\): "):
            load_dataset(str(path))

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "empty_text.csv"
        path.write_text("text,airline_sentiment\n,negative\n")
        with pytest.raises(DatasetError, match="row 1"):
            load_dataset(str(path))

    def test_custom_column_names(self, tmp_path):
        path = tmp_path / "custom.csv"
        path.write_text("body,mood\nhello world,positive\n")
        corpus = load_dataset(str(path), text_column="body", label_column="mood")
        assert corpus.texts == ["hello world"]
        assert corpus.labels == ["positive"]

    def test_utf8_bom_before_first_column(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(
            b"\xef\xbb\xbftext,airline_sentiment\nhello world,positive\ncaf\xc3\xa9 delay,negative\n"
        )
        corpus = load_dataset(str(path))
        assert corpus.texts == ["hello world", "café delay"]
        assert corpus.labels == ["positive", "negative"]


# Tweet texts: CSV-special characters, line breaks and non-ASCII mixed with
# anything else that encodes as UTF-8 (no surrogates, no NUL).
_TEXTS = st.text(
    st.one_of(
        st.sampled_from(list(',"\'\r\n\t ;éß✈😀\u2028\ufeff')),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    min_size=1,
    max_size=40,
)
# A label cell: a polarity in any letter case, with surrounding whitespace.
_LABELS = st.tuples(
    st.sampled_from(POLARITIES),
    st.lists(st.booleans(), min_size=8, max_size=8),
    st.sampled_from(["", " ", "\t", " \n "]),
    st.sampled_from(["", " ", "\t", "\r\n"]),
).map(
    lambda t: t[2]
    + "".join(c.upper() if up else c for c, up in zip(t[0], t[1]))
    + t[3]
)
# Each element: a data row (text, label cell), or None for a blank line.
_LINES = st.lists(st.one_of(st.tuples(_TEXTS, _LABELS), st.none()), max_size=25)


class TestLoadDatasetProperties:
    @given(
        lines=_LINES,
        header=st.permutations(["tweet_id", "text", "airline_sentiment"]),
        bom=st.booleans(),
    )
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_csv_writer_output_round_trips(self, tmp_path, lines, header, bom):
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(header)
        expected = Corpus(array("q"), [], [])
        for number, line in enumerate(lines, start=1):
            if line is None:
                out.write("\r\n")
                continue
            text, label = line
            cells = {"tweet_id": f"t{number}", "text": text, "airline_sentiment": label}
            writer.writerow([cells[name] for name in header])
            expected.ids.append(number)
            expected.texts.append(text)
            expected.labels.append(label.strip().lower())
        path = tmp_path / "tweets.csv"
        path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + out.getvalue().encode("utf-8"))
        assert load_dataset(str(path)) == expected


# Bytes a mutation favours: CSV syntax, line ends, NUL, a UTF-8 BOM, and
# bytes that are not valid UTF-8 where they land.
_SPECIAL_BYTES = st.sampled_from([
    b"\x00", b"\r", b"\n", b'"', b",", b"\xef\xbb\xbf", b"\xef", b"\xff", b"\xc3", b"\x80",
])
_FIXTURE_BYTES = Path(FIXTURE_CSV).read_bytes()


class TestLoadDatasetFuzz:
    @given(data=st.data())
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_fixture_loads_or_raises_dataset_error(self, tmp_path, data):
        content = bytearray(_FIXTURE_BYTES)
        for _ in range(data.draw(st.integers(1, 4))):
            new = data.draw(_SPECIAL_BYTES | st.binary(min_size=1, max_size=3))
            at = data.draw(st.integers(0, len(content)))
            kind = data.draw(st.sampled_from(["set", "insert", "delete"]))
            if kind == "set":
                content[at:at + len(new)] = new
            elif kind == "insert":
                content[at:at] = new
            else:
                del content[at:at + data.draw(st.integers(1, 3))]
        path = tmp_path / "mutated.csv"
        path.write_bytes(bytes(content))
        try:
            corpus = load_dataset(str(path))
        except DatasetError:
            return
        assert set(corpus.labels) <= set(POLARITIES) and all(corpus.texts)
        assert len(corpus.ids) == len(corpus.texts) == len(corpus.labels)


class TestLabelFrequencies:
    def test_fixture_hand_tally(self):
        corpus = load_dataset(FIXTURE_CSV)
        assert label_frequencies(corpus) == FIXTURE_COUNTS

    def test_empty_corpus_all_keys_zero(self):
        assert label_frequencies(Corpus([], [], [])) == {
            "negative": 0,
            "neutral": 0,
            "positive": 0,
        }

    def test_counts_sum_to_corpus_size(self):
        for n in (1, 7, 50, 311):
            corpus = synthetic_corpus(n, seed=n)
            assert sum(label_frequencies(corpus).values()) == n


class TestSeededPermutation:
    def test_is_permutation_and_deterministic(self):
        for n in (0, 1, 2, 17, 100):
            p = seeded_permutation(n, 12345)
            assert sorted(p) == list(range(n))
            assert p == seeded_permutation(n, 12345)

    def test_known_small_value(self):
        # Frozen from the documented SplitMix64 + Fisher-Yates algorithm.
        assert seeded_permutation(5, 42) == [1, 2, 0, 4, 3]


class TestTrainTestSplit:
    def test_forced_arithmetic_at_dataset_scale(self):
        corpus = synthetic_corpus(14640)
        train, test = train_test_split(corpus, train_ratio=0.75, seed=1)
        assert len(train) == 10980
        assert len(test) == 3660

    def test_ratio_one_puts_everything_in_train(self):
        corpus = synthetic_corpus(9)
        train, test = train_test_split(corpus, train_ratio=1.0, seed=0)
        assert len(train) == 9
        assert len(test) == 0

    def test_same_seed_identical_partitions(self):
        corpus = synthetic_corpus(200)
        first = train_test_split(corpus, train_ratio=0.75, seed=42)
        second = train_test_split(corpus, train_ratio=0.75, seed=42)
        assert first[0].ids == second[0].ids
        assert first[1].ids == second[1].ids

    def test_partition_property(self):
        for n, seed, ratio in ((1, 0, 0.5), (10, 3, 0.75), (101, 9, 0.33), (64, 5, 0.9)):
            corpus = synthetic_corpus(n, seed=n)
            train, test = train_test_split(corpus, train_ratio=ratio, seed=seed)
            combined = sorted(train.ids + test.ids)
            assert combined == list(range(1, n + 1))
            assert set(train.ids).isdisjoint(test.ids)
            for side in (train, test):  # each id keeps its own text and label
                for i, text, label in zip(side.ids, side.texts, side.labels):
                    assert (text, label) == (corpus.texts[i - 1], corpus.labels[i - 1])

    def test_distinct_seeds_differ(self):
        corpus = synthetic_corpus(100)
        a, _ = train_test_split(corpus, train_ratio=0.75, seed=1)
        b, _ = train_test_split(corpus, train_ratio=0.75, seed=2)
        assert a.ids != b.ids

    def test_empty_corpus_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            train_test_split(Corpus([], [], []))

    def test_take_returns_integer_ids(self):
        part = synthetic_corpus(10).take([4, 0, 9])
        assert part.ids == array("q", [5, 1, 10]) and part.ids.typecode == "q"
        assert part.texts == ["tweet number 4", "tweet number 0", "tweet number 9"]

    def test_argument_validation(self):
        corpus = synthetic_corpus(10)
        for kwargs in (
            {"train_ratio": 0.0},
            {"train_ratio": 1.5},
            {"train_ratio": float("nan")},
            {"train_ratio": "0.75"},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
        ):
            with pytest.raises(ValueError):
                train_test_split(corpus, **kwargs)
