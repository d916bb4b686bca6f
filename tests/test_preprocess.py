"""Cleaning, tokenizing, stop-words, lemmatization, vocabulary."""

import json
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preprocess_reference as reference
from preprocess_reference import clean_text
from sentibench import (
    BowVectorizer,
    ConfigError,
    TweetPreprocessor,
    VECTORIZER_KINDS,
    load_dataset,
    load_lemma_exceptions,
    load_stopwords,
    save_vectorizer,
)
from sentibench.preprocess import _REQUIRED_STOPWORDS, _words, lemmatize
from sentibench.vectorize import VECTORIZER_CLASSES
from helpers import (
    EXAMPLE_TOKENS_1,
    EXAMPLE_TOKENS_2,
    EXAMPLE_TWEET_1,
    EXAMPLE_TWEET_2,
    EXAMPLE_VOCAB,
    FIXTURE_CSV,
    brute_counts,
    count_tokens,
    counts_of,
)


class TestCleanText:
    """The cleaning rules, on the reference cleaner; TestAgainstReference
    holds the pipeline's own word split to it."""

    def test_symbols_and_case(self):
        assert clean_text("#Late Service @McDonald") == "late service mcdonald"

    def test_empty(self):
        assert clean_text("") == ""

    def test_character_rules_by_hand(self):
        assert clean_text("A1b2-C3!") == "a b c"

    def test_non_ascii_letters_kept_emoji_dropped(self):
        assert clean_text("Café ☕ was réservé 4 us!") == "café was réservé us"

    def test_underscore_is_not_a_letter(self):
        assert clean_text("snake_case") == "snake case"

    @given(st.text(max_size=200))
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once

    @given(st.text(max_size=200))
    def test_no_digits_punctuation_or_uppercase(self, raw):
        cleaned = clean_text(raw)
        assert cleaned == cleaned.lower()
        assert not any(ch.isdigit() for ch in cleaned)
        assert not any(ch in string.punctuation for ch in cleaned)


def unlemmatized(text: str, stopwords: frozenset[str]) -> list[str]:
    """The pipeline's split and stop-word steps alone: the exceptions map
    every word of ``text`` to itself."""
    return TweetPreprocessor(stopwords, {w: w for w in text.split()})(text)


def tokenize(cleaned: str) -> list[str]:
    return unlemmatized(cleaned, _REQUIRED_STOPWORDS)


def remove_stopwords(tokens: list[str], stopwords: frozenset[str]) -> list[str]:
    return unlemmatized(" ".join(tokens), stopwords)


class TestTokenize:
    def test_simple_split(self):
        assert tokenize("late service mcdonald") == ["late", "service", "mcdonald"]

    def test_whitespace_only(self):
        assert tokenize("  ") == []

    def test_hand_split(self):
        tokens = tokenize("delicious hamburger but slow service")
        assert tokens == ["delicious", "hamburger", "but", "slow", "service"]


class TestStopWords:
    def test_default_list_has_required_words(self):
        stopwords = load_stopwords()
        for word in ("he", "she", "the", "is", "that", "but", "and"):
            assert word in stopwords

    def test_removal_keeps_order(self):
        stopwords = load_stopwords()
        tokens = ["delicious", "hamburger", "but", "slow", "service"]
        assert remove_stopwords(tokens, stopwords) == [
            "delicious",
            "hamburger",
            "slow",
            "service",
        ]

    def test_all_stopwords_removed(self):
        assert remove_stopwords(["the", "is", "that"], load_stopwords()) == []

    def test_no_stopwords_is_identity(self):
        tokens = ["flight", "delayed", "badly"]
        assert remove_stopwords(tokens, load_stopwords()) == tokens

    def test_custom_file_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text(
            "# tiny list\nhe\nshe\nthe\nis\nthat\nbut  # trailing comment\n\n"
        )
        stopwords = load_stopwords(str(path))
        assert "but" in stopwords
        assert len(stopwords) == 6

    def test_missing_required_words_rejected(self):
        with pytest.raises(ConfigError, match="required"):
            TweetPreprocessor(frozenset({"the", "is"}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_stopwords(str(tmp_path / "none.txt"))


class TestLemmatizer:
    def test_ing_with_stem_repair(self):
        assert lemmatize("testing") == "test"

    def test_no_rule_matches(self):
        assert lemmatize("burger") == "burger"

    def test_plural_strip(self):
        assert lemmatize("services") == "service"

    @pytest.mark.parametrize(
        "word,lemma",
        [
            ("running", "run"),
            ("taking", "take"),
            ("delayed", "delay"),
            ("loved", "love"),
            ("classes", "class"),
            ("cities", "city"),
            ("boxes", "box"),
            ("meetings", "meet"),  # stacked suffixes reduce fully
            ("delicious", "delicious"),  # -us guard
            ("miss", "miss"),
            ("need", "need"),  # measure guard
            ("king", "king"),
        ],
    )
    def test_rule_table(self, word, lemma):
        assert lemmatize(word) == lemma

    def test_exceptions_consulted_first(self):
        pre = TweetPreprocessor(load_stopwords(), {"testing": "taste"})
        assert pre("testing") == ["taste"]
        assert pre("resting") == ["rest"]

    def test_idempotent_on_fixture_corpus(self):
        preprocessor = TweetPreprocessor(load_stopwords())
        for text in load_dataset(FIXTURE_CSV).texts:
            for token in preprocessor(text):
                assert lemmatize(token) == token

    def test_idempotent_on_common_words(self):
        words = (
            "flights booking cancelled delayed waiting hours bags thanks "
            "amazing crews landings services runnings used tries tried"
        ).split()
        for word in words:
            once = lemmatize(word)
            assert lemmatize(once) == once


class TestLemmaExceptionsFile:
    def test_two_column_format(self, tmp_path):
        path = tmp_path / "exc.txt"
        path.write_text("# overrides\ntesting taste\nGeese goose\n")
        exceptions = load_lemma_exceptions(str(path))
        assert exceptions == {"testing": "taste", "geese": "goose"}

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "exc.txt"
        path.write_text("one two three\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_lemma_exceptions(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_lemma_exceptions(str(tmp_path / "none.txt"))


class TestPreprocessTweet:
    def test_worked_example_tweet_two_keeps_duplicates(self):
        tokens = TweetPreprocessor(load_stopwords())(EXAMPLE_TWEET_2)
        assert tokens == [
            "late", "service", "mcdonald", "delicious", "hamburger", "slow", "service",
        ]

    def test_worked_example_tweet_one_with_exception(self):
        pre = TweetPreprocessor(load_stopwords(), {"testing": "taste"})
        assert pre(EXAMPLE_TWEET_1) == EXAMPLE_TOKENS_1

    def test_empty_input(self):
        assert TweetPreprocessor(load_stopwords())("") == []

    def test_all_stopwords_yield_empty(self):
        assert TweetPreprocessor(load_stopwords())("The is that!!") == []

    @given(st.text(max_size=200))
    @settings(max_examples=60)
    def test_output_is_clean(self, raw):
        stopwords = load_stopwords()
        tokens = TweetPreprocessor(stopwords)(raw)
        for token in tokens:
            assert token not in stopwords
            assert token == token.lower()
            assert not any(ch.isdigit() for ch in token)
            assert " " not in token
            assert not any(ch in string.punctuation for ch in token)


# Words that exercise the stop-word check and the lemmatizer rules: stop-words
# whose lemma is not one ("does" -> "doe") and the reverse ("theirs" ->
# "their"), exception keys, case, and letters that lowercase to ASCII.
_WORDS = st.sampled_from([
    "The", "does", "THEIRS", "hers", "was", "flights", "Testing", "flew",
    "running", "cities", "taking", "Café", "RÉSERVÉS", "ΟΔΟΣ", "\u212aings",
    "\u0130stanbul", "naïve",
])
_SEPARATORS = st.sampled_from([
    " ", "  ", "\u00a0", "\t", "#", "@", "7", "²", "\x1c", "\x1f", "\x85", "!",
    "\U0001f600", "Ⅻ", "٣", "_",
])
_TWEETS = st.one_of(
    st.text(max_size=200),
    st.lists(st.tuples(st.one_of(_WORDS, st.text(max_size=4)), _SEPARATORS), max_size=12)
    .map(lambda parts: "".join(word + sep for word, sep in parts)),
)
# Exceptions keyed by those words (lowercased, as tokens are) and by
# stop-words, whose values include "" and words the rules would change.
_EXCEPTIONS = st.dictionaries(
    st.one_of(_WORDS.map(str.lower), st.sampled_from(["the", "is", "and", "does"])),
    st.sampled_from(["", "goes", "meetings", "fly", "taste", "a", "the", "cities"]),
    max_size=6,
)


def assert_matches_reference(texts, exceptions):
    """clean_text, a fresh TweetPreprocessor per text, __call__ in another
    order, and the counts of preprocess_corpus (cold and warm) all equal the
    per-token reference."""
    stopwords = load_stopwords()
    expected = [reference.preprocess_tweet(t, stopwords, exceptions) for t in texts]
    assert [_words(t) for t in texts] == [reference.clean_text(t).split() for t in texts]
    assert [TweetPreprocessor(stopwords, exceptions)(t) for t in texts] == expected
    pre = TweetPreprocessor(stopwords, exceptions)
    assert counts_of(pre.preprocess_corpus(texts)) == brute_counts(expected)
    assert counts_of(pre.preprocess_corpus(iter(texts))) == brute_counts(expected)
    assert [pre(t) for t in reversed(texts)] == expected[::-1]


class TestAgainstReference:
    @given(st.lists(_TWEETS, max_size=6), _EXCEPTIONS)
    @settings(max_examples=300, deadline=None)
    def test_random_text(self, texts, exceptions):
        assert_matches_reference(texts, exceptions)

    @pytest.mark.parametrize("raw,cleaned,tokens", [
        ("ΟΔΟΣ ΣΑΣ", "οδος σας", ["οδος", "σας"]),  # final sigma, from lower()
        ("\u212aings", "kings", ["king"]),  # Kelvin sign lowercases to ASCII k
        ("\u0130stanbul", "i stanbul", ["stanbul"]),  # İ -> i + combining dot
        ("x² y³ z¹", "x y z", ["x", "z"]),
        ("Ⅻ ⅻ", "", []),
        ("\x1cA\x1dB\x1eC\x1fD", "a b c d", ["b", "c"]),
        ("a\x85b", "a b", ["b"]),
        ("Café\u00a0RÉSERVÉS", "café réservés", ["café", "réservé"]),
        ("👍🏽great✈️", "great", ["great"]),
        ("", "", []),
        ("The is that!!", "the is that", []),
        ("Does THEIRS", "does theirs", []),
    ])
    def test_explicit_cases(self, raw, cleaned, tokens):
        assert clean_text(raw) == cleaned
        assert TweetPreprocessor(load_stopwords())(raw) == tokens
        assert_matches_reference([raw], {})

    def test_exceptions_map_after_stopwords(self):
        exceptions = {"testing": "taste", "flew": "fly", "the": "a", "cities": ""}
        texts = ["Testing the flew", "cities testing", "flew flew the"]
        pre = TweetPreprocessor(lemma_exceptions=exceptions)
        assert [pre(t) for t in texts] == [["taste", "fly"], ["", "taste"], ["fly", "fly"]]
        assert_matches_reference(texts, exceptions)

    def test_exception_lemma_is_not_lemmatized_again(self):
        exceptions = {"flew": "goes", "cities": "meetings"}
        pre = TweetPreprocessor(lemma_exceptions=exceptions)
        assert pre("flew cities goes meetings") == ["goes", "meetings", "goe", "meet"]
        assert_matches_reference(["flew cities goes meetings"], exceptions)


class TestTweetPreprocessor:
    def test_copies_its_inputs(self):
        stopwords, exceptions = set(load_stopwords()), {"flew": "fly"}
        pre = TweetPreprocessor(stopwords, exceptions)
        stopwords.discard("but")
        exceptions["flew"] = "soar"
        exceptions["testing"] = "taste"
        assert pre("but flew testing") == ["fly", "test"]
        assert pre.stopwords == load_stopwords() and pre.lemma_exceptions == {"flew": "fly"}
        assert isinstance(pre.stopwords, frozenset)


class TestStopwordId:
    """Every stop-word maps to id 0, whose lemma is a placeholder: no counted
    corpus, fitted vocabulary or saved vectorizer holds it."""

    def test_stopword_only_texts_count_to_empty_rows(self):
        counts = TweetPreprocessor().preprocess_corpus(["the is", "he she that"])
        assert len(counts) == 2 and counts.terms == []
        assert counts.counts.shape == (2, 0) and counts.counts.nnz == 0
        assert counts.lengths.dtype == np.int32 and counts.lengths.tolist() == [0, 0]

    @pytest.mark.parametrize("kind", VECTORIZER_KINDS)
    def test_placeholder_is_never_a_term(self, tmp_path, kind):
        pre = TweetPreprocessor()
        train = pre.preprocess_corpus(["The flight is late", "the the"])
        test = pre.preprocess_corpus(["is that late", "crew"])
        assert counts_of(train) == (["flight", "late"], [2, 0], [[1, 1], [0, 0]])
        assert counts_of(test) == (["late", "crew"], [1, 1], [[1, 0], [0, 1]])
        vec = VECTORIZER_CLASSES[kind]().fit(train)
        assert list(vec.vocabulary_) == ["flight", "late"]
        assert vec.transform(test).toarray()[:, 0].tolist() == [0.0, 0.0]
        save_vectorizer(vec, str(tmp_path / "vec.json"), pre)
        assert json.loads((tmp_path / "vec.json").read_text())["terms"] == ["flight", "late"]

    def test_empty_lemma_is_its_own_term(self):
        pre = TweetPreprocessor(lemma_exceptions={"cities": ""})
        counts = pre.preprocess_corpus(["the cities", "cities the cities"])
        assert counts_of(counts) == ([""], [1, 2], [[1], [2]])

    def test_exception_keyed_by_a_stopword_stays_dropped(self):
        pre = TweetPreprocessor(lemma_exceptions={"the": "flight"})
        assert pre("the flight the") == ["flight"]
        counts = pre.preprocess_corpus(["the the", "the flight"])
        assert counts_of(counts) == (["flight"], [0, 1], [[0], [1]])


class TestVocabulary:
    def test_worked_example_eleven_terms(self):
        exceptions = {"testing": "taste"}
        stopwords = load_stopwords()
        docs = [
            TweetPreprocessor(stopwords, exceptions)(EXAMPLE_TWEET_1),
            TweetPreprocessor(stopwords, exceptions)(EXAMPLE_TWEET_2),
        ]
        vocab = BowVectorizer().fit(count_tokens(docs)).vocabulary_
        assert tuple(vocab) == EXAMPLE_VOCAB
        assert len(vocab) == 11

    def test_no_docs(self):
        assert len(BowVectorizer().fit(count_tokens([])).vocabulary_) == 0

    def test_duplicate_docs_add_nothing(self):
        doc = EXAMPLE_TOKENS_2
        twice = BowVectorizer().fit(count_tokens([doc, doc]))
        once = BowVectorizer().fit(count_tokens([doc]))
        assert twice.vocabulary_ == once.vocabulary_

    def test_size_bounded_and_terms_occur(self):
        docs = [EXAMPLE_TOKENS_1, EXAMPLE_TOKENS_2, EXAMPLE_TOKENS_2]
        vocab = BowVectorizer().fit(count_tokens(docs)).vocabulary_
        assert len(vocab) <= sum(len(d) for d in docs)
        everything = {t for d in docs for t in d}
        assert set(vocab) == everything

    def test_index_is_bijection(self):
        vocab = BowVectorizer().fit(count_tokens([EXAMPLE_TOKENS_1])).vocabulary_
        assert list(vocab.values()) == list(range(len(vocab)))
        terms = list(vocab)
        for term, idx in vocab.items():
            assert terms[idx] == term
