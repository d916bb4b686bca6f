"""Command-line harness: stats, train, evaluate, and the comparison grid.

Defaults reproduce the benchmark exactly: a seeded 75/25 split shared by
every grid cell, binary bag-of-words and tf-idf vectorizers fitted on
the training split only, and the four classifiers with their documented
default hyperparameters. All outputs are deterministic given the
configuration (no timestamps, sorted keys, seeded training), so repeated
runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import os
import sys
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

from .artifacts import load_model, load_vectorizer, save_model, save_vectorizer
from .base import read_json, write_json
from .corpus import (
    DEFAULT_LABEL_COLUMN,
    DEFAULT_TEXT_COLUMN,
    POLARITIES,
    Corpus,
    label_frequencies,
    load_dataset,
    train_test_split,
)
from .errors import ConfigError, DatasetError, SentibenchError
from .metrics import evaluate
from .models import MODEL_CLASSES, MODEL_KINDS
from .preprocess import TweetPreprocessor, load_lemma_exceptions, load_stopwords
from .vectorize import VECTORIZER_CLASSES, VECTORIZER_KINDS

FORMATS = ("json", "csv", "table")

# Hyperparameter flag map: (flag, model kind, constructor argument, type, help).
_HP_FLAGS = [
    ("nb-alpha", "mnb", "alpha", float, "naive Bayes smoothing (default 1.0)"),
    ("logreg-rate", "logreg", "learning_rate", float, "logreg step size (default 0.1)"),
    ("logreg-epochs", "logreg", "epochs", int, "logreg passes over the data (default 50)"),
    ("logreg-batch", "logreg", "batch_size", int, "logreg mini-batch size (default 64)"),
    ("logreg-l2", "logreg", "l2", float, "logreg L2 strength (default 1e-4)"),
    ("svm-lambda", "svm", "lam", float, "svm regularization (default 1e-4)"),
    ("svm-epochs", "svm", "epochs", int, "svm passes over the data (default 50)"),
    ("rf-trees", "rf", "n_trees", int, "forest size (default 100)"),
    ("rf-depth", "rf", "max_depth", int, "tree depth cap, 0 = unlimited (default 40)"),
    ("rf-features", "rf", "max_features", int,
     "features tried per node (default ceil(sqrt(dims)))"),
    ("rf-bootstrap", "rf", "bootstrap", int, "bootstrap resampling, 0 or 1 (default 1)"),
]


@dataclass
class ExperimentConfig:
    """Everything one run needs; file paths are validated up front."""

    data: str = ""
    text_col: str = DEFAULT_TEXT_COLUMN
    label_col: str = DEFAULT_LABEL_COLUMN
    split_ratio: float = 0.75
    seed: int = 0
    stopwords: str | None = None
    lemma_exceptions: str | None = None
    vectorizers: tuple[str, ...] = VECTORIZER_KINDS
    models: tuple[str, ...] = MODEL_KINDS
    hyperparams: dict = field(default_factory=dict)
    out_dir: str = "sentibench_out"
    formats: tuple[str, ...] = FORMATS

    def validate(self) -> "ExperimentConfig":
        if not self.data:
            raise ConfigError("--data is required (flag or config file)")
        optional = ("stopwords", "lemma_exceptions")
        for name in ("data", "text_col", "label_col", "out_dir", *optional):
            value = getattr(self, name)
            if not (isinstance(value, str) or (value is None and name in optional)):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not Path(self.data).is_file():
            raise ConfigError(f"dataset file not found: {self.data}")
        for path in (self.stopwords, self.lemma_exceptions):
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"referenced file not found: {path}")
        ratio = self.split_ratio
        if isinstance(ratio, bool) or not isinstance(ratio, Real) or not 0.0 < ratio < 1.0:
            raise ConfigError(f"split ratio must be a number in (0, 1), got {ratio!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name, known, noun in (("vectorizers", VECTORIZER_KINDS, "vectorizer"),
                                  ("models", MODEL_KINDS, "model"),
                                  ("formats", FORMATS, "output format")):
            chosen = getattr(self, name)
            if isinstance(chosen, str):  # allow "bow,tfidf" in config files
                chosen = _csv_list(chosen)
            elif not isinstance(chosen, (list, tuple)):
                raise ConfigError(
                    f"{name} must be a list or a comma-separated string, got {chosen!r}"
                )
            chosen = tuple(chosen)
            setattr(self, name, chosen)
            if not chosen:
                raise ConfigError(f"select at least one {noun}")
            for value in chosen:
                if value not in known:
                    raise ConfigError(f"unknown {noun} {value!r}")
                if chosen.count(value) > 1:  # the run would repeat or ignore it
                    raise ConfigError(f"{noun} {value!r} is named twice")
        # Checked before any input is read; the directory itself is made
        # only when the first output is written.
        out = Path(self.out_dir)
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out-dir {self.out_dir}: {existing} is not a directory")
        # Only a hyperparameter can make a model fail to build, so building
        # each model that has some, before any cell trains, checks them all.
        for kind in self.hyperparams:
            if kind not in self.models:
                raise ConfigError(
                    f"hyperparameters for {kind!r}, but this run builds only "
                    f"{','.join(self.models)}"
                )
            self.build_model(kind)
        return self

    def build_preprocessor(self) -> TweetPreprocessor:
        path = self.lemma_exceptions
        return TweetPreprocessor(load_stopwords(self.stopwords),
                                 load_lemma_exceptions(path) if path else None)

    def build_model(self, kind: str):
        """An unfitted model of ``kind``; a bad hyperparameter is a ConfigError."""
        hp = dict(self.hyperparams.get(kind, {}))
        if kind == "rf" and type(hp.get("max_depth")) is int and hp["max_depth"] == 0:
            hp["max_depth"] = None  # 0 on the CLI means unlimited depth
        try:
            return MODEL_CLASSES[kind](**{"seed": self.seed, **hp})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid hyperparameters for {kind}: {exc}") from exc


def _csv_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


# Flag, type and help of each ExperimentConfig field; the field's name is
# its config-file key. The hyperparams field takes the _HP_FLAGS instead.
_FIELD_FLAGS = {
    "data": ("--data", str, "dataset CSV path"),
    "text_col": ("--text-col", str, "text column name"),
    "label_col": ("--label-col", str, "label column name"),
    "split_ratio": ("--split-ratio", float, "training share of the rows (default 0.75)"),
    "seed": ("--seed", int, "split and training seed (default 0)"),
    "stopwords": ("--stopwords", str, "stop-word file (default: packaged list)"),
    "lemma_exceptions": ("--lemma-exceptions", str, "two-column 'word lemma' exceptions file"),
    "out_dir": ("--out-dir", str, "output directory"),
    "formats": ("--format", _csv_list, "comma-separated subset of json,csv,table"),
    "models": ("--model", _csv_list, "comma-separated model kinds (default: all four)"),
    "vectorizers": ("--vectorizer", _csv_list, "comma-separated vectorizer kinds (default: both)"),
}

_INPUT = ("data", "text_col", "label_col", "out_dir")
_SPLIT = ("split_ratio", "seed")
_TRAINING = ("stopwords", "lemma_exceptions", "hyperparams")

# command -> (help, the ExperimentConfig fields it reads, its own required
# flags with their choices). A command accepts the flags and config-file
# keys of the fields it reads, and no others.
COMMANDS = {
    "stats": ("label frequency summary", (*_INPUT, "formats"), {}),
    "train": ("train one model+vectorizer pair", (*_INPUT, *_SPLIT, *_TRAINING),
              {"--model": MODEL_KINDS, "--vectorizer": VECTORIZER_KINDS}),
    "evaluate": ("evaluate persisted artifacts", (*_INPUT, "formats", *_SPLIT),
                 {"--model-artifact": None, "--vectorizer-artifact": None}),
    "compare": ("run the full comparison grid",
                (*_INPUT, "formats", *_SPLIT, *_TRAINING, "models", "vectorizers"), {}),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, which main prints as one line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sentibench",
        allow_abbrev=False,
        description="Tweet sentiment benchmark: preprocessing, two vectorizers, "
        "four classifiers, weighted-metric comparison grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, fields, own_flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for name in fields:
            if name == "hyperparams":  # dest: the flag with "_" for "-"
                for flag, _, _, typ, flag_help in _HP_FLAGS:
                    p.add_argument(f"--{flag}", type=typ, help=flag_help)
            else:
                flag, typ, flag_help = _FIELD_FLAGS[name]
                p.add_argument(flag, dest=name, type=typ, help=flag_help)
        for flag, choices in own_flags.items():
            p.add_argument(flag, required=True, choices=choices)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = COMMANDS[args.command][1]
    values: dict = {}
    if args.config:
        loaded = read_json(args.config, "config file", ConfigError)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unread = sorted(set(loaded) - set(fields))
        if unread:
            raise ConfigError(f"{args.command} does not read config keys {unread}")
        values.update(loaded)

    for name in fields:
        if name != "hyperparams" and getattr(args, name) is not None:
            values[name] = getattr(args, name)
    if args.command == "train":  # the one cell that its own two flags name
        values.update(models=(args.model,), vectorizers=(args.vectorizer,))

    if "hyperparams" in fields:
        file_hp = values.get("hyperparams", {})
        if not isinstance(file_hp, dict) or not all(
            isinstance(v, dict) for v in file_hp.values()
        ):
            raise ConfigError("hyperparams must map model kind -> {name: value}")
        hyperparams = {k: dict(v) for k, v in file_hp.items()}
        for flag, kind, arg_name, _, _ in _HP_FLAGS:
            flag_value = getattr(args, flag.replace("-", "_"))
            if flag_value is not None:
                hyperparams.setdefault(kind, {})[arg_name] = flag_value
        values["hyperparams"] = hyperparams

    return ExperimentConfig(**values).validate()


# --- shared pipeline steps --------------------------------------------------


def _split(config: ExperimentConfig) -> tuple[Corpus, Corpus]:
    corpus = load_dataset(config.data, config.text_col, config.label_col)
    return train_test_split(corpus, config.split_ratio, config.seed)


def _test_ids_digest(test: Corpus) -> str:
    return hashlib.sha256("\n".join(map(str, test.ids)).encode("utf-8")).hexdigest()


def _ensure_out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# Output file suffix -> the --format name that selects it.
_SUFFIX_FORMATS = {".json": "json", ".csv": "csv", ".txt": "table"}


def _write_outputs(config: ExperimentConfig, files: dict[str, object]) -> None:
    """Write every file whose format is selected: a .json file takes a JSON
    payload, a .csv file a list of rows, a .txt file a rendered table."""
    out = _ensure_out_dir(config)
    for name, content in files.items():
        path = out / name
        fmt = _SUFFIX_FORMATS[path.suffix]
        if fmt not in config.formats:
            continue
        if fmt == "json":
            write_json(path, content)
        elif fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(content)
        else:
            path.write_text(content + "\n", encoding="utf-8")


def _report_metadata(config: ExperimentConfig, test: Corpus) -> dict:
    return {
        "seed": config.seed,
        "split_ratio": config.split_ratio,
        "dataset": str(config.data),
        "test_ids_sha256": _test_ids_digest(test),
    }


# --- subcommands -------------------------------------------------------------


def cmd_stats(config: ExperimentConfig) -> int:
    corpus = load_dataset(config.data, config.text_col, config.label_col)
    if len(corpus) == 0:
        raise DatasetError(f"{config.data}: empty corpus (no data rows)")
    freqs = label_frequencies(corpus)
    total = len(corpus)

    lines = [f"{'class':<10} {'count':>7} {'percent':>8}"]
    for label in POLARITIES:
        lines.append(
            f"{label:<10} {freqs[label]:>7d} {100.0 * freqs[label] / total:>7.2f}%"
        )
    lines.append(f"{'total':<10} {total:>7d}")
    table = "\n".join(lines)
    print(table)

    share = {c: freqs[c] / total for c in POLARITIES}
    payload = {"dataset": str(config.data), "total": total, "counts": freqs, "percent": share}
    rows = [["class", "count", "percent"]] + [
        [label, freqs[label], repr(share[label])] for label in POLARITIES
    ]
    _write_outputs(config, {"stats.json": payload, "stats.csv": rows, "stats.txt": table})
    return 0


def cmd_train(config: ExperimentConfig, model_kind: str, vectorizer_kind: str) -> int:
    train = _split(config)[0]
    train_labels = train.labels
    preprocessor = config.build_preprocessor()
    train_docs = preprocessor.preprocess_corpus(train.texts)
    del train  # its texts are counted: free them before the transform

    vectorizer = VECTORIZER_CLASSES[vectorizer_kind]().fit(train_docs)
    train_vectors = vectorizer.transform(train_docs)
    model = config.build_model(model_kind).fit(train_vectors, train_labels)

    out = _ensure_out_dir(config)
    vec_path = out / f"vectorizer_{vectorizer_kind}.json"
    model_path = out / f"model_{model_kind}_{vectorizer_kind}.json"
    # evaluate needs both artifacts of one run, so both are written to
    # temporary names first, and a failure leaves neither file behind
    paths = (vec_path, model_path)
    temps = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in paths]
    placed = []
    try:
        save_vectorizer(vectorizer, str(temps[0]), preprocessor)
        save_model(model, str(temps[1]), vectorizer_kind)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            placed.append(path)
    except BaseException:
        for path in (*temps, *placed):
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    print(f"vectorizer: {vec_path}")
    print(f"model: {model_path}")
    return 0


def cmd_evaluate(config: ExperimentConfig, model_path: str, vectorizer_path: str) -> int:
    vectorizer, preprocessor = load_vectorizer(vectorizer_path)
    model = load_model(model_path, vectorizer.kind)
    test = _split(config)[1]
    test_labels, metadata = test.labels, _report_metadata(config, test)
    test_docs = preprocessor.preprocess_corpus(test.texts)
    del test  # its texts are counted: free them before the transform
    test_vectors = vectorizer.transform(test_docs)

    report = evaluate(model, vectorizer, test_labels, test_vectors, metadata=metadata)
    table = report.render_table()
    print(table)

    stem = f"report_{model.variant}_{vectorizer.kind}"
    _write_outputs(config, {
        f"{stem}.json": report.to_json_dict(),
        f"{stem}.csv": report.csv_rows(),
        f"{stem}.txt": table,
    })
    return 0


# The comparison grid's fields: each model x vectorizer cell is one tuple.
_GRID_COLUMNS = ("model", "vectorizer", "accuracy", "weighted_precision",
                 "weighted_recall", "weighted_f1")


def _render_comparison(rows: list[tuple]) -> str:
    best = max(row[2] for row in rows)
    lines = [
        f"{'model':<8} {'vectorizer':<10} {'accuracy':>8} {'precision':>9} "
        f"{'recall':>7} {'f1':>6}"
    ]
    for model, vectorizer, accuracy, precision, recall, f1 in rows:
        marker = " *" if accuracy == best else ""
        lines.append(
            f"{model:<8} {vectorizer:<10} {accuracy:>8.2f} {precision:>9.2f} "
            f"{recall:>7.2f} {f1:>6.2f}{marker}"
        )
    lines.append("* best accuracy")
    return "\n".join(lines)


def cmd_compare(config: ExperimentConfig) -> int:
    train, test = _split(config)
    train_labels, test_labels = train.labels, test.labels
    metadata = _report_metadata(config, test)
    preprocessor = config.build_preprocessor()
    # each side's texts are freed once counted, before the first transform
    train_docs = preprocessor.preprocess_corpus(train.texts)
    del train
    test_docs = preprocessor.preprocess_corpus(test.texts)
    del test

    rows = []
    report_files = {}
    for vectorizer_kind in config.vectorizers:
        vectorizer = VECTORIZER_CLASSES[vectorizer_kind]().fit(train_docs)
        train_vectors = vectorizer.transform(train_docs)
        test_vectors = vectorizer.transform(test_docs)
        for model_kind in config.models:
            model = config.build_model(model_kind).fit(train_vectors, train_labels)
            report = evaluate(model, vectorizer, test_labels, test_vectors, metadata=metadata)
            report_files[f"report_{model_kind}_{vectorizer_kind}.json"] = report.to_json_dict()
            w = report.weighted
            rows.append((model_kind, vectorizer_kind, report.accuracy,
                         w.precision, w.recall, w.f1))
            print(
                f"done: {model_kind}/{vectorizer_kind} "
                f"accuracy={report.accuracy:.4f}"
            )
        # Freed before the next vectorizer transforms, where memory peaks.
        del vectorizer, train_vectors, test_vectors, model

    table = _render_comparison(rows)
    print(table)

    sizes = {"train_size": len(train_labels), "test_size": len(test_labels)}
    grid = [dict(zip(_GRID_COLUMNS, row)) for row in rows]
    records = [[*row[:2], *map(repr, row[2:])] for row in rows]
    _write_outputs(config, {
        "comparison.json": {**metadata, **sizes, "rows": grid},
        "comparison.csv": [_GRID_COLUMNS, *records],
        "comparison.txt": table,
        **report_files,
    })
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise ConfigError(f"{args.command} does not take {' '.join(extra)}")
        config = config_from_args(args)
        if args.command == "stats":
            return cmd_stats(config)
        if args.command == "train":
            return cmd_train(config, args.model, args.vectorizer)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.model_artifact, args.vectorizer_artifact)
        return cmd_compare(config)
    except SentibenchError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reads wrap their own, so this is a path the OS refused to stat or write
        print(f"error[config]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, not bad input: still one line, no traceback
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
