"""Each subcommand accepts exactly the flags it reads.

Every flag that `build_parser()` gives a subcommand, set to a non-default
value, changes what the command writes or prints; every flag that the
subcommands shared before they took only their own (29 command/flag
pairs), and every prefix of an accepted flag, is one `error[config]`
line; and the README's flag table lists exactly the flags each
subcommand accepts.
"""

import argparse
import json
import random
import re
from pathlib import Path

import pytest

from sentibench.cli import build_parser, main

COMMANDS = ("stats", "train", "evaluate", "compare")


def accepted_flags() -> dict[str, list[str]]:
    """command -> the flags its subparser accepts, without -h/--help."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [
            flag for action in p._actions for flag in action.option_strings
            if flag not in ("-h", "--help")
        ]
        for command, p in sub.choices.items()
    }


ACCEPTED = accepted_flags()

# Every subcommand took these 21 flags when all four shared one flag set.
SHARED_BEFORE = [
    "--config", "--data", "--text-col", "--label-col", "--split-ratio", "--seed",
    "--stopwords", "--lemma-exceptions", "--out-dir", "--format",
    "--nb-alpha", "--logreg-rate", "--logreg-epochs", "--logreg-batch", "--logreg-l2",
    "--svm-lambda", "--svm-epochs", "--rf-trees", "--rf-depth", "--rf-features",
    "--rf-bootstrap",
]
DROPPED = [
    (command, flag) for command in COMMANDS for flag in SHARED_BEFORE
    if flag not in ACCEPTED[command]
]

# flag -> (a non-default value, the model a train or compare run builds);
# a value naming a file in the inputs directory is passed as that file's path.
VALUES = {
    "--config": ("config.json", "mnb"),  # sets label_col, which every command reads
    "--data": ("other.csv", "mnb"),
    "--text-col": ("tweet", "mnb"),
    "--label-col": ("sentiment", "mnb"),
    "--split-ratio": ("0.5", "mnb"),
    "--seed": ("7", "mnb"),
    "--stopwords": ("stopwords.txt", "mnb"),
    "--lemma-exceptions": ("lemmas.txt", "mnb"),
    "--out-dir": ("elsewhere", "mnb"),
    "--format": ("csv", "mnb"),
    "--model": ("logreg", "mnb"),
    "--vectorizer": ("tfidf", "mnb"),
    "--model-artifact": ("model_logreg_bow.json", "mnb"),
    "--vectorizer-artifact": ("vectorizer_bow_stopwords.json", "mnb"),
    "--nb-alpha": ("20", "mnb"),
    "--logreg-rate": ("5", "logreg"),
    "--logreg-epochs": ("1", "logreg"),
    "--logreg-batch": ("1", "logreg"),
    "--logreg-l2": ("1", "logreg"),
    "--svm-lambda": ("1", "svm"),
    "--svm-epochs": ("1", "svm"),
    "--rf-trees": ("1", "rf"),
    "--rf-depth": ("1", "rf"),
    "--rf-features": ("1", "rf"),
    "--rf-bootstrap": ("0", "rf"),
}
# stats prints no text, so its text column shows only in which rows it
# accepts: the blank_tweet column has an empty cell.
STATS_VALUES = {"--text-col": "blank_tweet"}

_WORDS = {
    "negative": ["awful", "delayed", "lost", "rude", "cancelled", "worst"],
    "neutral": ["gate", "schedule", "update", "boarding", "question", "terminal"],
    "positive": ["great", "thanks", "loved", "friendly", "smooth", "best"],
}
_FILLER = ["flight", "plane", "seats", "airport", "bags", "today", "service", "crew",
           "the", "is", "was", "flying", "waited", "checked"]


def noisy_tweet(rng: random.Random, label: str) -> str:
    """Three markers, each of ``label`` with probability 0.6 plus a third of
    the rest, and four filler words."""
    labels = list(_WORDS)
    words = [rng.choice(_WORDS[label if rng.random() < 0.6 else rng.choice(labels)])
             for _ in range(3)]
    return " ".join(words + rng.sample(_FILLER, 4))


def noisy_rows(n: int, seed: int) -> list[dict]:
    """Rows noisy enough that a changed hyperparameter changes some
    prediction, with a second text and label column and a text column
    whose last cell is empty."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        label, sentiment = rng.choice(list(_WORDS)), rng.choice(list(_WORDS))
        rows.append({"text": noisy_tweet(rng, label), "airline_sentiment": label,
                     "tweet": noisy_tweet(rng, sentiment), "sentiment": sentiment,
                     "blank_tweet": "x"})
    rows[-1]["blank_tweet"] = ""
    return rows


def write_csv(path: Path, rows: list[dict]) -> None:
    columns = list(rows[0])
    lines = [",".join(columns)] + [",".join(row[c] for c in columns) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """The data, config, word files and trained artifacts the runs read."""
    root = tmp_path_factory.mktemp("inputs")
    write_csv(root / "tweets.csv", noisy_rows(160, seed=1))
    write_csv(root / "other.csv", noisy_rows(160, seed=2))
    (root / "config.json").write_text(json.dumps({"label_col": "sentiment"}))
    packaged = Path(__file__).parent.parent / "src" / "sentibench" / "data" / "stopwords.txt"
    (root / "stopwords.txt").write_text(
        packaged.read_text(encoding="utf-8") + "great\nawful\ngate\n", encoding="utf-8"
    )
    (root / "lemmas.txt").write_text("thanks awful\nworst great\nloved gate\n")
    for model, vec in (("mnb", "bow"), ("logreg", "bow"), ("mnb", "tfidf")):
        assert main(["train", "--data", str(root / "tweets.csv"), "--out-dir", str(root),
                     "--model", model, "--vectorizer", vec]) == 0
    # The bow vectorizer with three class markers added to its stop words: the
    # same terms, so it fits the bow model, but other test vectors.
    doc = json.loads((root / "vectorizer_bow.json").read_text())
    doc["preprocessing"]["stopwords"] += ["great", "awful", "gate"]
    (root / "vectorizer_bow_stopwords.json").write_text(json.dumps(doc))
    return root


def base_argv(command: str, model: str, inputs: Path) -> list[str]:
    argv = [command, "--data", str(inputs / "tweets.csv"), "--out-dir", "out"]
    if command in ("train", "compare"):
        argv += ["--model", model, "--vectorizer", "bow"]
    elif command == "evaluate":
        argv += ["--model-artifact", str(inputs / "model_mnb_bow.json"),
                 "--vectorizer-artifact", str(inputs / "vectorizer_bow.json")]
    return argv


def flag_value(command: str, flag: str, inputs: Path) -> str:
    value = VALUES[flag][0]
    if command == "stats":
        value = STATS_VALUES.get(flag, value)
    return str(inputs / value) if (inputs / value).is_file() else value


def outcome(argv: list[str], workdir: Path, monkeypatch, capsys) -> tuple:
    """(exit code, stdout, stderr, {path: bytes} of every file written) of
    one run in a fresh ``workdir``."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    files = {
        str(path.relative_to(workdir)): path.read_bytes()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }
    return code, captured.out, captured.err, files


def test_the_subcommands_accept_61_flags_and_refuse_29_they_shared():
    assert {command: len(flags) for command, flags in ACCEPTED.items()} == {
        "stats": 6, "train": 22, "evaluate": 10, "compare": 23,
    }
    assert len(DROPPED) == 29


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in COMMANDS for flag in ACCEPTED[command]
])
def test_each_accepted_flag_changes_the_output(inputs, tmp_path, monkeypatch, capsys,
                                               command, flag):
    assert flag in VALUES, f"no test value for {command} {flag}"
    argv = base_argv(command, VALUES[flag][1], inputs)
    before = outcome(argv, tmp_path / "base", monkeypatch, capsys)
    after = outcome([*argv, flag, flag_value(command, flag, inputs)],
                    tmp_path / "flag", monkeypatch, capsys)
    assert before[0] == 0, before[2]
    if (command, flag) == ("stats", "--text-col"):
        assert after[2].startswith("error[dataset]") and "empty tweet text" in after[2]
    else:
        assert after[0] == 0, after[2]
    assert after != before


@pytest.mark.parametrize("command, flag", DROPPED)
def test_each_flag_a_command_does_not_read_is_one_config_error(
    inputs, tmp_path, monkeypatch, capsys, command, flag
):
    argv = [*base_argv(command, VALUES[flag][1], inputs), flag, flag_value(command, flag, inputs)]
    code, out, err, files = outcome(argv, tmp_path / "run", monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error[config]: ") and flag in err, err
    assert len(err.splitlines()) == 1
    assert out == "" and files == {}


PREFIXES = [
    *((command, {flag: flag[:-1]}) for command in COMMANDS for flag in ACCEPTED[command]),
    ("evaluate", {"--model-artifact": "--model", "--vectorizer-artifact": "--vectorizer"}),
]


@pytest.mark.parametrize("command, prefixes", [
    pytest.param(command, prefixes, id=" ".join([command, *prefixes.values()]))
    for command, prefixes in PREFIXES
])
def test_a_prefix_of_an_accepted_flag_is_one_config_error(
    inputs, tmp_path, monkeypatch, capsys, command, prefixes
):
    # argparse's default allow_abbrev would take each prefix as its flag.
    argv = base_argv(command, VALUES[next(iter(prefixes))][1], inputs)
    for flag, prefix in prefixes.items():
        assert prefix not in ACCEPTED[command]
        if flag in argv:
            argv[argv.index(flag)] = prefix
        else:
            argv += [prefix, flag_value(command, flag, inputs)]
    code, out, err, files = outcome(argv, tmp_path / "run", monkeypatch, capsys)
    assert code == 1
    assert err.startswith("error[config]: ") and all(p in err for p in prefixes.values()), err
    assert len(err.splitlines()) == 1
    assert out == "" and files == {}


def readme_flag_table() -> dict[str, list[str]]:
    """command -> the flags the README's per-command table marks for it."""
    lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("| flag |"))
    columns = [cell.strip() for cell in lines[header].strip("|").split("|")]
    table = {command: [] for command in COMMANDS}
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        cells = dict(zip(columns, (cell.strip() for cell in line.strip("|").split("|"))))
        flag = re.match(r"`(--[a-z0-9-]+)", cells["flag"]).group(1)
        for command in COMMANDS:
            if cells[command]:
                table[command].append(flag)
    return table


def test_readme_flag_table_matches_the_parser():
    table = readme_flag_table()
    assert {c: sorted(flags) for c, flags in table.items()} == {
        c: sorted(flags) for c, flags in ACCEPTED.items()
    }
