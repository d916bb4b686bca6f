"""Golden sha256 digests of every artifact and report the CLI writes.

The digests lock behaviour byte for byte: each of the 8 model artifacts
(svm/mnb/rf/logreg x bow/tfidf), both vectorizer artifacts, and every
`stats`, `evaluate` and `compare` output file (json, csv, txt), on the
fixture CSV and on two small deterministic corpora built here, one ASCII
and one whose rows also hold accented and uppercase non-ASCII letters,
emoji, non-Latin digits and no-break spaces. Paths are
relative to a temporary working directory, so the `dataset` field of the
reports does not depend on where the checkout lives.

Taken with numpy 2.4.6 (Python 3.11); another version may round the last
bits of a float differently and so change a digest.

`tests/data/v1/` holds the fixture's `train` artifacts as format version 1
wrote them (pretty-printed, forest trees as nested records). They must keep
their version 1 digests and still evaluate to today's golden reports.
"""

import csv
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from sentibench import load_model, save_model
from sentibench.cli import main
from helpers import FIXTURE_CSV, V1_ARTIFACTS, as_version_1

MODELS = ("svm", "mnb", "rf", "logreg")
VECTORIZERS = ("bow", "tfidf")
# Each model's short-run flags; a command takes only those of the models it builds.
SHORT = {
    "svm": ["--svm-epochs", "3"], "mnb": [], "rf": ["--rf-trees", "4"],
    "logreg": ["--logreg-epochs", "3"],
}

_MARKERS = {
    "negative": ["awful", "delayed", "lost", "rude", "cancelled"],
    "neutral": ["gate", "schedule", "update", "boarding", "question"],
    "positive": ["great", "thanks", "loved", "friendly", "smooth"],
}
_FILLER = ["flight", "plane", "seats", "airport", "bags", "today", "service", "crew"]


def synthetic_rows(n: int = 120) -> list[tuple[str, str]]:
    """Deterministic (text, label) rows: two class markers, three filler
    words, and on every fourth row a marker of another class as noise."""
    labels = list(_MARKERS)
    rows = []
    for i in range(n):
        label = labels[(i * 5 + i // 7) % 3]
        words = [_MARKERS[label][(i * 3) % 5], _MARKERS[label][(i * 7 + 1) % 5]]
        words += [_FILLER[(i * 7 + k * 3) % len(_FILLER)] for k in range(3)]
        if i % 4 == 0:
            words.append(_MARKERS[labels[(i // 4 + 1) % 3]][i % 5])
        rows.append((f"@Air{i % 6} " + " ".join(words) + ("!" if i % 2 else ", #trip"), label))
    return rows


# One uppercase non-ASCII marker per class, and decorations that cleaning
# must split on (emoji, non-Latin digits) or keep as letters (accents,
# Greek with a final sigma, the dotted capital I).
_UNICODE_MARKERS = {"negative": "RETARDÉS", "neutral": "ÉCHÉANCE", "positive": "GÉNIAL"}
_DECORATIONS = [
    "Ärger", "😀", "✈️👍", "٣٤", "５０min", "x²", "İstanbul", "ΣΟΦΟΣ",
    "naïve", "ÑANDÚ", "१२३", "Ⅻ", "crème\u00a0brûlée", "Øresund",
]


def unicode_rows(n: int = 120) -> list[tuple[str, str]]:
    """The synthetic rows with a class marker on every other row, one
    decoration per row, and no-break spaces between words on every third."""
    rows = []
    for i, (text, label) in enumerate(synthetic_rows(n)):
        words = text.split(" ")
        if i % 2 == 0:
            words.insert(1 + i % 3, _UNICODE_MARKERS[label])
        words.insert(i % len(words), _DECORATIONS[i % len(_DECORATIONS)])
        rows.append(("\u00a0".join(words) if i % 3 == 0 else " ".join(words), label))
    return rows


def write_corpus(path: Path, name: str) -> None:
    if name == "fixture":
        shutil.copyfile(FIXTURE_CSV, path)
        return
    rows = synthetic_rows() if name == "synthetic" else unicode_rows()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["text", "airline_sentiment"])
        writer.writerows(rows)


def run_everything(workdir: Path, name: str) -> dict[str, str]:
    """Run stats, train (all 8 cells), evaluate (all 8) and compare in
    ``workdir``; return {"command/file": sha256} over every file written."""
    write_corpus(workdir / "tweets.csv", name)
    base = ["--data", "tweets.csv", "--seed", "2"]
    assert main(["stats", "--data", "tweets.csv", "--out-dir", "stats"]) == 0
    for model in MODELS:
        for vec in VECTORIZERS:
            cell = ["--model", model, "--vectorizer", vec]
            assert main(["train", *base, *SHORT[model], *cell, "--out-dir", "train"]) == 0
            assert main([
                "evaluate", *base, "--out-dir", "evaluate",
                "--model-artifact", f"train/model_{model}_{vec}.json",
                "--vectorizer-artifact", f"train/vectorizer_{vec}.json",
            ]) == 0
    short = [flag for model in MODELS for flag in SHORT[model]]
    assert main(["compare", *base, *short, "--out-dir", "compare"]) == 0
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for command in ("stats", "train", "evaluate", "compare")
        for path in sorted((workdir / command).iterdir())
    }


GOLDEN = {
    "fixture": {
        "compare/comparison.csv":
            "6ea4b885c590b5fef064d80641afe10d8b3e8e00a1402a89bb21d1c0a4bb95e2",
        "compare/comparison.json":
            "9d3d82497e4adcb901f9c952a2c21d0e73da3d69e6b596dcac1f55bcfb528364",
        "compare/comparison.txt":
            "a11b66c8a60ad78d5d6cb69d4af0ec90342b897f3cba389b859aac0f9d63d2c8",
        "compare/report_logreg_bow.json":
            "7873cfda4d2d4b22a875364900115d20bfb79fb1c53fdb1cf0d89b43633ceb6a",
        "compare/report_logreg_tfidf.json":
            "04e858ae3c47d6e6157b00d501391a7a3cbc3bb4e59f113e4e9e90715aa71a7e",
        "compare/report_mnb_bow.json":
            "b306a0f8500999f7dda04c3fd86087a1f5be73ebc818e1aea9e6d4674ea65d01",
        "compare/report_mnb_tfidf.json":
            "a46e6388315b4337cdfec2c772a1ced0b980621d8b252487fe0d08d4816ac2ad",
        "compare/report_rf_bow.json":
            "6560b2225959436499876bd80c0d747e229a02c061d17496d323a5da4c4cde4d",
        "compare/report_rf_tfidf.json":
            "b173c295723c532e2029d2c51f08b788ae668389c4e5a8dde31d66f6868ba503",
        "compare/report_svm_bow.json":
            "777717679cebfdbd50b894e338a2ae8d9662b5e5ecb37a5fe55d506f42f5318a",
        "compare/report_svm_tfidf.json":
            "aeb8739597aa14120ea31d3656fcada88aa13e2adea5092967ec02b03c0dfae6",
        "evaluate/report_logreg_bow.csv":
            "27aea76169568f26de33c6315270e98da4b92b8d1208296985f804f3bc64373f",
        "evaluate/report_logreg_bow.json":
            "7873cfda4d2d4b22a875364900115d20bfb79fb1c53fdb1cf0d89b43633ceb6a",
        "evaluate/report_logreg_bow.txt":
            "8f5e4e5be61a10dc45bba87b9ebee98f200b551e051c92fa08127d3954c2d987",
        "evaluate/report_logreg_tfidf.csv":
            "527aef4ef2b3bc0491b827dd3e391a829b5b570b49473e686100a88406d0bbe6",
        "evaluate/report_logreg_tfidf.json":
            "04e858ae3c47d6e6157b00d501391a7a3cbc3bb4e59f113e4e9e90715aa71a7e",
        "evaluate/report_logreg_tfidf.txt":
            "85e5a31ab3495171ee77736f375cb9602b52819eb3fc831581ebdf885f9af129",
        "evaluate/report_mnb_bow.csv":
            "27aea76169568f26de33c6315270e98da4b92b8d1208296985f804f3bc64373f",
        "evaluate/report_mnb_bow.json":
            "b306a0f8500999f7dda04c3fd86087a1f5be73ebc818e1aea9e6d4674ea65d01",
        "evaluate/report_mnb_bow.txt":
            "8f5e4e5be61a10dc45bba87b9ebee98f200b551e051c92fa08127d3954c2d987",
        "evaluate/report_mnb_tfidf.csv":
            "527aef4ef2b3bc0491b827dd3e391a829b5b570b49473e686100a88406d0bbe6",
        "evaluate/report_mnb_tfidf.json":
            "a46e6388315b4337cdfec2c772a1ced0b980621d8b252487fe0d08d4816ac2ad",
        "evaluate/report_mnb_tfidf.txt":
            "85e5a31ab3495171ee77736f375cb9602b52819eb3fc831581ebdf885f9af129",
        "evaluate/report_rf_bow.csv":
            "55bc54ac99f0a1a935540455b3df9599fd97008a782c5d08fe15ac46118c146f",
        "evaluate/report_rf_bow.json":
            "6560b2225959436499876bd80c0d747e229a02c061d17496d323a5da4c4cde4d",
        "evaluate/report_rf_bow.txt":
            "d9bb4e30897ba798a2da7b5095aeae9720955427ad3eca66dbe7e59a7c811d4a",
        "evaluate/report_rf_tfidf.csv":
            "55bc54ac99f0a1a935540455b3df9599fd97008a782c5d08fe15ac46118c146f",
        "evaluate/report_rf_tfidf.json":
            "b173c295723c532e2029d2c51f08b788ae668389c4e5a8dde31d66f6868ba503",
        "evaluate/report_rf_tfidf.txt":
            "d9bb4e30897ba798a2da7b5095aeae9720955427ad3eca66dbe7e59a7c811d4a",
        "evaluate/report_svm_bow.csv":
            "527aef4ef2b3bc0491b827dd3e391a829b5b570b49473e686100a88406d0bbe6",
        "evaluate/report_svm_bow.json":
            "777717679cebfdbd50b894e338a2ae8d9662b5e5ecb37a5fe55d506f42f5318a",
        "evaluate/report_svm_bow.txt":
            "85e5a31ab3495171ee77736f375cb9602b52819eb3fc831581ebdf885f9af129",
        "evaluate/report_svm_tfidf.csv":
            "9fce934a194fac4bd4f90c9c376a49212961fd62d0eeef0247cd1255489423a0",
        "evaluate/report_svm_tfidf.json":
            "aeb8739597aa14120ea31d3656fcada88aa13e2adea5092967ec02b03c0dfae6",
        "evaluate/report_svm_tfidf.txt":
            "7a3506bcb4c602476ab3426c2a0d4485026f58676ef7310c939e9d7f5723719f",
        "stats/stats.csv":
            "0aef477e51aa6612bab772f9c1290fef0322daf94d00dde9f67f15857504f165",
        "stats/stats.json":
            "46078193ea03d3e0d9aa0c53dc46c90daaba57fe2e0de7d1a077f004df377a9c",
        "stats/stats.txt":
            "4ae47094ae51426612bc3d52ab07f94572ffacaa264c0f1004714c0a011037d7",
        "train/model_logreg_bow.json":
            "9433ab7c48ea3796731e476e8dba69a980ad14b53142660f05f8cdad8d447075",
        "train/model_logreg_tfidf.json":
            "960107114498ef3bad22a51b44cee48b0419f752e4701d09942f6042d086719b",
        "train/model_mnb_bow.json":
            "1d627630889106441fa33075e071cee1d1975808d381d2b1cd269f1ebd80f23d",
        "train/model_mnb_tfidf.json":
            "f9b17937a580d70a04f1a9a517919bb9d9e02b679dfd066a210e595ae0d3ad77",
        "train/model_rf_bow.json":
            "66ee72c115f867a75e333234feb4d44afbdebb5849900e5e45c4d5a65cac5f54",
        "train/model_rf_tfidf.json":
            "c425661d46873db01e3614c74f82ef1c1fad5643b01ed44322d4ca7a202b925b",
        "train/model_svm_bow.json":
            "dbcbac2048f21aaf91c32c4552c03a905340c9a2ccc63b81cb21bf47e321424d",
        "train/model_svm_tfidf.json":
            "f5603673502d5a3cfaa44e84c1559aef400d9f03d88b60d3fb67a6bf5f09ad2f",
        "train/vectorizer_bow.json":
            "f2b2ed97706b6278ce11a75941484a4456ac09dd40a9d8b24abd8a524490e6fb",
        "train/vectorizer_tfidf.json":
            "5dc723d7abbfe9d54ab14161119e668f2383bd20076df30d910aa15d68296515",
    },
    "synthetic": {
        "compare/comparison.csv":
            "3ca5733816869f25c45f1252cd69378ceebc0391d206af843946cae353a88f95",
        "compare/comparison.json":
            "6cfa26c0e63b8591b9569cecbbe5909015408e20c78f00f2c2bd9f876ac2dd4c",
        "compare/comparison.txt":
            "e85152f8e8861d5ec801e65d26ae54221a79d108a02b690ce0451fc54315d8f4",
        "compare/report_logreg_bow.json":
            "5e0befc729a9a8273032497fa74cd5130f3809b45336250c89c09dec10addf04",
        "compare/report_logreg_tfidf.json":
            "b3d0e6b7f07e56cfc807a4b1ad64d8c5b359da69c27759def2c84827a9b63ddd",
        "compare/report_mnb_bow.json":
            "1ce8c38008d84d617baf9a0487d08ec1e8ae2c4b47a0a23dfea56801fc7c3659",
        "compare/report_mnb_tfidf.json":
            "8a479f9fc12be9a01dae4ae388038ed5cec09523412c337cd8fda0df37507061",
        "compare/report_rf_bow.json":
            "02363e37083ddbd83826dfe5dc39f8b2d2e13ede43f61ed6e77287ce1059d18a",
        "compare/report_rf_tfidf.json":
            "cbb5caaae768fddf35291cc2ee82b75840a54cdeaa60ad83f280fdf086359b69",
        "compare/report_svm_bow.json":
            "54225e4cbd5583be2ee0cb0ea82db98c5c0e29f857a56046bb49e2eb510ec3a2",
        "compare/report_svm_tfidf.json":
            "193abef03ef9a14039249b4364b4f2cd1c9abea3bd67caa0cc771a2254452b2c",
        "evaluate/report_logreg_bow.csv":
            "895536c94200123c682f1f3e7c11fd30507b5785faa351549e87343be61f9f53",
        "evaluate/report_logreg_bow.json":
            "5e0befc729a9a8273032497fa74cd5130f3809b45336250c89c09dec10addf04",
        "evaluate/report_logreg_bow.txt":
            "476dc3701d9242acd4a0ed3d9cc589c6eb56d6dc44e29380a4258c6822b1b416",
        "evaluate/report_logreg_tfidf.csv":
            "73b624cbdae12aefd555bb1f0b7ff1f026b90fe6e9bb15d8b29ce4bee989b3aa",
        "evaluate/report_logreg_tfidf.json":
            "b3d0e6b7f07e56cfc807a4b1ad64d8c5b359da69c27759def2c84827a9b63ddd",
        "evaluate/report_logreg_tfidf.txt":
            "5c3d60fba55b0f911fc909dd2bc96f6a9e6752ab1afe1a29628be43974a4ab32",
        "evaluate/report_mnb_bow.csv":
            "acc10223c122517a5d0f485f059326afb8a5a50dd7357361d7c66dbddfaa2aef",
        "evaluate/report_mnb_bow.json":
            "1ce8c38008d84d617baf9a0487d08ec1e8ae2c4b47a0a23dfea56801fc7c3659",
        "evaluate/report_mnb_bow.txt":
            "0a4e36f4c0c8fc9b4f6f21f3a05b3753f8ad23e648d9de226236b4428893eb29",
        "evaluate/report_mnb_tfidf.csv":
            "2b7101d1ec67bcdbb0cda98ea82e17d9984b71c3bb0124cc2772b06997def133",
        "evaluate/report_mnb_tfidf.json":
            "8a479f9fc12be9a01dae4ae388038ed5cec09523412c337cd8fda0df37507061",
        "evaluate/report_mnb_tfidf.txt":
            "8e87ed49fb8c6d2362a34618aa63ffd617a1437e43767974852d7f16ad1642c9",
        "evaluate/report_rf_bow.csv":
            "47fc305723246ad7c58db084c580b04affdf031da10d2d323856d9df94de33e7",
        "evaluate/report_rf_bow.json":
            "02363e37083ddbd83826dfe5dc39f8b2d2e13ede43f61ed6e77287ce1059d18a",
        "evaluate/report_rf_bow.txt":
            "b36eff05062c007e430de05764fa50d60b6b023be012e5fb4258c3af07ab3eea",
        "evaluate/report_rf_tfidf.csv":
            "47fc305723246ad7c58db084c580b04affdf031da10d2d323856d9df94de33e7",
        "evaluate/report_rf_tfidf.json":
            "cbb5caaae768fddf35291cc2ee82b75840a54cdeaa60ad83f280fdf086359b69",
        "evaluate/report_rf_tfidf.txt":
            "b36eff05062c007e430de05764fa50d60b6b023be012e5fb4258c3af07ab3eea",
        "evaluate/report_svm_bow.csv":
            "2b7101d1ec67bcdbb0cda98ea82e17d9984b71c3bb0124cc2772b06997def133",
        "evaluate/report_svm_bow.json":
            "54225e4cbd5583be2ee0cb0ea82db98c5c0e29f857a56046bb49e2eb510ec3a2",
        "evaluate/report_svm_bow.txt":
            "8e87ed49fb8c6d2362a34618aa63ffd617a1437e43767974852d7f16ad1642c9",
        "evaluate/report_svm_tfidf.csv":
            "2b7101d1ec67bcdbb0cda98ea82e17d9984b71c3bb0124cc2772b06997def133",
        "evaluate/report_svm_tfidf.json":
            "193abef03ef9a14039249b4364b4f2cd1c9abea3bd67caa0cc771a2254452b2c",
        "evaluate/report_svm_tfidf.txt":
            "8e87ed49fb8c6d2362a34618aa63ffd617a1437e43767974852d7f16ad1642c9",
        "stats/stats.csv":
            "3c58237a501eb87d523cbe8b64cbf4dab8b90eba4e77104a39ff591828111e7a",
        "stats/stats.json":
            "57ebf970c5fc434adc9bfcea9f8a2ef05af5cb0462d079bc89620a49a3f4471f",
        "stats/stats.txt":
            "d6211ac1cf448191b798226881fe198379982244dd8da24a1011bd03a28ff3ff",
        "train/model_logreg_bow.json":
            "c43a61ab079e8666f59d9d155f9e734c15c61db37131c83f1a40a0c20385612d",
        "train/model_logreg_tfidf.json":
            "5ddf3890b01037d98f4a46e8dd2cff2f582a9e3e3dd073c70fc5b1be291b1666",
        "train/model_mnb_bow.json":
            "e677ceccf01a8faeb3a7e6da11bd8b631f2e5ab87423f3f2b4276f3a55062fd8",
        "train/model_mnb_tfidf.json":
            "7cece7a5f17491fc5f1b1a1bb4e199d2a2d988ca1d656241823afb32251ab9cf",
        "train/model_rf_bow.json":
            "a17d54a9cf175292f67bf98c1a0610119b163df94c28532103c0514fa10f9eb0",
        "train/model_rf_tfidf.json":
            "94b167e125ba20c6dfce462bfc632e244dddc4c1bec6fda7fb1b5beb2d13669f",
        "train/model_svm_bow.json":
            "d7883008ae2a317f3d2cc78bc02c7633db92b6c95003a8b2f42e8bf86617b45c",
        "train/model_svm_tfidf.json":
            "a6b89677ed08ce7bdb837d336cc4fd72e8090bd5407fdd4db02f9886d465cb9e",
        "train/vectorizer_bow.json":
            "c6bbe61c8aff0e89d265ff7211569abd7d5a5661cc11891ea34b75acadaea2ea",
        "train/vectorizer_tfidf.json":
            "ab1ff5c74f48d05974a27f8842731aa78fb8177d784d7db9ebf3be76d661e53d",
    },
    "unicode": {
        "compare/comparison.csv":
            "a9778181943a0638afd9c1a8b7a3fb6405563f3acfce07bc68e57dbfaed087d6",
        "compare/comparison.json":
            "9078e081a21bac751b2c7a6c619d52f00160ca9b89521cfd94d29dab7fe22df4",
        "compare/comparison.txt":
            "35e989ac046120b64e5f8b94f8f7c0ea12c078faef282f9ebaa790c6fa3bd6d9",
        "compare/report_logreg_bow.json":
            "a8a4248005ded9c626658fb9b7577dac02578bece62fb2c618ea2911269e2589",
        "compare/report_logreg_tfidf.json":
            "b3d0e6b7f07e56cfc807a4b1ad64d8c5b359da69c27759def2c84827a9b63ddd",
        "compare/report_mnb_bow.json":
            "bdc7d654fae2e548df35515902d1a66c694d10d349217b2fbf08ccc3e4d6bf8a",
        "compare/report_mnb_tfidf.json":
            "8a479f9fc12be9a01dae4ae388038ed5cec09523412c337cd8fda0df37507061",
        "compare/report_rf_bow.json":
            "c4a16671b7fcccce13c39cf8bfd5d8de2f50075bb9987ab8096ba4883c3a36cd",
        "compare/report_rf_tfidf.json":
            "129f80e0b255501ac32071160b897b07c266f67c0956d2cc5bd3cb9d8bcc9d83",
        "compare/report_svm_bow.json":
            "54225e4cbd5583be2ee0cb0ea82db98c5c0e29f857a56046bb49e2eb510ec3a2",
        "compare/report_svm_tfidf.json":
            "193abef03ef9a14039249b4364b4f2cd1c9abea3bd67caa0cc771a2254452b2c",
        "evaluate/report_logreg_bow.csv":
            "de70c22d52706a8b76742f4b91ae7d1be80de11e6b21a026470b59385ae19322",
        "evaluate/report_logreg_bow.json":
            "a8a4248005ded9c626658fb9b7577dac02578bece62fb2c618ea2911269e2589",
        "evaluate/report_logreg_bow.txt":
            "de21ffbff02bb354fe08e2496e141e6910194a2382c761c49c1d81e16dcc1ce4",
        "evaluate/report_logreg_tfidf.csv":
            "73b624cbdae12aefd555bb1f0b7ff1f026b90fe6e9bb15d8b29ce4bee989b3aa",
        "evaluate/report_logreg_tfidf.json":
            "b3d0e6b7f07e56cfc807a4b1ad64d8c5b359da69c27759def2c84827a9b63ddd",
        "evaluate/report_logreg_tfidf.txt":
            "5c3d60fba55b0f911fc909dd2bc96f6a9e6752ab1afe1a29628be43974a4ab32",
        "evaluate/report_mnb_bow.csv":
            "2b7101d1ec67bcdbb0cda98ea82e17d9984b71c3bb0124cc2772b06997def133",
        "evaluate/report_mnb_bow.json":
            "bdc7d654fae2e548df35515902d1a66c694d10d349217b2fbf08ccc3e4d6bf8a",
        "evaluate/report_mnb_bow.txt":
            "8e87ed49fb8c6d2362a34618aa63ffd617a1437e43767974852d7f16ad1642c9",
        "evaluate/report_mnb_tfidf.csv":
            "2b7101d1ec67bcdbb0cda98ea82e17d9984b71c3bb0124cc2772b06997def133",
        "evaluate/report_mnb_tfidf.json":
            "8a479f9fc12be9a01dae4ae388038ed5cec09523412c337cd8fda0df37507061",
        "evaluate/report_mnb_tfidf.txt":
            "8e87ed49fb8c6d2362a34618aa63ffd617a1437e43767974852d7f16ad1642c9",
        "evaluate/report_rf_bow.csv":
            "5187593bcff8ef1ee3c4ba3c8bcc4cfb75174bdd77221cf55c7f4f74c7656502",
        "evaluate/report_rf_bow.json":
            "c4a16671b7fcccce13c39cf8bfd5d8de2f50075bb9987ab8096ba4883c3a36cd",
        "evaluate/report_rf_bow.txt":
            "d7202c364acc289d6f2aa69ccbc7e16d97214e216e7fb2c290ed445df12cb8f4",
        "evaluate/report_rf_tfidf.csv":
            "ca10930cf594b2e1494d50e0c0a008263e87c160410ffe12f05b01ecb79a7941",
        "evaluate/report_rf_tfidf.json":
            "129f80e0b255501ac32071160b897b07c266f67c0956d2cc5bd3cb9d8bcc9d83",
        "evaluate/report_rf_tfidf.txt":
            "eaf6629fa7f2581b52906b9ab984c9060282845b7b9b7646d79d60e885403774",
        "evaluate/report_svm_bow.csv":
            "2b7101d1ec67bcdbb0cda98ea82e17d9984b71c3bb0124cc2772b06997def133",
        "evaluate/report_svm_bow.json":
            "54225e4cbd5583be2ee0cb0ea82db98c5c0e29f857a56046bb49e2eb510ec3a2",
        "evaluate/report_svm_bow.txt":
            "8e87ed49fb8c6d2362a34618aa63ffd617a1437e43767974852d7f16ad1642c9",
        "evaluate/report_svm_tfidf.csv":
            "2b7101d1ec67bcdbb0cda98ea82e17d9984b71c3bb0124cc2772b06997def133",
        "evaluate/report_svm_tfidf.json":
            "193abef03ef9a14039249b4364b4f2cd1c9abea3bd67caa0cc771a2254452b2c",
        "evaluate/report_svm_tfidf.txt":
            "8e87ed49fb8c6d2362a34618aa63ffd617a1437e43767974852d7f16ad1642c9",
        "stats/stats.csv":
            "3c58237a501eb87d523cbe8b64cbf4dab8b90eba4e77104a39ff591828111e7a",
        "stats/stats.json":
            "57ebf970c5fc434adc9bfcea9f8a2ef05af5cb0462d079bc89620a49a3f4471f",
        "stats/stats.txt":
            "d6211ac1cf448191b798226881fe198379982244dd8da24a1011bd03a28ff3ff",
        "train/model_logreg_bow.json":
            "3236e1b0f8528b56cdf40d3094ba8602b92048e0a658a113a5118b94f94be7a5",
        "train/model_logreg_tfidf.json":
            "f51289fff3df41350948006725f7da1a129e1e247bbc98721dda6a6497d80900",
        "train/model_mnb_bow.json":
            "cb79c39c47576a2a858d6917ab904085f8b2005b35b88294ffa3cea7fe6f7a78",
        "train/model_mnb_tfidf.json":
            "f95626065c4a66ec98312cc14ce0cbedcf5cbef382b908146970f22887ed0559",
        "train/model_rf_bow.json":
            "abe4dd3a3ede09b196376703007680b5feb211a60e66ae33774ad6eb6b2963f9",
        "train/model_rf_tfidf.json":
            "8bc6076410e836ba2fc681905e1a165b0179dc0fc54cb3f49179ae33eb3b321c",
        "train/model_svm_bow.json":
            "b9bc4a1f59f4798e08338122bee5f5fbe8da7f9eef22567a8c6c4ada2715f642",
        "train/model_svm_tfidf.json":
            "329452578b6814d3e2ff536fe5de7e2a76801c1cbbca045f0b4f2bdaca203a41",
        "train/vectorizer_bow.json":
            "e01f8b074a3c6da797bf7a393b0c959850dab80e9f7dd9c258a8760adf7aeec5",
        "train/vectorizer_tfidf.json":
            "4d298602ec2981265ec646f8a147cc7259f5599536a51dcad89d6eb11ce4176f",
    },
}


# The fixture's train/* digests under format version 1: model artifacts
# before version 2, and vectorizer artifacts before the compact writer.
GOLDEN_V1 = {
    "model_logreg_bow.json": "648cc2d606e12027a037ee0cde4155751b8f5149eab25039a8b6b00f4eeb1622",
    "model_logreg_tfidf.json": "5be518b97e22560f09a3c7f77821e474ee1a931e4206084e88622f9531fec6a4",
    "model_mnb_bow.json": "c590ce9651e00720eeacd7919bf4d2dcd1ed02412e44656e4a68d97ca4c7660a",
    "model_mnb_tfidf.json": "b1e506494fb6366feaf566abcb07e4c9e30f130d04abab515dc02064669be0c6",
    "model_rf_bow.json": "77ac0b2207f4df58a9031c0c59a4dcdf6949941cca91fd95b8c9a130890d66fb",
    "model_rf_tfidf.json": "7051a8572cafe2223716ce37c4d5c5c25328c5c24d97fa3d7e9d5caf4d41c664",
    "model_svm_bow.json": "df77e1f0aac23fae11e9cebe70c36a32d08c4188ebbd5c3e383446e12b974331",
    "model_svm_tfidf.json": "c73538fe14f04dc8ad9d677df2bc94ca7efcd9d9cbc9dfe16cf5c995e203145c",
    "vectorizer_bow.json": "c6f52fd46d7615c7b4271673f22f4219d9ef2351a1f30239e3768bdac8ee4318",
    "vectorizer_tfidf.json": "ddc45ee9fe992e29548abd93a5663c1f8e7121581d46a9ddba36b1ff2ce9fbdd",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{corpus name: (workdir, digests)}, computed once for the module."""
    runs = {}
    for name in GOLDEN:
        workdir = tmp_path_factory.mktemp(name)
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(workdir)
            runs[name] = workdir, run_everything(workdir, name)
    return runs


@pytest.mark.parametrize("name", ["fixture", "synthetic", "unicode"])
def test_every_output_file_matches_its_golden_digest(outputs, name):
    assert outputs[name][1] == GOLDEN[name]


def test_synthetic_forest_trees_have_more_than_one_node(outputs):
    workdir = outputs["synthetic"][0]
    for vec in VECTORIZERS:
        doc = json.loads((workdir / "train" / f"model_rf_{vec}.json").read_text())
        assert all(len(tree["feature"]) > 1 for tree in doc["params"]["trees"])


def test_v1_fixtures_keep_their_version_1_digests():
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(V1_ARTIFACTS.iterdir())
    } == GOLDEN_V1


def test_v1_fixtures_hold_todays_fixture_models(outputs, tmp_path):
    # A version 1 model loads as the model it was saved from: saved again, it
    # is byte for byte the version 2 artifact that training writes today.
    train = outputs["fixture"][0] / "train"
    for path in sorted(V1_ARTIFACTS.glob("model_*.json")):
        today = train / path.name
        assert as_version_1(json.loads(today.read_text())) == json.loads(path.read_text())
        vectorizer = path.stem.rsplit("_", 1)[1]
        save_model(load_model(str(path)), str(tmp_path / path.name), vectorizer)
        assert (tmp_path / path.name).read_bytes() == today.read_bytes(), path.name


def test_v1_fixtures_evaluate_to_the_golden_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "tweets.csv", "fixture")
    for model in MODELS:
        for vec in VECTORIZERS:
            assert main([
                "evaluate", "--data", "tweets.csv", "--seed", "2", "--out-dir", "evaluate",
                "--model-artifact", str(V1_ARTIFACTS / f"model_{model}_{vec}.json"),
                "--vectorizer-artifact", str(V1_ARTIFACTS / f"vectorizer_{vec}.json"),
            ]) == 0
    digests = {
        f"evaluate/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "evaluate").iterdir())
    }
    assert digests == {k: v for k, v in GOLDEN["fixture"].items() if k.startswith("evaluate/")}
