#!/bin/sh
# The runtime job's sentibench commands, run on the fixture CSV.
#
# Writes out/, out-pre/, out-half/, out-fmt/ and out-v1/ under the current directory
# and reads its inputs from the repository this script sits in. Runs the installed
# `sentibench` unless SENTIBENCH names another command, for example
#   SENTIBENCH="python -m sentibench.cli" sh ci/runtime.sh
# PYTHON (default `python`) reads back a written artifact. The first
# command that fails stops the script with its exit status.
set -eu
# a NumPy overflow or NaN warning fails its command with one error[internal]
# line, as pyproject.toml's filterwarnings fails a tier-1 test
export PYTHONWARNINGS=error::RuntimeWarning

ROOT=$(cd "$(dirname "$0")/.." && pwd)
DATA=$ROOT/tests/data/fixture_tweets.csv
SENTIBENCH=${SENTIBENCH:-sentibench}  # split into words where it is run

echo "== stats, compare, train and evaluate on the fixture"
$SENTIBENCH stats --data "$DATA" --out-dir out
$SENTIBENCH compare --data "$DATA" --out-dir out --svm-epochs 2 --logreg-epochs 2 --rf-trees 2
$SENTIBENCH train --data "$DATA" --out-dir out --model rf --vectorizer tfidf --rf-trees 2
$SENTIBENCH evaluate --data "$DATA" --out-dir out \
  --model-artifact out/model_rf_tfidf.json --vectorizer-artifact out/vectorizer_tfidf.json

echo "== train and evaluate with stop-word and lemma-exception files"
# the files' contents reach the vectorizer artifact, and evaluate reads them back
$SENTIBENCH train --data "$DATA" --out-dir out-pre --model mnb --vectorizer bow \
  --stopwords "$ROOT/src/sentibench/data/stopwords.txt" \
  --lemma-exceptions "$ROOT/tests/data/lemma_overrides.txt"
$SENTIBENCH evaluate --data "$DATA" --out-dir out-pre \
  --model-artifact out-pre/model_mnb_bow.json \
  --vectorizer-artifact out-pre/vectorizer_bow.json
${PYTHON:-python} -c "import json, sys; doc = json.load(open('out-pre/vectorizer_bow.json')); sys.exit(doc['preprocessing']['lemma_exceptions'] != {'testing': 'taste'})"

echo "== a failed model write leaves no half artifact pair"
# model_mnb_bow.json is a directory, so train must fail and take the
# vectorizer artifact and its temporary files with it
mkdir -p out-half/model_mnb_bow.json
if $SENTIBENCH train --data "$DATA" --out-dir out-half --model mnb --vectorizer bow; then
  echo "train succeeded with its model path a directory" >&2
  exit 1
fi
if [ "$(ls -A out-half)" != model_mnb_bow.json ]; then
  echo "train left a half artifact pair in out-half: $(ls -A out-half)" >&2
  exit 1
fi

echo "== one output format at a time"
# --format keeps each command to the files of the formats it names
$SENTIBENCH compare --data "$DATA" --out-dir out-fmt --model mnb --format csv
$SENTIBENCH evaluate --data "$DATA" --out-dir out-fmt --format table \
  --model-artifact out/model_rf_tfidf.json --vectorizer-artifact out/vectorizer_tfidf.json
if [ "$(ls -A out-fmt | tr '\n' ' ')" != "comparison.csv report_rf_tfidf.txt " ]; then
  echo "out-fmt holds other files than comparison.csv and report_rf_tfidf.txt: $(ls -A out-fmt)" >&2
  exit 1
fi

echo "== evaluate the committed version 1 artifacts"
# format version 1 must stay readable; seed 2 is the split they were trained on
V1=$ROOT/tests/data/v1
for vec in bow tfidf; do
  for model in svm mnb rf logreg; do
    $SENTIBENCH evaluate --data "$DATA" --seed 2 --out-dir out-v1 \
      --model-artifact "$V1/model_${model}_${vec}.json" \
      --vectorizer-artifact "$V1/vectorizer_${vec}.json"
  done
done
