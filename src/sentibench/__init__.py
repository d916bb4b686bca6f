"""sentibench: tweet sentiment classification toolkit and benchmark harness.

Built from scratch end to end: CSV ingestion and a seeded, portable
train/test split; tweet cleaning, stop-word removal, and rule-based
lemmatization; binary bag-of-words and tf-idf vectorizers; multinomial
naive Bayes, softmax logistic regression, one-vs-rest linear SVM, and a
random forest; weighted precision/recall/F1 evaluation; and a CLI that
reproduces the full model-by-vectorizer comparison grid.

Importing sentibench sets OPENBLAS_NUM_THREADS to 1, unless it is already
set, for the whole process and its children: a BLAS loaded later (scipy's
too) runs one thread, but a caller who imported NumPy first keeps its pool.
"""

import os

# before NumPy loads: OpenBLAS starts a thread pool then, and no sentibench call uses it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .artifacts import (
    load_model,
    load_vectorizer,
    model_from_dict,
    model_to_dict,
    save_model,
    save_vectorizer,
)
from .corpus import (
    Corpus,
    POLARITIES,
    label_frequencies,
    load_dataset,
    parse_polarity,
    seeded_permutation,
    train_test_split,
)
from .errors import (
    ArtifactError,
    ConfigError,
    DatasetError,
    DimensionMismatchError,
    SentibenchError,
    TrainingError,
)
from .metrics import ClassMetrics, MetricsReport, confusion_matrix, evaluate
from .models import (
    LinearSvm,
    MODEL_KINDS,
    MultinomialNaiveBayes,
    RandomForest,
    SoftmaxRegression,
)
from .preprocess import TweetPreprocessor, load_lemma_exceptions, load_stopwords
from .vectorize import (
    BowVectorizer,
    CsrMatrix,
    TfidfVectorizer,
    VECTORIZER_KINDS,
)

__version__ = "0.1.0"
