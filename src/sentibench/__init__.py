"""sentibench: tweet sentiment classification toolkit and benchmark harness.

Built from scratch end to end: CSV ingestion and a seeded, portable
train/test split; tweet cleaning, stop-word removal, and rule-based
lemmatization; binary bag-of-words and tf-idf vectorizers; multinomial
naive Bayes, softmax logistic regression, one-vs-rest linear SVM, and a
random forest; weighted precision/recall/F1 evaluation; and a CLI that
reproduces the full model-by-vectorizer comparison grid. The package
exports nothing: import each name from its own module.

Importing sentibench sets OPENBLAS_NUM_THREADS to 1, unless it is already
set, for the whole process and its children: a BLAS loaded later (scipy's
too) runs one thread, but a caller who imported NumPy first keeps its pool.
"""

import os

# before NumPy loads: OpenBLAS starts a thread pool then, and no sentibench call uses it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
