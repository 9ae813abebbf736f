"""repro.mlcore — from-scratch ML substrate (scikit-learn / LightGBM stand-in).

Implements every model and utility the paper's pipeline uses: the four
classifiers of Table IV (random forest, LGBM, logistic regression, MLP),
the Proctor autoencoder, Min-Max scaling, chi-square feature selection,
stratified splitting / K-fold CV / grid search, and the paper's metrics
(macro F1, false alarm rate, anomaly miss rate). NumPy-only.
"""

from .autoencoder import Autoencoder
from .base import BaseEstimator, ClassifierMixin, clone
from .binning import BinnedDataset, Binner
from .feature_selection import SelectKBest, chi2_scores
from .forest import RandomForestClassifier
from .gbm import LGBMClassifier
from .linear import LogisticRegression
from .metrics import (
    accuracy_score,
    anomaly_miss_rate,
    balanced_accuracy_score,
    matthews_corrcoef,
    classification_report,
    confusion_matrix,
    f1_score,
    false_alarm_rate,
    precision_recall_f1,
    precision_score,
    recall_score,
)
from .mlp import MLPClassifier
from .model_selection import (
    GridSearchCV,
    StratifiedKFold,
    cross_val_score,
    learning_curve,
    train_test_split,
)
from .preprocessing import LabelEncoder, MinMaxScaler
from .tree import DecisionTreeClassifier

__all__ = [
    "Autoencoder",
    "BaseEstimator",
    "BinnedDataset",
    "Binner",
    "ClassifierMixin",
    "DecisionTreeClassifier",
    "GridSearchCV",
    "LGBMClassifier",
    "LabelEncoder",
    "LogisticRegression",
    "MLPClassifier",
    "MinMaxScaler",
    "RandomForestClassifier",
    "SelectKBest",
    "StratifiedKFold",
    "accuracy_score",
    "anomaly_miss_rate",
    "balanced_accuracy_score",
    "chi2_scores",
    "classification_report",
    "clone",
    "confusion_matrix",
    "cross_val_score",
    "f1_score",
    "false_alarm_rate",
    "learning_curve",
    "matthews_corrcoef",
    "precision_recall_f1",
    "precision_score",
    "recall_score",
    "train_test_split",
]
