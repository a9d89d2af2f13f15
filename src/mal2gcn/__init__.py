"""Malware detection on function call graphs.

A graph gets one bag-of-words count vector per function (API names plus
referenced strings), passes through a two-layer graph convolution with a
mean/sum/max readout and a small feed-forward head, and comes out as a
malware probability.  The readout is chosen at training and is part of the
model (``ModelParams.readout``, saved in the model file), so every scoring,
attack and audit uses the readout the model was trained with.  Training can
project the weight matrices onto the
non-negative orthant, which makes the scorer monotone non-decreasing in
every input count: attacks that only add tokens cannot lower the score.
"""

__version__ = "0.1.0"

from .fcg import Corpus, DataError, Fcg, FormatError, FunctionNode, normalize_fcg, validate_fcg
from .featurize import FeatureMatrix, Vocabulary, build_vocabulary, embed_graph, normalize_token
from .gcn import (
    ModelParams,
    NormalizedAdjacency,
    PreparedGraph,
    build_normalized_adjacency,
    forward,
    input_gradient,
    load_model,
    prepare_fcg,
    prepare_graph,
    project_nonnegative,
    save_model,
    score_graphs,
)
from .train import TrainConfig, TrainReport, train
from .attack import (
    AttackConfig,
    AttackReport,
    BenignPool,
    Perturbation,
    apply_perturbation,
    attack_sweep,
    check_monotonicity,
    derive_benign_pool,
    generate_attack,
)
from .synth import SynthConfig, generate_corpus, split_corpus
from .metrics import MetricsReport, compute_metrics
