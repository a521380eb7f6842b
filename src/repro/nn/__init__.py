"""From-scratch deep-learning substrate (paper Section III-A.1a).

NumPy implementation of the paper's DNN: feed-forward evaluation
(Eq. 5), back-propagation (Eq. 6-7), weight updates (Eq. 8), epoch
training with validation convergence.
"""

from .activations import SIGMOID, Activation, get_activation
from .initializers import xavier_uniform
from .layers import DenseLayer
from .losses import MSE, Loss, pinball
from .network import FeedForwardNetwork
from .optimizers import SGD, Adam, Optimizer
from .training import TrainingConfig, TrainingHistory, train, train_validation_split

__all__ = [
    "SIGMOID",
    "Activation",
    "get_activation",
    "xavier_uniform",
    "DenseLayer",
    "MSE",
    "Loss",
    "pinball",
    "FeedForwardNetwork",
    "SGD",
    "Adam",
    "Optimizer",
    "TrainingConfig",
    "TrainingHistory",
    "train",
    "train_validation_split",
]
