"""CORP — the paper's primary contribution.

DNN + HMM unused-resource prediction with confidence intervals and the
Eq. 21 preemption gate, complementary job packing, and most-matched VM
selection, assembled into :class:`CorpScheduler`.
"""

from .config import CorpConfig
from .corp import CorpScheduler
from .packing import (
    JobEntity,
    deviation,
    dominant_resource,
    pack_jobs,
    singleton_entities,
)
from .predictor import CorpPredictor, build_training_set
from .preemption import PreemptionGate
from .provisioning import ProvisioningSchedulerBase
from .vm_selection import select_most_matched, select_random_feasible, unused_volume

__all__ = [
    "CorpConfig",
    "CorpScheduler",
    "JobEntity",
    "deviation",
    "dominant_resource",
    "pack_jobs",
    "singleton_entities",
    "CorpPredictor",
    "build_training_set",
    "PreemptionGate",
    "ProvisioningSchedulerBase",
    "select_most_matched",
    "select_random_feasible",
    "unused_volume",
]
