"""Statistical affinity measures between unit behaviors and hypotheses.

DeepBase natively provides 8 measures plus 2 naive baselines (Section 4.3):

===============================  =========  =================================  ====
measure                          type       early-stop criterion               kept
===============================  =========  =================================  ====
CorrelationScore                 indep.     Fisher-transform confidence bound  yes
SpearmanCorrelationScore         indep.     Fisher bound on rank statistics    yes
DiffMeansScore                   indep.     standard error of mean difference  yes
MutualInfoScore                  indep.     score-delta window                 no
JaccardScore                     indep.     score-delta window                 no
LogRegressionScore               joint      held-out-score window              no
LinearProbeScore                 joint      score-delta window                 yes
MultivariateMutualInfoScore      joint      score-delta window                 no
RandomClassScore (baseline)      indep.     immediate                          yes
MajorityClassScore (baseline)    indep.     immediate                          yes
MulticlassLogRegScore (Fig. 11)  joint      held-out-score window              no
===============================  =========  =================================  ====

All measures implement the incremental ``process_block`` API of Section
5.2.2 so the streaming pipeline can terminate the moment scores converge.
A measure's state holds only its math: block statistics (*kept*: a repeat
folds them) are ``base.MeasureState``'s protocol, calibration buffering
(Jaccard, both MI measures) is ``base.CalibratedState``, held-out probing
(both logistic probes) is ``logreg._HeldOutState``, and the probes step
through :class:`repro.nn.optim.Adam`.
"""

from repro.measures.base import Measure, MeasureResult, MeasureState
from repro.measures.baselines import MajorityClassScore, RandomClassScore
from repro.measures.correlation import (CorrelationScore,
                                        SpearmanCorrelationScore)
from repro.measures.jaccard import JaccardScore
from repro.measures.logreg import LogRegressionScore, MulticlassLogRegScore
from repro.measures.means import DiffMeansScore
from repro.measures.mutual_info import (MultivariateMutualInfoScore,
                                        MutualInfoScore)
from repro.measures.probes import LinearProbeScore
from repro.measures.registry import get_measure, list_measures

__all__ = [
    "CorrelationScore",
    "DiffMeansScore",
    "JaccardScore",
    "LinearProbeScore",
    "LogRegressionScore",
    "MajorityClassScore",
    "Measure",
    "MeasureResult",
    "MeasureState",
    "MulticlassLogRegScore",
    "MultivariateMutualInfoScore",
    "MutualInfoScore",
    "RandomClassScore",
    "SpearmanCorrelationScore",
    "get_measure",
    "list_measures",
]
