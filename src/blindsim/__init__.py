"""Detector-blinding attack simulator for entanglement-based QKD.

The package models threshold detector stations driven into linear mode by
bright light, an eavesdropper source that exploits that regime in BBM92 and
Ekert sessions, and the analysis layer (correlations, CHSH, efficiencies,
fair-sampling monitors) used to study when the attack stays invisible.
"""

from __future__ import annotations

from .analysis import (
    EfficiencyReport,
    FairSamplingReport,
    QUANTUM_CHSH_MAX,
    chsh_bound_conditional,
    chsh_bound_detection,
    estimate_efficiencies,
    fair_sampling_monitor,
    oracle_corr_bbm92,
    oracle_corr_ekert,
    oracle_corr_honest,
    oracle_eta,
    oracle_eta_conditional,
    oracle_weak_detection_prob,
    weak_side_detection_rate,
)
from .optics import Outcome, canon_angle, wrap_diff
from .protocol import (
    BBM92_SETTINGS,
    CHSH_QUAD,
    ChshResult,
    CorrelationEstimate,
    EKERT_ALICE_SETTINGS,
    EKERT_BOB_SETTINGS,
    ProtocolConfig,
    ProtocolKind,
    SessionCounts,
    SessionRecords,
    SiftedKey,
    bbm92_qber,
    chsh_score,
    chsh_select,
    chsh_value,
    correlation_estimate,
    eve_knowledge_audit,
    eve_prediction_report,
    public_rounds,
    run_session,
    sift_bbm92,
)
from .sources import (
    DEFAULT_ALPHA,
    ScenarioConfig,
    ScenarioKind,
    WeakSide,
    WeakSidePolicy,
    weak_intensity,
)

__version__ = "0.1.0"

__all__ = [
    "BBM92_SETTINGS",
    "CHSH_QUAD",
    "ChshResult",
    "CorrelationEstimate",
    "DEFAULT_ALPHA",
    "EKERT_ALICE_SETTINGS",
    "EKERT_BOB_SETTINGS",
    "EfficiencyReport",
    "FairSamplingReport",
    "Outcome",
    "ProtocolConfig",
    "ProtocolKind",
    "QUANTUM_CHSH_MAX",
    "ScenarioConfig",
    "ScenarioKind",
    "SessionCounts",
    "SessionRecords",
    "SiftedKey",
    "WeakSide",
    "WeakSidePolicy",
    "bbm92_qber",
    "canon_angle",
    "chsh_bound_conditional",
    "chsh_bound_detection",
    "chsh_score",
    "chsh_select",
    "chsh_value",
    "correlation_estimate",
    "estimate_efficiencies",
    "eve_knowledge_audit",
    "eve_prediction_report",
    "fair_sampling_monitor",
    "oracle_corr_bbm92",
    "oracle_corr_ekert",
    "oracle_corr_honest",
    "oracle_eta",
    "oracle_eta_conditional",
    "oracle_weak_detection_prob",
    "public_rounds",
    "run_session",
    "sift_bbm92",
    "weak_intensity",
    "weak_side_detection_rate",
    "wrap_diff",
    "__version__",
]
