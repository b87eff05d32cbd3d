"""The paper's contribution: InQuest and its comparators (pure numpy).

Submodules follow the paper's decomposition:

- ``sampling``   — uniform / reservoir draws and budget rounding,
- ``stratify``   — quantile strata and the EWMA used for dynamic strata,
- ``allocation`` — Proposition 1's optimal allocation and its estimate,
- ``estimator``  — per-cell sufficient statistics, ``GetPrediction``, its CI,
- ``inquest``    — the segment-at-a-time ``InQuestState`` (Algorithms 1-2),
  whose ``InQuestConfig`` is also Section 5.1's fixed-strata baseline,
- ``baselines``  — Section 5.1's uniform-sampling baseline,
- ``abae``       — the ABae batch comparator,
- ``cost``       — Figure 9's time/dollar model.
"""
