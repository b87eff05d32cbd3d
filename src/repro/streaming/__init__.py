"""Structured Streaming deployment of InQuest.

One parquet file = one tumbling-window segment = one micro-batch; the
``foreachBatch`` sink drives the same :class:`repro.core.inquest.InQuestState`
the offline kernels use, so streaming estimates are bit-identical to the
batch path at equal seeds (a test asserts this).
"""
