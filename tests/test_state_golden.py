"""Pinned per-segment outputs of a live ``InQuestState`` over a long stream.

``kernel_golden.json`` pins each kernel's segment estimates and its final
running estimate; ``state_golden.json`` pins every segment's ``estimate``,
``running_estimate``, ``budgets`` and ``oracle_calls`` of the streaming
path (strata computed as segments arrive) over 61 segments, so a change
to how the query state is kept must reproduce the running estimate after
every segment, not only the last.  Regenerate (only when a change of
results is intended, and say so) from the repository root with::

    PYTHONPATH=src python -m tests.test_state_golden
"""
import json
from pathlib import Path

import pytest

from repro.core.inquest import InQuestConfig, InQuestState, segment_slices
from tests.test_kernel_golden import golden_stream

GOLDEN = Path(__file__).with_name("state_golden.json")
N, SEG_LEN = 30_100, 500  # T = 61, the last segment 100 records
CONFIGS = {
    "default/n20": dict(n_per_segment=20),
    "default/n200": dict(n_per_segment=200),
    "k5-alpha0.5/n60": dict(n_per_segment=60, k=5, alpha=0.5),
    "fixed-strata/n60": dict(n_per_segment=60, dynamic_strata=False),
    "no-dynamic-alloc/n60": dict(n_per_segment=60, dynamic_alloc=False),
}
SEED = 3
#: The pinned outputs of ``observe_segment``, as JSON-exact values.
FIELDS = {
    "estimate": float,
    "running_estimate": float,
    "budgets": lambda b: [int(x) for x in b],
    "oracle_calls": int,
}


def compute() -> dict:
    """``{"<config>/<mode>/<field>": [value after segment 1, 2, ...]}``."""
    f, pred, proxy = golden_stream(N)
    out = {}
    for name, knobs in sorted(CONFIGS.items()):
        for mode, p in (("pred", pred), ("nopred", pred | True)):
            state = InQuestState(InQuestConfig(**knobs), seed=SEED)
            results = [
                state.observe_segment(f[sl], p[sl], proxy[sl])
                for sl in segment_slices(N, SEG_LEN)
            ]
            for field, cast in FIELDS.items():
                out[f"{name}/{mode}/{field}"] = [cast(r[field]) for r in results]
    return out


@pytest.fixture(scope="module")
def outputs():
    return compute()


def test_state_outputs_bit_identical(outputs):
    golden = json.loads(GOLDEN.read_text())
    assert set(outputs) == set(golden)
    for key, per_segment in golden.items():
        assert len(per_segment) == len(segment_slices(N, SEG_LEN)) >= 50
        for t, (got, want) in enumerate(zip(outputs[key], per_segment, strict=True)):
            # JSON floats round-trip exactly, so == is bit-identity.
            assert got == want, (key, t)


if __name__ == "__main__":
    # One line per key, so a changed value shows as a changed line.
    out = compute()
    lines = [f"{json.dumps(k)}: {json.dumps(out[k])}" for k in sorted(out)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
