"""``RAPMiner.run_batch`` against per-case ``run`` over mixed kept sets.

One layout group's cases keep different attribute sets after Algorithm
1, and ``run_batch`` searches them all in one walk over the union
lattice.  Every drawn batch holds a case that keeps one attribute, a
case whose kept set strictly contains it, and a case with no anomalous
leaves, next to cases with random labels, in a drawn order.  Each
result — ranked candidates, the full ``SearchStats`` and the deletion —
must equal a per-case ``run``, and the group runs no more fused layers
than its deepest case searched.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import obs
from repro.core.attribute import AttributeCombination
from repro.core.config import RAPMinerConfig
from repro.core.miner import RAPMiner
from repro.data.dataset import FineGrainedDataset
from repro.data.schema import schema_from_sizes


def pattern(schema, fixed):
    """The combination fixing ``{attribute: element code}``, wildcards elsewhere
    (``schema_from_sizes`` names element ``j`` of attribute ``i`` ``e{i}_{j}``)."""
    parts = [
        f"e{i}_{fixed[i]}" if i in fixed else "*" for i in range(schema.n_attributes)
    ]
    return AttributeCombination.parse("(" + ", ".join(parts) + ")")


@st.composite
def mixed_batches(draw):
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    schema = schema_from_sizes(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = 100.0 + rng.uniform(0.0, 1.0, schema.n_leaves)
    base = FineGrainedDataset.full(schema, v, v.copy())
    a, b = draw(st.permutations(range(len(sizes))))[:2]
    code_a = draw(st.integers(0, sizes[a] - 1))
    code_b = draw(st.integers(0, sizes[b] - 1))
    label_sets = [
        # Keeps {a} only: the labels depend on attribute a alone.
        base.mask_of(pattern(schema, {a: code_a})),
        # Keeps {a, b}, a strict superset of the case above.
        base.mask_of(pattern(schema, {a: code_a, b: code_b})),
        # No anomalous leaves: CP keeps every attribute, the search is skipped.
        np.zeros(schema.n_leaves, dtype=bool),
    ]
    for p in draw(st.lists(st.floats(0.02, 0.6), max_size=3)):
        label_sets.append(rng.random(schema.n_leaves) < p)
    order = draw(st.permutations(range(len(label_sets))))
    datasets = []
    for i in order:
        codes = base.codes.copy() if draw(st.booleans()) else base.codes
        f = v.copy()
        f[label_sets[i]] = v[label_sets[i]] / 0.6
        datasets.append(FineGrainedDataset(schema, codes, v, f, label_sets[i]))
    return datasets


@given(
    mixed_batches(),
    st.floats(0.001, 0.1),
    st.floats(0.3, 0.95),
    st.one_of(st.none(), st.integers(1, 4)),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_union_search_equals_per_case_run(datasets, t_cp, t_conf, max_layer, early_stop):
    config = RAPMinerConfig(
        t_cp=t_cp, t_conf=t_conf, max_layer=max_layer, early_stop=early_stop
    )
    with obs.capture() as collector:
        batch = RAPMiner(config).run_batch(datasets)
    serial = [RAPMiner(config).run(dataset) for dataset in datasets]

    kept = [set(result.deletion.kept_indices) for result in batch]
    assert any(len(k) == 1 for k in kept)
    assert any(k < other for k in kept for other in kept)
    assert any(dataset.n_anomalous == 0 for dataset in datasets)

    for got, want in zip(batch, serial):
        assert got.candidates == want.candidates
        assert got.stats == want.stats
        assert got.deletion == want.deletion

    # One layout group: its fused layers are the deepest case's layers.
    deepest = max(result.stats.deepest_layer_visited for result in batch)
    fused = collector.metrics.value("stacked_layers_fused_total") or 0.0
    assert fused <= deepest
