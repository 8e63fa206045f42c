"""Aging-aware candidate scoring against the full-network reference.

``MappedNetwork.map_network`` scores layer ``k``'s candidate ranges on
the layers from ``k`` on only, over a selection-batch activation it
computes once per layer (DESIGN.md §11).  The reference below is the
full-network scorer: for every candidate it installs the already-chosen
layers' predicted weights plus the candidate's, then runs
``Sequential.score`` from the raw input.  Both must choose the same
ranges from the same scores, bit for bit, and program the same
resistances.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.device import DeviceConfig
import repro.mapping.network as network_module
from repro.mapping import MappedNetwork
from repro.mapping.aging_aware import AgingAwareMapper
from repro.mapping.linear import LinearWeightMapping
from repro.nn.layers.conv import Conv2D, im2col
from repro.training.networks import build_lenet, build_vggnet

DEVICE = DeviceConfig(pulses_to_collapse=30, write_noise=0.1, n_levels=32)


def reference_predicted_matrix(mapped, r_lo: float, r_hi: float) -> np.ndarray:
    """Effective weights for a hypothetical range, recomputed from scratch."""
    mapping = LinearWeightMapping.from_resistance_range(mapped.software_matrix(), r_lo, r_hi)
    est_lo, est_hi = mapped.estimated_bounds()
    targets = mapped._to_physical(
        np.asarray(mapping.weight_to_resistance(mapped.software_matrix()))
    )
    achieved = mapped._grid.quantize(targets, est_lo, est_hi)
    return np.asarray(mapping.resistance_to_weight(mapped._to_logical(achieved)))


def reference_map_network(network: MappedNetwork, policy, selection_data) -> None:
    """Aging-aware mapping that scores every candidate on the whole network."""
    policy.history = []
    x_sel, y_sel = selection_data
    n = min(len(x_sel), policy.selection_batch)
    predicted = {}
    for mapped in network.layers:

        def score(r_lo, r_hi, mapped=mapped):
            trial = dict(predicted)
            trial[mapped.layer_index] = reference_predicted_matrix(mapped, r_lo, r_hi)
            return network._install_matrices(trial).score(x_sel[:n], y_sel[:n])

        r_lo, r_hi = policy.select_range(mapped, score)
        mapped.set_range(r_lo, r_hi)
        predicted[mapped.layer_index] = reference_predicted_matrix(mapped, r_lo, r_hi)
    for mapped in network.layers:
        mapped.program()


def _aged_network(model, seed: int) -> MappedNetwork:
    """``model`` mapped fresh, then aged unevenly so layers get several candidates."""
    network = MappedNetwork(model, DEVICE, seed=seed)
    network.map_network()
    collapse = DEVICE.make_aging_model().stress_time_to_collapse(
        DEVICE.r_min, DEVICE.r_max, DEVICE.temperature
    )
    rng = np.random.default_rng(seed)
    for mapped in network.layers:
        for _rs, _cs, tile in mapped.tiles.iter_tiles():
            tile.stress_time[...] = rng.uniform(0.0, 0.5 * collapse, tile.stress_time.shape)
            tile.mark_state_dirty()
    return network


def _selection(model, n: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + model.input_shape)
    classes = model.layers[-1].params["W"].shape[1]
    y = np.eye(classes)[rng.integers(0, classes, n)]
    return x, y


def _resistances(network: MappedNetwork):
    return [
        tile.resistance.copy()
        for mapped in network.layers
        for _rs, _cs, tile in mapped.tiles.iter_tiles()
    ]


_MODELS = {
    "lenet": lambda: build_lenet(seed=1),
    "vggnet-shapes-fast": lambda: build_vggnet(width=6, seed=2),
}
_CANDIDATES = {"lenet": 6, "vggnet-shapes-fast": 3}


@pytest.mark.parametrize("batch", [64, 300])
@pytest.mark.parametrize("arch", sorted(_MODELS))
def test_matches_full_network_scoring(arch, batch):
    model = _MODELS[arch]()
    network = _aged_network(model, seed=3)
    reference = copy.deepcopy(network)
    selection = _selection(model, batch, seed=4)

    policy = AgingAwareMapper(max_candidates=_CANDIDATES[arch], selection_batch=batch)
    expected = AgingAwareMapper(max_candidates=_CANDIDATES[arch], selection_batch=batch)
    network.map_network(policy, selection)
    reference_map_network(reference, expected, selection)

    assert len(policy.history) == len(network.layers)
    assert all(len(sel.candidates) > 1 for sel in policy.history)
    for got, want in zip(policy.history, expected.history):
        assert got.layer_index == want.layer_index
        assert got.candidates == want.candidates
        assert got.scores == want.scores
        assert got.chosen_upper == want.chosen_upper
        assert got.chosen_lower == want.chosen_lower
    for got, want in zip(_resistances(network), _resistances(reference)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_prefix_runs_once_per_layer(monkeypatch):
    """Layer 0 runs once per later weighted layer; each scored conv unrolls once.

    A conv layer's candidates enter it at its GEMM
    (``Conv2D.forward_columns``) over columns unrolled once per layer,
    so layer 0's ``forward`` runs only to build later layers' prefixes.
    """
    model = build_lenet(seed=1)
    network = _aged_network(model, seed=3)
    policy = AgingAwareMapper(selection_batch=64)
    first = network._scratch.layers[0]
    calls, column_calls, unrolls = [], [], []
    forward, forward_columns = first.forward, first.forward_columns

    def counting_forward(x, training=False):
        calls.append(len(x))
        return forward(x, training=training)

    def counting_forward_columns(cols):
        column_calls.append(len(cols))
        return forward_columns(cols)

    def counting_im2col(x, *args):
        unrolls.append(x.shape)
        return im2col(x, *args)

    first.forward = counting_forward
    first.forward_columns = counting_forward_columns
    monkeypatch.setattr(network_module, "im2col", counting_im2col)
    network.map_network(policy, _selection(model, 64, seed=4))

    own, later = policy.history[0], policy.history[1:]
    assert [sel.layer_index for sel in later] == [3, 6, 8]
    # Prefix forwards: one per later weighted layer, none per candidate.
    assert calls == [64] * len(later)
    # Column unrolls: one per scored conv layer, on its input.
    layers = network._scratch.layers
    assert [i for i, layer in enumerate(layers) if isinstance(layer, Conv2D)] == [0, 3]
    assert unrolls == [(64,) + layers[0].input_shape, (64,) + layers[3].input_shape]
    # Layer 0's GEMM runs once per own candidate (over the cached
    # unroll) plus once per prefix forward.
    assert column_calls == [64 * 8 * 8] * (len(own.candidates) + len(later))
    assert len(own.candidates) > 1
    assert sum(len(sel.candidates) for sel in later) > len(later)


def test_scoring_invalidates_effective_model_memo():
    """Candidate kernels written while scoring never pass for hardware weights."""
    model = build_lenet(seed=1)
    network = MappedNetwork(model, DEVICE, seed=3)
    network.map_network()
    with network.read_reuse():
        network.effective_model()
        network.map_network(
            AgingAwareMapper(selection_batch=64), _selection(model, 64, seed=4)
        )
        assert network._scratch_holds is None
        scratch = network.effective_model()
        for mapped in network.layers:
            np.testing.assert_array_equal(
                scratch.layers[mapped.layer_index].params["W"], mapped.hardware_kernel()
            )
