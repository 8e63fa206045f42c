"""Extension: IR-drop sensitivity of mapped inference.

Wire parasitics attenuate the analog VMM, and the attenuation grows
with array size and with *conductance* (high-conductance cells pull
more current through the wires).  Consequence: the skewed network —
whose mass sits at low conductance — should also be **more robust to IR
drop** than the baseline.  This bench quantifies both effects.
"""

import numpy as np

from repro.analysis import render_table
from repro.crossbar.parasitics import ParasiticModel, ir_drop_factors
from repro.device import DeviceConfig
from repro.mapping import MappedNetwork
from repro.mapping.fresh import FreshMapper
from repro.mapping.network import clone_model

R_WIRES = (0.0, 2.0, 10.0)


def run(lab):
    x = lab.dataset.x_test
    y = lab.dataset.y_test
    rows = []
    for skewed in (False, True):
        model = lab.framework.trained_model(skewed)
        net = MappedNetwork(clone_model(model), DeviceConfig(), seed=17)
        net.map_network(FreshMapper())
        for r_wire in R_WIRES:
            pmodel = ParasiticModel(r_wire)
            # Apply the first-order attenuation to every layer's
            # effective weights via the conductance-domain factors.
            matrices = {}
            mean_factor = []
            for layer in net.layers:
                g = layer.tiles.conductances()
                f = ir_drop_factors(g, pmodel)
                mean_factor.append(float(f.mean()))
                assert layer.mapping is not None
                matrices[layer.layer_index] = np.asarray(
                    layer.mapping.conductance_to_weight(g * f)
                )
            acc = net._install_matrices(matrices).score(x, y)
            rows.append(
                ("skewed" if skewed else "baseline", r_wire, float(np.mean(mean_factor)), acc)
            )
    return rows


def test_ext_ir_drop(benchmark, lenet_lab, report):
    rows = benchmark.pedantic(lambda: run(lenet_lab), rounds=1, iterations=1)
    report(
        "ext_ir_drop",
        render_table(
            ["training", "r_wire (Ohm/seg)", "mean delivered fraction", "accuracy"],
            [[n, f"{r:g}", f"{f:.3f}", f"{a:.3f}"] for n, r, f, a in rows],
            title="Extension — IR-drop sensitivity (first-order model)",
        ),
    )
    by_key = {(n, r): (f, a) for n, r, f, a in rows}
    # Parasitics reduce the delivered signal...
    assert by_key[("baseline", 10.0)][0] < by_key[("baseline", 0.0)][0]
    # ...and the low-conductance (skewed) mapping delivers a larger
    # fraction of its signal at the same wire resistance.
    assert by_key[("skewed", 10.0)][0] > by_key[("baseline", 10.0)][0]
