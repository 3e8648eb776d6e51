"""Self-test of the benchmark's oracles: they pass on the package's
kernels and fail on deliberately wrong outputs.

Forward oracle, on ganet11-desk (fwsc and full) at a small input:

* shifted tap   - one conv layer and one transposed conv run with their
                  kernel taps rolled by one along w;
* dropped skip  - the ``adds_from`` additions are left out;
* wrong stride  - a stride-2 conv runs at stride 1 and keeps the odd sites.

Gradient oracle, on the fdwsc encoder at a small input:

* flipped upstream gradient - backward receives g[:, ::-1, ::-1, ::-1].
  On a single layer with g = ones the flip changes nothing, which is
  why a ones-based check cannot see it (expected: accepted); with a
  seeded random g it must fail, on one layer and on the whole encoder.

Run from the root of a checkout; exits 0 when every expectation holds:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

INPUT = (8, 8, 8, 12)


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy as np

    from sepconv3d import kernels
    from sepconv3d.volume import Volume4

    import oracle
    import spans
    import workloads as W

    off = spans.Off()
    results = []

    def expect(label, want_ok, ok, detail):
        good = ok == want_ok
        results.append(good)
        verdict = "accepted" if ok else "rejected"
        print(f"{'PASS' if good else 'FAIL'}  {label}: oracle {verdict}  {detail}")

    def roll_taps(layer):
        name = "depthwise" if layer.bank.variant == "fwsc" else "weights"
        arr = np.roll(layer.bank.arrays[name], 1, axis=-1)
        return dataclasses.replace(layer, bank=oracle.with_array(layer.bank, name, arr))

    def odd_sites(layer):
        def run(x, bank, stride):
            y = layer.fn(x, bank, 1).array
            return Volume4(y[:, 1::stride, 1::stride, 1::stride], copy=False)

        return dataclasses.replace(layer, fn=run)

    for workload in ("ganet11-fwsc-fwd", "ganet11-full-fwd"):
        net = W.setup_network(workload, 3, off, input_dims=INPUT)
        ids = [l.id for l in net.layers]

        def mutated(index, change):
            layers = list(net.layers)
            layers[index] = change(layers[index])
            return layers

        def forward_check(label, want_ok, layers):
            acts = W.forward(net, off, layers)
            ok, detail = oracle.check_forward(net, acts, np.random.default_rng(11))
            expect(f"{workload} {label}", want_ok, ok, detail)

        forward_check("seed kernels", True, net.layers)
        forward_check("shifted tap in init_b", False, mutated(ids.index("init_b"), roll_taps))
        forward_check("shifted tap in up1 (deconv)", False, mutated(ids.index("up1"), roll_taps))
        forward_check("dropped skip add", False,
                      [dataclasses.replace(l, adds_from=None) for l in net.layers])
        forward_check("wrong stride in down1", False, mutated(ids.index("down1"), odd_sites))

    net = W.setup_network("ganet11-fdwsc-train", 3, off, input_dims=INPUT)

    def flipped(x, bank, g, stride):
        return kernels.backward(x, bank, Volume4(g.array[:, ::-1, ::-1, ::-1]), stride)

    # one layer alone: the blind spot of a ones-based check
    one = dataclasses.replace(net, layers=net.layers[:1])
    ones = Volume4(np.ones(one.layers[0].out_shape), copy=False)
    rand = Volume4.random(one.layers[0].out_shape, seed=17, dtype="float64")
    for label, case, backward, g, want_ok in (
        ("encoder, seed backward, random g", net, kernels.backward, net.grad_out, True),
        ("encoder, flipped-gradient backward, random g", net, flipped, net.grad_out, False),
        ("init_a alone, flipped-gradient backward, g = ones", one, flipped, ones, True),
        ("init_a alone, flipped-gradient backward, random g", one, flipped, rand, False),
    ):
        _, gx, grads = W.train_step(case, off, backward=backward, grad_out=g)
        ok, detail = oracle.check_gradients(case, g, gx, grads, seed=5)
        expect(f"gradient oracle, {label}", want_ok, ok, detail)

    n_bad = results.count(False)
    print(f"{len(results) - n_bad}/{len(results)} self-test expectations hold")
    return 0 if n_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
