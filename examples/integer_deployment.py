"""Deployment check: run the quantized network on a true integer datapath.

Trains a small CNN, calibrates an 8-bit fixed-point version, then runs
the same test set through (a) the float quantization emulation and
(b) the bit-exact integer pipeline (`IntegerInference`) — the
arithmetic the accelerator actually performs.  The two must give the
same logits bit for bit, which is the guarantee that the emulated
accuracies in Tables IV/V carry over to hardware; the script exits 1
when they do not.

Run:  python examples/integer_deployment.py
"""

import sys

import numpy as np

from repro import core, nn
from repro.core.integer_network import IntegerInference
from repro.data import load_dataset
from repro.zoo import build_network


def main() -> int:
    split = load_dataset("digits", n_train=1200, n_test=400, seed=0)
    network = build_network("lenet_small", seed=0)
    trainer = nn.Trainer(
        network,
        nn.SGD(network.parameters(), lr=0.02, momentum=0.9),
        batch_size=32,
        rng=np.random.default_rng(0),
    )
    trainer.fit(split.train.images, split.train.labels, epochs=5)

    spec = core.get_precision("fixed8")
    qnet = core.QuantizedNetwork(network, spec)
    qnet.calibrate(split.train.images[:256])

    emulated_logits = qnet.predict(split.test.images)
    emulated_accuracy = nn.accuracy(emulated_logits, split.test.labels)

    integer = IntegerInference(qnet)
    integer_logits = integer.predict(split.test.images)
    integer_accuracy = integer.evaluate(split.test.images, split.test.labels)

    agreement = float(np.mean(
        emulated_logits.argmax(axis=1) == integer_logits.argmax(axis=1)
    ))
    max_logit_gap = float(np.max(np.abs(emulated_logits - integer_logits)))

    print(f"precision:              {spec.label}")
    print(f"emulated accuracy:      {100 * emulated_accuracy:.2f}%")
    print(f"integer accuracy:       {100 * integer_accuracy:.2f}%")
    print(f"prediction agreement:   {100 * agreement:.2f}%")
    print(f"max logit discrepancy:  {max_logit_gap:.6f}")
    if not np.array_equal(emulated_logits, integer_logits):
        print("\nFAIL: the integer logits differ from the float emulation's.")
        return 1
    print("\nThe integer pipeline (what the accelerator computes) gives the")
    print("float emulation's logits bit for bit — the accuracy columns of")
    print("Tables IV/V are deployable numbers, not emulation artifacts.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
