"""Golden pin: training through ``repro.nn`` is reproducible bit for bit.

The accuracies and trained-state digests below were recorded with the
original training kernels (fancy-index im2col, ``np.add.at`` col2im and
max-pool backward, stacked-window pooling, float64 quantize chain).
One ulp of difference in one gradient changes a digest, so these pins
prove that the shared strided lowering, running pool walks and float32
quantize core left training arithmetic untouched.

That is also what keeps :class:`~repro.parallel.SweepCache` entries
valid without a ``CACHE_SCHEMA`` bump: the last test replays an entry
written before the change and requires a hit.  A change that *means*
to alter training results must bump ``CACHE_SCHEMA`` and re-record
these values.

Digests of trained floats depend on the BLAS's summation order, so the
pins are skipped on a host whose matmul bits differ from the recording
host's (the ``_BLAS_CANARY`` check).
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.core.precision import PrecisionSpec
from repro.core.sweep import PrecisionSweep, SweepConfig
from repro.data import load_dataset
from repro.nn.serialization import state_dict_digest
from repro.parallel import SweepCache, run_sweep
from repro.zoo import build_network

#: sha256 of the canary matmuls on the recording host
_BLAS_CANARY = "126646b333307d1e47a2c08ca8013156bca737836b141673fe51c6a0bdd2c3e9"

#: net -> (dataset, n_train, n_test, {spec: (accuracy, state digest)},
#: (fixed8 cache key, fixed8 cache entry as written))
GOLDEN = {
    "lenet_small": (
        "digits", 256, 64,
        {
            "float32": (0.5740740740740741,
                        "19f2938b6a979e6bba31041722c7458a74bc62dc6550352df9ac9dadde90cd23"),
            "fixed8": (0.7962962962962963,
                       "75369bca31735da515d1067ec5a4ff6820560ebb5d471a93bbb4ed490a349489"),
            "fixed4": (0.5740740740740741,
                       "db51f24605fc5f5f9a1ebcc50ed9a656444a1570277c95b44d6878f2456f7cf4"),
            "pow2": (0.7407407407407407,
                     "7215a06a548cbcea10757549ca34037b239561c3972372cf43f132c1681c63a0"),
            "binary": (0.24074074074074073,
                       "7dce03a0f811e107b7c09b0248687bddeb07c6944637c48e3eabba9fce8b9550"),
            "fixed:2,4,4,8:8": (0.6296296296296297,
                                "6326e1a89c9332a90d92fc5e5f17f10d7cbbe968a73c783df821ea344e9cdcae"),
        },
        ("71b6e6f97a76e5a9e71275ab9f7d6a4dc8978f4990c726697a0119d6e51f7d80",
         {"accuracy": 0.7962962962962963, "converged": True,
          "history": {"val_accuracy": [0.9]}, "schema": 1, "spec": "fixed8",
          "version": "1.0.0"}),
    ),
    # padded 5x5 convs, overlapping 3x3/s2 max and average pools
    "alex_small": (
        "cifar", 96, 32,
        {
            "float32": (0.09090909090909091,
                        "82746457817d27f01bc7aa25e18d5eda0e32bf28814dc7c6106bfb225f3d529b"),
            "fixed8": (0.09090909090909091,
                       "e52c07609bd5ad29994e112f60ea15f57a616b8fd84f2d0c3f8d6d0fc244e61d"),
            "binary": (0.13636363636363635,
                       "c45e0ab3b798c2ec931826edf2f9a8900816837301946df96b84b258fa9ca16e"),
        },
        ("010e5a4230909c1acedd5e278b2d91ee7642a81d31658b6c81764dadbba456a5",
         {"accuracy": 0.09090909090909091, "converged": False,
          "history": {"val_accuracy": [0.1]}, "schema": 1, "spec": "fixed8",
          "version": "1.0.0"}),
    ),
}


def _blas_canary() -> str:
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for m, k, n in ((6, 25, 18432), (12, 150, 2048), (32, 192, 10), (150, 12, 2048)):
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        digest.update((a @ b).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module", autouse=True)
def _recording_host_arithmetic():
    if _blas_canary() != _BLAS_CANARY:
        pytest.skip("this BLAS sums float32 matmuls differently from the "
                    "host that recorded the pins")


def _sweep(net, keep_states=False):
    dataset, n_train, n_test = GOLDEN[net][:3]
    split = load_dataset(dataset, n_train=n_train, n_test=n_test, seed=0)
    return PrecisionSweep(
        functools.partial(build_network, net, seed=0), split,
        config=SweepConfig(float_epochs=1, qat_epochs=1, seed=0),
        keep_states=keep_states,
    )


@pytest.fixture(scope="module")
def trained():
    """net -> {spec: (accuracy, state digest)} trained by this code."""
    out = {}
    for net, (*_, points, _cache) in GOLDEN.items():
        sweep = _sweep(net, keep_states=True)
        got = {}
        for spec in points:
            result = sweep.run_precision(spec)
            key = PrecisionSpec.parse(spec).key
            got[spec] = (result.accuracy, state_dict_digest(sweep.point_states[key]))
        out[net] = got
    return out


@pytest.mark.parametrize("net", sorted(GOLDEN))
def test_trained_points_match_golden(trained, net):
    """1 float epoch, then 1 QAT epoch per precision: identical
    accuracies and bit-identical trained weights."""
    assert trained[net] == GOLDEN[net][3]


@pytest.mark.parametrize("net", sorted(GOLDEN))
def test_cache_entry_written_before_the_change_still_hits(net, tmp_path):
    key, payload = GOLDEN[net][4]
    cache = SweepCache(str(tmp_path))
    path = tmp_path / key[:2] / f"{key}.json"
    path.parent.mkdir()
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    (result,) = run_sweep(_sweep(net), ["fixed8"], cache=cache)
    assert (cache.hits, cache.misses) == (1, 0)
    assert result.accuracy == GOLDEN[net][3]["fixed8"][0]
