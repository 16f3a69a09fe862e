"""
The outputs stay byte-identical: e_lambda, alpha_extract's QuasiIdempotent,
tau, row_element and column_element on every diagram of at most N cells,
and ``qyoung verify N --format machine`` with its timings masked, hashed by
``tools/output_digest.py`` and compared with digests taken before the side
chains were folded into one record.  A change that moves a digest changes
an output; if that is intended, take the digests again with the tool and
say why.
"""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

PINNED = {
    6: {
        "e_lambda": "34fe729bcfe2f413790b4be18b4cf1393546db454a9fda982182995aeba49249",
        "alpha_extract": "89e8cbd634b9122f37a15fe8553f19352c2705e5f255b2c0ddb61c038d715d41",
        "tau": "6bf3bd6213ace57ed1d9737ce46df669eb5d0c8b57299578a6e8221e2afa0cb3",
        "row_element": "e1634eb9d0d1686dfe3cd624fe9d9be2e3cb9728ca0985d33f5f13247752015d",
        "column_element": "c099d3c2740cb769a056303dde68c92c2baf0f87f282f58ac5fa662c39f08d8c",
        "verify": "4b1b54e0fd8db46f7617f7164d735303d2c8307501fc917a41989c8e497a087b",
    },
    8: {
        "e_lambda": "08e29081c0c7d44cf782ba806fc7e65de7c5aee2e19838a32e294e117d39bd7a",
        "alpha_extract": "c531cc6f7621efaedc7c8d5aef98d6409829a0000de08a8ad7de0812e6a9eef8",
        "tau": "529e0a8e75bfe308f0943c90e70b9b564f881877a36d8c5e71c6b5ba6b203cb6",
        "row_element": "c3113f6ab10a07371205856d8c15064d789018276fc28f7abfe2771efecf63e5",
        "column_element": "2c0421bd98f214e619415edbbf3f0590a7ef7590043cf78043092dfa3a068087",
        "verify": "e4ba629b237fc0256f9628f8c4db0096233d290b560c0685a1fe07dc6a4cc811",
    },
}


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "n", [6, pytest.param(8, marks=pytest.mark.slow)], ids=["six_cells", "eight_cells"]
)
def test_outputs_match_the_pinned_digests(n):
    assert _tool().digests(n) == PINNED[n]


def test_a_digest_moves_with_its_output_alone(monkeypatch):
    tool = _tool()
    before = tool.digests(3)
    real = tool.OUTPUTS["tau"]
    monkeypatch.setitem(tool.OUTPUTS, "tau", lambda lam: real(lam) + [[0, 0]])
    after = tool.digests(3)
    assert {name for name in before if before[name] != after[name]} == {"tau"}
