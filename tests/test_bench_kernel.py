"""
A smoke test of ``tools/bench_kernel.py``: its layers reach private names of
the package (``symmetrizers._block_action``, ``_side``, ``_table``,
``_own_table``, ``_mul_symmetrizer``, ``_report_on_side``, ``_at_one``,
``central._twist``, an element's ``_ck``), so a refactor that renames one
must fail here rather than in the next timing run.  The ``start_*``,
``square_*``, ``twist_table_*`` and ``classical_*`` layers all run on the
table of the side's start, ``left_fold_33`` and ``ft_left_33`` time the
left products that fold onto coset representatives, ``long_braid_ft6``
and ``ft6_long_braid`` the two paths on a factor that keeps no coset
table, the fold with trivial blocks and the direct walk, ``build_all_7``
the build of every 7-cell e_lambda, ``build_2x1x6`` that of (2,1^6),
``build_read_7`` the build and decode of every 7-cell e_lambda, ``closed_forms_8`` the closed
forms of every diagram through 8 cells, and ``verify_main_5`` one
in-process ``qyoung verify 5``.
"""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_kernel.py"

# The one layer whose single call takes seconds: products with three dense
# elements of 40320 terms.  Every other layer runs in milliseconds.
DENSE = {"strand_checks_8"}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_kernel", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_runs_once():
    layers = _tool().layers()
    assert DENSE <= set(layers)
    assert {"left_fold_33", "ft_left_33", "build_read_7", "closed_forms_8", "verify_main_5"} <= set(
        layers
    )
    assert {"long_braid_ft6", "ft6_long_braid"} <= set(layers)
    assert {"build_all_7", "build_2x1x6"} <= set(layers)
    assert len(layers["closed_forms_8"]()) == 66
    assert len(layers["build_all_7"]()) == 15
    assert len(layers["build_read_7"]()) == 15
    assert layers["verify_main_5"]() == 0
    for tag in ("44", "8", "1x8", "2x1x6"):
        assert {f"start_{tag}", f"square_{tag}", f"twist_table_{tag}"} <= set(layers)
    for name, run in layers.items():
        if name not in DENSE:
            run()


def test_a_layer_is_timed_raw_and_at_reference_speed():
    timing = _tool()._time_layer("build_43", 1)
    assert set(timing) == {"s", "at_ref_s"} and all(t > 0 for t in timing.values())
