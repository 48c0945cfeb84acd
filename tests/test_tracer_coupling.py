"""The benchmark's tracer names program functions by text; each must exist.

``perfbench/tracer.py`` times a layer by wrapping the plain functions a
``gwquant`` module binds, and its metrics pick spans out by name
(``"signals.read_signals_csv"``). A rename, a wrapper object or a lazy
import would leave such a name matching no span, and the metric would read
0 without any error. This test reads the tracer and changes nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest
import scipy.optimize

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names():
    """Every "<layer>.<name>" text among the _INFO keys and select(...) arguments."""
    tree = ast.parse(TRACER.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_INFO" for t in node.targets
        ):
            names.update(k.value for k in node.value.keys if isinstance(k, ast.Constant))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "select"
        ):
            names.update(a.value for a in node.args if isinstance(a, ast.Constant))
    return sorted(names)


def test_the_tracer_names_enough_functions():
    names = _traced_names()
    assert len(names) >= 15
    assert {"signals.read_signals_csv", "signals.signals_to_csv_text"} <= set(names)
    assert "damage_index.build_di_dataset" in names


@pytest.mark.parametrize("name", _traced_names())
def test_each_traced_name_is_a_plain_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"gwquant.{layer}")
    # an alias (vhgpr.vhgpr_predict is sgpr.sgpr_predict) is a plain function too
    assert inspect.isfunction(getattr(module, attr, None)), name
    assert not attr.startswith("_")


def test_the_optimizer_is_found_through_sgpr():
    import gwquant.sgpr

    assert gwquant.sgpr.minimize is scipy.optimize.minimize


def test_the_tracer_sees_each_command_only_while_installed(tmp_path):
    """A traced call records its command; an untraced one, before or after, none."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        importlib.import_module(f"gwquant.{layer}")
    from gwquant import cli

    argv = ["evaluate", "--model-file", str(tmp_path / "none.json"), "--di-file", "x.csv"]
    tracer = tracing.Tracer()

    def traced_call():
        tracer.install()
        try:
            assert cli.main(argv) == 1
        finally:
            tracer.uninstall()
        return [span[0] for span in tracer.take()]

    assert cli.main(argv) == 1  # an untraced first call builds the parser
    assert "cli.cmd_evaluate" in traced_call()
    assert cli.main(argv) == 1
    assert tracer.take() == []
    assert "cli.cmd_evaluate" in traced_call()
