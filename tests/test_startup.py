"""Start-up cost: what ``import repro.cli`` loads, and the lazy exports.

The default ``minimize``/``lint``/``sweep``/``analyze`` commands never
touch scipy, networkx, the netlist substrate, the simulator, the
baselines, the exporters or the SVG renderer, so importing the CLI must
not load them either -- and networkx stays unloaded while those commands
run.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.lp.backends import available_backends

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
EXAMPLES = os.path.join(os.path.dirname(SRC), "examples")
EXAMPLE1 = os.path.join(EXAMPLES, "example1.lcd")
#: example1 clocked at 50 -- below its optimum of 110, so departures diverge.
DIVERGENT = os.path.join(EXAMPLES, "infeasible_demo.lcd")

DEFERRED = (
    "scipy",
    "networkx",
    "repro.netlist",
    "repro.sim",
    "repro.baselines",
    "repro.export",
    "repro.render.svg",
)


def _modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``statement``."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


class TestColdImport:
    def test_cli_import_leaves_unused_layers_unloaded(self):
        loaded = _modules_after("import repro.cli")
        assert "repro.cli" in loaded
        assert not loaded & set(DEFERRED)

    def test_bare_package_import_loads_no_submodule(self):
        loaded = _modules_after("import repro")
        assert sorted(m for m in loaded if m.startswith("repro.")) == []

    def test_flagged_layer_loads_on_use(self):
        loaded = _modules_after("from repro import to_dot, schedule_svg")
        assert {"repro.export", "repro.render.svg"} <= loaded
        assert "repro.sim" not in loaded


def _run_cli(argv: list[str]) -> tuple[int, str, bool]:
    """Exit code, stdout and whether networkx loaded, in a fresh interpreter."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        "print('networkx loaded:', 'networkx' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert "Traceback" not in done.stderr, done.stderr
    *lines, last = done.stdout.splitlines()
    return done.returncode, "\n".join(lines), last == "networkx loaded: True"


def _example1_at_optimum(tmp_path) -> str:
    """example1 with its optimal clock (Tc = 110) written into the file."""
    with open(EXAMPLE1, encoding="utf-8") as handle:
        text = handle.read()
    clock = (
        "clock {\n  period 110.0;\n"
        "  phase phi1 start 0.0 width 60.0;\n"
        "  phase phi2 start 70.0 width 20.0;\n}"
    )
    path = tmp_path / "example1_clocked.lcd"
    path.write_text(text.replace("clock {\n  phase phi1;\n  phase phi2;\n}", clock))
    return str(path)


class TestNetworkxOffDefaultPaths:
    @pytest.mark.parametrize(
        "argv, code, expect",
        [
            (["minimize", EXAMPLE1], 0, "optimal cycle time: 110"),
            (["minimize", EXAMPLE1, "--backend", "cycle"], 0, "cycle time: 110"),
            (["lint", "--format", "json", EXAMPLE1], 0, '"ok": true'),
            (["lint", "--format", "json", DIVERGENT], 1, '"LINT302"'),
            (["sweep", EXAMPLE1, "L4", "L1", "--lo", "0", "--hi", "140"], 0, "0.5"),
            (["analyze", DIVERGENT], 1, "positive-weight dependency cycle"),
        ],
        ids=["minimize", "minimize-cycle", "lint", "lint-error", "sweep", "divergent"],
    )
    def test_default_command_leaves_networkx_unloaded(self, argv, code, expect):
        returncode, out, loaded = _run_cli(argv)
        assert returncode == code, out
        assert expect in out
        assert not loaded

    def test_analyze_at_a_feasible_clock(self, tmp_path):
        design = _example1_at_optimum(tmp_path)
        returncode, out, loaded = _run_cli(["analyze", design])
        assert returncode == 0, out
        assert "feasible: True" in out
        assert not loaded

    def test_critical_segments_still_load_networkx(self):
        returncode, out, loaded = _run_cli(["minimize", EXAMPLE1, "--critical"])
        assert returncode == 0, out
        assert "optimal cycle time: 110" in out
        assert loaded


class TestLazyExports:
    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_dir_lists_every_export(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_export_is_the_defining_object(self):
        from repro.core.mlp import minimize_cycle_time
        from repro.render.svg import schedule_svg

        assert repro.minimize_cycle_time is minimize_cycle_time
        assert repro.schedule_svg is schedule_svg

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            repro.no_such_export  # noqa: B018

    def test_submodule_from_import_still_works(self):
        from repro import errors

        assert errors.ReproError is repro.ReproError


class TestScipyOnFirstUse:
    def test_available_backends_unchanged(self):
        expected = ["cycle", "cycle+check", "revised", "simplex", "sparse"]
        if importlib.util.find_spec("scipy") is not None:
            expected = sorted(expected + ["scipy"])
        assert available_backends() == expected

    def test_backend_registry_does_not_import_scipy(self):
        loaded = _modules_after("from repro.lp.backends import available_backends")
        assert "scipy" not in loaded

    def test_without_scipy(self):
        # A None entry in sys.modules makes find_spec report scipy missing.
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.cli import main\n"
            "from repro.lp.backends import available_backends\n"
            "assert 'scipy' not in available_backends()\n"
            f"sys.exit(main(['minimize', {EXAMPLE1!r}]))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "optimal cycle time: 110" in done.stdout

    def test_scipy_backend_minimizes_example1(self, capsys):
        if "scipy" not in available_backends():
            pytest.skip("scipy extra not installed")
        assert main(["minimize", EXAMPLE1, "--backend", "scipy"]) == 0
        assert "optimal cycle time: 110" in capsys.readouterr().out
