"""Start-up cost: what ``import repro.cli`` loads, and the lazy exports.

The default ``minimize``/``lint``/``sweep``/``analyze`` commands never
touch scipy, networkx, the netlist substrate, the simulator, the
baselines, the exporters, the SVG renderer, the simplex solvers or the
rarer analyses, so importing the CLI must not load them either -- and
they stay unloaded while those commands run.  A CLI process also runs
one BLAS thread unless its caller chose a thread count.
"""

from __future__ import annotations

import ast
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
    "repro.lp.simplex",
    "repro.lp.sparse_simplex",
    "repro.lp.sparse_lu",
    "repro.lp.scipy_backend",
    "repro.lp.sensitivity",
    "repro.lp.standard_form",
    "repro.core.theorem1",
    "repro.core.tuning",
    "repro.core.minperiod",
    "repro.core.critical",
    "repro.core.signoff",
    "repro.core.shortpath",
    "repro.lint.sanitize",
    "repro.obs.export",
    "repro.circuit.generate",
    "repro.circuit.lump",
    "repro.lang.writer",
    "repro.clocking.library",
)

#: The solver module each named simplex backend loads on first use.
SOLVER_MODULES = {
    "simplex": "repro.lp.simplex",
    "revised": "repro.lp.sparse_simplex",
    "sparse": "repro.lp.sparse_simplex",
    "scipy": "repro.lp.scipy_backend",
}

#: Every package whose exports load on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.circuit",
    "repro.clocking",
    "repro.core",
    "repro.engine",
    "repro.lang",
    "repro.lint",
    "repro.lp",
    "repro.maxplus",
    "repro.obs",
    "repro.render",
)

#: The variables that choose the OpenBLAS thread count.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**values: str) -> dict[str, str]:
    """The test's environment without BLAS thread settings, plus ``values``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return dict(env, PYTHONPATH=SRC, **values)


def _child(statement: str, env: dict[str, str]) -> str:
    """Stdout of a fresh interpreter running ``statement``."""
    return subprocess.run(
        [sys.executable, "-c", statement],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


def _modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``statement``."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    return set(_child(code, _env()).split())


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


def _run_cli(argv: list[str]) -> tuple[int, str, set[str]]:
    """Exit code, stdout and the deferred modules loaded, in a fresh interpreter."""
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(' '.join(sorted(set({DEFERRED!r}) & set(sys.modules))))\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True
    )
    assert "Traceback" not in done.stderr, done.stderr
    *lines, last = done.stdout.splitlines()
    return done.returncode, "\n".join(lines), set(last.split())


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
    """networkx, and every other deferred module, stays unloaded."""

    @pytest.mark.parametrize(
        "argv, code, expect, runs",
        [
            (["minimize", EXAMPLE1], 0, "optimal cycle time: 110", set()),
            (["minimize", EXAMPLE1, "--backend", "cycle"], 0, "cycle time: 110",
             set()),
            (["lint", "--format", "json", EXAMPLE1], 0, '"ok": true', set()),
            # The file carries a clock, so the hold rule LINT210 runs.
            (["lint", "--format", "json", DIVERGENT], 1, '"LINT302"',
             {"repro.core.shortpath"}),
            (["sweep", EXAMPLE1, "L4", "L1", "--lo", "0", "--hi", "140"], 0,
             "0.5", set()),
            (["analyze", DIVERGENT], 1, "positive-weight dependency cycle", set()),
        ],
        ids=["minimize", "minimize-cycle", "lint", "lint-error", "sweep", "divergent"],
    )
    def test_default_command_leaves_networkx_unloaded(
        self, argv, code, expect, runs
    ):
        returncode, out, loaded = _run_cli(argv)
        assert returncode == code, out
        assert expect in out
        assert loaded == runs

    def test_analyze_at_a_feasible_clock(self, tmp_path):
        design = _example1_at_optimum(tmp_path)
        returncode, out, loaded = _run_cli(["analyze", design])
        assert returncode == 0, out
        assert "feasible: True" in out
        assert not loaded

    def test_hold_flag_loads_the_hold_check(self, tmp_path):
        design = _example1_at_optimum(tmp_path)
        returncode, out, loaded = _run_cli(["analyze", design, "--hold"])
        assert returncode == 0, out
        assert "hold: clean" in out
        assert loaded == {"repro.core.shortpath"}

    def test_critical_segments_still_load_networkx(self):
        returncode, out, loaded = _run_cli(["minimize", EXAMPLE1, "--critical"])
        assert returncode == 0, out
        assert "optimal cycle time: 110" in out
        assert "networkx" in loaded

    @pytest.mark.parametrize("backend", sorted(SOLVER_MODULES))
    def test_named_backend_loads_only_its_solver(self, backend):
        if backend not in available_backends():
            pytest.skip("scipy extra not installed")
        argv = ["minimize", EXAMPLE1, "--backend", backend]
        returncode, out, loaded = _run_cli(argv)
        assert returncode == 0, out
        assert "optimal cycle time: 110" in out
        assert loaded & set(SOLVER_MODULES.values()) == {SOLVER_MODULES[backend]}


class TestProcessPoolOnDemand:
    def test_serial_sweep_leaves_the_process_pool_unloaded(self):
        argv = ["sweep", EXAMPLE1, "L4", "L1", "--lo", "0", "--hi", "140"]
        loaded = _modules_after(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0"
        )
        assert "repro.engine.runner" in loaded
        assert not loaded & {"repro.engine.pool", "multiprocessing"}

    def test_two_workers_load_the_process_pool(self):
        loaded = _modules_after(
            "from repro.engine import make_pool\n"
            "make_pool(2).close()"
        )
        assert {"repro.engine.pool", "multiprocessing"} <= loaded


class TestLazyExports:
    def test_every_export_resolves(self):
        for package in LAZY_PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name) is not None, (package, name)

    def test_dir_lists_every_export(self):
        for package in LAZY_PACKAGES:
            module = importlib.import_module(package)
            assert set(module.__all__) <= set(dir(module)), package

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import(self, package):
        namespace: dict[str, object] = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(namespace) - {"__builtins__"} == set(module.__all__)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    @pytest.mark.parametrize("package", LAZY_PACKAGES[1:])
    def test_package_import_loads_no_submodule(self, package):
        loaded = _modules_after(f"import {package}")
        assert sorted(m for m in loaded if m.startswith(f"{package}.")) == []

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_typed_reexports_match_the_exports(self, package):
        # The `if TYPE_CHECKING:` imports give the lazy exports their
        # static types; they must name the same objects as the table.
        module = importlib.import_module(package)
        with open(module.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        (block,) = (
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        )
        typed = {}
        for node in block.body:
            assert isinstance(node, ast.ImportFrom) and node.module, ast.unparse(node)
            source = importlib.import_module(node.module)
            for alias in node.names:
                assert alias.asname == alias.name, ast.unparse(node)
                typed[alias.name] = getattr(source, alias.name)
        assert set(typed) == set(module.__all__) - {"__version__"}
        for name, value in typed.items():
            assert value is getattr(module, name), name

    def test_export_is_the_defining_object(self):
        from repro.core.mlp import minimize_cycle_time
        from repro.render.svg import schedule_svg

        assert repro.minimize_cycle_time is minimize_cycle_time
        assert repro.schedule_svg is schedule_svg

    def test_export_named_like_its_submodule_stays_the_export(self):
        # Importing repro/core/signoff.py first must not rebind
        # repro.core.signoff (the function) to the submodule.
        loaded = _modules_after(
            "import repro.core.signoff\n"
            "import repro.lp.sensitivity\n"
            "import repro\n"
            "assert callable(repro.core.signoff), repro.core.signoff\n"
            "assert callable(repro.signoff)\n"
            "assert callable(repro.lp.sensitivity), repro.lp.sensitivity\n"
            "from repro.core.signoff import SignoffReport"
        )
        assert "repro.core.signoff" in loaded

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
        done = subprocess.run(
            [sys.executable, "-c", code], env=_env(), capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "optimal cycle time: 110" in done.stdout

    def test_scipy_backend_minimizes_example1(self, capsys):
        if "scipy" not in available_backends():
            pytest.skip("scipy extra not installed")
        assert main(["minimize", EXAMPLE1, "--backend", "scipy"]) == 0
        assert "optimal cycle time: 110" in capsys.readouterr().out


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/task"
)
class TestOneBlasThread:
    def test_cli_process_runs_one_thread(self):
        # Every command line pins, including the ones that name the
        # revised simplex or start a server whose requests name their own.
        for argv in (
            [],
            ["minimize", EXAMPLE1, "--backend", "revised"],
            ["minimize", EXAMPLE1, "--backend=revised"],
            ["batch", "designs.txt", "--backend", "cycle+check"],
            ["serve", "--port", "0"],
        ):
            statement = (
                "import os, sys\n"
                f"sys.argv = ['repro', *{argv!r}]\n"
                "import repro.cli\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'),"
                " len(os.listdir('/proc/self/task')))"
            )
            assert _child(statement, _env()) == "1 1", argv

    @pytest.mark.parametrize(
        "name", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS"]
    )
    def test_caller_setting_wins(self, name):
        statement = (
            "import os, repro.cli\n"
            f"print({{k: os.environ.get(k) for k in {BLAS_THREADS!r}}})"
        )
        expected = {k: ("2" if k == name else None) for k in BLAS_THREADS}
        assert _child(statement, _env(**{name: "2"})) == str(expected)

    def test_library_import_leaves_the_environment_alone(self):
        statement = (
            "import os\n"
            "before = dict(os.environ)\n"
            "from repro import minimize_cycle_time\n"
            "from repro.lp import solve_simplex\n"
            "print(dict(os.environ) == before)"
        )
        assert _child(statement, _env()) == "True"
