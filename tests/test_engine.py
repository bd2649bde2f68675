"""Tests for the batch-analysis engine (repro.engine)."""

from __future__ import annotations

import json

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.cli import main
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.core.parametric import sweep_delay
from repro.designs import example1, gaas_datapath
from repro.engine import (
    AnalyzeJob,
    BaselineJob,
    Engine,
    FaultJob,
    MinimizeJob,
    ResultCache,
    SweepJob,
    job_key,
    jobs_from_grid,
)
from repro.errors import ReproError
from repro.lang.writer import write_circuit
from repro.lp.backends import solve
from repro.lp.simplex import solve_simplex


def _two_latch_graph(reversed_order: bool):
    """The same circuit declared in two different builder orderings."""
    b = CircuitBuilder(phases=["phi1", "phi2"])
    names = ["A", "B"] if not reversed_order else ["B", "A"]
    for name in names:
        phase = "phi1" if name == "A" else "phi2"
        b.latch(name, phase=phase, setup=2, delay=3)
    paths = [("A", "B", 10.0), ("B", "A", 12.0)]
    if reversed_order:
        paths.reverse()
    for src, dst, delay in paths:
        b.path(src, dst, delay)
    return b.build()


class TestCanonicalHash:
    def test_stable_across_builder_orderings(self):
        j1 = MinimizeJob(graph=_two_latch_graph(False))
        j2 = MinimizeJob(graph=_two_latch_graph(True))
        assert job_key(j1) == job_key(j2)

    def test_distinguishes_delay_values(self):
        g = _two_latch_graph(False)
        j1 = MinimizeJob(graph=g, arc_override=("A", "B", 10.0))
        j2 = MinimizeJob(graph=g, arc_override=("A", "B", 10.0 + 1e-12))
        assert job_key(j1) != job_key(j2)

    def test_distinguishes_job_kinds_and_options(self):
        g = _two_latch_graph(False)
        minimize = MinimizeJob(graph=g)
        baseline = BaselineJob(graph=g, algorithm="mlp")
        compact_off = MinimizeJob(graph=g, mlp=MLPOptions(compact=False))
        assert len({job_key(minimize), job_key(baseline), job_key(compact_off)}) == 3

    def test_label_does_not_affect_key(self):
        g = _two_latch_graph(False)
        assert job_key(MinimizeJob(graph=g, label="x")) == job_key(
            MinimizeJob(graph=g, label="y")
        )

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ReproError):
            BaselineJob(graph=_two_latch_graph(False), algorithm="magic")


class TestCache:
    def test_hit_miss_accounting(self, ex1):
        engine = Engine(jobs=1)
        job = MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False))
        first, second = engine.run_jobs([job]), engine.run_jobs([job])
        assert not first[0].cached
        assert second[0].cached
        assert second[0].value == first[0].value
        stats = engine.cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.entries == 1

    def test_within_batch_duplicates_execute_once(self, ex1):
        engine = Engine(jobs=1)
        job = MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False))
        results = engine.run_jobs([job, job, job])
        assert [r.value for r in results] == [results[0].value] * 3
        assert [r.cached for r in results] == [False, True, True]
        assert engine.report.executed == 1

    def test_failed_results_not_cached(self):
        engine = Engine(jobs=1)
        job = FaultJob(mode="error")
        engine.run_jobs([job])
        assert len(engine.cache) == 0

    def test_lru_eviction(self, ex1):
        cache = ResultCache(max_entries=2)
        engine = Engine(jobs=1, cache=cache)
        jobs = jobs_from_grid(ex1, "L4", "L1", [1.0, 2.0, 3.0])
        engine.run_jobs(jobs)
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_disk_round_trip(self, ex1, tmp_path):
        path = str(tmp_path / "store.json")
        with Engine(jobs=1, cache_path=path) as engine:
            baseline = engine.run_jobs(
                [MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False))]
            )[0]
        assert json.load(open(path))["entries"]

        revived = Engine(jobs=1, cache_path=path)
        result = revived.run_jobs(
            [MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False))]
        )[0]
        assert result.cached
        assert result.value == baseline.value
        assert revived.cache.stats.loaded_from_disk == 1

    def test_corrupt_store_ignored(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{not json")
        cache = ResultCache(path=str(path))
        assert len(cache) == 0


class TestParallelEqualsSerial:
    GRID = [0.0, 30.0, 60.0, 90.0, 120.0]

    def _run(self, graph, src, dst, jobs):
        engine = Engine(jobs=jobs)
        results = engine.run_jobs(
            jobs_from_grid(graph, src, dst, self.GRID, mlp=MLPOptions(verify=False))
        )
        assert all(r.ok for r in results)
        return results

    def test_example1(self, ex1):
        serial = self._run(ex1, "L4", "L1", 1)
        parallel = self._run(ex1, "L4", "L1", 3)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.payload for r in serial] == [r.payload for r in parallel]

    def test_gaas(self, gaas):
        arcs = list(gaas.arcs)
        src, dst = arcs[0].src, arcs[0].dst
        grid = [0.1, 0.5, 1.0, 2.0]
        s = Engine(jobs=1).run_jobs(
            jobs_from_grid(gaas, src, dst, grid, mlp=MLPOptions(verify=False))
        )
        p = Engine(jobs=3).run_jobs(
            jobs_from_grid(gaas, src, dst, grid, mlp=MLPOptions(verify=False))
        )
        assert [r.value for r in s] == [r.value for r in p]
        assert [r.payload for r in s] == [r.payload for r in p]

    def test_mixed_job_kinds_keep_order(self, ex1):
        schedule = minimize_cycle_time(ex1).schedule
        batch = [
            MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False)),
            AnalyzeJob(graph=ex1, schedule=schedule),
            BaselineJob(graph=ex1, algorithm="nrip"),
        ]
        serial = Engine(jobs=1).run_jobs(batch)
        parallel = Engine(jobs=3).run_jobs(batch)
        assert [r.kind for r in serial] == ["minimize", "analyze", "baseline"]
        assert [(r.kind, r.value) for r in serial] == [
            (r.kind, r.value) for r in parallel
        ]


class TestAdaptiveSweep:
    def test_jobs4_matches_serial_with_fewer_solves(self, ex1):
        grid = [float(x) for x in range(0, 141, 5)]
        serial = sweep_delay(ex1, "L4", "L1", grid)

        engine = Engine(jobs=4)
        parallel = sweep_delay(ex1, "L4", "L1", grid, engine=engine)

        assert [
            (s.start, s.end, s.slope, s.intercept) for s in serial.segments
        ] == [(s.start, s.end, s.slope, s.intercept) for s in parallel.segments]
        assert [p.period for p in serial.points] == [
            p.period for p in parallel.points
        ]
        report = engine.report
        assert report.cache_hits > 0
        assert report.lp_solves < len(grid)
        # Fig. 7: flat, slope 1/2, slope 1 with breakpoints at 20 and 100.
        assert parallel.slopes == pytest.approx([0.0, 0.5, 1.0])
        assert parallel.breakpoints == pytest.approx([20.0, 100.0])

    def test_sweep_job_through_run_jobs(self, ex1):
        engine = Engine(jobs=1)
        job = SweepJob(
            graph=ex1,
            src="L4",
            dst="L1",
            grid=tuple(float(x) for x in range(0, 141, 10)),
        )
        result = engine.run_jobs([job])[0]
        assert result.ok
        assert len(result.payload["segments"]) == 3
        assert engine.run_jobs([job])[0].cached

    def test_rejects_bad_grid(self, ex1):
        with pytest.raises(ReproError):
            sweep_delay(ex1, "L4", "L1", [10.0, 10.0])
        with pytest.raises(ReproError):
            sweep_delay(ex1, "L4", "L1", [10.0])


class TestFaultHandling:
    def test_worker_crash_is_retried(self, tmp_path):
        flag = str(tmp_path / "crash-flag")
        engine = Engine(jobs=2, retries=1)
        results = engine.run_jobs(
            [
                FaultJob(mode="ok", value=1.0),
                FaultJob(mode="crash", value=2.0, crash_once_path=flag),
                FaultJob(mode="ok", value=3.0),
            ]
        )
        assert [r.value for r in results] == [1.0, 2.0, 3.0]
        assert results[1].attempts == 2
        assert engine.pool.stats.crashes == 1
        assert engine.pool.stats.retries == 1

    def test_persistent_crash_fails_after_retries(self):
        engine = Engine(jobs=2, retries=1)
        result = engine.run_jobs([FaultJob(mode="crash")])[0]
        assert not result.ok
        assert "worker crashed" in result.error
        assert result.attempts == 2

    def test_timeout_then_recovery(self, tmp_path):
        flag = str(tmp_path / "hang-flag")
        engine = Engine(jobs=2, timeout=0.5, retries=1)
        result = engine.run_jobs(
            [FaultJob(mode="hang", seconds=30.0, value=7.0, crash_once_path=flag)]
        )[0]
        assert result.ok
        assert result.value == 7.0
        assert engine.pool.stats.timeouts == 1

    def test_soft_failure_not_retried(self):
        engine = Engine(jobs=2)
        result = engine.run_jobs([FaultJob(mode="error")])[0]
        assert not result.ok
        assert "fault injection" in result.error
        assert result.attempts == 1
        assert engine.pool.stats.retries == 0


class TestMetrics:
    def test_lp_result_exposes_pivots_and_time(self, ex1):
        from repro.core.constraints import build_program

        program = build_program(ex1).program
        result = solve_simplex(program)
        assert result.pivots == result.iterations > 0
        assert result.solve_seconds > 0.0
        via_registry = solve(program)
        assert via_registry.solve_seconds > 0.0

    def test_minimize_reports_stages(self, ex1):
        result = minimize_cycle_time(ex1)
        stages = result.extra["stages"]
        for stage in ("constraint_gen", "lp_solve", "compact", "slide", "analysis"):
            assert stages[stage] >= 0.0
        assert result.extra["lp_solves"] == 2  # Tc pass + compact pass
        assert result.extra["lp_iterations"] > 0

    def test_report_aggregates(self, ex1):
        engine = Engine(jobs=1)
        engine.run_jobs(
            jobs_from_grid(
                ex1, "L4", "L1", [10.0, 20.0], mlp=MLPOptions(verify=False)
            )
        )
        report = engine.report
        assert report.jobs == 2
        assert report.executed == 2
        assert report.lp_solves == 4
        assert report.lp_iterations > 0
        assert report.stage_seconds["lp_solve"] > 0.0
        text = report.format()
        assert "LP iterations" in text
        assert "constraint_gen" in text


class TestLadder:
    def test_matches_direct_baselines(self, ex1):
        from repro.baselines import run_ladder

        rows = run_ladder(ex1)
        by_algorithm = {row.algorithm: row for row in rows}
        assert by_algorithm["mlp"].period == pytest.approx(110.0)
        assert by_algorithm["mlp"].ratio == 1.0
        assert by_algorithm["nrip"].period == pytest.approx(120.0)
        assert all(row.ratio >= 1.0 for row in rows)

    def test_parallel_ladder_matches_serial(self, ex1):
        from repro.baselines import run_ladder

        serial = run_ladder(ex1)
        parallel = run_ladder(ex1, jobs=3)
        assert [(r.algorithm, r.period) for r in serial] == [
            (r.algorithm, r.period) for r in parallel
        ]


class TestBatchCLI:
    @pytest.fixture
    def design_files(self, tmp_path):
        paths = []
        for name, delta in [("a", 40.0), ("b", 80.0)]:
            path = tmp_path / f"{name}.lcd"
            path.write_text(write_circuit(example1(delta)))
            paths.append(str(path))
        return paths

    def test_batch_files(self, design_files, capsys):
        assert main(["batch", *design_files, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Tc = 90" in out
        assert "Tc = 110" in out
        assert "LP iterations" in out
        assert "2 workers" in out

    def test_batch_manifest_and_cache(self, design_files, tmp_path, capsys):
        manifest = tmp_path / "designs.txt"
        manifest.write_text("# comment\n" + "\n".join(design_files) + "\n")
        cache = str(tmp_path / "cache.json")
        assert main(["batch", str(manifest), "--cache", cache]) == 0
        first = capsys.readouterr().out
        assert "0 from cache" in first
        assert main(["batch", str(manifest), "--cache", cache]) == 0
        second = capsys.readouterr().out
        assert "2 from cache" in second
        assert "(cached)" in second

    def test_batch_no_files_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        assert main(["batch", str(empty)]) == 2

class TestCacheKeyStability:
    """Keys without ``mlp`` match the ones earlier releases wrote to disk."""

    def test_keys_without_mlp_are_unchanged(self):
        from repro.clocking.library import two_phase_clock
        from repro.core.constraints import ConstraintOptions

        g = example1()
        keys = {
            "minimize": MinimizeJob(graph=g),
            "minimize+options": MinimizeJob(
                graph=g,
                options=ConstraintOptions(min_width=5.0),
                arc_override=("L4", "L1", 30.0),
            ),
            "sweep": SweepJob(graph=g, src="L4", dst="L1", grid=(0.0, 70.0, 140.0)),
            "analyze": AnalyzeJob(graph=g, schedule=two_phase_clock(120.0)),
        }
        assert {name: job_key(job) for name, job in keys.items()} == {
            "minimize": "73342f5b871304b9d8d9a10cf205af1e"
            "55fb8fe89c191ad01694704b0e461887",
            "minimize+options": "963c0f0d00097bebe79fd07f36915925"
            "98160af1dcc369401c844de19751d317",
            "sweep": "2c9efd20537f9e902646868a3ee3e11a"
            "7318c4eb9f39efce31a0518ecb26a704",
            "analyze": "9e26649b18a492ae9b64283961e9fcc5"
            "9a6977b47e9d7caf7d1516d4555c6ace",
        }

    def test_keys_with_mlp_moved_off_the_old_ones(self):
        # Old mlp signatures all carried a "warm_start" field; this is
        # the old key of MinimizeJob(graph=example1(), mlp=MLPOptions()).
        old = "c84bd11c8526dac92fda4ddf0c4d32c75aceee8aa1805ec074f35e3a73fdc443"
        assert job_key(MinimizeJob(graph=example1(), mlp=MLPOptions())) != old


class TestWarmStartEngine:
    """Engine guarantees that outlived the sweep's basis chains."""

    def test_hints_do_not_affect_cache_key(self, ex1):
        plain = MinimizeJob(graph=ex1, arc_override=("L4", "L1", 30.0))
        hinted = MinimizeJob(
            graph=ex1, arc_override=("L4", "L1", 30.0), kernel="dict"
        )
        assert job_key(plain) == job_key(hinted)

    def test_parallel_warm_sweep_matches_serial(self, ex1):
        grid = list(range(0, 145, 10))
        serial = sweep_delay(ex1, "L4", "L1", grid, engine=Engine(jobs=1))
        parallel = sweep_delay(ex1, "L4", "L1", grid, engine=Engine(jobs=3))
        assert [p.period for p in serial.points] == [
            p.period for p in parallel.points
        ]
        assert serial.breakpoints == parallel.breakpoints

    def test_simplex_backend_payload_has_no_basis(self, ex1):
        engine = Engine(jobs=1)
        for backend in ("simplex", "revised"):
            mlp = MLPOptions(verify=False, compact=False, backend=backend)
            result = engine.run_jobs([MinimizeJob(graph=ex1, mlp=mlp)])[0]
            assert result.ok
            assert "basis" not in result.payload


class TestCLIBackends:
    @pytest.fixture
    def ex1_file(self, tmp_path):
        path = tmp_path / "ex1.lcd"
        path.write_text(write_circuit(example1(80.0)))
        return str(path)

    def test_batch_backend_revised(self, ex1_file, capsys):
        assert main(["batch", ex1_file, "--backend", "revised"]) == 0
        out = capsys.readouterr().out
        assert "Tc = 110" in out

    def test_batch_backend_scipy_or_simplex(self, ex1_file, capsys):
        from repro.lp.backends import available_backends

        backend = "scipy" if "scipy" in available_backends() else "simplex"
        assert main(["batch", ex1_file, "--backend", backend]) == 0
        assert "Tc = 110" in capsys.readouterr().out

    def test_sweep_default_backend_warm(self, ex1_file, capsys):
        assert main(
            ["sweep", ex1_file, "L4", "L1", "--lo", "0", "--hi", "140",
             "--exact"]
        ) == 0
        out = capsys.readouterr().out
        assert "breakpoints: [20.0, 100.0]" in out

    def test_sweep_named_backends_match(self, ex1_file, capsys):
        command = ["sweep", ex1_file, "L4", "L1", "--lo", "0", "--hi", "140",
                   "--exact"]
        assert main(command) == 0
        default = capsys.readouterr().out
        assert "breakpoints: [20.0, 100.0]" in default
        for backend in ("simplex", "revised", "sparse"):
            assert main(command + ["--backend", backend]) == 0
            assert capsys.readouterr().out == default, backend
