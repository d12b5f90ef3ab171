"""CLI tests (in-process: main() takes argv and an output stream)."""

import io

import numpy as np
import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_reports_machine_and_price(self):
        code, text = run_cli("info")
        assert code == 0
        assert "peak_Gflops: 109.44" in text
        assert "GRAPE-5 processor board" in text
        assert "$40,870" in text


class TestRun:
    def test_tiny_run(self, tmp_path):
        ck = tmp_path / "ck.npz"
        fig = tmp_path / "fig4.pgm"
        code, text = run_cli("run", "--ngrid", "6", "--steps", "2",
                             "--z-final", "12",
                             "--checkpoint", str(ck),
                             "--figure4", str(fig))
        assert code == 0
        assert ck.exists() and fig.exists()
        assert fig.read_bytes().startswith(b"P5")
        assert "interactions" in text

    def test_host_backend(self):
        code, text = run_cli("run", "--ngrid", "5", "--steps", "1",
                             "--z-final", "16", "--backend", "host")
        assert code == 0
        assert "GRAPE model" in text  # column exists, shows '-'


class TestResume:
    def test_resume_continues(self, tmp_path):
        ck = tmp_path / "ck.npz"
        run_cli("run", "--ngrid", "6", "--steps", "2", "--z-final",
                "12", "--checkpoint", str(ck))
        ck2 = tmp_path / "ck2.npz"
        code, text = run_cli("resume", str(ck), "--steps", "2",
                             "--z-final", "8",
                             "--checkpoint-out", str(ck2))
        assert code == 0
        assert "resumed at" in text
        assert ck2.exists()
        from repro.sim.checkpoint import load_checkpoint
        from repro.core import DirectSummation
        sim = load_checkpoint(ck2, force=DirectSummation())
        assert len(sim.history) == 4

    def test_resume_past_target_is_noop(self, tmp_path):
        ck = tmp_path / "ck.npz"
        run_cli("run", "--ngrid", "5", "--steps", "1", "--z-final",
                "10", "--checkpoint", str(ck))
        code, text = run_cli("resume", str(ck), "--z-final", "20")
        assert code == 0
        assert "nothing to do" in text

    def test_killed_run_resumes_from_its_newest_generation(self, tmp_path):
        """A run that dies mid-schedule leaves rotated generations and
        the last-good pointer but no final file: resume and halos load
        the pointer's newest intact generation."""
        ck = tmp_path / "out.npz"
        code, _ = run_cli("run", "--ngrid", "8", "--steps", "6",
                          "--z-final", "20", "--checkpoint", str(ck),
                          "--checkpoint-every", "2", "--faults",
                          "transient_error@batch=0,sweep=5,attempt=any,"
                          "count=99", "--max-retries", "0")
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.npz.last_good", "out.s000002.npz", "out.s000004.npz"]
        code, text = run_cli("resume", str(ck), "--steps", "2",
                             "--z-final", "18")
        assert code == 0
        assert "4 steps done" in text
        code, text = run_cli("halos", str(ck))
        assert code == 0
        assert "N = 280" in text


class TestSweep:
    def test_sweep_table(self):
        code, text = run_cli("sweep", "--n", "1024")
        assert code == 0
        assert "n_crit" in text and "mean list" in text
        # four rows beyond the header
        assert len([l for l in text.splitlines() if l.strip()]) >= 6


class TestKernelsSummary:
    def test_json_summary_has_no_kernels_key(self, tmp_path):
        """There is one evaluation path, so the summary names none."""
        import json
        summary = tmp_path / "s.json"
        code, _ = run_cli("run", "--ngrid", "5", "--steps", "1",
                          "--z-final", "16",
                          "--json-summary", str(summary))
        assert code == 0
        assert "kernels" not in json.loads(summary.read_text())


class TestObservability:
    def test_profile_trace_metrics_summary(self, tmp_path):
        import json
        trace = tmp_path / "t.jsonl"
        prom = tmp_path / "m.prom"
        summary = tmp_path / "s.json"
        code, text = run_cli("run", "--ngrid", "6", "--steps", "2",
                             "--z-final", "12", "--profile",
                             "--trace", str(trace),
                             "--metrics", str(prom),
                             "--json-summary", str(summary))
        assert code == 0
        # profile table printed with distinct phases
        for phase in ("tree_build", "traverse", "eval", "grape_force",
                      "total (wall)"):
            assert phase in text
        # trace JSONL: spans plus a metrics snapshot event
        events = [json.loads(l) for l in
                  trace.read_text().splitlines()]
        kinds = {e["type"] for e in events}
        assert {"meta", "span", "metrics"} <= kinds
        spans = [e for e in events if e["type"] == "span"]
        assert {"step", "tree_build", "eval"} <= {s["name"]
                                                  for s in spans}
        # prometheus text parses and agrees with the summary
        prom_text = prom.read_text()
        assert "# TYPE repro_sim_steps_total counter" in prom_text
        s = json.loads(summary.read_text())
        assert s["schema"] == "repro.run_summary/v1"
        assert s["steps"] == 2
        assert f"repro_sim_interactions_total {s['interactions']}" \
            in prom_text
        metrics_event = [e for e in events if e["type"] == "metrics"][0]
        assert (metrics_event["metrics"]["sim.interactions_total"]
                ["value"] == s["interactions"])

    def test_profile_without_outputs(self):
        code, text = run_cli("run", "--ngrid", "5", "--steps", "1",
                             "--z-final", "16", "--profile")
        assert code == 0
        assert "total (wall)" in text

    def test_sweep_profile(self):
        code, text = run_cli("sweep", "--n", "512", "--profile")
        assert code == 0
        assert "traverse" in text

    def test_resume_with_trace(self, tmp_path):
        ck = tmp_path / "ck.npz"
        run_cli("run", "--ngrid", "5", "--steps", "1", "--z-final",
                "12", "--checkpoint", str(ck))
        trace = tmp_path / "resume.jsonl"
        code, text = run_cli("resume", str(ck), "--steps", "1",
                             "--z-final", "8", "--trace", str(trace))
        assert code == 0
        assert trace.exists() and trace.read_text().strip()

    def test_verbose_flag_accepted(self, tmp_path, capsys):
        code, _ = run_cli("-v", "info")
        assert code == 0

    def test_flightrec_dumps_engine_faults(self, tmp_path):
        import json
        fr = tmp_path / "flightrec.jsonl"
        code, text = run_cli("run", "--ngrid", "6", "--steps", "1",
                             "--z-final", "16", "--workers", "2",
                             "--faults", "transient_error@batch=0",
                             "--flightrec", str(fr))
        assert code == 0
        assert f"flight recorder dumped to {fr}" in text
        events = [json.loads(l) for l in
                  fr.read_text().splitlines()]
        assert events[0]["type"] == "flightrec_meta"
        kinds = {e.get("kind") for e in events[1:]}
        assert any(k.startswith("fault.") for k in kinds)
        assert "recovery" in kinds

    def test_batch_fault_fires_on_a_plain_run(self, tmp_path):
        """No flag selects the sharded sweep, so a batch-level plan is
        live on every run: shard 1 of the first sweep is retried."""
        prom = tmp_path / "m.prom"
        code, _ = run_cli("run", "--ngrid", "16", "--steps", "1",
                          "--z-final", "16",
                          "--faults", "transient_error@batch=1",
                          "--metrics", str(prom))
        assert code == 0
        text = prom.read_text()
        assert "repro_exec_fault_transient_errors 1" in text
        assert "repro_exec_fault_batch_retries 1" in text

    def test_device_fault_fires_at_any_worker_count(self, tmp_path):
        """The ``grape.compute`` site is consulted once per sweep on
        the submitting thread, under the backend's retry budget: a
        plan that never stops firing exhausts it (initial try + 2
        retries) and the run fails -- pool threads or not -- with
        exit 1 and a one-line message, not a traceback."""
        import json
        fr = tmp_path / "fr.jsonl"
        code, text = run_cli(
            "run", "--ngrid", "6", "--steps", "1", "--z-final", "16",
            "--workers", "2", "--max-retries", "2", "--faults",
            "transient_error@site=grape.compute,count=99",
            "--flightrec", str(fr))
        assert code == 1
        last = text.splitlines()[-1]
        assert last.startswith("run: ") and "grape.compute" in last
        events = [json.loads(l) for l in fr.read_text().splitlines()]
        fired = [e for e in events if e.get("kind") == "fault.injected"]
        assert [e["site"] for e in fired] == ["grape.compute"] * 3
        assert events[-1]["kind"] == "sweep_abort"

    @pytest.mark.parametrize("hosts", [[], ["--hosts", "2"]],
                             ids=["one_host", "two_hosts"])
    def test_exhausted_fault_budget_exits_1(self, hosts):
        """A shard fault with no retries left ends the run on exit 1
        and one ``run: ...`` line, on the plain and the cluster path."""
        code, text = run_cli("run", "--ngrid", "8", "--steps", "1",
                             "--z-final", "20", "--faults",
                             "transient_error@batch=0", "--max-retries",
                             "0", *hosts)
        assert code == 1
        assert text.splitlines()[-1].startswith(
            "run: batch 0 failed after 0 retries (transient_error)")


class TestObsVerbs:
    @pytest.fixture(scope="class")
    def pipeline_trace(self, tmp_path_factory):
        trace = tmp_path_factory.mktemp("obs") / "t.jsonl"
        code, _ = run_cli("run", "--ngrid", "6", "--steps", "2",
                          "--z-final", "12", "--workers", "2",
                          "--trace", str(trace))
        assert code == 0
        return trace

    def test_tree_renders_stitched_spans(self, pipeline_trace):
        code, text = run_cli("obs", "tree", str(pipeline_trace))
        assert code == 0
        assert "step" in text
        assert "exec.batch" in text
        assert "exec.queue_wait" in text
        code, pruned = run_cli("obs", "tree", str(pipeline_trace),
                               "--depth", "1")
        assert code == 0
        assert "exec.queue_wait" not in pruned

    def test_critical_path_partitions_wall(self, pipeline_trace):
        code, text = run_cli("obs", "critical-path",
                             str(pipeline_trace))
        assert code == 0
        assert "resource attribution" in text
        for res in ("grape", "worker", "host"):
            assert res in text
        assert "100.0%" in text
        assert "dominant chain" in text

    def test_diff_compares_two_traces(self, pipeline_trace,
                                      tmp_path):
        one = tmp_path / "one.jsonl"
        code, _ = run_cli("run", "--ngrid", "6", "--steps", "2",
                          "--z-final", "12", "--workers", "1",
                          "--trace", str(one))
        assert code == 0
        code, text = run_cli("obs", "diff", str(one),
                             str(pipeline_trace))
        assert code == 0
        assert "delta s" in text
        assert "exec.batch" in text  # pool-thread phases line up too

    def test_traceless_file_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, text = run_cli("obs", "tree", str(empty))
        assert code == 2
        assert "no span events" in text


class TestHalos:
    def test_halo_catalogue_from_checkpoint(self, tmp_path):
        # build a checkpoint with two obvious clumps
        import numpy as np
        from repro.core import DirectSummation
        from repro.sim.checkpoint import save_checkpoint
        from repro.sim.simulation import Simulation
        rng = np.random.default_rng(2)
        pos = np.concatenate([rng.normal(0, 0.4, (200, 3)),
                              rng.normal(30.0, 0.4, (150, 3))])
        sim = Simulation(pos=pos, vel=np.zeros_like(pos),
                         mass=np.full(350, 1e12), eps=0.1, G=1.0,
                         force=DirectSummation())
        ck = tmp_path / "clumps.npz"
        save_checkpoint(ck, sim)
        code, text = run_cli("halos", str(ck), "--b", "0.3")
        assert code == 0
        assert "halos = 2" in text
        assert "Press-Schechter" in text

    def test_no_halos_graceful(self, tmp_path):
        import numpy as np
        from repro.core import DirectSummation
        from repro.sim.checkpoint import save_checkpoint
        from repro.sim.simulation import Simulation
        rng = np.random.default_rng(3)
        pos = rng.uniform(-100, 100, (100, 3))
        sim = Simulation(pos=pos, vel=np.zeros_like(pos),
                         mass=np.ones(100), eps=0.1, G=1.0,
                         force=DirectSummation())
        ck = tmp_path / "field.npz"
        save_checkpoint(ck, sim)
        code, text = run_cli("halos", str(ck), "--b", "0.05")
        assert code == 0
        assert "halos = 0" in text


class TestExitCodes:
    """Every subcommand signals usage errors with exit code 2 --
    bad arguments and missing files are reported on the output
    stream, never as tracebacks (satellite of ISSUE 5)."""

    @pytest.mark.parametrize("argv", [
        ("run", "--faults", "not-a-fault-plan"),
        ("run", "--kernels", "fortran"),
        ("resume", "/nonexistent/checkpoint.npz"),
        ("sweep", "--faults", "bogus@@selector"),
        ("sweep", "--kernels", "bogus"),
        ("halos", "/nonexistent/checkpoint.npz"),
        ("serve", "--slots", "0"),
        ("submit", "-p", "missing-equals-sign"),
        ("submit", "--spec", "/nonexistent/spec.json"),
        ("jobs", "--cancel"),
        ("jobs", "--follow"),
        ("obs", "tree", "/nonexistent/trace.jsonl"),
        ("obs", "diff", "/nonexistent/a.jsonl",
         "/nonexistent/b.jsonl"),
    ], ids=lambda a: " ".join(a[:2]))
    def test_usage_errors_exit_2(self, argv, capsys):
        try:
            code, text = run_cli(*argv)
        except SystemExit as exc:
            # rejected by argparse itself (the retired --kernels flag)
            code, text = exc.code, capsys.readouterr().err
            assert "unrecognized arguments: --kernels" in text
        assert code == 2
        assert argv[0] in text            # "<command>: <reason>"
        assert "Traceback" not in text

    def test_rpc_site_plan_exits_2_naming_the_site(self):
        """``fleet.rpc`` fires only in a store client given its own
        injector; a run never reaches it, so its plan is refused."""
        code, text = run_cli("run", "--faults",
                             "transient_error@site=fleet.rpc")
        assert code == 2
        assert "'fleet.rpc'" in text

    def test_retired_process_engine_flag_and_kinds_exit_2(self, capsys):
        """``--batch-timeout`` steered hang detection of worker
        processes and ``worker_crash``/``worker_hang`` injected their
        deaths; the engine is a thread pool now, so argparse rejects
        the flag and the plan parser the kinds."""
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--batch-timeout", "1")
        assert exc.value.code == 2
        assert ("unrecognized arguments: --batch-timeout"
                in capsys.readouterr().err)
        code, text = run_cli("run", "--faults", "worker_crash@batch=1")
        assert code == 2
        assert "unknown fault kind 'worker_crash'" in text

    @pytest.mark.parametrize("argv", [
        ("run",), ("resume", "ck.npz"), ("sweep",), ("submit",),
    ], ids=lambda a: a[0])
    def test_retired_engine_flag_exits_2(self, argv, capsys):
        """There is one way to evaluate a sweep, so nothing selects
        it: ``--engine`` is gone, not aliased."""
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--engine", "pipeline")
        assert exc.value.code == 2
        assert ("unrecognized arguments: --engine"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("plan", [
        "latency@worker=1",
        '{"faults": [{"kind": "latency", "worker": 1}]}',
    ], ids=["dsl", "json"])
    def test_unknown_fault_selector_exits_2(self, plan):
        code, text = run_cli("run", "--ngrid", "5", "--steps", "1",
                             "--faults", plan)
        assert code == 2
        assert "run: unknown fault selector 'worker'" in text
        assert "Traceback" not in text

    @pytest.mark.parametrize("plan", [
        "latency@site=grape.compute", "corrupt_result@batch=0",
        "transient_error@site=grape.compte"])
    def test_fault_pair_no_hook_fires_exits_2(self, plan):
        code, text = run_cli("run", "--ngrid", "5", "--steps", "1",
                             "--faults", plan)
        assert code == 2
        assert "never fires at" in text
        assert "Traceback" not in text

    def test_retired_bench_verb_is_rejected(self, capsys):
        """``repro bench`` is gone, not aliased: wall clock is
        ``benchmarks/spine/run.py``, paper tables ``pytest benchmarks``."""
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "list")
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
